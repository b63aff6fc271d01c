"""Minimal VMF reader used as a structural test oracle.

Parses the KeyValues-with-braces syntax, counts brushes and entities, and
verifies every solid is a closed, convex, axis-aligned box with six
outward-winding planes. Hammer itself cannot run in CI; this reader
stands in for the editor load check.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from levelforge.errors import ParseError


@dataclass
class Block:
    name: str
    props: dict[str, str] = field(default_factory=dict)
    children: list["Block"] = field(default_factory=list)

    def find_all(self, name: str) -> list["Block"]:
        return [c for c in self.children if c.name == name]


_KV_RE = re.compile(r'^"([^"]*)"\s+"([^"]*)"$')


def parse_vmf(text: str | bytes) -> list[Block]:
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    root = Block("<root>")
    stack = [root]
    pending_name: str | None = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("//"):
            continue
        if line == "{":
            if pending_name is None:
                raise ParseError(f"line {lineno}: unexpected '{{'")
            block = Block(pending_name)
            stack[-1].children.append(block)
            stack.append(block)
            pending_name = None
        elif line == "}":
            if pending_name is not None or len(stack) == 1:
                raise ParseError(f"line {lineno}: unexpected '}}'")
            stack.pop()
        else:
            m = _KV_RE.match(line)
            if m:
                stack[-1].props[m.group(1)] = m.group(2)
            elif re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", line):
                if pending_name is not None:
                    raise ParseError(f"line {lineno}: dangling block name")
                pending_name = line
            else:
                raise ParseError(f"line {lineno}: cannot parse {line!r}")
    if len(stack) != 1 or pending_name is not None:
        raise ParseError("unbalanced braces at end of input")
    return root.children


_PLANE_RE = re.compile(
    r"\(([^)]*)\)\s*\(([^)]*)\)\s*\(([^)]*)\)"
)


def _parse_plane(text: str) -> list[tuple[float, float, float]]:
    m = _PLANE_RE.fullmatch(text.strip())
    if not m:
        raise ParseError(f"bad plane {text!r}")
    points = []
    for group in m.groups():
        parts = group.split()
        if len(parts) != 3:
            raise ParseError(f"bad plane point {group!r}")
        points.append(tuple(float(p) for p in parts))
    return points


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


@dataclass(frozen=True)
class SolidBox:
    lo: tuple[float, float, float]
    hi: tuple[float, float, float]


def check_solid(solid: Block) -> SolidBox:
    """Verify a solid is a closed axis-aligned box with outward planes."""
    sides = solid.find_all("side")
    if len(sides) != 6:
        raise ParseError(f"solid {solid.props.get('id')}: {len(sides)} sides, expected 6")
    corners: list[tuple[float, float, float]] = []
    normals = []
    planes = []
    for side in sides:
        pts = _parse_plane(side.props["plane"])
        normal = _cross(_sub(pts[1], pts[0]), _sub(pts[2], pts[0]))
        nonzero = [i for i, v in enumerate(normal) if abs(v) > 1e-9]
        if len(nonzero) != 1:
            raise ParseError(
                f"solid {solid.props.get('id')}: plane normal {normal} not axis-aligned"
            )
        axis = nonzero[0]
        sign = 1 if normal[axis] > 0 else -1
        offset = pts[0][axis]
        if any(abs(p[axis] - offset) > 1e-6 for p in pts):
            raise ParseError(f"solid {solid.props.get('id')}: points not coplanar")
        normals.append((axis, sign))
        planes.append((axis, sign, offset))
        corners.extend(pts)

    if sorted(normals) != [(0, -1), (0, 1), (1, -1), (1, 1), (2, -1), (2, 1)]:
        raise ParseError(
            f"solid {solid.props.get('id')}: face normals {sorted(normals)} do not close a box"
        )
    lo = [0.0, 0.0, 0.0]
    hi = [0.0, 0.0, 0.0]
    for axis, sign, offset in planes:
        if sign > 0:
            hi[axis] = offset
        else:
            lo[axis] = offset
    for axis in range(3):
        if not hi[axis] > lo[axis]:
            raise ParseError(
                f"solid {solid.props.get('id')}: degenerate extent on axis {axis}"
            )
    # outward check: each +axis plane must sit above the box midpoint
    mid = [(lo[i] + hi[i]) / 2.0 for i in range(3)]
    for axis, sign, offset in planes:
        if sign > 0 and offset < mid[axis]:
            raise ParseError(f"solid {solid.props.get('id')}: +{axis} plane winds inward")
        if sign < 0 and offset > mid[axis]:
            raise ParseError(f"solid {solid.props.get('id')}: -{axis} plane winds inward")
    return SolidBox(tuple(lo), tuple(hi))


@dataclass(frozen=True)
class VmfSummary:
    brush_count: int
    entity_count: int
    boxes: tuple[SolidBox, ...]
    entity_origins: tuple[tuple[float, float, float], ...]


def read_vmf(text: str | bytes) -> VmfSummary:
    """Parse and structurally validate a VMF document."""
    blocks = parse_vmf(text)
    names = [b.name for b in blocks]
    if "versioninfo" not in names or "world" not in names:
        raise ParseError("missing versioninfo or world block")
    world = blocks[names.index("world")]
    if world.props.get("classname") != "worldspawn":
        raise ParseError("world block is not worldspawn")
    boxes = tuple(check_solid(s) for s in world.find_all("solid"))
    origins = []
    entities = [b for b in blocks if b.name == "entity"]
    for ent in entities:
        parts = ent.props.get("origin", "").split()
        if len(parts) != 3:
            raise ParseError(f"entity {ent.props.get('id')}: bad origin")
        origins.append(tuple(float(p) for p in parts))
    return VmfSummary(
        brush_count=len(boxes),
        entity_count=len(entities),
        boxes=boxes,
        entity_origins=tuple(origins),
    )
