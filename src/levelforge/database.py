"""The three offline content databases: facilities, room templates, mechanics.

One JSON document holds all three sections. Loading is strict (unknown or
missing fields are schema errors, names must resolve) but does not enforce
value invariants; those are reported by `validate_database` so that callers
can inspect a broken database instead of failing fast.

All numeric parameters are SI: meters for distances, radians for angles.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from .constraints import (
    ALL_KINDS,
    FACILITY_KINDS,
    ROOM_KINDS,
    TOPO_KINDS,
    ConstraintSpec,
)
from .errors import ParseError, SchemaError, UnresolvedReferenceError
from .geometry import Dimensions, fits

SCHEMA_VERSION = 1

ARCH_TYPES = ("enclosed", "open")
POSITIONING = ("fixed", "adaptable")

_TOPO_KIND_BY_TYPE = {
    "Precedes": "precedes",
    "TopologicalNear": "topo_near",
    "TopologicalFar": "topo_far",
}
_TOPO_TYPE_BY_KIND = {v: k for k, v in _TOPO_KIND_BY_TYPE.items()}
_TOPO_THRESHOLD_KEY = {"topo_near": "d_max", "topo_far": "d_min"}


@dataclass(frozen=True)
class FixedPosition:
    """Authored pose of a fixed facility inside its room template."""

    x: float
    y: float
    yaw: float = 0.0


@dataclass(frozen=True)
class FacilityDef:
    name: str
    dims: Dimensions
    positioning: str  # "fixed" | "adaptable"
    constraints: tuple[ConstraintSpec, ...] = ()
    instance_guideline: int = 1
    tags: tuple[str, ...] = ()


@dataclass(frozen=True)
class CharacteristicFacility:
    facility: str
    count: int = 1
    positions: tuple[FixedPosition, ...] = ()


@dataclass(frozen=True)
class RoomTemplate:
    name: str
    dims: Dimensions
    characteristic_facilities: tuple[CharacteristicFacility, ...] = ()
    max_instances: int = 1
    arch_type: str = "enclosed"
    room_constraints: tuple[ConstraintSpec, ...] = ()


@dataclass(frozen=True)
class TopoConstraint:
    """Topological-order rule between two mechanics.

    `threshold` is the step budget (max for topo_near, min for topo_far);
    `strength` scales the rule relative to its category weight.
    """

    kind: str  # "precedes" | "topo_near" | "topo_far"
    other: str
    threshold: int | None = None
    strength: float = 1.0


@dataclass(frozen=True)
class MechanicDef:
    name: str
    dims: Dimensions
    standard_constraints: tuple[ConstraintSpec, ...] = ()
    topo_constraints: tuple[TopoConstraint, ...] = ()


@dataclass(frozen=True)
class Database:
    facilities: tuple[FacilityDef, ...] = ()
    rooms: tuple[RoomTemplate, ...] = ()
    mechanics: tuple[MechanicDef, ...] = ()

    def facility(self, name: str) -> FacilityDef | None:
        for f in self.facilities:
            if f.name == name:
                return f
        return None

    def room(self, name: str) -> RoomTemplate | None:
        for r in self.rooms:
            if r.name == name:
                return r
        return None

    def mechanic(self, name: str) -> MechanicDef | None:
        for m in self.mechanics:
            if m.name == name:
                return m
        return None


@dataclass(frozen=True)
class Violation:
    entity: str
    rule: str
    message: str


# -- strict JSON helpers -----------------------------------------------------

def _require_object(value, where: str) -> Mapping:
    if not isinstance(value, dict):
        raise SchemaError(f"{where}: expected an object, got {type(value).__name__}")
    return value


def _require_array(value, where: str) -> Sequence:
    if not isinstance(value, list):
        raise SchemaError(f"{where}: expected an array, got {type(value).__name__}")
    return value


def _take(obj: Mapping, where: str, required: Sequence[str], optional: Sequence[str]) -> dict:
    extra = set(obj) - set(required) - set(optional)
    if extra:
        raise SchemaError(f"{where}: unknown field(s) {sorted(extra)}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise SchemaError(f"{where}: missing field(s) {missing}")
    return dict(obj)


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{where}: expected a number")
    return float(value)


def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{where}: expected an integer")
    return value


def _string(value, where: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(f"{where}: expected a string")
    return value


def _parse_dimensions(obj, where: str) -> Dimensions:
    data = _take(_require_object(obj, where), where, ("width", "length", "height"), ())
    return Dimensions(
        _number(data["width"], f"{where}.width"),
        _number(data["length"], f"{where}.length"),
        _number(data["height"], f"{where}.height"),
    )


def _parse_constraint(obj, where: str) -> ConstraintSpec:
    data = _take(_require_object(obj, where), where, ("type",), ("parameters", "weight"))
    kind = _string(data["type"], f"{where}.type")
    if kind not in ALL_KINDS:
        raise SchemaError(f"{where}: unknown constraint type {kind!r}")
    params = dict(_require_object(data.get("parameters", {}), f"{where}.parameters"))
    weight = None
    if "weight" in data:
        weight = _number(data["weight"], f"{where}.weight")
    return ConstraintSpec(kind=kind, params=params, weight=weight)


def _parse_topo(obj, where: str) -> TopoConstraint:
    data = _take(_require_object(obj, where), where, ("type",), ("parameters",))
    kind_name = _string(data["type"], f"{where}.type")
    if kind_name not in TOPO_KINDS:
        raise SchemaError(f"{where}: {kind_name!r} is not a topological constraint")
    kind = _TOPO_KIND_BY_TYPE[kind_name]
    params = dict(_require_object(data.get("parameters", {}), f"{where}.parameters"))
    allowed = {"other", "strength"}
    threshold = None
    key = _TOPO_THRESHOLD_KEY.get(kind)
    if key is not None:
        allowed.add(key)
        if key not in params:
            raise SchemaError(f"{where}.parameters: missing {key!r}")
        threshold = _integer(params[key], f"{where}.parameters.{key}")
    extra = set(params) - allowed
    if extra:
        raise SchemaError(f"{where}.parameters: unknown field(s) {sorted(extra)}")
    if "other" not in params:
        raise SchemaError(f"{where}.parameters: missing 'other'")
    strength = float(params.get("strength", 1.0))
    return TopoConstraint(
        kind=kind,
        other=_string(params["other"], f"{where}.parameters.other"),
        threshold=threshold,
        strength=strength,
    )


def _parse_facility(obj, index: int) -> FacilityDef:
    where = f"facilities[{index}]"
    data = _take(
        _require_object(obj, where),
        where,
        ("name", "dimensions", "positioning"),
        ("constraints", "instance_guideline", "tags"),
    )
    positioning = _string(data["positioning"], f"{where}.positioning")
    if positioning not in POSITIONING:
        raise SchemaError(f"{where}.positioning: expected one of {POSITIONING}")
    constraints = tuple(
        _parse_constraint(c, f"{where}.constraints[{i}]")
        for i, c in enumerate(_require_array(data.get("constraints", []), f"{where}.constraints"))
    )
    tags = tuple(
        _string(t, f"{where}.tags[{i}]")
        for i, t in enumerate(_require_array(data.get("tags", []), f"{where}.tags"))
    )
    return FacilityDef(
        name=_string(data["name"], f"{where}.name"),
        dims=_parse_dimensions(data["dimensions"], f"{where}.dimensions"),
        positioning=positioning,
        constraints=constraints,
        instance_guideline=_integer(data.get("instance_guideline", 1), f"{where}.instance_guideline"),
        tags=tags,
    )


def _parse_fixed_position(obj, where: str) -> FixedPosition:
    data = _take(_require_object(obj, where), where, ("x", "y"), ("yaw",))
    return FixedPosition(
        x=_number(data["x"], f"{where}.x"),
        y=_number(data["y"], f"{where}.y"),
        yaw=_number(data.get("yaw", 0.0), f"{where}.yaw"),
    )


def _parse_room(obj, index: int) -> RoomTemplate:
    where = f"rooms[{index}]"
    data = _take(
        _require_object(obj, where),
        where,
        ("name", "dimensions"),
        ("characteristic_facilities", "max_instances", "arch_type", "constraints"),
    )
    char = []
    for i, c in enumerate(
        _require_array(data.get("characteristic_facilities", []), f"{where}.characteristic_facilities")
    ):
        cw = f"{where}.characteristic_facilities[{i}]"
        cdata = _take(_require_object(c, cw), cw, ("facility",), ("count", "positions"))
        positions = tuple(
            _parse_fixed_position(p, f"{cw}.positions[{j}]")
            for j, p in enumerate(_require_array(cdata.get("positions", []), f"{cw}.positions"))
        )
        char.append(
            CharacteristicFacility(
                facility=_string(cdata["facility"], f"{cw}.facility"),
                count=_integer(cdata.get("count", 1), f"{cw}.count"),
                positions=positions,
            )
        )

    max_instances = _integer(data.get("max_instances", 1), f"{where}.max_instances")
    arch_type = _string(data.get("arch_type", "enclosed"), f"{where}.arch_type")
    room_constraints = []
    for i, c in enumerate(_require_array(data.get("constraints", []), f"{where}.constraints")):
        spec = _parse_constraint(c, f"{where}.constraints[{i}]")
        # Structural rows configure the template instead of being scored.
        if spec.kind == "MaxInstances":
            max_instances = _integer(spec.params.get("count"), f"{where}.constraints[{i}].parameters.count")
        elif spec.kind == "SetType":
            arch_type = _string(spec.params.get("type"), f"{where}.constraints[{i}].parameters.type")
        else:
            room_constraints.append(spec)
    if arch_type not in ARCH_TYPES:
        raise SchemaError(f"{where}.arch_type: expected one of {ARCH_TYPES}")

    return RoomTemplate(
        name=_string(data["name"], f"{where}.name"),
        dims=_parse_dimensions(data["dimensions"], f"{where}.dimensions"),
        characteristic_facilities=tuple(char),
        max_instances=max_instances,
        arch_type=arch_type,
        room_constraints=tuple(room_constraints),
    )


def _parse_mechanic(obj, index: int) -> MechanicDef:
    where = f"mechanics[{index}]"
    data = _take(
        _require_object(obj, where),
        where,
        ("name", "dimensions"),
        ("standard_constraints", "topo_constraints"),
    )
    standard = tuple(
        _parse_constraint(c, f"{where}.standard_constraints[{i}]")
        for i, c in enumerate(
            _require_array(data.get("standard_constraints", []), f"{where}.standard_constraints")
        )
    )
    topo = tuple(
        _parse_topo(c, f"{where}.topo_constraints[{i}]")
        for i, c in enumerate(
            _require_array(data.get("topo_constraints", []), f"{where}.topo_constraints")
        )
    )
    return MechanicDef(
        name=_string(data["name"], f"{where}.name"),
        dims=_parse_dimensions(data["dimensions"], f"{where}.dimensions"),
        standard_constraints=standard,
        topo_constraints=topo,
    )


def _unresolved_references(db: Database) -> Iterator[Violation]:
    """Every name the database uses that no definition of its kind
    carries, in document order."""
    facility_names = {f.name for f in db.facilities}
    room_names = {r.name for r in db.rooms}
    mechanic_names = {m.name for m in db.mechanics}

    def targets(entity: str, specs, known: set[str], kind: str) -> Iterator[Violation]:
        for spec in specs:
            t = spec.params.get("target")
            if isinstance(t, str) and t not in known:
                yield Violation(
                    entity, "unresolved-target", f"constraint target {t!r} is not a known {kind}"
                )

    for f in db.facilities:
        yield from targets(f.name, f.constraints, facility_names, "facility")
    for r in db.rooms:
        for cf in r.characteristic_facilities:
            if cf.facility not in facility_names:
                yield Violation(
                    r.name,
                    "unresolved-facility",
                    f"characteristic facility {cf.facility!r} is not a known facility",
                )
        yield from targets(r.name, r.room_constraints, room_names, "room template")
    for m in db.mechanics:
        yield from targets(m.name, m.standard_constraints, facility_names, "facility")
        for tc in m.topo_constraints:
            if tc.other not in mechanic_names:
                yield Violation(
                    m.name,
                    "unresolved-mechanic",
                    f"topological reference {tc.other!r} is not a known mechanic",
                )


def load_database(data: bytes | str) -> Database:
    """Parse and cross-link a database document.

    Raises ParseError for malformed JSON, SchemaError for structural
    problems and UnresolvedReferenceError for dangling names. Value
    invariants (positive dims, unique names, ...) are left to
    `validate_database`.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    root = _take(
        _require_object(doc, "document"),
        "document",
        ("facilities", "rooms", "mechanics"),
        ("schema_version",),
    )
    db = Database(
        facilities=tuple(
            _parse_facility(f, i)
            for i, f in enumerate(_require_array(root["facilities"], "facilities"))
        ),
        rooms=tuple(
            _parse_room(r, i) for i, r in enumerate(_require_array(root["rooms"], "rooms"))
        ),
        mechanics=tuple(
            _parse_mechanic(m, i)
            for i, m in enumerate(_require_array(root["mechanics"], "mechanics"))
        ),
    )
    for v in _unresolved_references(db):
        raise UnresolvedReferenceError(f"{v.entity}: {v.message}")
    return db


# -- canonical serialization --------------------------------------------------

def _constraint_to_json(spec: ConstraintSpec) -> dict:
    out: dict = {"type": spec.kind}
    if spec.params:
        out["parameters"] = {k: spec.params[k] for k in sorted(spec.params)}
    if spec.weight is not None:
        out["weight"] = spec.weight
    return out


def _topo_to_json(tc: TopoConstraint) -> dict:
    params: dict = {"other": tc.other}
    key = _TOPO_THRESHOLD_KEY.get(tc.kind)
    if key is not None:
        params[key] = tc.threshold
    if tc.strength != 1.0:
        params["strength"] = tc.strength
    return {"type": _TOPO_TYPE_BY_KIND[tc.kind], "parameters": params}


def _dims_to_json(d: Dimensions) -> dict:
    return {"width": d.width, "length": d.length, "height": d.height}


def save_database(db: Database) -> bytes:
    """Serialize to the byte-normalized document form (stable key order)."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "facilities": [
            {
                "name": f.name,
                "dimensions": _dims_to_json(f.dims),
                "positioning": f.positioning,
                "constraints": [_constraint_to_json(c) for c in f.constraints],
                "instance_guideline": f.instance_guideline,
                "tags": list(f.tags),
            }
            for f in db.facilities
        ],
        "rooms": [
            {
                "name": r.name,
                "dimensions": _dims_to_json(r.dims),
                "characteristic_facilities": [
                    {
                        "facility": cf.facility,
                        "count": cf.count,
                        **(
                            {
                                "positions": [
                                    {"x": p.x, "y": p.y, "yaw": p.yaw} for p in cf.positions
                                ]
                            }
                            if cf.positions
                            else {}
                        ),
                    }
                    for cf in r.characteristic_facilities
                ],
                "max_instances": r.max_instances,
                "arch_type": r.arch_type,
                "constraints": [_constraint_to_json(c) for c in r.room_constraints],
            }
            for r in db.rooms
        ],
        "mechanics": [
            {
                "name": m.name,
                "dimensions": _dims_to_json(m.dims),
                "standard_constraints": [_constraint_to_json(c) for c in m.standard_constraints],
                "topo_constraints": [_topo_to_json(tc) for tc in m.topo_constraints],
            }
            for m in db.mechanics
        ],
    }
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


# -- validation ----------------------------------------------------------------

def _check_dims(entity: str, dims: Dimensions, out: list[Violation]) -> None:
    if not dims.is_valid():
        out.append(
            Violation(
                entity,
                "dimensions-positive",
                f"all dimensions must be strictly positive and finite, got "
                f"({dims.width}, {dims.length}, {dims.height})",
            )
        )


def _check_constraint_weights(entity: str, specs, out: list[Violation]) -> None:
    for spec in specs:
        if spec.weight is not None and spec.weight < 0:
            out.append(
                Violation(entity, "weight-non-negative", f"{spec.kind} weight {spec.weight} < 0")
            )


def _check_unique(kind: str, names: list[str], out: list[Violation]) -> None:
    seen: set[str] = set()
    for name in names:
        if name in seen:
            out.append(
                Violation(name, "name-unique", f"{kind} name {name!r} appears more than once")
            )
        seen.add(name)


def validate_database(db: Database) -> list[Violation]:
    """Check every type invariant; violations are data, not exceptions."""
    out = list(_unresolved_references(db))
    _check_unique("facility", [f.name for f in db.facilities], out)
    _check_unique("room", [r.name for r in db.rooms], out)
    _check_unique("mechanic", [m.name for m in db.mechanics], out)

    for f in db.facilities:
        _check_dims(f.name, f.dims, out)
        if f.instance_guideline < 1:
            out.append(
                Violation(f.name, "instance-guideline", f"guideline {f.instance_guideline} < 1")
            )
        for spec in f.constraints:
            if spec.kind not in FACILITY_KINDS:
                out.append(
                    Violation(f.name, "constraint-tier", f"{spec.kind} is not facility-tier")
                )
        _check_constraint_weights(f.name, f.constraints, out)

    for r in db.rooms:
        _check_dims(r.name, r.dims, out)
        if r.max_instances < 1:
            out.append(Violation(r.name, "max-instances", f"max_instances {r.max_instances} < 1"))
        if r.arch_type not in ARCH_TYPES:
            out.append(Violation(r.name, "arch-type", f"unknown arch_type {r.arch_type!r}"))
        for cf in r.characteristic_facilities:
            fac = db.facility(cf.facility)
            if fac is None:
                continue  # reported as unresolved
            if cf.count < 1:
                out.append(Violation(r.name, "facility-count", f"{cf.facility}: count {cf.count} < 1"))
            if not fits(fac.dims, r.dims):
                out.append(
                    Violation(
                        r.name,
                        "facility-fits",
                        f"{cf.facility} footprint does not fit inside the room",
                    )
                )
            if fac.positioning == "fixed":
                if len(cf.positions) != cf.count:
                    out.append(
                        Violation(
                            r.name,
                            "fixed-positions",
                            f"{cf.facility}: fixed facility needs {cf.count} authored "
                            f"position(s), got {len(cf.positions)}",
                        )
                    )
            elif cf.positions:
                out.append(
                    Violation(
                        r.name,
                        "fixed-positions",
                        f"{cf.facility}: adaptable facility must not carry positions",
                    )
                )
        for spec in r.room_constraints:
            if spec.kind not in ROOM_KINDS:
                out.append(Violation(r.name, "constraint-tier", f"{spec.kind} is not room-tier"))
        _check_constraint_weights(r.name, r.room_constraints, out)

    for m in db.mechanics:
        _check_dims(m.name, m.dims, out)
        for spec in m.standard_constraints:
            if spec.kind not in FACILITY_KINDS:
                out.append(
                    Violation(m.name, "constraint-tier", f"{spec.kind} is not facility-tier")
                )
        _check_constraint_weights(m.name, m.standard_constraints, out)
        for tc in m.topo_constraints:
            if tc.threshold is not None and tc.threshold < 0:
                out.append(Violation(m.name, "threshold", f"{tc.kind} threshold {tc.threshold} < 0"))

    out.sort(key=lambda v: (v.entity, v.rule, v.message))
    return out
