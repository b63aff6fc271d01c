"""The three offline content databases: facilities, room templates, mechanics.

One JSON document holds all three sections. Reading is strict: unknown or
missing fields are schema errors. One rule pass then checks the entities,
and it has two modes. `load_database` enforces the reference rules (every
name resolves) and raises on the first dangling name; `validate_database`
lists every violation, value rules included (positive dims, unique names,
...), so that callers can inspect a broken database instead of failing fast.

All numeric parameters are SI: meters for distances, radians for angles.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

from .constraints import (
    ALL_KINDS,
    FACILITY_KINDS,
    ROOM_KINDS,
    STRUCTURAL_KINDS,
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
        return next((f for f in self.facilities if f.name == name), None)

    def room(self, name: str) -> RoomTemplate | None:
        return next((r for r in self.rooms if r.name == name), None)

    def mechanic(self, name: str) -> MechanicDef | None:
        return next((m for m in self.mechanics if m.name == name), None)


@dataclass(frozen=True)
class Violation:
    entity: str
    rule: str
    message: str


# -- strict JSON helpers -----------------------------------------------------

def read_json(data: bytes | str):
    """The JSON value `data` holds; ParseError unless it is UTF-8 JSON."""
    try:
        return json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except UnicodeDecodeError as exc:
        raise ParseError(f"invalid UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc


def write_json(doc) -> bytes:
    """The byte-normalized form of `doc`: two-space indent, final newline."""
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def _require_object(value, where: str) -> Mapping:
    if not isinstance(value, dict):
        raise SchemaError(f"{where}: expected an object, got {type(value).__name__}")
    return value


def _take(obj: Mapping, where: str, required: Sequence[str], optional: Sequence[str]) -> dict:
    extra = set(obj) - set(required) - set(optional)
    if extra:
        raise SchemaError(f"{where}: unknown field(s) {sorted(extra)}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise SchemaError(f"{where}: missing field(s) {missing}")
    return dict(obj)


def _array(obj: Mapping, key: str, where: str, parse: Callable[[object, str], object]) -> tuple:
    """Array field `key` of `obj` (absent is empty), each item parsed at its path."""
    path = f"{where}.{key}" if where else key
    items = obj.get(key, [])
    if not isinstance(items, list):
        raise SchemaError(f"{path}: expected an array, got {type(items).__name__}")
    return tuple(parse(item, f"{path}[{i}]") for i, item in enumerate(items))


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
    strength = _number(params.get("strength", 1.0), f"{where}.parameters.strength")
    return TopoConstraint(
        kind=kind,
        other=_string(params["other"], f"{where}.parameters.other"),
        threshold=threshold,
        strength=strength,
    )


def _parse_facility(obj, where: str) -> FacilityDef:
    data = _take(
        _require_object(obj, where),
        where,
        ("name", "dimensions", "positioning"),
        ("constraints", "instance_guideline", "tags"),
    )
    positioning = _string(data["positioning"], f"{where}.positioning")
    if positioning not in POSITIONING:
        raise SchemaError(f"{where}.positioning: expected one of {POSITIONING}")
    constraints = _array(data, "constraints", where, _parse_constraint)
    tags = _array(data, "tags", where, _string)
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


def _parse_characteristic(obj, where: str) -> CharacteristicFacility:
    data = _take(_require_object(obj, where), where, ("facility",), ("count", "positions"))
    positions = _array(data, "positions", where, _parse_fixed_position)
    return CharacteristicFacility(
        facility=_string(data["facility"], f"{where}.facility"),
        count=_integer(data.get("count", 1), f"{where}.count"),
        positions=positions,
    )


def _parse_room(obj, where: str) -> RoomTemplate:
    data = _take(
        _require_object(obj, where),
        where,
        ("name", "dimensions"),
        ("characteristic_facilities", "max_instances", "arch_type", "constraints"),
    )
    char = _array(data, "characteristic_facilities", where, _parse_characteristic)
    max_instances = _integer(data.get("max_instances", 1), f"{where}.max_instances")
    arch_type = _string(data.get("arch_type", "enclosed"), f"{where}.arch_type")

    def parse_constraint(obj, cwhere: str) -> ConstraintSpec:
        nonlocal max_instances, arch_type
        spec = _parse_constraint(obj, cwhere)
        # Structural rows configure the template instead of being scored.
        if spec.kind == "MaxInstances":
            max_instances = _integer(spec.params.get("count"), f"{cwhere}.parameters.count")
        elif spec.kind == "SetType":
            arch_type = _string(spec.params.get("type"), f"{cwhere}.parameters.type")
        return spec

    constraints = _array(data, "constraints", where, parse_constraint)
    if arch_type not in ARCH_TYPES:
        raise SchemaError(f"{where}.arch_type: expected one of {ARCH_TYPES}")
    return RoomTemplate(
        name=_string(data["name"], f"{where}.name"),
        dims=_parse_dimensions(data["dimensions"], f"{where}.dimensions"),
        characteristic_facilities=char,
        max_instances=max_instances,
        arch_type=arch_type,
        room_constraints=tuple(c for c in constraints if c.kind not in STRUCTURAL_KINDS),
    )


def _parse_mechanic(obj, where: str) -> MechanicDef:
    data = _take(
        _require_object(obj, where),
        where,
        ("name", "dimensions"),
        ("standard_constraints", "topo_constraints"),
    )
    standard = _array(data, "standard_constraints", where, _parse_constraint)
    topo = _array(data, "topo_constraints", where, _parse_topo)
    return MechanicDef(
        name=_string(data["name"], f"{where}.name"),
        dims=_parse_dimensions(data["dimensions"], f"{where}.dimensions"),
        standard_constraints=standard,
        topo_constraints=topo,
    )


# -- rules ---------------------------------------------------------------------

_REFERENCE_RULES = frozenset({"unresolved-target", "unresolved-facility", "unresolved-mechanic"})

# constraint tier -> (kinds it admits, what its targets name)
_TIERS = {"facility": (FACILITY_KINDS, "facility"), "room": (ROOM_KINDS, "room template")}


def _violations(db: Database) -> Iterator[Violation]:
    """Every broken rule, entity by entity in document order. Within an
    entity, names are checked in the order the document gives them, so the
    first reference violation is the first dangling name."""
    facilities: dict[str, FacilityDef] = {}
    for f in reversed(db.facilities):
        facilities[f.name] = f  # the first definition wins, as in Database.facility
    targets = {"facility": facilities.keys(), "room": {r.name for r in db.rooms}}
    mechanics = {m.name for m in db.mechanics}
    seen: dict[str, set[str]] = {"facility": set(), "room": set(), "mechanic": set()}

    def shared(kind: str, entity, specs, tier: str) -> Iterator[Violation]:
        """The rules every facility, room and mechanic keeps."""
        name, dims = entity.name, entity.dims
        if name in seen[kind]:
            yield Violation(name, "name-unique", f"{kind} name {name!r} appears more than once")
        seen[kind].add(name)
        if not dims.is_valid():
            yield Violation(
                name,
                "dimensions-positive",
                f"all dimensions must be strictly positive and finite, got "
                f"({dims.width}, {dims.length}, {dims.height})",
            )
        kinds, target_kind = _TIERS[tier]
        for spec in specs:
            t = spec.params.get("target")
            if isinstance(t, str) and t not in targets[tier]:
                yield Violation(
                    name, "unresolved-target", f"constraint target {t!r} is not a known {target_kind}"
                )
            if spec.kind not in kinds:
                yield Violation(name, "constraint-tier", f"{spec.kind} is not {tier}-tier")
            if spec.weight is not None and spec.weight < 0:
                yield Violation(name, "weight-non-negative", f"{spec.kind} weight {spec.weight} < 0")

    for f in db.facilities:
        yield from shared("facility", f, f.constraints, "facility")
        if f.instance_guideline < 1:
            yield Violation(f.name, "instance-guideline", f"guideline {f.instance_guideline} < 1")

    for r in db.rooms:
        # a room names its characteristic facilities before its constraints
        for cf in r.characteristic_facilities:
            fac = facilities.get(cf.facility)
            if fac is None:
                yield Violation(
                    r.name,
                    "unresolved-facility",
                    f"characteristic facility {cf.facility!r} is not a known facility",
                )
                continue
            if cf.count < 1:
                yield Violation(r.name, "facility-count", f"{cf.facility}: count {cf.count} < 1")
            if not fits(fac.dims, r.dims):
                yield Violation(
                    r.name, "facility-fits", f"{cf.facility} footprint does not fit inside the room"
                )
            if fac.positioning == "fixed":
                if len(cf.positions) != cf.count:
                    yield Violation(
                        r.name,
                        "fixed-positions",
                        f"{cf.facility}: fixed facility needs {cf.count} authored "
                        f"position(s), got {len(cf.positions)}",
                    )
            elif cf.positions:
                yield Violation(
                    r.name,
                    "fixed-positions",
                    f"{cf.facility}: adaptable facility must not carry positions",
                )
        yield from shared("room", r, r.room_constraints, "room")
        if r.max_instances < 1:
            yield Violation(r.name, "max-instances", f"max_instances {r.max_instances} < 1")
        if r.arch_type not in ARCH_TYPES:
            yield Violation(r.name, "arch-type", f"unknown arch_type {r.arch_type!r}")

    for m in db.mechanics:
        yield from shared("mechanic", m, m.standard_constraints, "facility")
        for tc in m.topo_constraints:
            if tc.other not in mechanics:
                yield Violation(
                    m.name,
                    "unresolved-mechanic",
                    f"topological reference {tc.other!r} is not a known mechanic",
                )
            if tc.threshold is not None and tc.threshold < 0:
                yield Violation(m.name, "threshold", f"{tc.kind} threshold {tc.threshold} < 0")


def load_database(data: bytes | str) -> Database:
    """Parse and cross-link a database document.

    Raises ParseError for bytes that are not UTF-8 JSON, SchemaError for
    structural problems and UnresolvedReferenceError for the first dangling
    name. The value rules (positive dims, unique names, ...) run in the same
    pass but only `validate_database` reports them.
    """
    root = _take(
        _require_object(read_json(data), "document"),
        "document",
        ("facilities", "rooms", "mechanics"),
        ("schema_version",),
    )
    db = Database(
        facilities=_array(root, "facilities", "", _parse_facility),
        rooms=_array(root, "rooms", "", _parse_room),
        mechanics=_array(root, "mechanics", "", _parse_mechanic),
    )
    for v in _violations(db):
        if v.rule in _REFERENCE_RULES:
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


def _characteristic_to_json(cf: CharacteristicFacility) -> dict:
    out: dict = {"facility": cf.facility, "count": cf.count}
    if cf.positions:
        out["positions"] = [{"x": p.x, "y": p.y, "yaw": p.yaw} for p in cf.positions]
    return out


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
                    _characteristic_to_json(cf) for cf in r.characteristic_facilities
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
    return write_json(doc)


def validate_database(db: Database) -> list[Violation]:
    """Every rule the database breaks, sorted; violations are data, not exceptions."""
    return sorted(_violations(db), key=lambda v: (v.entity, v.rule, v.message))
