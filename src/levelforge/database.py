"""The three offline content databases: facilities, room templates, mechanics.

One JSON document holds all three sections. Reading is strict: unknown or
missing fields are schema errors. One rule pass then checks the entities,
and it has two modes. `load_database` enforces the reference rules (every
name resolves) and raises on the first dangling name; `validate_database`
lists every violation, value rules included (positive dims, unique names,
fixed positions inside their rooms, the pacing keys the groups place, ...),
so that callers can inspect a broken database instead of failing fast.

All numeric parameters are SI: meters for distances, radians for angles.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

from .constraints import (
    ARCH_TYPES,
    FACILITY_KINDS,
    PARAMETERS,
    ROOM_KINDS,
    STRUCTURAL_KINDS,
    TOPO_TYPES,
    ConstraintSpec,
)
from .errors import ParseError, SchemaError, UnresolvedReferenceError
from .geometry import (
    Dimensions,
    Pose,
    fits,
    is_finite,
    is_float,
    is_integer,
    is_number,
    out_of_bounds_depth,
)
from .level import TopoRule

SCHEMA_VERSION = 1

POSITIONING = ("fixed", "adaptable")

# Pacing strategy -> (key definition, keys per floor), for both the
# algorithmic (A-) and database-driven (DB-) group families.
PACING_KEYS = {
    "baseline": ("FloorKey", 1),
    "exploration": ("KeyFragment", 3),
    "speedrun": ("FloorKey", 1),
}

# rule kind -> (its topological type, the parameter that holds its threshold)
_TOPO_TYPE_BY_KIND = {kind: (name, key) for name, (kind, key, _) in TOPO_TYPES.items()}


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
class MechanicDef:
    name: str
    dims: Dimensions
    standard_constraints: tuple[ConstraintSpec, ...] = ()
    topo_constraints: tuple[TopoRule, ...] = ()  # `other` is a mechanic name


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
    """The byte-normalized form of `doc`: exactly the bytes of
    `json.dumps(doc, indent=2) + "\\n"`. One recursive writer appends them to
    one list in about half the time of json's indent mode, which yields
    every chunk up a pure-Python generator per nesting level."""
    out: list[str] = []
    _write_value(doc, out, "\n")
    out.append("\n")
    return "".join(out).encode("utf-8")


_encode_str = json.encoder.encode_basestring_ascii
_INF = float("inf")


def _float_text(x: float) -> str:
    """json's spelling of a float: its repr, or NaN, Infinity, -Infinity."""
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


# json's text of a value of exactly one of these types
_SCALAR_TEXT = {
    str: _encode_str,
    int: int.__repr__,
    float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _scalar_text(x) -> str | None:
    """json's text of a str, int, float, bool or None, subclasses included;
    None for anything else."""
    text = _SCALAR_TEXT.get(type(x))
    if text is not None:
        return text(x)
    for base in (str, int, float):  # json's order of isinstance tests
        if isinstance(x, base):
            return _SCALAR_TEXT[base](x)
    return None


def _key_text(key) -> str:
    """json's text of a dict key: a non-str key is quoted as a str."""
    text = _scalar_text(key)
    if text is None:
        raise TypeError(
            f"keys must be str, int, float, bool or None, not {key.__class__.__name__}"
        )
    return text if isinstance(key, str) else '"' + text + '"'


def _write_value(x, out: list[str], nl: str) -> None:
    """Append json's indent=2 text of `x` to `out`; `nl` is a newline and the
    indent of the line `x` starts on."""
    if isinstance(x, (list, tuple)):
        if not x:
            out.append("[]")
            return
        inner = nl + "  "
        comma = "," + inner
        if type(x[0]) is float:
            # a list of finite floats in one join; NaN and infinities spell
            # "nan" and "inf" in repr, and only they hold an "n"
            try:
                text = comma.join(map(float.__repr__, x))
            except TypeError:
                text = "n"
            if "n" not in text:
                out.append("[" + inner + text + nl + "]")
                return
        sep = "[" + inner
        for v in x:
            scalar = _SCALAR_TEXT.get(type(v))
            if scalar is not None:
                out.append(sep + scalar(v))
            else:
                out.append(sep)
                _write_value(v, out, inner)
            sep = comma
        out.append(nl + "]")
    elif isinstance(x, dict):
        if not x:
            out.append("{}")
            return
        inner = nl + "  "
        comma = "," + inner
        sep = "{" + inner
        for k, v in x.items():
            key = _encode_str(k) if type(k) is str else _key_text(k)
            scalar = _SCALAR_TEXT.get(type(v))
            if scalar is not None:
                out.append(sep + key + ": " + scalar(v))
            else:
                out.append(sep + key + ": ")
                _write_value(v, out, inner)
            sep = comma
        out.append(nl + "}")
    else:
        scalar = _scalar_text(x)
        if scalar is None:
            raise TypeError(f"Object of type {x.__class__.__name__} is not JSON serializable")
        out.append(scalar)


def _take(obj, where: str, required: Sequence[str], optional: Sequence[str] | None) -> Mapping:
    """`obj`, an object holding every `required` field; any other field must
    be `optional`, unless that is None."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object, got {type(obj).__name__}")
    if optional is not None and not obj.keys() <= {*required, *optional}:
        extra = sorted(obj.keys() - {*required, *optional})
        raise SchemaError(f"{where}: unknown field(s) {extra}")
    if not all(map(obj.__contains__, required)):
        raise SchemaError(f"{where}: missing field(s) {[k for k in required if k not in obj]}")
    return obj


def _array(obj: Mapping, key: str, where: str, parse: Callable[[object, str], object]) -> tuple:
    """Array field `key` of `obj` (absent is empty), each item parsed at its path."""
    path = f"{where}.{key}" if where else key
    items = obj.get(key, [])
    if not isinstance(items, list):
        raise SchemaError(f"{path}: expected an array, got {type(items).__name__}")
    return tuple([parse(item, f"{path}[{i}]") for i, item in enumerate(items)])


# The value readers return `value` when it holds. Otherwise the error names its
# path: `where`, then `field` (such as ".dims"), joined only then.


def _number(value, where: str) -> float:
    if not is_number(value):
        raise SchemaError(f"{where}: expected a number")
    try:
        return float(value)
    except OverflowError:  # an int beyond the float range
        raise SchemaError(f"{where}: number too large") from None


def _integer(value, where: str, field: str = "") -> int:
    if not is_integer(value):
        raise SchemaError(f"{where}{field}: expected an integer")
    return value


def _string(value, where: str, field: str = "") -> str:
    if not isinstance(value, str):
        raise SchemaError(f"{where}{field}: expected a string")
    return value


def _finite(value, where: str, field: str) -> float:
    """`value`, a number that a float holds finitely (`is_float`)."""
    if not is_float(value):
        raise SchemaError(f"{where}{field}: expected a finite number")
    return value


def _numbers(value, n: int, where: str, field: str) -> list:
    """`value`, an array of `n` numbers that each pass `_finite`."""
    if type(value) is not list or len(value) != n:
        raise SchemaError(f"{where}{field}: expected an array of {n} numbers")
    for i, v in enumerate(value):
        if not is_float(v):
            raise SchemaError(f"{where}{field}[{i}]: expected a finite number")
    return value


def _parse_dimensions(obj, where: str) -> Dimensions:
    data = _take(obj, where, ("width", "length", "height"), ())
    return Dimensions(
        _number(data["width"], f"{where}.width"),
        _number(data["length"], f"{where}.length"),
        _number(data["height"], f"{where}.height"),
    )


def _parameters(kind: str, data: Mapping, where: str) -> dict:
    """The `parameters` of constraint row `data` (absent is empty): those
    that `kind` declares, each required one, each value passing its rule."""
    required, optional = PARAMETERS[kind]
    params = _take(data.get("parameters", {}), f"{where}.parameters", required, optional)
    for name, value in params.items():
        what, holds = required.get(name) or optional[name]
        if not holds(value):
            raise SchemaError(f"{where}.parameters.{name}: expected {what}")
    if kind == "Focus" and ("target" in params) == ("point" in params):
        raise SchemaError(f"{where}.parameters: expected one of 'target' and 'point'")
    return dict(params)


def _parse_constraint(obj, where: str) -> ConstraintSpec:
    data = _take(obj, where, ("type",), ("parameters", "weight"))
    kind = _string(data["type"], f"{where}.type")
    if kind not in PARAMETERS:
        raise SchemaError(f"{where}: unknown constraint type {kind!r}")
    params = _parameters(kind, data, where)
    weight = _number(data["weight"], f"{where}.weight") if "weight" in data else None
    return ConstraintSpec(kind, params, weight)


def _parse_topo(obj, where: str) -> TopoRule:
    data = _take(obj, where, ("type",), ("parameters",))
    name = _string(data["type"], f"{where}.type")
    if name not in TOPO_TYPES:
        raise SchemaError(f"{where}: {name!r} is not a topological constraint")
    kind, key, _ = TOPO_TYPES[name]
    params = _parameters(name, data, where)
    strength = float(params.get("strength", 1.0))
    return TopoRule(kind, params["other"], threshold=params.get(key), strength=strength)


def _parse_facility(obj, where: str) -> FacilityDef:
    data = _take(
        obj,
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
    data = _take(obj, where, ("x", "y"), ("yaw",))
    return FixedPosition(
        x=_number(data["x"], f"{where}.x"),
        y=_number(data["y"], f"{where}.y"),
        yaw=_number(data.get("yaw", 0.0), f"{where}.yaw"),
    )


def _parse_characteristic(obj, where: str) -> CharacteristicFacility:
    data = _take(obj, where, ("facility",), ("count", "positions"))
    positions = _array(data, "positions", where, _parse_fixed_position)
    return CharacteristicFacility(
        facility=_string(data["facility"], f"{where}.facility"),
        count=_integer(data.get("count", 1), f"{where}.count"),
        positions=positions,
    )


def _parse_room(obj, where: str) -> RoomTemplate:
    data = _take(
        obj,
        where,
        ("name", "dimensions"),
        ("characteristic_facilities", "max_instances", "arch_type", "constraints"),
    )
    char = _array(data, "characteristic_facilities", where, _parse_characteristic)
    max_instances = _integer(data.get("max_instances", 1), f"{where}.max_instances")
    arch_type = _string(data.get("arch_type", "enclosed"), f"{where}.arch_type")
    constraints = _array(data, "constraints", where, _parse_constraint)
    for c in constraints:  # structural rows configure the template, unscored
        if c.kind == "MaxInstances":
            max_instances = c.params["count"]
        elif c.kind == "SetType":
            arch_type = c.params["type"]
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
        obj,
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


def _non_negative_problem(value: float) -> str | None:
    """Why `value` is not a finite number >= 0, or None when it is one."""
    if not is_finite(value):
        return "is not finite"
    return "< 0" if value < 0 else None


def _is_finite_param(value) -> bool:
    """False when a parameter value, or an item of a list value, is a
    non-finite number."""
    items = value if isinstance(value, list) else (value,)
    return not any(is_number(v) and not is_finite(v) for v in items)


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
            if t is not None and t not in targets[tier]:
                yield Violation(
                    name, "unresolved-target", f"constraint target {t!r} is not a known {target_kind}"
                )
            if spec.kind not in kinds:
                yield Violation(name, "constraint-tier", f"{spec.kind} is not {tier}-tier")
            problem = None if spec.weight is None else _non_negative_problem(spec.weight)
            if problem:
                yield Violation(
                    name, "weight-non-negative", f"{spec.kind} weight {spec.weight} {problem}"
                )
            for key, value in spec.params.items():
                if not _is_finite_param(value):
                    yield Violation(
                        name,
                        "parameter-finite",
                        f"{spec.kind} parameter {key} {value} is not finite",
                    )

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
            fitting = fits(fac.dims, r.dims)
            if not fitting:
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
                for p in cf.positions:
                    where = f"{cf.facility}: position ({p.x}, {p.y}, {p.yaw})"
                    if not all(map(is_finite, (p.x, p.y, p.yaw))):
                        yield Violation(r.name, "fixed-positions", f"{where} is not finite")
                        continue
                    # the rule `Level.check` applies to the placed facility
                    fp = Pose(p.x, p.y, 0.0, p.yaw, fac.dims).footprint()
                    if fitting and out_of_bounds_depth(fp, r.dims.width, r.dims.length) > 1e-9:
                        yield Violation(r.name, "fixed-position-inside", f"{where} leaves the room")
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
            problem = None if tc.threshold is None else _non_negative_problem(tc.threshold)
            if problem:
                yield Violation(m.name, "threshold", f"{tc.kind} threshold {tc.threshold} {problem}")
            if not is_finite(tc.strength):
                yield Violation(
                    m.name, "parameter-finite", f"{tc.kind} strength {tc.strength} is not finite"
                )

    for key in dict.fromkeys(name for name, _ in PACING_KEYS.values()):
        if key not in mechanics:
            groups = " and ".join(s for s, (name, _) in PACING_KEYS.items() if name == key)
            message = f"pacing key {key!r} of the {groups} groups is not a known mechanic"
            yield Violation(key, "pacing-key", message)


def load_database(data: bytes | str) -> Database:
    """Parse and cross-link a database document.

    Raises ParseError for bytes that are not UTF-8 JSON, SchemaError for
    structural problems and UnresolvedReferenceError for the first dangling
    name. The value rules (positive dims, unique names, ...) run in the same
    pass but only `validate_database` reports them.
    """
    root = _take(
        read_json(data),
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


def _topo_to_json(rule: TopoRule) -> dict:
    name, key = _TOPO_TYPE_BY_KIND[rule.kind]
    params: dict = {"other": rule.other}
    if key is not None:
        params[key] = rule.threshold
    if rule.strength != 1.0:
        params["strength"] = rule.strength
    return {"type": name, "parameters": params}


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
