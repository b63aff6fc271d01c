import dataclasses
import functools
import hashlib
import json
import math
import re
from enum import IntEnum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levelforge import SAMPLE_DATABASES, cli, load_sample_database
from levelforge.constraints import ConstraintSpec
from levelforge.database import (
    Database,
    Violation,
    load_database,
    save_database,
    validate_database,
    write_json,
)
from levelforge.errors import ParseError, SchemaError, UnresolvedReferenceError
from levelforge.geometry import Dimensions
from levelforge.level import TopoRule


def doc(facilities=(), rooms=(), mechanics=()):
    return json.dumps(
        {"facilities": list(facilities), "rooms": list(rooms), "mechanics": list(mechanics)}
    )


def test_empty_sections_load_to_empty_database():
    db = load_database(doc())
    assert db.facilities == () and db.rooms == () and db.mechanics == ()
    assert validate_database(db) == []


def test_facility_round_trips_through_save_load():
    source = doc(
        facilities=[
            {
                "name": "IV Stand",
                "dimensions": {"width": 0.5, "length": 0.5, "height": 1.8},
                "positioning": "adaptable",
                "constraints": [{"type": "PlaceByWall", "parameters": {}}],
                "tags": ["Prop"],
            }
        ]
    )
    db = load_database(source)
    again = load_database(save_database(db))
    assert again == db
    assert again.facility("IV Stand").dims == Dimensions(0.5, 0.5, 1.8)
    assert again.facility("IV Stand").constraints[0].kind == "PlaceByWall"


def test_save_load_fixpoint_is_byte_identical(hospital_db, minimal_db):
    for db in (hospital_db, minimal_db):
        normalized = save_database(db)
        assert save_database(load_database(normalized)) == normalized


def test_unresolved_characteristic_facility_raises():
    source = doc(
        rooms=[
            {
                "name": "Seance Room",
                "dimensions": {"width": 6, "length": 6, "height": 3},
                "characteristic_facilities": [{"facility": "Ghost Chair"}],
            }
        ]
    )
    with pytest.raises(UnresolvedReferenceError) as err:
        load_database(source)
    assert "Ghost Chair" in str(err.value)


def test_malformed_json_is_a_parse_error():
    with pytest.raises(ParseError):
        load_database(b"{not json")


def test_bytes_that_are_not_utf8_are_a_parse_error():
    with pytest.raises(ParseError):
        load_database(b"\xff")


@pytest.mark.parametrize("strength", [None, "high", True])
def test_topo_strength_that_is_not_a_number_is_a_schema_error(strength):
    source = doc(
        mechanics=[
            {
                "name": "Key",
                "dimensions": {"width": 0.3, "length": 0.3, "height": 0.3},
                "topo_constraints": [
                    {"type": "Precedes", "parameters": {"other": "Key", "strength": strength}}
                ],
            }
        ]
    )
    with pytest.raises(SchemaError, match=r"mechanics\[0\]\.topo_constraints\[0\]\.parameters\.strength"):
        load_database(source)


@pytest.mark.parametrize(
    "mutation",
    [
        {"extra_field": 1},
        {"facilities": {}},
    ],
)
def test_schema_errors(mutation):
    base = {"facilities": [], "rooms": [], "mechanics": []}
    base.update(mutation)
    with pytest.raises(SchemaError):
        load_database(json.dumps(base))


def test_unknown_facility_field_is_a_schema_error():
    source = doc(
        facilities=[
            {
                "name": "X",
                "dimensions": {"width": 1, "length": 1, "height": 1},
                "positioning": "adaptable",
                "wingspan": 2,
            }
        ]
    )
    with pytest.raises(SchemaError):
        load_database(source)


def test_structural_room_constraints_fold_into_fields():
    source = doc(
        rooms=[
            {
                "name": "Vault",
                "dimensions": {"width": 6, "length": 6, "height": 3},
                "constraints": [
                    {"type": "MaxInstances", "parameters": {"count": 3}},
                    {"type": "SetType", "parameters": {"type": "open"}},
                ],
            }
        ]
    )
    room = load_database(source).room("Vault")
    assert room.max_instances == 3
    assert room.arch_type == "open"
    assert room.room_constraints == ()


def _crate_with(constraint: dict) -> str:
    """A database of one facility, Crate, with one constraint row."""
    crate = {
        "name": "Crate",
        "dimensions": {"width": 1, "length": 1, "height": 1},
        "positioning": "adaptable",
        "constraints": [constraint],
    }
    return doc(facilities=[crate])


_AXIS = "('centered_xy', 'on_floor', 'near_level_entrance')"


@pytest.mark.parametrize(
    "constraint, message",
    [
        ({"type": "Near"}, "parameters: missing field(s) ['target']"),
        (
            {"type": "Near", "parameters": {"target": "Crate", "d_max": 3}},
            "parameters: unknown field(s) ['d_max']",
        ),
        (
            {"type": "PlaceByWall", "parameters": {"target": "Crate"}},
            "parameters: unknown field(s) ['target']",
        ),
        ({"type": "Near", "parameters": {"target": 3}}, "parameters.target: expected a name"),
        (
            {"type": "Near", "parameters": {"target": "Crate", "d_min": "3"}},
            "parameters.d_min: expected a number",
        ),
        (
            {"type": "Near", "parameters": {"target": "Crate", "d_min": True}},
            "parameters.d_min: expected a number",
        ),
        (
            {"type": "Near", "parameters": {"target": "Crate", "d_min": 10**400}},
            "parameters.d_min: expected a number",
        ),
        (
            {"type": "PlaceInRange", "parameters": {"p1": [0, 0], "p2": [1, 1, 1]}},
            "parameters.p1: expected an array of 3 numbers",
        ),
        (
            {"type": "PlaceInRange", "parameters": {"p1": [0, 0, 0], "p2": [1, "1", 1]}},
            "parameters.p2: expected an array of 3 numbers",
        ),
        ({"type": "AxisFunction"}, "parameters: missing field(s) ['function']"),
        (
            {"type": "AxisFunction", "parameters": {"function": "sideways"}},
            f"parameters.function: expected one of {_AXIS}",
        ),
        (
            {"type": "Alignment", "parameters": {"target": "Crate", "axis": "z"}},
            "parameters.axis: expected one of ('x', 'y')",
        ),
        (
            {"type": "Alignment", "parameters": {"target": "Crate", "axis": "xy"}},
            "parameters.axis: expected one of ('x', 'y')",
        ),
        (
            {"type": "Focus", "parameters": {"phi_th": 0.5}},
            "parameters: expected one of 'target' and 'point'",
        ),
        (
            {"type": "Focus", "parameters": {"target": "Crate", "point": [1, 1]}},
            "parameters: expected one of 'target' and 'point'",
        ),
        (
            {"type": "Focus", "parameters": {"point": [1, 1, 1]}},
            "parameters.point: expected an array of 2 numbers",
        ),
        (
            {"type": "MaxInstances", "parameters": {"count": 2.0}},
            "parameters.count: expected an integer",
        ),
        (
            {"type": "SetType", "parameters": {"type": "cave"}},
            "parameters.type: expected one of ('enclosed', 'open')",
        ),
        (
            {"type": "TopologicalFar", "parameters": {"other": "Crate"}},
            "parameters: missing field(s) ['d_min']",
        ),
    ],
)
def test_a_constraint_row_is_read_against_its_kinds_parameters(constraint, message):
    # a facility row of any kind is read against its kind's declaration; the
    # tier rule is the validator's
    where = "facilities[0].constraints[0]."
    with pytest.raises(SchemaError, match=f"^{re.escape(where + message)}$"):
        load_database(_crate_with(constraint))


def test_a_topo_row_is_read_against_its_types_parameters():
    key = {"name": "Key", "dimensions": {"width": 0.3, "length": 0.3, "height": 0.3}}
    rows = [
        ("TopologicalNear", {"other": "Key"}, ": missing field(s) ['d_max']"),
        ("Precedes", {"other": "Key", "d_min": 2}, ": unknown field(s) ['d_min']"),
        ("TopologicalFar", {"other": "Key", "d_min": 2.5}, ".d_min: expected an integer"),
        ("Precedes", {"other": 1}, ".other: expected a name"),
    ]
    for kind, params, message in rows:
        row = {"type": kind, "parameters": params}
        source = doc(mechanics=[{**key, "topo_constraints": [row]}])
        where = "mechanics[0].topo_constraints[0].parameters"
        with pytest.raises(SchemaError, match=f"^{re.escape(where + message)}$"):
            load_database(source)


def test_parameters_are_kept_as_written():
    # an int stays an int, so saving writes the bytes it read
    near = {"type": "Near", "parameters": {"target": "Crate", "d_min": 3}}
    db = load_database(_crate_with(near))
    (spec,) = db.facility("Crate").constraints
    assert spec.params == {"target": "Crate", "d_min": 3} and type(spec.params["d_min"]) is int
    assert b'"d_min": 3,' in save_database(db)


def test_a_non_finite_parameter_loads_and_trips_the_validator():
    source = _crate_with({"type": "Focus", "parameters": {"point": [math.nan, 1.0]}})
    assert validate_database(load_database(source)) == [
        Violation("Crate", "parameter-finite", "Focus parameter point [nan, 1.0] is not finite")
    ]


def test_negative_width_yields_positivity_violation():
    db = load_database(
        doc(
            facilities=[
                {
                    "name": "Bad",
                    "dimensions": {"width": -1, "length": 1, "height": 1},
                    "positioning": "fixed",
                }
            ]
        )
    )
    violations = validate_database(db)
    assert len(violations) == 1
    assert violations[0].rule == "dimensions-positive"
    assert violations[0].entity == "Bad"


def test_duplicate_facility_name_yields_uniqueness_violation():
    entry = {
        "name": "Locker",
        "dimensions": {"width": 1, "length": 1, "height": 2},
        "positioning": "adaptable",
    }
    db = load_database(doc(facilities=[entry, dict(entry)]))
    violations = validate_database(db)
    assert len(violations) == 1
    assert violations[0].rule == "name-unique"


def test_shipped_sample_databases_validate_clean(hospital_db, minimal_db):
    assert validate_database(hospital_db) == []
    assert validate_database(minimal_db) == []


def _mutate(db: Database, **facility_overrides) -> Database:
    fac = dataclasses.replace(db.facilities[0], **facility_overrides)
    return dataclasses.replace(db, facilities=(fac,) + db.facilities[1:])


def test_single_field_mutations_each_trip_the_validator(minimal_db):
    assert validate_database(minimal_db) == []
    mutants = [
        _mutate(minimal_db, dims=Dimensions(0.0, 1.0, 1.0)),
        _mutate(minimal_db, dims=Dimensions(1.0, float("inf"), 1.0)),
        _mutate(minimal_db, instance_guideline=0),
        _mutate(minimal_db, name=minimal_db.facilities[1].name),
    ]
    # dangling reference introduced by renaming a facility other rooms use
    renamed = _mutate(minimal_db, name="Something Else")
    mutants.append(renamed)
    for mutant in mutants:
        assert validate_database(mutant) != []


def test_room_facility_fit_violation():
    source = doc(
        facilities=[
            {
                "name": "Boulder",
                "dimensions": {"width": 9, "length": 9, "height": 2},
                "positioning": "adaptable",
            }
        ],
        rooms=[
            {
                "name": "Closet",
                "dimensions": {"width": 4, "length": 4, "height": 3},
                "characteristic_facilities": [{"facility": "Boulder"}],
            }
        ],
    )
    violations = validate_database(load_database(source))
    assert any(v.rule == "facility-fits" for v in violations)


def test_fixed_facility_requires_positions():
    source = doc(
        facilities=[
            {
                "name": "Altar",
                "dimensions": {"width": 1, "length": 1, "height": 1},
                "positioning": "fixed",
            }
        ],
        rooms=[
            {
                "name": "Shrine",
                "dimensions": {"width": 6, "length": 6, "height": 3},
                "characteristic_facilities": [{"facility": "Altar", "count": 1}],
            }
        ],
    )
    violations = validate_database(load_database(source))
    assert any(v.rule == "fixed-positions" for v in violations)


def test_violations_are_ordered_by_entity():
    entry = lambda name: {
        "name": name,
        "dimensions": {"width": -1, "length": 1, "height": 1},
        "positioning": "adaptable",
    }
    db = load_database(doc(facilities=[entry("Zeta"), entry("Alpha")]))
    violations = validate_database(db)
    assert [v.entity for v in violations] == ["Alpha", "Zeta"]


def test_topo_constraint_references_must_resolve():
    source = doc(
        mechanics=[
            {
                "name": "Key",
                "dimensions": {"width": 0.3, "length": 0.3, "height": 0.3},
                "topo_constraints": [
                    {"type": "Precedes", "parameters": {"other": "Missing Door"}}
                ],
            }
        ]
    )
    with pytest.raises(UnresolvedReferenceError):
        load_database(source)


def test_nan_read_from_json_trips_the_validator(minimal_db):
    # json.loads accepts NaN, so it must be the rule pass that refuses it
    base = json.loads(save_database(minimal_db))
    beacon = next(f for f in base["facilities"] if f["name"] == "Beacon")
    vault = next(r for r in base["rooms"] if r["name"] == "Vault")
    beacon["constraints"][0]["weight"] = math.nan
    vault["characteristic_facilities"][0]["positions"][0]["y"] = math.nan
    violations = validate_database(load_database(json.dumps(base)))
    assert [(v.entity, v.rule) for v in violations] == [
        ("Beacon", "weight-non-negative"),
        ("Vault", "fixed-positions"),
    ]


def test_a_topo_threshold_too_large_for_a_float_loads(hospital_db):
    # an int of any size is finite; the rule pass must not convert it
    base = json.loads(save_database(hospital_db))
    key = next(m for m in base["mechanics"] if m["topo_constraints"])
    key["topo_constraints"].append(
        {"type": "TopologicalNear", "parameters": {"other": key["name"], "d_max": 10**400}}
    )
    db = load_database(json.dumps(base))
    assert db.mechanic(key["name"]).topo_constraints[-1].threshold == 10**400
    assert validate_database(db) == []


def test_a_dimension_too_large_for_a_float_is_a_schema_error(minimal_db, tmp_path, capsys):
    # a dimension is read as a float, which no 400-digit integer fits
    base = json.loads(save_database(minimal_db))
    base["facilities"][0]["dimensions"]["width"] = int("9" * 400)
    source = json.dumps(base)
    where = "facilities[0].dimensions.width"
    with pytest.raises(SchemaError, match=rf"^{re.escape(where)}: number too large$"):
        load_database(source)
    path = tmp_path / "huge.json"
    path.write_text(source)
    assert cli.main(["validate-db", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {where}: number too large\n"


def _replace(db: Database, section: str, entity: str, **changes) -> Database:
    """`db` with entity `entity` of `section` rebuilt with `changes`."""
    rebuilt = tuple(
        dataclasses.replace(e, **changes) if e.name == entity else e
        for e in getattr(db, section)
    )
    return dataclasses.replace(db, **{section: rebuilt})


def test_each_rule_trips_alone_with_its_message(minimal_db):
    near_crate = ConstraintSpec("Near", {"target": "Crate", "d_min": 3.0})
    nan_d_min = {"target": "Crate", "d_min": math.nan}
    infinite_range = ConstraintSpec("PlaceInRange", {"p1": [0, 0, 0], "p2": [math.inf, 1.0, 1.0]})
    (cell_crate,) = minimal_db.room("Cell").characteristic_facilities
    vault_pillar, vault_crate = minimal_db.room("Vault").characteristic_facilities

    facility = functools.partial(_replace, minimal_db, "facilities")
    room = functools.partial(_replace, minimal_db, "rooms")
    mechanic = functools.partial(_replace, minimal_db, "mechanics")

    def pillar_at(**changes):
        (position,) = vault_pillar.positions
        return dataclasses.replace(
            vault_pillar, positions=(dataclasses.replace(position, **changes),)
        )

    cases = [
        (
            facility("Beacon", constraints=(ConstraintSpec("Near", {"target": "Ghost"}),)),
            "Beacon", "unresolved-target", "constraint target 'Ghost' is not a known facility",
        ),
        (
            room(
                "Cell", characteristic_facilities=(dataclasses.replace(cell_crate, facility="Ghost"),)
            ),
            "Cell", "unresolved-facility", "characteristic facility 'Ghost' is not a known facility",
        ),
        (
            mechanic("KeyA", topo_constraints=(TopoRule("precedes", "Ghost"),)),
            "KeyA", "unresolved-mechanic", "topological reference 'Ghost' is not a known mechanic",
        ),
        (
            facility("Stair", name="Crate"),
            "Crate", "name-unique", "facility name 'Crate' appears more than once",
        ),
        (
            mechanic("FloorKey", dims=Dimensions(-1.0, 0.3, 0.3)),
            "FloorKey", "dimensions-positive",
            "all dimensions must be strictly positive and finite, got (-1.0, 0.3, 0.3)",
        ),
        (
            facility("Stair", instance_guideline=0),
            "Stair", "instance-guideline", "guideline 0 < 1",
        ),
        (
            facility("Beacon", constraints=(ConstraintSpec("AdjacentTo", {"target": "Crate"}),)),
            "Beacon", "constraint-tier", "AdjacentTo is not facility-tier",
        ),
        (
            facility("Beacon", constraints=(dataclasses.replace(near_crate, weight=-1.0),)),
            "Beacon", "weight-non-negative", "Near weight -1.0 < 0",
        ),
        (
            facility("Beacon", constraints=(dataclasses.replace(near_crate, weight=math.nan),)),
            "Beacon", "weight-non-negative", "Near weight nan is not finite",
        ),
        (
            facility("Beacon", constraints=(dataclasses.replace(near_crate, weight=math.inf),)),
            "Beacon", "weight-non-negative", "Near weight inf is not finite",
        ),
        (
            facility("Beacon", constraints=(dataclasses.replace(near_crate, params=nan_d_min),)),
            "Beacon", "parameter-finite", "Near parameter d_min nan is not finite",
        ),
        (
            facility("Beacon", constraints=(infinite_range,)),
            "Beacon", "parameter-finite", "PlaceInRange parameter p2 [inf, 1.0, 1.0] is not finite",
        ),
        (
            room("Cell", max_instances=0),
            "Cell", "max-instances", "max_instances 0 < 1",
        ),
        (
            room("Cell", arch_type="cave"),
            "Cell", "arch-type", "unknown arch_type 'cave'",
        ),
        (
            room("Cell", characteristic_facilities=(dataclasses.replace(cell_crate, count=0),)),
            "Cell", "facility-count", "Crate: count 0 < 1",
        ),
        (
            room("Cell", dims=Dimensions(0.5, 0.5, 3.0)),
            "Cell", "facility-fits", "Crate footprint does not fit inside the room",
        ),
        (
            room(
                "Vault",
                characteristic_facilities=(
                    dataclasses.replace(vault_pillar, positions=()), vault_crate
                ),
            ),
            "Vault", "fixed-positions",
            "Pillar: fixed facility needs 1 authored position(s), got 0",
        ),
        (
            room("Vault", characteristic_facilities=(pillar_at(x=math.nan), vault_crate)),
            "Vault", "fixed-positions", "Pillar: position (nan, 4.0, 0.0) is not finite",
        ),
        (
            room("Vault", characteristic_facilities=(pillar_at(yaw=-math.inf), vault_crate)),
            "Vault", "fixed-positions", "Pillar: position (3.0, 4.0, -inf) is not finite",
        ),
        (
            mechanic("KeyA", topo_constraints=(TopoRule("topo_near", "KeyB", threshold=-1),)),
            "KeyA", "threshold", "topo_near threshold -1 < 0",
        ),
        (
            mechanic("KeyA", topo_constraints=(TopoRule("topo_near", "KeyB", threshold=math.nan),)),
            "KeyA", "threshold", "topo_near threshold nan is not finite",
        ),
        (
            mechanic("KeyA", topo_constraints=(TopoRule("topo_near", "KeyB", threshold=2, strength=math.nan),)),
            "KeyA", "parameter-finite", "topo_near strength nan is not finite",
        ),
    ]
    assert validate_database(minimal_db) == []
    for mutant, entity, rule, message in cases:
        assert validate_database(mutant) == [Violation(entity, rule, message)]


# -- the canonical writer ------------------------------------------------------


class _Level(IntEnum):
    LOW = 1


class _Name(str):
    pass


_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from(
        [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308, 1e16, 1e-7]
    ),
)
_TEXT = st.one_of(
    st.text(),
    st.text(alphabet='"\\/\x00\x08\x1f\x7f\u00e9\u2028\ud800\U0001f600'),
)
_KEYS = st.one_of(_TEXT, st.integers(), _FLOATS, st.booleans(), st.none())
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**40), max_value=10**40),
    _FLOATS,
    _FLOATS.map(np.float64),
    st.just(_Level.LOW),
    _TEXT,
    _TEXT.map(_Name),
)
_JSON_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner),
        st.lists(inner).map(tuple),
        st.lists(_FLOATS),
        st.dictionaries(_KEYS, inner),
    ),
    max_leaves=40,
)


def _dumps(doc) -> bytes:
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES)
def test_write_json_is_json_dumps_with_indent_2(doc):
    assert write_json(doc) == _dumps(doc)


@settings(max_examples=100, deadline=None)
@given(
    _JSON_VALUES,
    st.sampled_from([{1, 2}, b"bytes", np.int64(3), {(1, 2): 0}, {b"k": 0}]),
    st.booleans(),
)
def test_write_json_refuses_what_json_refuses(doc, refused, as_value):
    doc = [doc, refused] if as_value else {"doc": doc, "refused": refused}
    with pytest.raises(TypeError) as expected:
        _dumps(doc)
    with pytest.raises(TypeError) as got:
        write_json(doc)
    assert str(got.value) == str(expected.value)


# sha256 of each sample database's saved bytes, from json.dumps(indent=2)
SAVED_SAMPLE_SHA256 = {
    "sh_hospital": "89d8b7f23ab376c16539388b19dc889daec71c4211d60617c930ce29a35be5ba",
    "test_minimal": "17038af4a0386c42cee8cbb5b8b0e6fb7daf030c786045928d0eab2066556d88",
}


@pytest.mark.parametrize("name", SAMPLE_DATABASES)
def test_saved_sample_databases_are_pinned(name):
    saved = save_database(load_sample_database(name))
    assert hashlib.sha256(saved).hexdigest() == SAVED_SAMPLE_SHA256[name]
