import dataclasses
import functools
import json

import pytest

from levelforge.constraints import ConstraintSpec
from levelforge.database import (
    Database,
    TopoConstraint,
    Violation,
    load_database,
    save_database,
    validate_database,
)
from levelforge.errors import ParseError, SchemaError, UnresolvedReferenceError
from levelforge.geometry import Dimensions


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


def _replace(db: Database, section: str, entity: str, **changes) -> Database:
    """`db` with entity `entity` of `section` rebuilt with `changes`."""
    rebuilt = tuple(
        dataclasses.replace(e, **changes) if e.name == entity else e
        for e in getattr(db, section)
    )
    return dataclasses.replace(db, **{section: rebuilt})


def test_each_rule_trips_alone_with_its_message(minimal_db):
    near_crate = ConstraintSpec("Near", {"target": "Crate", "d_min": 3.0})
    (cell_crate,) = minimal_db.room("Cell").characteristic_facilities
    vault_pillar, vault_crate = minimal_db.room("Vault").characteristic_facilities

    facility = functools.partial(_replace, minimal_db, "facilities")
    room = functools.partial(_replace, minimal_db, "rooms")
    mechanic = functools.partial(_replace, minimal_db, "mechanics")

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
            mechanic("KeyA", topo_constraints=(TopoConstraint("precedes", "Ghost"),)),
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
            mechanic("KeyA", topo_constraints=(TopoConstraint("topo_near", "KeyB", -1),)),
            "KeyA", "threshold", "topo_near threshold -1 < 0",
        ),
    ]
    assert validate_database(minimal_db) == []
    for mutant, entity, rule, message in cases:
        assert validate_database(mutant) == [Violation(entity, rule, message)]
