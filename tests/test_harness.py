import csv
import io
import json
import math
import multiprocessing
import os
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from importlib import resources

import pytest

from levelforge import cli, harness
from levelforge.arrangement import LevelConfig
from levelforge.database import load_database, save_database, validate_database
from levelforge.export import export_level_json, level_hash
from levelforge.harness import (
    AggregateStats,
    ExperimentConfig,
    canonical_group,
    compute_stats,
    emit_table,
    generate_level,
    level_seed,
    records_csv,
    run_experiment,
    worker_count,
)
from levelforge.errors import (
    ArrangementFailed,
    ConfigError,
    InfeasibleRoom,
    SchemaError,
    UnresolvedReferenceError,
)
from levelforge.navsim import MetricsRecord

from oracles import parse_stats_csv
from test_export import small_config


def small_experiment(groups, levels=2, base_seed=7, out=None):
    return ExperimentConfig(
        groups=groups,
        levels_per_group=levels,
        base_seed=base_seed,
        level=small_config(),
        output_dir=out,
    )


def test_group_canonicalization():
    assert canonical_group("db-baseline") == "DB-Baseline"
    with pytest.raises(ConfigError):
        canonical_group("Z-Baseline")


@pytest.mark.parametrize("group", ["Foo-baseline", "DB-nope", "nodash", "A-nope"])
def test_a_group_outside_the_six_is_refused_before_any_level_starts(
    minimal_db, monkeypatch, group
):
    message = f"^unknown group {re.escape(repr(group))}"
    with pytest.raises(ConfigError, match=message):
        generate_level(small_config(), minimal_db, group, 3)

    def no_level(*args):
        raise AssertionError("a level started")

    monkeypatch.setenv("LEVELFORGE_THREADS", "1")
    monkeypatch.setattr(harness, "arrange_rooms", no_level)
    exp = small_experiment(("A-Baseline", group), levels=1)
    with pytest.raises(ConfigError, match=message):
        run_experiment(exp, minimal_db)


def test_level_seed_is_stable_across_runs():
    assert level_seed(42, "A-Baseline", 0) == level_seed(42, "A-Baseline", 0)
    assert level_seed(42, "A-Baseline", 0) != level_seed(42, "A-Baseline", 1)
    assert level_seed(42, "A-Baseline", 0) != level_seed(42, "DB-Baseline", 0)


def test_generate_level_is_deterministic(minimal_db):
    _, r1 = generate_level(small_config(), minimal_db, "A-Speedrun", 77)
    _, r2 = generate_level(small_config(), minimal_db, "A-Speedrun", 77)
    assert r1 == r2
    assert r1.level_hash


def test_record_identities_hold(minimal_db):
    for group in ("A-Baseline", "DB-Exploration"):
        _, record = generate_level(small_config(), minimal_db, group, 3)
        assert record.status in ("valid", "unrepairable", "abnormal")
        if record.status == "valid":
            assert record.avg_completion_time == (
                record.rerun_time + record.simulation_time
            ) / 2.0
            assert record.avg_grid_exploration == (
                record.grid_exploration + record.sim_grid_exploration
            ) / 2.0


def test_a_group_places_pinned_keys(minimal_db):
    level, record = generate_level(small_config(), minimal_db, "A-Exploration", 11)
    floors = {r.floor for r in level.rooms}
    frags = [m for m in level.mechanics if m.def_name == "KeyFragment"]
    per_floor = {
        f: sum(1 for m in frags if level.room_by_id(m.room_id).floor == f)
        for f in floors
    }
    for f, count in per_floor.items():
        rooms_on_floor = len(level.rooms_on_floor(f))
        assert count == min(3, rooms_on_floor)


def test_db_group_keys_stay_on_their_floor(minimal_db):
    level, _ = generate_level(small_config(), minimal_db, "DB-Baseline", 13)
    keys = [m for m in level.mechanics if m.def_name == "FloorKey"]
    assert len(keys) == len({r.floor for r in level.rooms})
    for key in keys:
        floor_tag = int(key.id.split("@f")[1])
        assert level.room_by_id(key.room_id).floor == floor_tag


def test_custom_selection_binds_the_databases_topological_rules(minimal_db):
    # no group: the config's own mechanics, with the Mechanics DB's rules
    names = ("FloorKey", "KeyFragment", "KeyA", "KeyB")
    config = replace(small_config(), selected_mechanics=tuple((n, 1) for n in names))
    level, record = generate_level(config, minimal_db, None, 3)
    again, repeat = generate_level(config, minimal_db, None, 3)
    assert (record.status, record.level_id) == ("valid", "custom-3")
    assert [m.id for m in level.mechanics] == [f"{n}#0" for n in names]
    assert record.level_hash == repeat.level_hash == level_hash(again)
    (key_a,) = [i for i in harness._generic_instances(config, minimal_db) if i.id == "KeyA#0"]
    assert [(r.kind, r.other) for r in key_a.topo] == [("precedes", "KeyB#0")]
    tau = {m.id: level.room_by_id(m.room_id).tau for m in level.mechanics}
    assert tau["KeyA#0"] < tau["KeyB#0"]
    unknown = replace(config, selected_mechanics=(("KeyC", 1),))
    with pytest.raises(UnresolvedReferenceError, match="'KeyC'"):
        generate_level(unknown, minimal_db, None, 3)


def test_run_experiment_single_row(tmp_path, minimal_db):
    exp = small_experiment(("A-Baseline",), levels=1, out=tmp_path)
    records, stats = run_experiment(exp, minimal_db)
    assert len(records) == 1
    rows = list(csv.reader(io.StringIO((tmp_path / "records.csv").read_text())))
    assert len(rows) == 2  # header + 1 data row
    assert sum(stats.tallies["A-Baseline"].values()) == 1


def test_status_tallies_cover_all_levels(minimal_db):
    exp = small_experiment(("A-Baseline", "DB-Speedrun"), levels=2)
    records, stats = run_experiment(exp, minimal_db)
    total = sum(sum(t.values()) for t in stats.tallies.values())
    assert total == 4 == len(records)


def test_aggregate_mean_matches_csv_recomputation(minimal_db, tmp_path):
    exp = small_experiment(("DB-Baseline",), levels=3, out=tmp_path)
    records, stats = run_experiment(exp, minimal_db)
    rows = list(csv.DictReader(io.StringIO((tmp_path / "records.csv").read_text())))
    valid = [r for r in rows if r["status"] == "valid"]
    for metric in ("simulation_time", "grid_exploration"):
        mean = sum(float(r[metric]) for r in valid) / len(valid)
        assert stats.metrics["DB-Baseline"][metric].mean == pytest.approx(mean)
        n = len(valid)
        if n > 1:
            var = sum((float(r[metric]) - mean) ** 2 for r in valid) / (n - 1)
            assert stats.metrics["DB-Baseline"][metric].std == pytest.approx(
                math.sqrt(var)
            )


def test_records_csv_is_worker_count_independent(minimal_db, tmp_path):
    exp = small_experiment(("A-Speedrun", "DB-Speedrun"), levels=2)
    os.environ["LEVELFORGE_THREADS"] = "1"
    try:
        records_serial, _ = run_experiment(exp, minimal_db)
        csv_serial = records_csv(records_serial, exp)
        os.environ["LEVELFORGE_THREADS"] = "2"
        records_parallel, _ = run_experiment(exp, minimal_db)
        csv_parallel = records_csv(records_parallel, exp)
    finally:
        del os.environ["LEVELFORGE_THREADS"]
    assert csv_serial == csv_parallel


# -- room-layout workers ----------------------------------------------------------


def test_worker_count_defaults_to_the_cpus_this_process_may_run_on(monkeypatch):
    monkeypatch.delenv("LEVELFORGE_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1}, raising=False)
    assert worker_count() == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert worker_count() == 2
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert worker_count() == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert worker_count() == 2
    monkeypatch.setenv("LEVELFORGE_THREADS", "1")
    assert worker_count() == 1


@pytest.fixture
def pool_widths(monkeypatch):
    """The max_workers of every pool `harness` opens while the test runs."""
    widths = []

    class CountedPool(ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            widths.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", CountedPool)
    return widths


@pytest.mark.parametrize(
    "group, seed", [("A-Baseline", 3), ("DB-Exploration", 4), ("A-Speedrun", 5), ("DB-Baseline", 6)]
)
def test_rooms_laid_out_in_workers_give_the_same_level(
    hospital_db, monkeypatch, pool_widths, group, seed
):
    outputs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("LEVELFORGE_THREADS", threads)
        level, record = generate_level(LevelConfig(), hospital_db, group, seed)
        assert multiprocessing.active_children() == []
        outputs.append((record, level_hash(level), export_level_json(level)))
    assert pool_widths == [2]  # one pool, for the two-worker level only
    assert outputs[0] == outputs[1]


def _beacon_fits_no_hall():
    """test_minimal with a 7x9 m Beacon, which fits no Hall either way round."""
    doc = json.loads(
        resources.files("levelforge.data").joinpath("test_minimal.json").read_text()
    )
    beacon = next(f for f in doc["facilities"] if f["name"] == "Beacon")
    beacon["dimensions"].update(width=7.0, length=9.0)
    return load_database(json.dumps(doc).encode())


def test_an_error_in_a_room_worker_reaches_the_caller(monkeypatch, pool_widths):
    db = _beacon_fits_no_hall()
    monkeypatch.setenv("LEVELFORGE_THREADS", "2")
    with pytest.raises(InfeasibleRoom, match="Beacon"):
        generate_level(small_config(), db, "A-Baseline", 0)
    assert pool_widths == [2]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("threads", ["1", "2"])
def test_a_level_that_cannot_be_built_is_a_failed_row(monkeypatch, threads):
    monkeypatch.setenv("LEVELFORGE_THREADS", threads)
    exp = small_experiment(("A-Baseline", "DB-Speedrun"), levels=2)
    records, stats = run_experiment(exp, _beacon_fits_no_hall())
    assert records == [
        MetricsRecord(
            level_id=f"{group}-{index:04d}",
            group=group,
            seed=level_seed(exp.base_seed, group, index),
            status="failed",
        )
        for group in exp.groups
        for index in range(2)
    ]
    assert stats.tallies["A-Baseline"]["failed"] == stats.tallies["DB-Speedrun"]["failed"] == 2


# -- table emission -------------------------------------------------------------


def test_empty_stats_emit_header_only_table():
    stats = AggregateStats(groups=(), metrics={}, tallies={}, total_cells=7500)
    markdown, csv_text = emit_table(stats)
    lines = [l for l in markdown.splitlines() if l.strip()]
    assert len(lines) == 2  # header + separator, no data rows
    parsed = parse_stats_csv(csv_text)
    assert parsed.groups == ()


def test_coverage_percent_formatting():
    record = MetricsRecord(
        level_id="x",
        group="A-Baseline",
        seed=1,
        status="valid",
        grid_exploration=750,
        sim_grid_exploration=375,
        avg_grid_exploration=562.5,
    )
    stats = compute_stats([record], ("A-Baseline",), total_cells=7500)
    markdown, _ = emit_table(stats)
    coverage_line = next(l for l in markdown.splitlines() if "(Coverage %)" in l)
    assert "(10.0%)" in coverage_line


def test_stats_csv_round_trip_identical(minimal_db):
    exp = small_experiment(("A-Baseline", "DB-Baseline"), levels=2)
    _, stats = run_experiment(exp, minimal_db)
    _, csv_text = emit_table(stats)
    parsed = parse_stats_csv(csv_text)
    assert parsed == stats


# -- CLI --------------------------------------------------------------------------


def _db_path(tmp_path, db_name="test_minimal"):
    from importlib import resources

    data = resources.files("levelforge.data").joinpath(f"{db_name}.json").read_bytes()
    path = tmp_path / "db.json"
    path.write_bytes(data)
    return path


def test_cli_validate_db_ok(tmp_path, capsys):
    assert cli.main(["validate-db", str(_db_path(tmp_path))]) == 0
    assert "OK" in capsys.readouterr().out


def test_cli_validate_db_reports_violations(tmp_path, capsys):
    bad = {
        "facilities": [
            {
                "name": "Bad",
                "dimensions": {"width": -1, "length": 1, "height": 1},
                "positioning": "fixed",
            }
        ],
        "rooms": [],
        "mechanics": [],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert cli.main(["validate-db", str(path)]) == 1
    assert "dimensions-positive" in capsys.readouterr().out


def test_cli_experiment_refuses_a_non_integer_worker_count(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("LEVELFORGE_THREADS", "abc")
    with pytest.raises(ConfigError, match="LEVELFORGE_THREADS"):
        worker_count()
    args = ["experiment", "--db", str(_db_path(tmp_path)), "--levels-per-group", "1"]
    args += ["--out", str(tmp_path / "out"), "--width", "24", "--length", "24"]
    assert cli.main(args) == 1
    assert capsys.readouterr().err == (
        "error: LEVELFORGE_THREADS must be an integer, got 'abc'\n"
    )


def test_cli_unknown_group_is_an_error(tmp_path, capsys):
    db = str(_db_path(tmp_path))
    args = ["generate", "--db", db, "--group", "nope", "--seed", "1", "--out", str(tmp_path / "g")]
    assert cli.main(args) == 1
    assert capsys.readouterr().err.startswith("error: unknown group 'nope'")
    args = ["experiment", "--db", db, "--groups", "A-Baseline,nope", "--out", str(tmp_path / "e")]
    assert cli.main(args) == 1
    assert capsys.readouterr().err.startswith("error: unknown group 'nope'")
    assert not (tmp_path / "e").exists()


def test_an_initial_template_that_does_not_fit_is_an_arrangement_error(
    tmp_path, capsys, minimal_db
):
    message = "initial template 'Cell' does not fit the level bounds"
    with pytest.raises(ArrangementFailed) as info:
        generate_level(replace(small_config(), width=5, length=5), minimal_db, "A-Baseline", 1)
    assert type(info.value) is ArrangementFailed and str(info.value) == message
    code = cli.main(
        [
            "generate",
            "--db", str(_db_path(tmp_path)),
            "--group", "A-Baseline",
            "--seed", "1",
            "--out", str(tmp_path / "g"),
            "--width", "5", "--length", "5", "--height", "6", "--floors", "2",
        ]
    )
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"


_BAD_SHAPES = [
    {"floors": 0},
    {"floors": -1},
    {"floors": 1.5},
    {"floors": True},
    {"width": 0.0},
    {"length": -3.0},
    {"height": math.nan},
    {"width": math.inf},
    {"width": 1e9},  # over MAX_GRID_CELLS; refused before anything is allocated
]


def test_a_floor_lower_than_the_tallest_template_is_refused_at_entry(
    hospital_db, monkeypatch, tmp_path, capsys
):
    # paper size at a 1/3 m floor height; every sh_hospital template is 3 m tall
    message = (
        "the floor height 0.3333333333333333 (height / floors) is below the "
        "tallest selected template's 3.0"
    )
    monkeypatch.setattr(harness, "_layout_rooms", lambda jobs: pytest.fail("a room was laid out"))
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        generate_level(LevelConfig(height=1, floors=3), hospital_db, "A-Baseline", 0)
    db = str(resources.files("levelforge.data").joinpath("sh_hospital.json"))
    args = ["--db", db, "--group", "A-Baseline", "--seed", "0", "--out", str(tmp_path / "g")]
    assert cli.main(["generate", *args, "--height", "1", "--floors", "3"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_generated_level_that_cannot_exist_is_refused(minimal_db, monkeypatch, tmp_path, capsys):
    # the Vault's fixed Pillar authored at x = 100 m in a 6 m wide room; the
    # database validates clean
    doc = json.loads(save_database(minimal_db))
    vault = next(r for r in doc["rooms"] if r["name"] == "Vault")
    vault["characteristic_facilities"][0]["positions"][0]["x"] = 100.0
    db = load_database(json.dumps(doc))
    assert validate_database(db) == []
    message = "facility 'r25.Pillar.0' does not fit inside room 25"
    for seed in range(4):
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            generate_level(small_config(), db, "DB-Speedrun", seed)
    monkeypatch.setenv("LEVELFORGE_THREADS", "1")
    records, _ = run_experiment(small_experiment(("DB-Speedrun",), levels=2), db)
    assert [r.status for r in records] == ["failed", "failed"]
    path = tmp_path / "db.json"
    path.write_bytes(save_database(db))
    args = ["--db", str(path), "--group", "DB-Speedrun", "--seed", "0", "--out", str(tmp_path / "g")]
    assert cli.main(["generate", *args, "--width", "24", "--length", "24", "--height", "6",
                     "--floors", "2"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_fixed_facility_short_of_positions_is_a_schema_error(minimal_db):
    # the Vault's fixed Pillar counted twice with one authored position: the
    # validator flags it and the database still loads
    doc = json.loads(save_database(minimal_db))
    vault = next(r for r in doc["rooms"] if r["name"] == "Vault")
    vault["characteristic_facilities"][0]["count"] = 2
    db = load_database(json.dumps(doc))
    assert [v.rule for v in validate_database(db)] == ["fixed-positions"]
    message = "room template 'Vault': fixed facility 'Pillar' has 1 position(s) for a count of 2"
    with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
        generate_level(small_config(), db, "DB-Speedrun", 0)


@pytest.mark.parametrize("shape", _BAD_SHAPES)
def test_a_level_shape_that_cannot_be_built_is_a_config_error(minimal_db, shape):
    config = replace(small_config(), **shape)
    with pytest.raises(ConfigError):
        config.check()
    with pytest.raises(ConfigError):
        generate_level(config, minimal_db, "A-Baseline", 3)
    exp = ExperimentConfig(groups=("A-Baseline",), levels_per_group=1, base_seed=7, level=config)
    with pytest.raises(ConfigError):
        run_experiment(exp, minimal_db)


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--floors", "0", "floors must be an integer >= 1, got 0"),
        ("--floors", "-1", "floors must be an integer >= 1, got -1"),
        ("--height", "nan", "width, length and height must be finite and > 0"),
        ("--width", "1e9", "the nav grid must have at most 10000000 cells, got 1000000000 x"),
    ],
)
def test_cli_refuses_a_level_shape_that_cannot_be_built(tmp_path, capsys, flag, value, message):
    args = ["--db", str(_db_path(tmp_path)), "--out", str(tmp_path / "out"), flag, value]
    assert cli.main(["generate", "--group", "A-Baseline", "--seed", "3", *args]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert cli.main(["experiment", "--levels-per-group", "1", *args]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")


# one value per rule of `LevelConfig.check` on the annealing schedule and weights
_BAD_SCHEDULES = [
    ("sa", "iterations", -1),
    ("sa", "iterations", 2.5),
    ("sa", "restarts", 0),
    ("sa", "restarts", True),
    ("sa", "cooling_rate", 1.5),
    ("sa", "cooling_rate", 0.0),
    ("sa", "cooling_rate", math.nan),
    ("sa", "initial_temperature", -1.0),
    ("sa", "initial_temperature", math.inf),
    ("sa", "translate_prob", 1.5),
    ("sa", "translate_prob", -0.1),
    ("sa", "translate_prob", math.nan),
    ("sa", "step_frac", -0.1),
    ("sa", "step_frac", math.inf),
    ("weights", "w_near", math.nan),
    ("weights", "sparsity_scale", -math.inf),
    ("weights", "topo_far_dmin", "3"),
]


def _with(config, part, name, value):
    return replace(config, **{part: replace(getattr(config, part), **{name: value})})


@pytest.mark.parametrize("part, name, value", _BAD_SCHEDULES)
def test_a_schedule_or_weight_that_cannot_anneal_is_a_config_error(minimal_db, part, name, value):
    config = _with(small_config(), part, name, value)
    with pytest.raises(ConfigError, match=f"^{part}.{name} must be"):
        config.check()
    with pytest.raises(ConfigError):
        generate_level(config, minimal_db, "A-Baseline", 3)
    exp = ExperimentConfig(groups=("A-Baseline",), levels_per_group=1, base_seed=7, level=config)
    with pytest.raises(ConfigError):
        run_experiment(exp, minimal_db)


def test_the_edges_of_each_schedule_rule_and_the_pinned_configs_pass_the_check():
    edges = [
        ("iterations", 0),
        ("restarts", 1),
        ("cooling_rate", 1.0),
        ("initial_temperature", 0.0),
        ("translate_prob", 0.0),
        ("translate_prob", 1),
        ("step_frac", 0.0),
    ]
    for name, value in edges:
        _with(LevelConfig(), "sa", name, value).check()
    _with(LevelConfig(), "weights", "w_near", -4.0).check()  # finite, if negative
    LevelConfig().check()
    small_config().check()


# one value per way a selection field can break its rule in `LevelConfig.check`
_BAD_SELECTIONS = [
    ("selected_templates", (("Hall", "x"),)),
    ("selected_templates", (("Hall", -1),)),
    ("selected_templates", (("Hall", 1.0),)),
    ("selected_templates", (("Hall",),)),
    ("selected_templates", ((None, 1),)),
    ("selected_templates", "Hall"),
    ("selected_mechanics", (("FloorKey", "2"),)),
    ("selected_mechanics", (("FloorKey", -1),)),
    ("selected_mechanics", (("FloorKey", None),)),
    ("selected_mechanics", (("FloorKey", True),)),
    ("selected_mechanics", (("FloorKey", 1, 2),)),
    ("selected_mechanics", None),
    ("initial_template", 3),
]


@pytest.mark.parametrize("name, value", _BAD_SELECTIONS)
def test_a_selection_that_breaks_its_rule_is_a_config_error(minimal_db, name, value):
    config = replace(small_config(), **{name: value})
    with pytest.raises(ConfigError, match=f"^{name} must be"):
        config.check()
    with pytest.raises(ConfigError):
        generate_level(config, minimal_db, None, 3)
    replace(
        small_config(),
        selected_templates=(("Hall", None), ("Cell", 0), ("Vault", 2)),
        selected_mechanics=(("FloorKey", 0), ("KeyA", 3)),
        initial_template="Hall",
    ).check()


def test_cli_refuses_a_schedule_that_cannot_anneal(tmp_path, capsys, monkeypatch):
    bad = _with(small_config(), "sa", "cooling_rate", 1.5)
    monkeypatch.setattr(cli, "_level_config", lambda args: bad)
    args = ["--db", str(_db_path(tmp_path)), "--out", str(tmp_path / "out")]
    message = "error: sa.cooling_rate must be finite and in (0, 1], got 1.5\n"
    assert cli.main(["generate", "--group", "A-Baseline", "--seed", "3", *args]) == 1
    assert capsys.readouterr().err == message
    assert cli.main(["experiment", "--levels-per-group", "1", *args]) == 1
    assert capsys.readouterr().err == message


def test_cli_missing_file_is_io_error(tmp_path):
    assert cli.main(["validate-db", str(tmp_path / "nope.json")]) == 2


def test_cli_generate_simulate_and_export_vmf(tmp_path, capsys):
    db = _db_path(tmp_path)
    out = tmp_path / "out"
    code = cli.main(
        [
            "generate",
            "--db", str(db),
            "--group", "db-baseline",
            "--seed", "3",
            "--out", str(out),
            "--width", "24", "--length", "24", "--height", "6", "--floors", "2",
            "--trace",
        ]
    )
    assert code == 0
    assert (out / "level.json").exists()
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["status"] in ("valid", "unrepairable", "abnormal")
    rows = [json.loads(line) for line in (out / "trace.jsonl").read_text().splitlines()]
    assert rows
    # the trace is the rerun's walk: it ends at the rerun time, one step at a time
    assert rows[-1]["t"] == metrics["rerun_time"]
    for a, b in zip(rows, rows[1:]):
        planar = abs(a["x"] - b["x"]) + abs(a["y"] - b["y"])
        floors = abs(a["floor"] - b["floor"])
        assert (planar, floors) in ((1, 0), (0, 1)), (a, b)

    capsys.readouterr()
    assert cli.main(["simulate", "--level", str(out / "level.json")]) == 0
    sim = json.loads(capsys.readouterr().out)
    assert sim["simulation_time"] > 0.0

    vmf = tmp_path / "level.vmf"
    assert cli.main(
        ["export-vmf", "--level", str(out / "level.json"), "--out", str(vmf)]
    ) == 0
    from vmf_reader import read_vmf

    summary = read_vmf(vmf.read_bytes())
    assert summary.brush_count > 0


@pytest.mark.parametrize(
    "group, key",
    [
        ("A-Baseline", "FloorKey"),
        ("DB-Baseline", "FloorKey"),
        ("A-Exploration", "KeyFragment"),
        ("DB-Exploration", "KeyFragment"),
    ],
)
def test_cli_generate_without_the_groups_key_definition_fails(tmp_path, capsys, group, key):
    path = _db_path(tmp_path)
    doc = json.loads(path.read_text())
    doc["mechanics"] = [m for m in doc["mechanics"] if m["name"] != key]
    path.write_text(json.dumps(doc))
    code = cli.main(
        [
            "generate",
            "--db", str(path),
            "--group", group,
            "--seed", "7",
            "--out", str(tmp_path / "out"),
            "--width", "24", "--length", "24", "--height", "6", "--floors", "2",
        ]
    )
    assert code == 1
    assert f"mechanic {key!r} not in database" in capsys.readouterr().err


def test_cli_experiment_writes_outputs(tmp_path):
    db = _db_path(tmp_path)
    out = tmp_path / "exp"
    code = cli.main(
        [
            "experiment",
            "--db", str(db),
            "--groups", "A-Speedrun",
            "--levels-per-group", "1",
            "--base-seed", "5",
            "--out", str(out),
            "--width", "24", "--length", "24", "--height", "6", "--floors", "2",
        ]
    )
    assert code == 0
    for name in ("records.csv", "stats.md", "stats.csv"):
        assert (out / name).exists()
