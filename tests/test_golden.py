"""Golden-output pin: byte-level hashes of a fixed small experiment and of
one paper-scale level per group.

A change that alters any pinned hash changes generated levels; it must say
why and show the acceptance suite still passing before the pin moves.
"""

import hashlib

import pytest

from levelforge.arrangement import LevelConfig
from levelforge.harness import GROUPS, ExperimentConfig, generate_level, level_seed, run_experiment
from levelforge.layout import SAParams

pytestmark = pytest.mark.golden

RECORDS_SHA256 = "0d3166aaefa16fbe1e2e8d8b5e57bbf14d669ba3e73b1231cbda9b0a91121626"

PAPER_LEVEL_HASHES = {
    "A-Baseline": "183e5f807e85bc2599b1684edfe11d330c89f4352d5375bb474065d236a34fb4",
    "DB-Baseline": "6aceed5a8669f3557952993572332a3b60d708056ed1e9cf6382b939a90d34ad",
    "A-Exploration": "c16d93a11ff77b44a38728273a289bb80717fdd1f8a9912103229a5dbe20838f",
    "DB-Exploration": "fc067c2c8900161e91b031ed08c3357f4acc8cb986a3cf32d798a644f25f1eb0",
    "A-Speedrun": "8b37c527a5ae50a2f470f4275653e469bd4b110ab0a363ade8827c959b365968",
    "DB-Speedrun": "9b0a8b686b0f63102961e7df3542a46b5c74e565ce54f56eb9b1111f8ef5bdc7",
}


def test_small_experiment_records_csv_is_pinned(minimal_db, tmp_path, monkeypatch):
    monkeypatch.setenv("LEVELFORGE_THREADS", "1")
    exp = ExperimentConfig(
        groups=GROUPS,
        levels_per_group=2,
        base_seed=42,
        level=LevelConfig(
            width=24, length=24, height=6, floors=2, sa=SAParams(iterations=120)
        ),
        output_dir=tmp_path,
    )
    run_experiment(exp, minimal_db)
    digest = hashlib.sha256((tmp_path / "records.csv").read_bytes()).hexdigest()
    assert digest == RECORDS_SHA256


@pytest.mark.parametrize("group", GROUPS)
def test_paper_scale_level_hash_is_pinned(hospital_db, group):
    level, record = generate_level(LevelConfig(), hospital_db, group, level_seed(42, group, 0))
    # the pin only guards the shared-wall and repair paths if they run
    assert any(e.kind == "open" for e in level.adjacency)
    assert level.doors and record.phase1_moves > 0
    assert record.level_hash == PAPER_LEVEL_HASHES[group]
