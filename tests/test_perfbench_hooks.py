"""The benchmark traces the pipeline by wrapping module attributes by name,
and calls pipeline stages directly for its replay pass and kernel timings;
every name it wraps must still exist and every call it makes must still run."""

import math
import sys
from pathlib import Path

import pytest

from levelforge.arrangement import LevelConfig
from levelforge.export import export_level_json
from levelforge.harness import generate_level

# perfbench's modules import each other by bare name, as `python3 perfbench/run.py` does
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import layers  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize(
    "module, attr",
    [
        pytest.param(module, attr, id=f"{module.__name__}.{attr}")
        for module, attr, _ in layers.PIPELINE_CALLS + layers.BATCH_CALLS
    ],
)
def test_traced_attribute_resolves_to_a_callable(module, attr):
    assert callable(getattr(module, attr, None))


def test_replay_and_kernel_timings_run_on_a_generated_level(minimal_db):
    config = LevelConfig(width=24, length=24, height=6, floors=2)
    level, record = generate_level(config, minimal_db, "DB-Baseline", 7)
    assert record.status == "valid"
    digest, rerun_time, sim_time, _ = workloads.replay_level(export_level_json(level))
    assert (digest, rerun_time, sim_time) == (
        record.level_hash,
        record.rerun_time,
        record.simulation_time,
    )
    timings = layers.kernel_metrics(level)
    assert len(timings) == 3
    assert all(math.isfinite(v) and v > 0 for v in timings.values())
