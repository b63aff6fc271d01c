"""levelforge benchmark: paper-scale level generation and stored-level replay.

Run from the repository root:

    python3 perfbench/run.py --workload paper_level --seed 1 --seconds 35 --trace 0

Human-readable lines come first; the last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`. With
`--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
per-layer ones from a separate traced pass. Exit code 1 means an output
check failed, 2 that the program could not be found or run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

END_TO_END_UNITS = {
    "levels_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
P90_MIN_SAMPLES = 100


def peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest of its children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def reference_loop_ms(reps: int = 5) -> float:
    """Median time of a fixed pure-Python loop: how fast this machine runs
    interpreted code right now. Recorded with the result, never in a metric."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1000.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "levelforge" / "__init__.py").is_file():
        print(f"levelforge sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import numpy

    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    reference_before = reference_loop_ms()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        result = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace), Path(tmp)
        )

    reference_after = reference_loop_ms()
    samples = sorted(result.level_s)
    end_to_end = {
        "levels_per_s": result.levels_per_s,
        "setup_s": result.setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    latency = {
        "latency.samples": len(samples),
        "latency.level_s_p50": statistics.median(samples) if samples else 0.0,
        "latency.level_s_p90": (
            statistics.quantiles(samples, n=10)[-1] if len(samples) >= P90_MIN_SAMPLES else 0.0
        ),
    }
    env = {
        "workload": args.workload,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "base_seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "src_lines": layers.src_lines(ROOT),
        "reference_loop_ms": [round(reference_before, 3), round(reference_after, 3)],
        **result.env,
    }
    print("env " + json.dumps(env, sort_keys=True))
    for line in result.notes:
        print(line)
    for name, value in end_to_end.items():
        print(f"metric {name} = {value:.6g} {END_TO_END_UNITS[name]}")
    print(f"metric level_s_p50 = {latency['latency.level_s_p50']:.6g} s over {len(samples)} samples")
    if len(samples) >= P90_MIN_SAMPLES:
        print(f"metric level_s_p90 = {latency['latency.level_s_p90']:.6g} s over {len(samples)} samples")
    print(f"metric failed_share = {result.failed / result.attempted:.6g} "
          f"({result.failed} of {result.attempted})")
    correct = all(ok for _, ok, _ in result.checks)
    for name, ok, detail in result.checks:
        print(f"check {'ok' if ok else 'FAILED'}: {name} ({detail})")

    if args.trace:
        result.per_layer["src.lines"] = env["src_lines"]
        result.per_layer.update(latency)
        metrics = {
            name: {"value": float(result.per_layer.get(name, 0.0)), "unit": unit}
            for name, unit in layers.PER_LAYER_UNITS.items()
        }
        for name, m in metrics.items():
            print(f"layer {name} = {m['value']:.6g} {m['unit']}")
        out_dir = ROOT / ".perfbench-out"
        out_dir.mkdir(exist_ok=True)
        stem = out_dir / f"{args.workload}-seed{args.seed}"
        if result.tracer is not None:
            result.tracer.write(stem.with_suffix(".spans.jsonl"))
        stem.with_suffix(".json").write_text(
            json.dumps({"env": env, "end_to_end": end_to_end, "per_layer": metrics}, indent=1)
        )
    else:
        metrics = {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in end_to_end.items()
        }
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
