#!/usr/bin/env python3
"""wspsolve benchmark: one workload, one seed, one result line.

Usage, from the root of a source checkout (stdlib only, nothing to build):

    python3 perfbench/run.py --workload paper-k30 --seed 0 --seconds 15 --trace 0

Workloads are listed in ``perfbench/workloads.py``.  With ``--trace 0``
the run reports the end-to-end metrics, whose times are scaled to a
reference machine speed (see ``harness.py``); with ``--trace 1`` it
makes one untraced and one traced pass and reports the per-layer
metrics, unscaled, next to the calibration probe's time.  Lines
before the last describe the run (Python version, CPU count, revision,
seed, per-instance limit, calibration probe, verdicts); the last line is
the JSON result.  The exit code is 0 when every output checked out, 1
when some instance failed its check, and 2 when the sources or the
arguments are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "expected.json"


def _revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def run(workload_name: str, seed: int, seconds: float, trace: bool, scale: int = 1) -> tuple[dict, dict]:
    """Measure one workload; returns (result object, run description).

    ``scale`` above 1 shrinks every workload for the harness self-test.
    """
    import harness
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    pins = json.loads(PINS.read_text())
    setup = harness.set_up(workload, seed, scale)
    items = setup.items

    if trace:
        import layers

        first: dict = {}
        untraced = harness.run_pass(workload, items, pins, first)
        slowest = max(untraced, key=lambda r: r.total_s).id
        traced, tracer = layers.traced_pass(workload, items, pins, first, slowest)
        passes = [untraced, traced]
    else:
        passes = harness.measure(workload, items, seconds, pins)

    records = [r for p in passes for r in p]
    probe_s = statistics.median(setup.probes + [t for r in records for t in r.probes])
    failed = [r for r in records if r.problem is not None]
    if trace:
        metrics = {
            "calib_ms": (probe_s * 1000, "ms"),
            "generator.ms_per_instance": (setup.raw_s / len(items) * 1000, "ms"),
            **harness.pass_layers(untraced),
            **layers.traced_layers(traced, tracer, harness.pass_wall_s(untraced)),
            **layers.replay(tracer, dict(items)[slowest]),
        }
        extra = {"absent": tracer.absent, "slowest": slowest, "spans": layers.spans_of(traced)}
    else:
        metrics = harness.end_to_end(passes, setup, _peak_rss_mb())
        extra = {"setup_raw_s": setup.raw_s}
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    about = {
        "workload": workload_name,
        "seed": seed,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "revision": _revision(),
        "limit_s": harness.LIMIT_S,
        "passes": len(passes),
        "calib_ms": probe_s * 1000,
        "pass_wall_s": [harness.pass_wall_s(p) for p in passes],
        "verdicts": {r.id: r.verdict for r in passes[0]},
        "problems": [f"{r.id}: {r.problem}" for r in failed],
        **extra,
    }
    return result, about


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "wspsolve" / "__init__.py").is_file():
        print(f"perfbench: no wspsolve sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    result, about = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"run": about}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
