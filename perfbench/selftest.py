#!/usr/bin/env python3
"""Fast self-test of the benchmark harness, about a minute on one CPU.

Runs every workload at toy size, untraced and traced, and asserts that
each metric named in BENCHMARK.json is emitted with its unit, that the
run description carries its stamp, and that every output checked out.
A last traced run hides one wrapped entry point and one that never
existed, as an engine rewrite would, and asserts that the run still
succeeds with those boundaries reported absent.  Run from the root of a
source checkout:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import sys

import run

TOY_SCALE = 10
STAMP = ("python", "nproc", "revision", "seed", "limit_s", "calib_ms")


def check_metrics(name: str, result: dict, wanted: list[dict]) -> None:
    metrics = result["metrics"]
    for m in wanted:
        assert m["name"] in metrics, f"{name}: {m['name']} missing"
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], f"{name}: {m['name']} has unit {got['unit']}"
        assert isinstance(got["value"], (int, float)), f"{name}: {m['name']} is not a number"
    extra = set(metrics) - {m["name"] for m in wanted}
    assert not extra, f"{name}: unlisted metrics {sorted(extra)}"


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(run.ROOT / "src"))
    import layers
    from workloads import WORKLOADS

    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    for name in WORKLOADS:
        for trace, wanted in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            result, about = run.run(name, 1, 0.0, trace, scale=TOY_SCALE)
            assert result["correct"] and result["failed"] == 0, about["problems"]
            assert result["attempted"] >= 1
            check_metrics(name, result, wanted)
            for key in STAMP:
                assert key in about, f"{name}: run description lacks {key}"
            print(f"ok {name} trace={int(trace)} attempted={result['attempted']}")

    cls_name, codes, log = layers._STATE
    codes = {k: v for k, v in codes.items() if k != "select_step"}
    layers._STATE = (cls_name, {**codes, "select_step_renamed": "s"}, log)
    layers._FUNCTIONS = (*layers._FUNCTIONS, "no_such_function")
    result, about = run.run("scarce-users", 1, 0.0, True, scale=TOY_SCALE)
    assert result["correct"], about["problems"]
    assert about["absent"] == ["SearchState.select_step_renamed", "no_such_function"], about["absent"]
    assert "solver.select_step_us" not in result["metrics"]
    assert "solver.eligible_us" in result["metrics"]
    print("ok absent entry points are reported, not fatal")
    return 0


if __name__ == "__main__":
    sys.exit(main())
