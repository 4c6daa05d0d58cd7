"""The package's public surface."""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import wspsolve
from conftest import GOLDEN_PLAN, GOLDEN_TEXT
from wspsolve.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
PERFBENCH = ROOT / "perfbench"


def test_all_names_resolve_and_are_sorted():
    assert wspsolve.__all__ == sorted(wspsolve.__all__)
    assert len(set(wspsolve.__all__)) == len(wspsolve.__all__)
    for name in wspsolve.__all__:
        assert hasattr(wspsolve, name), name


def test_readme_cli_flags_exist():
    """Every --flag in the README's CLI section is an option of the
    subcommand it is documented under: the one a ``wspsolve SUB`` usage
    line or a ``- `SUB` ...`` bullet names.  A flag in other prose there
    must be an option of some subcommand."""
    parser = build_parser()
    (subparsers,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    options = {
        name: set(sub._option_string_actions)
        for name, sub in subparsers.choices.items()
    }
    section = README.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    checked = 0
    owner = None
    for line in section.splitlines():
        usage = re.match(r"wspsolve (\w+)", line)
        bullet = re.match(r"- `(\w+)`", line)
        if usage or bullet:
            owner = (usage or bullet).group(1)
            assert owner in options, owner
        elif not line.startswith(" ") or not line.strip():
            owner = None  # neither a continuation line nor a bullet's
        for flag in re.findall(r"--[a-z][a-z-]*", line):
            checked += 1
            if owner is None:
                assert any(flag in opts for opts in options.values()), flag
            else:
                assert flag in options[owner], (owner, flag)
    assert checked


def test_imports_and_solves_without_fcntl():
    """The package uses ``fcntl`` only where it forks, so it imports and
    solves on a platform without the module."""
    code = (
        "import sys; sys.modules['fcntl'] = None\n"
        "from wspsolve import Valid, parse_instance, preprocess, solve, validate_plan\n"
        f"inst = parse_instance({GOLDEN_TEXT!r})\n"
        "pre = preprocess(inst)\n"
        "plan = pre.expand_plan(solve(pre.instance).plan)\n"
        "print(plan, validate_plan(inst, plan) == Valid())\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (run.returncode, run.stderr, run.stdout) == (0, "", f"{GOLDEN_PLAN} True\n")


@pytest.fixture
def perfbench_run(monkeypatch):
    """``perfbench/run.py``, imported as the benchmark runs it."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


@pytest.mark.parametrize("workload", ["paper-k30", "scarce-users", "enumerate", "wide-users"])
def test_benchmark_toy_run_checks_out(workload, perfbench_run):
    """The benchmark's own toy-size run, as ``perfbench/selftest.py`` makes
    it: a change to the model's public shape that breaks the benchmark
    fails here, and every sat witness, k=30 ones included, must pass
    ``validate_plan`` and the verdict and pattern-count pins."""
    result, about = perfbench_run.run(workload, 1, 0.0, False, scale=10)
    assert result["correct"] and result["failed"] == 0, about["problems"]


@pytest.mark.parametrize("workload", ["paper-k30", "scarce-users", "enumerate", "wide-users"])
def test_benchmark_traced_toy_run_finds_every_boundary(workload, perfbench_run):
    """The traced run wraps the search's per-node boundaries by name, and
    reports a renamed or deleted one absent rather than failing; this
    catches that, checks every per-layer metric is emitted, and that the
    result is strict JSON, as the benchmark's last line must be."""
    result, about = perfbench_run.run(workload, 1, 0.0, True, scale=10)
    assert result["correct"], about["problems"]
    assert about["absent"] == []
    json.dumps(result, allow_nan=False)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for metric in spec["per_layer"]:
        assert metric["name"] in result["metrics"], metric["name"]
