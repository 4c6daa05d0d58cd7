"""Command line interface and the benchmark harness."""

from __future__ import annotations

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import GOLDEN_TEXT
import wspsolve
from wspsolve import (
    GeneratorConfig,
    Valid,
    generate,
    parse_instance,
    parse_solution,
    serialize_instance,
    validate_plan,
)
from wspsolve.cli import (
    BenchRecord,
    SuiteSpec,
    instance_id,
    main,
    parse_duration,
    parse_suite,
    read_bench_csv,
    run_bench,
    summarize_bench,
    write_bench_csv,
)

TINY_SUITE = "k=5 d=10 c=0.2k,0.4k,0.6k seeds=0..2"


@pytest.fixture
def golden_path(tmp_path):
    path = tmp_path / "golden.wsp"
    path.write_text(GOLDEN_TEXT)
    return str(path)


def run_cli(*argv) -> int:
    return main(list(argv))


# --- small parsers -----------------------------------------------------------


def test_parse_duration():
    assert parse_duration("90") == 90.0
    assert parse_duration("500ms") == 0.5
    assert parse_duration(" 30s ") == 30.0
    assert parse_duration("5m") == 300.0
    assert parse_duration("1h") == 3600.0
    assert parse_duration("0ms") == 0.0
    for bad in ("fast", "nan", "nanms", "-5s", "-1"):
        with pytest.raises(ValueError):
            parse_duration(bad)


def test_parse_suite():
    suite = parse_suite("k=30 d=10 c=1.0k,1.2k,1.4k seeds=0..9")
    assert suite == SuiteSpec((30,), 10.0, (1.0, 1.2, 1.4), tuple(range(10)))
    configs = suite.configs()
    assert len(configs) == 30
    assert {cfg.counting for cfg in configs} == {30, 36, 42}
    assert all(cfg.not_equals == 44 for cfg in configs)
    multi = parse_suite("k=5,6 d=0 c=1k seeds=3,5")
    assert multi.step_counts == (5, 6)
    assert multi.seeds == (3, 5)


@pytest.mark.parametrize(
    "text",
    [
        "k=5 d=10 c=1k",  # seeds missing
        "k=5 d=10 c=12 seeds=0..1",  # c not scaled by k
        "k=5 k=6 d=10 c=1k seeds=0",  # duplicate key
        "k=5 d=10 c=1k seeds=0 extra",  # not key=value
        "k=5,5 d=10 c=1k seeds=0",  # repeated k
        "k=5 d=10 c=1k,1.0k seeds=0",  # repeated c
        "k=5 d=10 c=1k seeds=0,0",  # repeated seed
    ],
)
def test_parse_suite_rejects(text):
    with pytest.raises(ValueError):
        parse_suite(text)


# --- solve -------------------------------------------------------------------


def test_solve_golden(golden_path, capsys):
    code = run_cli("solve", golden_path)
    assert code == 0
    status, plan = parse_solution(capsys.readouterr().out)
    assert status == "sat"
    assert validate_plan(parse_instance(GOLDEN_TEXT), plan) == Valid()


def test_solve_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(GOLDEN_TEXT))
    assert run_cli("solve", "-") == 0
    assert capsys.readouterr().out.startswith("sat\n")


def test_solve_stats_on_stderr(golden_path, capsys):
    assert run_cli("solve", golden_path, "--stats") == 0
    err = capsys.readouterr().err
    stats = dict(line.split("=", 1) for line in err.splitlines())
    assert stats["status"] == "sat"
    assert int(stats["nodes"]) >= 1
    assert set(stats) == {
        "status",
        "parse_ms",
        "preprocess_ms",
        "nodes",
        "auth_prunes",
        "eligibility_prunes",
        "forward_prunes",
        "matching_prunes",
        "matchings",
        "matchings_full",
        "wall_ms",
    }


def test_solve_rejects_an_invalid_witness(golden_path, monkeypatch, capsys):
    # A solver bug that hands back a broken plan must not print "sat".
    def broken_solve(instance, time_limit=None):
        plan = dict.fromkeys(range(instance.step_count), 1)  # user 1 for every step
        return wspsolve.SolveOutcome(wspsolve.SAT, plan, wspsolve.SearchStats())

    monkeypatch.setattr(wspsolve.cli, "solve", broken_solve)
    assert run_cli("solve", golden_path) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: solver returned an invalid plan")


def test_solve_deep_instance(tmp_path, capsys):
    k = 2000
    text = f"wsp {k} 1\nauth 0 {' '.join(map(str, range(k)))}\n"
    path = tmp_path / "deep.wsp"
    path.write_text(text)
    assert run_cli("solve", str(path)) == 0
    status, plan = parse_solution(capsys.readouterr().out)
    assert status == "sat"
    assert validate_plan(parse_instance(text), plan) == Valid()


def test_solve_out_file(golden_path, tmp_path, capsys):
    out = tmp_path / "solution.txt"
    assert run_cli("solve", golden_path, "--out", str(out)) == 0
    assert capsys.readouterr().out == ""
    status, plan = parse_solution(out.read_text())
    assert status == "sat" and plan is not None


def test_solve_unsat_exit_code(tmp_path, capsys):
    path = tmp_path / "unsat.wsp"
    path.write_text("wsp 2 1\nauth 0 0 1\nne 0 1\n")
    assert run_cli("solve", str(path)) == 20
    assert capsys.readouterr().out == "unsat\n"


def test_solve_timeout_exit_code(golden_path, capsys):
    assert run_cli("solve", golden_path, "--time-limit", "0ms") == 21
    assert capsys.readouterr().out == "timeout\n"


def test_solve_rejects_nan_time_limit(golden_path, capsys):
    assert run_cli("solve", golden_path, "--time-limit", "nan") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_solve_parse_error(tmp_path, capsys):
    path = tmp_path / "broken.wsp"
    path.write_text("wsp 2 1\nauth 0 0\nne 0 9\n")
    assert run_cli("solve", str(path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 3:")


def test_solve_missing_file(capsys):
    assert run_cli("solve", "/no/such/file.wsp") == 2
    assert capsys.readouterr().err.startswith("error:")


# --- generate ----------------------------------------------------------------


def test_generate_single(capsys):
    assert run_cli("generate", "-k", "5", "-e", "2", "-c", "1", "--seed", "3") == 0
    first = capsys.readouterr().out
    inst = parse_instance(first)
    assert inst.step_count == 5
    assert inst.user_count == 50
    assert len(inst.constraints) == 2 + 1 + 1
    assert run_cli("generate", "-k", "5", "-e", "2", "-c", "1", "--seed", "3") == 0
    assert capsys.readouterr().out == first


def test_generate_density_and_users(capsys):
    assert run_cli("generate", "-k", "20", "-d", "10", "--users", "7") == 0
    inst = parse_instance(capsys.readouterr().out)
    assert inst.user_count == 7
    assert len(inst.constraints) == 19


def test_generate_argument_validation(capsys):
    assert run_cli("generate", "-k", "5", "-e", "1", "-d", "10") == 2
    assert run_cli("generate", "-k", "5") == 2
    assert run_cli("generate", "-e", "1") == 2
    assert run_cli("generate", "-k", "5", "-e", "99") == 2
    assert capsys.readouterr().err.count("error:") == 4


def test_generate_suite_files(tmp_path, capsys):
    out_dir = tmp_path / "corpus"
    code = run_cli(
        "generate", "--suite", "k=5 d=10 c=0.2k seeds=0..2", "--out-dir", str(out_dir)
    )
    assert code == 0
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == ["k5-d10-c1-s0.wsp", "k5-d10-c1-s1.wsp", "k5-d10-c1-s2.wsp"]
    for p in sorted(out_dir.iterdir()):
        assert parse_instance(p.read_text()).step_count == 5
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 3


def test_generate_wide_instance_round_trips(tmp_path):
    out = tmp_path / "wide.wsp"
    argv = ["generate", "--steps", "30", "--users", "20000", "-d", "10", "-c", "30"]
    assert run_cli(*argv, "--seed", "3", "--out", str(out)) == 0
    assert parse_instance(out.read_text()) == generate(GeneratorConfig(30, 44, 30, 3, users=20000))


def test_generate_suite_writes_the_serialized_instances(tmp_path):
    suite = "k=6,9 d=20 c=0.5k,1.0k seeds=4..5"
    assert run_cli("generate", "--suite", suite, "--out-dir", str(tmp_path)) == 0
    configs = parse_suite(suite).configs()
    assert len(configs) == len(list(tmp_path.iterdir())) == 8
    for config in configs:
        path = tmp_path / f"{instance_id(config, 20)}.wsp"
        assert path.read_text() == serialize_instance(generate(config))


# --- enumerate ---------------------------------------------------------------


def test_enumerate_golden(golden_path, capsys):
    assert run_cli("enumerate", golden_path) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "patterns 1"
    assert lines[1] == "pattern 1 1 2 3"
    assert lines[2:] == ["assign 0 0", "assign 1 0", "assign 2 3", "assign 3 4"]


def test_enumerate_unsat(tmp_path, capsys):
    path = tmp_path / "unsat.wsp"
    path.write_text("wsp 2 1\nauth 0 0 1\nne 0 1\n")
    assert run_cli("enumerate", str(path)) == 20
    assert capsys.readouterr().out == "patterns 0\n"


def test_enumerate_timeout(golden_path, capsys):
    assert run_cli("enumerate", golden_path, "--time-limit", "0ms", "--stats") == 21
    captured = capsys.readouterr()
    assert captured.out == "timeout\n"
    assert "status=timeout" in captured.err.splitlines()


def test_enumerate_stats_report_the_reading_phases(golden_path, capsys):
    assert run_cli("enumerate", golden_path, "--stats") == 0
    stats = dict(line.split("=", 1) for line in capsys.readouterr().err.splitlines())
    assert stats["status"] == "sat"
    assert int(stats["parse_ms"]) >= 0
    assert int(stats["preprocess_ms"]) >= 0


def test_enumerate_rejects_an_invalid_witness(golden_path, monkeypatch, capsys):
    # One broken witness among good ones must keep every pattern unprinted.
    def broken_enumerating(instance, time_limit=None):
        out = wspsolve.solve_enumerating(instance, time_limit)
        plans = [*out.plans, dict.fromkeys(range(instance.step_count), 1)]
        patterns = (*out.patterns, (1,) * instance.step_count)
        return wspsolve.EnumerationOutcome(patterns, plans, out.stats, False)

    monkeypatch.setattr(wspsolve.cli, "solve_enumerating", broken_enumerating)
    assert run_cli("enumerate", golden_path) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: solver returned an invalid plan")


# --- oracle ------------------------------------------------------------------


def test_oracle_golden(golden_path, capsys):
    assert run_cli("oracle", golden_path, "--patterns") == 0
    assert capsys.readouterr().out == "sat\npatterns 1\npattern 1 1 2 3\n"


def test_oracle_unsat(tmp_path, capsys):
    path = tmp_path / "unsat.wsp"
    path.write_text("wsp 2 1\nauth 0 0 1\nne 0 1\n")
    assert run_cli("oracle", str(path)) == 20
    assert capsys.readouterr().out == "unsat\npatterns 0\n"


def test_oracle_budget_exit(golden_path, capsys):
    assert run_cli("oracle", golden_path, "--budget", "3") == 2
    assert "exceeds the budget" in capsys.readouterr().err


# --- bench -------------------------------------------------------------------


def test_bench_suite_csv(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = run_cli(
        "bench", "--suite", TINY_SUITE, "--time-limit", "30s", "--out", str(out)
    )
    assert code == 0
    with open(out, newline="") as f:
        records = read_bench_csv(f)
    instances = [r for r in records if r.kind == "instance"]
    sets = [r for r in records if r.kind == "set"]
    rates = [r for r in records if r.kind == "rate"]
    assert len(instances) == 9 and len(sets) == 3 and len(rates) == 1
    assert {r.c for r in instances} == {1, 2, 3}
    assert all(r.verdict in ("sat", "unsat") for r in instances)
    assert all(r.verdict == "ok" for r in sets)
    assert rates[0].success_rate == 1.0
    err = capsys.readouterr().err
    assert "instances: 9" in err
    assert "k=5: success rate 1.000" in err


def test_bench_summarize_existing_csv(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert run_cli("bench", "--suite", "k=5 d=0 c=1k seeds=0..1", "--out", str(out)) == 0
    capsys.readouterr()
    assert run_cli("bench", "--summarize", str(out)) == 0
    assert "instances: 2" in capsys.readouterr().out


_BENCH_HEADER = "kind,id,k,e,c,seed,verdict,wall_ms,nodes,matchings,prunes,success_rate\n"


@pytest.mark.parametrize(
    "rows",
    [
        # instance rows without wall_ms (the slowest-instance line compared None)
        "instance,k5-a,5,1,1,0,sat,,10,1,2,\ninstance,k5-b,5,1,2,0,unsat,,12,1,3,\n",
        # a rate row without its rate (formatted None)
        "rate,k5,5,,,,,,,,,\n",
        "total,k5,5,,,,,,,,,\n",  # unknown kind
        "instance,k5-a,5\n",  # a short row
    ],
    ids=["no-wall-ms", "no-success-rate", "unknown-kind", "short-row"],
)
def test_bench_summarize_rejects_incomplete_rows(tmp_path, capsys, rows):
    path = tmp_path / "bench.csv"
    path.write_text(_BENCH_HEADER + rows)
    assert run_cli("bench", "--summarize", str(path)) == 2
    assert "error:" in capsys.readouterr().err


def test_bench_requires_suite_or_summarize(capsys):
    assert run_cli("bench") == 2
    assert "error:" in capsys.readouterr().err


def test_bench_jobs_match_serial():
    suite = parse_suite("k=5 d=10 c=0.4k seeds=0..3")
    serial = run_bench(suite, time_limit=30)
    parallel = run_bench(suite, time_limit=30, jobs=2)

    def key_rows(records):
        return {
            r.id: (r.verdict, r.nodes, r.matchings, r.prunes)
            for r in records
            if r.kind == "instance"
        }

    assert key_rows(serial) == key_rows(parallel)


def test_bench_csv_round_trip():
    records = [
        BenchRecord(
            kind="instance", id="k5-d10-c1-s0", k=5, e=1, c=1, seed=0,
            verdict="sat", wall_ms=3, nodes=17, matchings=1, prunes=4,
        ),
        BenchRecord(kind="rate", id="k5", k=5, success_rate=0.5),
    ]
    buffer = io.StringIO()
    write_bench_csv(records, buffer)
    buffer.seek(0)
    assert read_bench_csv(buffer) == records
    with pytest.raises(ValueError):
        read_bench_csv(io.StringIO("a,b,c\n1,2,3\n"))


def test_summarize_detects_tampered_rows():
    suite = parse_suite("k=5 d=0 c=1k seeds=0")
    records = run_bench(suite, time_limit=30)
    summarize_bench(records)  # consistent as produced
    broken = [
        BenchRecord(**{**r.__dict__, "verdict": "failed"}) if r.kind == "set" else r
        for r in records
    ]
    with pytest.raises(ValueError):
        summarize_bench(broken)


# --- exit-code contract ------------------------------------------------------


_BAD_INPUTS = {
    # A user index near 10**18 and one auth line.
    "absurd": "wsp 1 1000000000000000000\nauth 999999999999999999 0\n".encode(),
    "binary": b"\xff\xfewsp 1 1\n",
    # Step counts whose masks cannot be allocated: MemoryError, OverflowError.
    "huge_k": b"wsp 1000000000000000000 1\nauth 0 0\n",
    "huger_k": b"wsp 100000000000000000000 1\nauth 0 0\n",
    # Instance rows without their optional counters summarise fine.
    "bare_csv": (_BENCH_HEADER + "instance,k5-a,5,,,0,sat,3,,,,\n").encode(),
    # A rate row that disagrees with its instance row.
    "bad_rate": (_BENCH_HEADER + "instance,k5-a,5,,,0,sat,3,,,,\nrate,k5,5,,,,,,,,,0.5\n").encode(),
}

_HUGE_SEEDS = "k=5 d=10 c=1k seeds=0..100000000000000000000"

# An oversize number's error line names the field it was read from.
_ERROR_LINES = {
    ("solve", "{huge_k}"): "error: line 1: step count 1000000000000000000 is too large",
    ("enumerate", "{huge_k}"): "error: line 1: step count 1000000000000000000 is too large",
    ("solve", "{huger_k}"): "error: line 1: step count 100000000000000000000 is too large",
    ("enumerate", "{huger_k}"): "error: line 1: step count 100000000000000000000 is too large",
    ("bench", "--suite", _HUGE_SEEDS): "error: suite seeds range '0..100000000000000000000' is too large",
    ("generate", "-k", "73786976294838206466", "-e", "0"): "error: step count 73786976294838206466 exceeds 2**64",
    ("generate", "-k", "18446744073709551617", "-e", "0"): "error: step count 18446744073709551617 exceeds 2**64",
    ("bench", "--suite", "k=100000000000000000000 d=10 c=1k seeds=0"): (
        "error: step count 100000000000000000000 exceeds 2**64"
    ),
}


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("solve", "{absurd}"), 2),
        (("enumerate", "{absurd}"), 2),
        (("oracle", "{absurd}"), 2),
        (("solve", "{binary}"), 2),
        (("enumerate", "{binary}"), 2),
        (("oracle", "{binary}"), 2),
        (("solve", "{huge_k}"), 2),
        (("enumerate", "{huge_k}"), 2),
        (("solve", "{huger_k}"), 2),
        (("enumerate", "{huger_k}"), 2),
        (("solve", "{dir}"), 2),
        (("enumerate", "{dir}"), 2),
        (("oracle", "{dir}"), 2),
        (("generate", "--suite", "k=5,5 d=10 c=1k seeds=0", "--out-dir", "{dir}"), 2),
        (("generate", "-k", "5", "-e", "1", "--out", "{dir}"), 2),
        (("bench", "--suite", "k=5 d=10 c=1k seeds=0,0"), 2),
        (("bench", "--suite", _HUGE_SEEDS), 2),
        # Over 2**64 steps: one draw cannot pick among them.
        (("generate", "-k", "73786976294838206466", "-e", "0"), 2),
        (("generate", "-k", "18446744073709551617", "-e", "0"), 2),
        (("bench", "--suite", "k=100000000000000000000 d=10 c=1k seeds=0"), 2),
        (("bench", "--summarize", "{binary}"), 2),
        (("bench", "--summarize", "{dir}"), 2),
        (("bench", "--summarize", "{bare_csv}"), 0),
        (("bench", "--summarize", "{bad_rate}"), 2),
    ],
    ids=lambda x: " ".join(x) if isinstance(x, tuple) else None,
)
def test_exit_code_contract(tmp_path, capsys, argv, expected):
    paths = {"dir": str(tmp_path)}
    for name, data in _BAD_INPUTS.items():
        path = tmp_path / name
        path.write_bytes(data)
        paths[name] = str(path)
    code = run_cli(*(arg.format_map(paths) for arg in argv))
    assert code in (0, 20, 21, 2)
    assert code == expected
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert _ERROR_LINES.get(argv, "") in err


# --- module entry point ------------------------------------------------------


def test_python_dash_m_smoke(golden_path):
    # Run the same package the tests import, installed or not.
    src = str(Path(wspsolve.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    proc = subprocess.run(
        [sys.executable, "-m", "wspsolve", "solve", golden_path, "--stats"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("sat\n")
    assert "status=sat" in proc.stderr
