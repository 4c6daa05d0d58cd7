"""Command line interface and benchmark harness.

Subcommands: solve, generate, enumerate, oracle, bench.  Exit codes
form a machine contract: 0 sat, 20 unsat, 21 timeout, 2 input error.

The bench harness mirrors the generator's experiment protocol: a suite
like ``k=30 d=10 c=1.0k,1.2k,1.4k seeds=0..9`` produces three instances
per (k, seed), each solved under a per-instance time limit (one hour by
default).  The CSV report has one row per instance, one per (k, seed)
set (a set fails if any of its three instances timed out), and one
success-rate row per k giving the fraction of sets that finished.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path
from typing import Iterable, Sequence, get_args, get_type_hints

from .generator import GeneratorConfig, density_to_e, generate
from .model import (
    SAT,
    TIMEOUT,
    UNSAT,
    Plan,
    PreprocessResult,
    SearchStats,
    Valid,
    WorkflowInstance,
    format_solution,
    parse_instance,
    preprocess,
    serialize_instance,
    validate_plan,
)
from .oracle import DEFAULT_PLAN_BUDGET, oracle_solve
from .pattern import encode
from .solver import solve, solve_enumerating

EXIT_SAT = 0
EXIT_UNSAT = 20
EXIT_TIMEOUT = 21
EXIT_INPUT_ERROR = 2

_STATUS_EXIT = {SAT: EXIT_SAT, UNSAT: EXIT_UNSAT, TIMEOUT: EXIT_TIMEOUT}

_DURATION_UNITS = {"ms": 0.001, "s": 1.0, "m": 60.0, "h": 3600.0}


def parse_duration(text: str) -> float:
    """Seconds from '90', '500ms', '30s', '5m' or '1h'; never NaN or negative."""
    text = text.strip()
    number, scale = text, 1.0
    for unit in ("ms", "s", "m", "h"):
        if text.endswith(unit):
            number, scale = text[: -len(unit)], _DURATION_UNITS[unit]
            break
    seconds = float(number) * scale
    if math.isnan(seconds) or seconds < 0:
        raise ValueError(f"duration {text!r} is not a non-negative number")
    return seconds


def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


@dataclass(frozen=True)
class SuiteSpec:
    """Parsed form of a ``k=.. d=.. c=.. seeds=..`` suite description."""

    step_counts: tuple[int, ...]
    density: float
    c_multipliers: tuple[float, ...]
    seeds: tuple[int, ...]

    def configs(self) -> list[GeneratorConfig]:
        out = []
        for k in self.step_counts:
            e = density_to_e(k, self.density)
            for seed in self.seeds:
                for mult in self.c_multipliers:
                    out.append(
                        GeneratorConfig(k, e, _round_half_up(mult * k), seed)
                    )
        return out


def parse_suite(text: str) -> SuiteSpec:
    """Parse a suite description, e.g. 'k=30 d=10 c=1.0k,1.2k,1.4k seeds=0..9'."""
    parts: dict[str, str] = {}
    for token in text.split():
        if "=" not in token:
            raise ValueError(f"suite token {token!r} is not key=value")
        key, value = token.split("=", 1)
        if key in parts:
            raise ValueError(f"duplicate suite key {key!r}")
        parts[key] = value
    missing = {"k", "d", "c", "seeds"} - parts.keys()
    if missing:
        raise ValueError(f"suite is missing {sorted(missing)}")
    ks = tuple(int(x) for x in parts["k"].split(","))
    density = float(parts["d"])
    mults = []
    for item in parts["c"].split(","):
        item = item.strip()
        if not item.endswith("k"):
            raise ValueError(f"suite c entry {item!r} must be a multiple of k, like 1.2k")
        mults.append(float(item[:-1]))
    seeds_text = parts["seeds"]
    if ".." in seeds_text:
        lo, hi = seeds_text.split("..", 1)
        try:
            seeds = tuple(range(int(lo), int(hi) + 1))
        except (MemoryError, OverflowError):
            raise ValueError(f"suite seeds range {seeds_text!r} is too large") from None
    else:
        seeds = tuple(int(x) for x in seeds_text.split(","))
    if not (ks and mults and seeds):
        raise ValueError("suite needs at least one k, c and seed")
    suite = SuiteSpec(ks, density, tuple(mults), seeds)
    # A repeated value would run one instance twice under one id and
    # count it twice in its set.
    ids: set[str] = set()
    for config in suite.configs():
        iid = instance_id(config, density)
        if iid in ids:
            raise ValueError(f"suite repeats instance {iid}; k, c and seeds need distinct values")
        ids.add(iid)
    return suite


# --- bench records ----------------------------------------------------------

#: The fields beyond kind, id and k that the summary reads from each row kind.
_KIND_FIELDS = {
    "instance": ("seed", "verdict", "wall_ms"),
    "set": ("seed", "verdict"),
    "rate": ("success_rate",),
}


@dataclass(frozen=True)
class BenchRecord:
    kind: str  # instance | set | rate
    id: str
    k: int
    e: int | None = None
    c: int | None = None
    seed: int | None = None
    verdict: str | None = None
    wall_ms: int | None = None
    nodes: int | None = None
    matchings: int | None = None
    prunes: int | None = None
    success_rate: float | None = None

    def to_row(self) -> dict[str, str]:
        row = {}
        for f in fields(self):
            v = getattr(self, f.name)
            row[f.name] = "" if v is None else str(v)
        return row

    @classmethod
    def from_row(cls, row: dict[str, str]) -> "BenchRecord":
        """Read one CSV row; ValueError for an unknown kind or a missing field."""
        kind, rid = row.get("kind"), row.get("id")
        needs = _KIND_FIELDS.get(kind)
        if needs is None:
            raise ValueError(f"bench row {rid!r} has unknown kind {kind!r}")
        missing = [name for name in ("id", "k", *needs) if not row.get(name)]
        if missing:
            raise ValueError(f"{kind} row {rid!r} lacks {', '.join(missing)}")
        # An empty cell, or one missing from a short row, keeps the default.
        return cls(**{name: conv(row[name]) for name, conv in _COLUMN_TYPES.items() if row.get(name)})


BENCH_COLUMNS = tuple(f.name for f in fields(BenchRecord))

#: Each column's type, read off its field's annotation (``int | None`` gives int).
_COLUMN_TYPES = {
    name: (get_args(hint) or (hint,))[0] for name, hint in get_type_hints(BenchRecord).items()
}


def instance_id(config: GeneratorConfig, density: float) -> str:
    return f"k{config.step_count}-d{density:g}-c{config.counting}-s{config.seed}"


def _bench_one(config: GeneratorConfig, density: float, time_limit: float) -> BenchRecord:
    pre = preprocess(generate(config))
    outcome = solve(pre.instance, time_limit=time_limit)
    st = outcome.stats
    return BenchRecord(
        kind="instance",
        id=instance_id(config, density),
        k=config.step_count,
        e=config.not_equals,
        c=config.counting,
        seed=config.seed,
        verdict=outcome.status,
        wall_ms=int(st.wall_time * 1000),
        nodes=st.nodes,
        matchings=st.matchings,
        prunes=st.prunes,
    )


def run_bench(suite: SuiteSpec, time_limit: float, jobs: int = 1) -> list[BenchRecord]:
    """Generate and solve the suite; returns instance, set and rate rows."""
    task = partial(_bench_one, density=suite.density, time_limit=time_limit)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(task, suite.configs()))
    else:
        records = list(map(task, suite.configs()))
    return records + set_and_rate_rows(records)


def set_and_rate_rows(instances: Iterable[BenchRecord]) -> list[BenchRecord]:
    """The set row of each (k, seed), then the rate row of each k.

    Both come in order of first appearance.  A set is ok when none of its
    instances timed out, and its counters are the sums over its instances
    (None where an instance lacks one).  A rate is the fraction of a k's
    sets that are ok.
    """
    members_of: dict[tuple[int, int], list[BenchRecord]] = {}
    for r in instances:
        members_of.setdefault((r.k, r.seed), []).append(r)
    sets, oks_of = [], {}
    for (k, seed), members in members_of.items():
        ok = all(r.verdict != TIMEOUT for r in members)
        oks_of.setdefault(k, []).append(ok)
        totals = {}
        for name in ("wall_ms", "nodes", "matchings", "prunes"):
            values = [getattr(r, name) for r in members]
            totals[name] = None if None in values else sum(values)
        verdict = "ok" if ok else "failed"
        sets.append(BenchRecord("set", f"k{k}-s{seed}", k, seed=seed, verdict=verdict, **totals))
    rates = [
        BenchRecord("rate", f"k{k}", k, success_rate=sum(oks) / len(oks))
        for k, oks in oks_of.items()
    ]
    return sets + rates


def write_bench_csv(records: Iterable[BenchRecord], stream) -> None:
    writer = csv.DictWriter(stream, fieldnames=BENCH_COLUMNS)
    writer.writeheader()
    for r in records:
        writer.writerow(r.to_row())


def read_bench_csv(stream) -> list[BenchRecord]:
    reader = csv.DictReader(stream)
    if reader.fieldnames is None or tuple(reader.fieldnames) != BENCH_COLUMNS:
        raise ValueError("unrecognised bench CSV header")
    return [BenchRecord.from_row(row) for row in reader]


def summarize_bench(records: Sequence[BenchRecord]) -> str:
    """Human summary; checks the set and rate rows against the instance rows."""
    instances = [r for r in records if r.kind == "instance"]
    sets = [r for r in records if r.kind == "set"]
    rates = [r for r in records if r.kind == "rate"]
    derived = set_and_rate_rows(instances)
    ok_of = {(r.k, r.seed): r.verdict == "ok" for r in derived if r.kind == "set"}
    rate_of = {r.k: r.success_rate for r in derived if r.kind == "rate"}
    lines = [
        f"instances: {len(instances)}"
        f" (sat {sum(1 for r in instances if r.verdict == SAT)},"
        f" unsat {sum(1 for r in instances if r.verdict == UNSAT)},"
        f" timeout {sum(1 for r in instances if r.verdict == TIMEOUT)})"
    ]
    for r in sets:
        ok = ok_of.get((r.k, r.seed))
        if ok is not None and ok != (r.verdict == "ok"):
            raise ValueError(f"set row {r.id} disagrees with its instance rows")
    for r in rates:
        set_count = sum(1 for k, _ in ok_of if k == r.k)
        lines.append(f"k={r.k}: success rate {r.success_rate:.3f} over {set_count} sets")
        if r.k in rate_of and abs(rate_of[r.k] - r.success_rate) > 1e-9:
            raise ValueError(f"rate row {r.id} disagrees with its set rows")
    if instances:
        worst = max(instances, key=lambda r: r.wall_ms)
        lines.append(f"slowest instance: {worst.id} at {worst.wall_ms} ms")
    return "\n".join(lines)


# --- subcommands ------------------------------------------------------------


def _read_text(path: str) -> str:
    return sys.stdin.read() if path == "-" else Path(path).read_text()


def _read_preprocessed(path: str) -> tuple[WorkflowInstance, PreprocessResult, dict[str, int]]:
    """The instance as read, its preprocessed form, and each phase's milliseconds."""
    text = _read_text(path)
    t0 = time.perf_counter()
    instance = parse_instance(text)
    t1 = time.perf_counter()
    pre = preprocess(instance)
    t2 = time.perf_counter()
    return instance, pre, {"parse_ms": int((t1 - t0) * 1000), "preprocess_ms": int((t2 - t1) * 1000)}


def _emit_stats(stats: SearchStats, status: str, phase_ms: dict[str, int]) -> None:
    """``key=value`` lines on stderr: the status, the reading phases'
    milliseconds, then each field of ``stats`` in declaration order, a
    ``*_time`` in seconds as ``*_ms``."""
    print(f"status={status}", file=sys.stderr)
    for key, value in phase_ms.items():
        print(f"{key}={value}", file=sys.stderr)
    for f in fields(stats):
        key, value = f.name, getattr(stats, f.name)
        if key.endswith("_time"):
            key, value = key.removesuffix("_time") + "_ms", int(value * 1000)
        print(f"{key}={value}", file=sys.stderr)


def _checked_plan(instance: WorkflowInstance, pre: PreprocessResult, plan: Plan) -> Plan:
    """The solver's witness on the instance as read, checked before printing."""
    expanded = pre.expand_plan(plan)
    verdict = validate_plan(instance, expanded)
    if not isinstance(verdict, Valid):
        raise ValueError(f"solver returned an invalid plan: {verdict}")
    return expanded


def cmd_solve(args) -> int:
    instance, pre, phase_ms = _read_preprocessed(args.instance)
    limit = None if args.time_limit is None else parse_duration(args.time_limit)
    outcome = solve(pre.instance, time_limit=limit)
    plan = None if outcome.plan is None else _checked_plan(instance, pre, outcome.plan)
    text = format_solution(outcome.status, plan)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    if args.stats:
        _emit_stats(outcome.stats, outcome.status, phase_ms)
    return _STATUS_EXIT[outcome.status]


def cmd_generate(args) -> int:
    if args.suite:
        suite = parse_suite(args.suite)
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for config in suite.configs():
            path = out_dir / f"{instance_id(config, suite.density)}.wsp"
            path.write_text(serialize_instance(generate(config)))
            print(path)
        return 0
    if args.steps is None:
        raise ValueError("generate needs --steps (or --suite)")
    if (args.not_equals is None) == (args.density is None):
        raise ValueError("give exactly one of --not-equals and --density")
    e = (
        args.not_equals
        if args.not_equals is not None
        else density_to_e(args.steps, args.density)
    )
    config = GeneratorConfig(args.steps, e, args.counting, args.seed, users=args.users)
    text = serialize_instance(generate(config))
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_enumerate(args) -> int:
    instance, pre, phase_ms = _read_preprocessed(args.instance)
    limit = None if args.time_limit is None else parse_duration(args.time_limit)
    result = solve_enumerating(pre.instance, time_limit=limit)
    if result.timed_out:
        status = TIMEOUT
        print("timeout")
    else:
        status = SAT if result.count else UNSAT
        # Every witness is checked before anything is printed.
        for plan in result.plans:
            _checked_plan(instance, pre, plan)
        print(f"patterns {result.count}")
        for plan in result.plans:
            expanded = pre.expand_plan(plan)
            pat = encode(expanded, instance.step_count)
            print("pattern " + " ".join(str(x) for x in pat))
            for s in sorted(expanded):
                print(f"assign {s} {expanded[s]}")
    if args.stats:
        _emit_stats(result.stats, status, phase_ms)
    return _STATUS_EXIT[status]


def cmd_oracle(args) -> int:
    instance = parse_instance(_read_text(args.instance))
    result = oracle_solve(instance, max_plans=args.budget)
    print(result.status)
    print(f"patterns {len(result.valid_patterns)}")
    if args.patterns:
        for pat in result.valid_patterns:
            print("pattern " + " ".join(str(x) for x in pat))
    return EXIT_SAT if result.is_sat else EXIT_UNSAT


def cmd_bench(args) -> int:
    if args.summarize:
        with open(args.summarize, newline="") as f:
            records = read_bench_csv(f)
        print(summarize_bench(records))
        return 0
    if not args.suite:
        raise ValueError("bench needs --suite (or --summarize FILE)")
    suite = parse_suite(args.suite)
    records = run_bench(
        suite, time_limit=parse_duration(args.time_limit), jobs=args.jobs
    )
    if args.out:
        with open(args.out, "w", newline="") as f:
            write_bench_csv(records, f)
    else:
        write_bench_csv(records, sys.stdout)
    print(summarize_bench(records), file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wspsolve",
        description="Workflow satisfiability: solve, generate and benchmark instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance file")
    p.add_argument("instance", help="instance file, or - for stdin")
    p.add_argument("--time-limit", help="e.g. 60s, 500ms, 1h")
    p.add_argument("--out", help="write the solution here instead of stdout")
    p.add_argument("--stats", action="store_true", help="key=value counters on stderr")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("generate", help="generate random instances")
    p.add_argument("--steps", "-k", type=int)
    p.add_argument("--not-equals", "-e", type=int)
    p.add_argument("--density", "-d", type=float, help="percent of step pairs constrained")
    p.add_argument("--counting", "-c", type=int, default=0, help="number of at-most-3 and of at-least-3 constraints")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--users", type=int, help="override the default of 10 users per step")
    p.add_argument("--out", help="write the instance here instead of stdout")
    p.add_argument("--suite", help="e.g. 'k=30 d=10 c=1.0k,1.2k,1.4k seeds=0..9'")
    p.add_argument("--out-dir", default=".", help="directory for --suite files")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("enumerate", help="list every valid pattern with a witness plan")
    p.add_argument("instance")
    p.add_argument("--time-limit")
    p.add_argument("--stats", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("oracle", help="exhaustive ground-truth check (small instances)")
    p.add_argument("instance")
    p.add_argument("--budget", type=int, default=DEFAULT_PLAN_BUDGET, help="max complete plans to enumerate")
    p.add_argument("--patterns", action="store_true", help="also list the valid patterns")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("bench", help="run a benchmark suite to CSV")
    p.add_argument("--suite", help="e.g. 'k=30 d=10 c=1.0k,1.2k,1.4k seeds=0..9'")
    p.add_argument("--time-limit", default="1h", help="per instance (default 1h)")
    p.add_argument("--jobs", type=int, default=1, help="solve this many instances in parallel")
    p.add_argument("--out", help="CSV path (default stdout)")
    p.add_argument("--summarize", metavar="FILE", help="summarise an existing CSV and exit")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, OverflowError, MemoryError) as exc:
        # A size too large to allocate is an input error; MemoryError has no message.
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
