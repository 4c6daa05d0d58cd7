"""Untraced measurement: set-up, timed passes over a workload, output checks.

One caller solves one instance at a time (a closed loop with a single
client).  The timed region of an instance is
``parse_instance(text) -> preprocess -> solve | solve_enumerating ->
expand_plan``; generating the texts is set-up, and checking the outputs
happens after the timed region.

A fixed pure-Python loop, the calibration probe, is timed right before
and after every instance and every set-up.  On a shared machine the
same pass can take a third longer a minute later, and the probe slows
down with it.  The end-to-end times are therefore taken at a reference
machine speed: each instance's (and
each set-up's) seconds are multiplied by ``REF_PROBE_S`` over the mean
of its two adjacent probe times.  Over 14 back-to-back passes of
scarce-users this cut the spread of the pass time (IQR over median)
from 0.09 to 0.05, and over 9 passes of enumerate from 0.33 to 0.08.  The raw times and the probe are printed with every
run.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import wspsolve
from wspsolve import SAT, TIMEOUT, UNSAT, Valid, validate_plan
from wspsolve.pattern import encode

#: Per-instance time limit, the acceptance gate's bound for a k=30 instance.
LIMIT_S = 60.0
#: Set-up runs at least this often, and cheap set-ups again until they
#: have taken ``SETUP_MIN_S`` in all, so that their median is steady.
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
_SETUP_MAX_REPEATS = 50
_CALIB_LOOPS = 20000
_CALIB_RUNS = 3
#: Probe time of the reference machine speed that end-to-end times are
#: scaled to: about the probe's median on the 2-CPU x86-64 VM, CPython 3.11,
#: that the benchmark was tuned on.
REF_PROBE_S = 0.0016
def calib_probe() -> float:
    """Seconds for a fixed pure-Python loop, a gauge of the machine's speed now.

    The best of a few runs, so that one interruption does not count.
    """
    best = float("inf")
    for _ in range(_CALIB_RUNS):
        t = time.perf_counter()
        x = 0
        for i in range(_CALIB_LOOPS):
            x += i * i & 7
        best = min(best, time.perf_counter() - t)
    return best


def at_ref_speed(seconds: float, probes: tuple[float, ...]) -> float:
    """``seconds`` scaled to the reference speed by the adjacent probe times."""
    return seconds * REF_PROBE_S / statistics.fmean(probes) if probes else seconds


@dataclass
class Setup:
    items: list[tuple[str, str]]
    raw_s: float  # median seconds of one set-up
    ref_s: float  # the same at the reference speed
    probes: list[float]


def set_up(workload, seed: int, scale: int) -> Setup:
    """Build the workload's instance texts several times (see ``SETUP_MIN_S``)."""
    times: list[float] = []
    probes = [calib_probe()]
    while len(times) < SETUP_REPEATS or (
        sum(times) < SETUP_MIN_S and len(times) < _SETUP_MAX_REPEATS
    ):
        t = time.perf_counter()
        items = workload.build(seed, scale)
        times.append(time.perf_counter() - t)
        probes.append(calib_probe())
    ref = [at_ref_speed(t, (probes[i], probes[i + 1])) for i, t in enumerate(times)]
    return Setup(items, statistics.median(times), statistics.median(ref), probes)


@dataclass
class Record:
    """One timed instance: phase times, exact counts and the check's result."""

    id: str
    text_bytes: int
    probes: tuple[float, ...]  # calibration probe seconds, before and after
    parse_s: float
    preprocess_s: float
    solve_s: float
    expand_s: float
    check_s: float = 0.0
    start: float = 0.0  # perf_counter() when the timed region began
    verdict: object = None  # sat/unsat/timeout, or the pattern count
    steps_merged: int = 0
    nodes: int | None = None
    auth_prunes: int | None = None
    eligibility_prunes: int | None = None
    problem: str | None = None

    @property
    def total_s(self) -> float:
        return self.parse_s + self.preprocess_s + self.solve_s + self.expand_s

    @property
    def ref_s(self) -> float:
        return at_ref_speed(self.total_s, self.probes)


def _check(enumerating: bool, instance, pre, out, plans) -> tuple[object, str | None]:
    """Verdict of one solve and the first problem found in its output."""
    if enumerating:
        if out.timed_out:
            return TIMEOUT, "timed out"
        if len(set(out.patterns)) != len(out.patterns):
            return out.count, "enumeration repeats a pattern"
        k = pre.instance.step_count
        for pattern, plan, full in zip(out.patterns, out.plans, plans):
            if encode(plan, k) != pattern:
                return out.count, f"witness does not realise pattern {pattern}"
            if not isinstance(validate_plan(instance, full), Valid):
                return out.count, f"invalid witness for pattern {pattern}"
        return out.count, None
    if out.status == TIMEOUT:
        return TIMEOUT, "timed out"
    if out.status == SAT and not isinstance(validate_plan(instance, plans[0]), Valid):
        return SAT, "invalid witness"
    if out.status not in (SAT, UNSAT):
        return out.status, f"unknown status {out.status!r}"
    return out.status, None


def run_instance(enumerating: bool, iid: str, text: str) -> Record:
    """Time one instance end to end, then check its output."""
    before = calib_probe()
    t0 = time.perf_counter()
    instance = wspsolve.parse_instance(text)
    t1 = time.perf_counter()
    pre = wspsolve.preprocess(instance)
    t2 = time.perf_counter()
    if enumerating:
        out = wspsolve.solve_enumerating(pre.instance, time_limit=LIMIT_S)
        t3 = time.perf_counter()
        plans = [pre.expand_plan(p) for p in out.plans]
    else:
        out = wspsolve.solve(pre.instance, time_limit=LIMIT_S)
        t3 = time.perf_counter()
        plans = [] if out.plan is None else [pre.expand_plan(out.plan)]
    t4 = time.perf_counter()
    rec = Record(iid, len(text), (before, calib_probe()), t1 - t0, t2 - t1, t3 - t2, t4 - t3,
                 start=t0)
    rec.steps_merged = instance.step_count - pre.instance.step_count
    stats = out.stats
    for name in ("nodes", "auth_prunes", "eligibility_prunes"):
        setattr(rec, name, getattr(stats, name, None))
    t5 = time.perf_counter()
    rec.verdict, rec.problem = _check(enumerating, instance, pre, out, plans)
    rec.check_s = time.perf_counter() - t5
    return rec


def run_pass(workload, items, pins: dict, first: dict) -> list[Record]:
    """Solve every instance once.

    ``pins`` maps instance ids to their known verdicts or pattern
    counts; ``first`` collects each instance's verdict and node count
    from the first pass, which every later pass must reproduce.
    """
    out = []
    for iid, text in items:
        try:
            rec = run_instance(workload.enumerate, iid, text)
        except Exception as exc:  # a crash is a failed instance, not a crashed run
            rec = Record(iid, len(text), (), 0.0, 0.0, 0.0, 0.0, problem=f"raised {exc!r}")
            out.append(rec)
            continue
        if rec.problem is None and iid in pins and pins[iid] != rec.verdict:
            rec.problem = f"verdict {rec.verdict!r}, pinned {pins[iid]!r}"
        seen = (rec.verdict, rec.nodes)
        if rec.problem is None and first.setdefault(iid, seen) != seen:
            rec.problem = f"verdict and nodes {seen}, first pass gave {first[iid]}"
        out.append(rec)
    return out


def measure(workload, items, seconds: float, pins: dict) -> list[list[Record]]:
    """Passes while the next one is expected to end within ``seconds``."""
    passes: list[list[Record]] = []
    first: dict = {}
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        passes.append(run_pass(workload, items, pins, first))
        last = time.perf_counter() - t
        if time.perf_counter() - start + last > seconds:
            return passes


def pass_wall_s(records: list[Record]) -> float:
    return sum(r.total_s for r in records)


def end_to_end(passes: list[list[Record]], setup: Setup, peak_rss_mb: float) -> dict:
    """The metrics a user of the solver sees, as (value, unit) pairs.

    ``wall_s`` is the median pass; times are at the reference speed.
    """
    records = [r for p in passes for r in p]
    failed = sum(r.problem is not None for r in records)
    return {
        "setup_s": (setup.ref_s, "s"),
        "wall_s": (statistics.median(sum(r.ref_s for r in p) for p in passes), "s"),
        "ok_frac": ((len(records) - failed) / len(records), "frac"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def _total(records: list[Record], name: str) -> int | None:
    values = [getattr(r, name) for r in records]
    return None if None in values else sum(values)


def pass_layers(records: list[Record]) -> dict:
    """Layer metrics read off one untraced pass's phase times and counters."""
    parse_s = sum(r.parse_s for r in records)
    search_s = sum(r.solve_s for r in records)
    out = {
        "instance_max_ms": (max(r.total_s for r in records) * 1000, "ms"),
        "model.parse_ms": (parse_s * 1000, "ms"),
        "model.preprocess_ms": (sum(r.preprocess_s for r in records) * 1000, "ms"),
        "model.steps_merged": (sum(r.steps_merged for r in records), "count"),
        "model.validate_ms": (sum(r.check_s for r in records) * 1000, "ms"),
        "solver.search_ms": (search_s * 1000, "ms"),
        "solver.sat": (sum(r.verdict == SAT or (type(r.verdict) is int and r.verdict > 0)
                           for r in records), "count"),
        "solver.unsat": (sum(r.verdict == UNSAT or r.verdict == 0 for r in records), "count"),
        "pattern.patterns_found": (
            sum(r.verdict if type(r.verdict) is int else r.verdict == SAT for r in records),
            "count",
        ),
    }
    if parse_s:
        out["model.parse_mb_per_s"] = (sum(r.text_bytes for r in records) / parse_s / 1e6, "MB/s")
    nodes = _total(records, "nodes")
    auth = _total(records, "auth_prunes")
    elig = _total(records, "eligibility_prunes")
    if nodes is not None:
        out["solver.nodes"] = (nodes, "count")
        if search_s:
            out["solver.nodes_per_s"] = (nodes / search_s, "1/s")
    if auth is not None and elig is not None:
        out["solver.auth_prunes"] = (auth, "count")
        out["solver.eligibility_prunes"] = (elig, "count")
        if nodes is not None:
            out["solver.prune_ratio"] = ((auth + elig) / (auth + elig + nodes), "ratio")
    return out
