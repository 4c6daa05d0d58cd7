"""Traced pass and replay microbenchmarks for the per-layer metrics.

Everything here is installed from the benchmark's side: the solver's
per-node entry points are wrapped by patching the class attributes and
module globals that the search looks up at call time, and the original
functions are restored when the pass ends.  An entry point that no
longer exists is listed as absent and the metrics that need it are
left out, so the benchmark keeps running across engine rewrites.

Instance-level calls (parse, preprocess, solve, expand) each become one
span with its instance id and the instance's span as parent.  Per-node
calls number in the millions, so each boundary keeps only a call count
and a total time.
"""

from __future__ import annotations

import statistics
import time

import wspsolve
import wspsolve.solver

import harness

#: Longest call sequence kept for replay; a prefix of a recorded search
#: is itself a valid sequence from the empty pattern.
MAX_EVENTS = 100_000
MAX_ARGS = 20_000
_REPLAY_REPEATS = 3
_MIN_REPLAY_CALLS = 20_000
# Each recorded query is asked this many times in a row at its position,
# so its cost stands well above the run-to-run noise of the replay.
_QUERY_REPEATS = 10

# The per-node boundaries the search calls, with their replay codes
# (None: counted and timed, not replayed).
_STATE = ("SearchState", {"extend": "x", "retract": "r", "extension_eligible": "e",
                          "select_step": "s"}, "state_events")
_PATTERN = ("Pattern", {"extend": "x", "retract": "r", "extension_user_mask": None},
            "pattern_events")
_FUNCTIONS = ("match_blocks", "canonicalize")


class Tracer:
    """Per-boundary call counts and seconds, plus the replay recording."""

    def __init__(self) -> None:
        self.calls: dict[str, list] = {}  # boundary -> [calls, seconds]
        self.full_matchings = 0
        self.absent: list[str] = []
        self.recording = False
        self.state_events: list[tuple] = []
        self.pattern_events: list[tuple] = []
        self.match_args: list[tuple] = []
        self.canon_args: list[tuple] = []
        self._patches: list[tuple] = []

    # -- installing and removing the wrappers --------------------------------

    def install(self) -> None:
        for cls_name, codes, log in (_STATE, _PATTERN):
            cls = getattr(wspsolve.solver, cls_name, None)
            for attr, code in codes.items():
                fn = None if cls is None else cls.__dict__.get(attr)
                if fn is None:
                    self.absent.append(f"{cls_name}.{attr}")
                    continue
                record = None if code is None else getattr(self, log)
                self._patch(cls, attr, self._method(f"{cls_name}.{attr}", fn, code, record))
        for attr in _FUNCTIONS:
            fn = getattr(wspsolve.solver, attr, None)
            if fn is None:
                self.absent.append(attr)
                continue
            self._patch(wspsolve.solver, attr, self._function(attr, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _method(self, name: str, fn, code: str, log: list | None):
        acc = self.calls.setdefault(name, [0, 0.0])
        clock = time.perf_counter
        tracer = self

        def wrapper(obj, *args):
            if log is not None and tracer.recording and len(log) < MAX_EVENTS:
                log.append((code, *args))
            t = clock()
            result = fn(obj, *args)
            acc[1] += clock() - t
            acc[0] += 1
            return result

        return wrapper

    def _function(self, name: str, fn):
        acc = self.calls.setdefault(name, [0, 0.0])
        clock = time.perf_counter
        tracer = self
        is_match = name == "match_blocks"

        def wrapper(*args):
            log = tracer.match_args if is_match else tracer.canon_args
            if len(log) < MAX_ARGS:
                log.append(args if is_match else (tuple(args[0]), *args[1:]))
            t = clock()
            result = fn(*args)
            acc[1] += clock() - t
            acc[0] += 1
            if is_match and result is not None:
                tracer.full_matchings += 1
            return result

        return wrapper

    def seconds(self, *names: str) -> float:
        return sum(self.calls[n][1] for n in names if n in self.calls)

    def count(self, name: str) -> int | None:
        return self.calls[name][0] if name in self.calls else None


def spans_of(records: list[harness.Record]) -> list[dict]:
    """One span per instance-level call, parented by its instance's span."""
    spans = []
    for r in records:
        parent = len(spans)
        t = r.start
        spans.append({"name": "instance", "instance": r.id, "parent": None,
                      "start": t, "end": t + r.total_s})
        for name, dt in (("model.parse_instance", r.parse_s),
                         ("model.preprocess", r.preprocess_s),
                         ("solver.solve", r.solve_s),
                         ("model.expand_plan", r.expand_s)):
            spans.append({"name": name, "instance": r.id, "parent": parent,
                          "start": t, "end": t + dt})
            t += dt
    return spans


def traced_pass(workload, items, pins: dict, first: dict, slowest: str) -> tuple[list[harness.Record], Tracer]:
    """One pass with every boundary wrapped; records calls on ``slowest``.

    ``pins`` and ``first`` are as for ``harness.run_pass``.

    SearchState and Pattern calls are recorded on the slowest instance
    only.  Matching and canonicalisation arguments come from the slowest
    instance when it makes such calls, otherwise from the whole pass.
    """
    tracer = Tracer()
    tracer.install()
    records: list[harness.Record] = []
    kept: tuple[list, list] = ([], [])
    pooled: tuple[list, list] = ([], [])
    try:
        for item in items:
            tracer.recording = item[0] == slowest
            tracer.match_args, tracer.canon_args = [], []
            records += harness.run_pass(workload, [item], pins, first)
            if tracer.recording:
                kept = (tracer.match_args, tracer.canon_args)
            for pool, got in zip(pooled, (tracer.match_args, tracer.canon_args)):
                pool += got[: MAX_ARGS - len(pool)]
        tracer.recording = False
    finally:
        tracer.uninstall()
    tracer.match_args = kept[0] or pooled[0]
    tracer.canon_args = kept[1] or pooled[1]
    return records, tracer


# -- replay ----------------------------------------------------------------


def _time_ops(make_target, ops_of) -> float:
    """Median seconds to apply the recorded operations to a fresh target."""
    times = []
    for _ in range(_REPLAY_REPEATS):
        ops = ops_of(make_target())
        t = time.perf_counter()
        for f, args in ops:
            f(*args)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def _bind(target, events, query: str = "") -> list[tuple]:
    """Bound calls for the mutations and, repeated, the ``query`` events."""
    table = {"x": target.extend, "r": target.retract}
    if query == "e":
        table["e"] = target.extension_eligible
    elif query == "s":
        table["s"] = target.select_step
    ops = []
    for e in events:
        f = table.get(e[0])
        if f is not None:
            ops += [(f, e[1:])] * (_QUERY_REPEATS if e[0] == query else 1)
    return ops


def _time_calls(fn, args_list: list[tuple]) -> float:
    """Median seconds per call of ``fn`` over the recorded argument tuples."""
    rounds = max(1, -(-_MIN_REPLAY_CALLS // len(args_list)))
    times = []
    for _ in range(_REPLAY_REPEATS):
        t = time.perf_counter()
        for _ in range(rounds):
            for args in args_list:
                fn(*args)
        times.append(time.perf_counter() - t)
    return statistics.median(times) / (rounds * len(args_list))


def replay(tracer: Tracer, text: str) -> dict:
    """Per-call microseconds from the recorded sequences, without per-call timers.

    The SearchState sequence is replayed three ways: extend/retract
    alone, with each eligibility test repeated at its position, and with
    each step selection repeated; the differences give each kind's cost.
    Only boundaries the traced pass could wrap are replayed.
    """
    out = {}
    wrapped = tracer.calls
    inst = wspsolve.preprocess(wspsolve.parse_instance(text)).instance
    ev = tracer.state_events
    extends = sum(e[0] == "x" for e in ev)
    if extends and {"SearchState.extend", "SearchState.retract"} <= wrapped.keys():
        make = lambda: wspsolve.solver.SearchState(inst)  # noqa: E731
        base = _time_ops(make, lambda s: _bind(s, ev))
        out["solver.extend_retract_us"] = (base / extends * 1e6, "us")
        for code, attr, name in (("e", "extension_eligible", "solver.eligible_us"),
                                 ("s", "select_step", "solver.select_step_us")):
            n = sum(e[0] == code for e in ev)
            if n and f"SearchState.{attr}" in wrapped:
                t = _time_ops(make, lambda s, c=code: _bind(s, ev, c))
                out[name] = ((t - base) / (n * _QUERY_REPEATS) * 1e6, "us")
    pev = tracer.pattern_events
    p_extends = sum(e[0] == "x" for e in pev)
    if p_extends and {"Pattern.extend", "Pattern.retract"} <= wrapped.keys():
        k, masks = inst.step_count, inst.auth.step_user_masks
        t = _time_ops(lambda: wspsolve.solver.Pattern(k, masks), lambda p: _bind(p, pev))
        out["pattern.extend_retract_us"] = (t / p_extends * 1e6, "us")
    for attr, args, name in (("match_blocks", tracer.match_args, "matching.us_per_call"),
                             ("canonicalize", tracer.canon_args, "pattern.canonicalize_us")):
        if args and attr in wrapped:
            out[name] = (_time_calls(getattr(wspsolve.solver, attr), args) * 1e6, "us")
    return out


def traced_layers(records: list[harness.Record], tracer: Tracer, untraced_wall_s: float) -> dict:
    """Self time per layer and the boundary counts of the traced pass."""
    span_s = dict.fromkeys(("model.parse_instance", "model.preprocess", "solver.solve",
                            "model.expand_plan"), 0.0)
    for s in spans_of(records):
        if s["name"] in span_s:
            span_s[s["name"]] += s["end"] - s["start"]
    solve_s = span_s["solver.solve"]
    pattern_s = tracer.seconds("Pattern.extend", "Pattern.retract",
                               "Pattern.extension_user_mask", "canonicalize")
    matching_s = tracer.seconds("match_blocks")
    traced_wall = harness.pass_wall_s(records)
    out = {
        "model.self_ms": ((sum(span_s.values()) - solve_s) * 1000, "ms"),
        "solver.self_ms": ((solve_s - pattern_s - matching_s) * 1000, "ms"),
        "pattern.self_ms": (pattern_s * 1000, "ms"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.overhead_s": (traced_wall - untraced_wall_s, "s"),
    }
    canon = tracer.count("canonicalize")
    if canon is not None:
        out["pattern.canonicalize_calls"] = (canon, "count")
    calls = tracer.count("match_blocks")
    if calls is not None:
        out["matching.calls"] = (calls, "count")
        out["matching.full_calls"] = (tracer.full_matchings, "count")
        out["matching.full_ratio"] = (tracer.full_matchings / calls if calls else 0.0, "ratio")
        out["matching.share"] = (matching_s / solve_s if solve_s else 0.0, "ratio")
        out["matching.self_ms"] = (matching_s * 1000, "ms")
    return out
