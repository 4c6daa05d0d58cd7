"""Backtracking search over patterns with a matching test at the leaves.

The search assigns one step per level.  Assigning a step either reuses
an existing block label or opens one fresh block, so the tree below the
empty pattern enumerates set partitions of the steps, never visiting the
same grouping twice.  Two prunes cut the tree:

* authorisation: a block whose members share no authorised user can
  never be realised, so the extension is rejected outright, and
* eligibility: each constraint is re-checked incrementally whenever a
  step of its scope is assigned, rejecting extensions no completion
  can repair.

A complete pattern is then realisable exactly when the block/user graph
has a matching covering every block; the matcher supplies the witness
plan.  Steps are selected by a weighted count of the constraints
pressing on them, so nearly-saturated at-most scopes are grouped early.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

from .constraints import AtLeast, AtMost, BindingOfDuty, NotEquals
from .matching import match_blocks
from .model import (
    SAT,
    TIMEOUT,
    UNSAT,
    Plan,
    SearchStats,
    SolveOutcome,
    WorkflowInstance,
)
from .pattern import Pattern, canonicalize


#: Step-selection weights of an at-most constraint, indexed by its gap:
#: the budget minus the distinct labels its scope already uses.  A step
#: scores the number of not-equals constraints touching it, plus 100 for
#: each at-most constraint whose scope already uses its full budget of
#: distinct users, 2 for each one user short of the budget, and 1 for
#: each two short.  At-least constraints contribute nothing.
AT_MOST_WEIGHTS = (100.0, 2.0, 1.0)


def _weight(gap: int) -> float:
    if 0 <= gap <= 2:
        return AT_MOST_WEIGHTS[gap]
    return 0.0


#: The deadline is consulted once every this many search nodes.
TIMEOUT_CHECK_INTERVAL = 1024

_TIMEOUT_MASK = TIMEOUT_CHECK_INTERVAL - 1


class _Timeout(Exception):
    pass


class SearchState:
    """Mutable search position: pattern plus incremental constraint counters.

    For every counting constraint the state tracks how many of its scope
    steps are assigned and how many distinct labels they use, updated in
    O(scope) on extend/retract.  A per-step score accumulator keeps the
    at-most component of the selection heuristic current, so selecting a
    step is a single scan.
    """

    def __init__(self, instance: WorkflowInstance, *, prune: bool = True):
        for c in instance.constraints:
            if isinstance(c, BindingOfDuty):
                raise ValueError(
                    "instance still has binding-of-duty constraints; preprocess first"
                )
        self.instance = instance
        self.prune = prune
        k = instance.step_count
        self.step_count = k
        self.pattern = Pattern(k, instance.auth.step_user_masks)
        self.stats = SearchStats()

        # Not-equals: static per-step count plus the opposite endpoints.
        self.ne_count = [0] * k
        ne_other: list[list[int]] = [[] for _ in range(k)]
        # Counting constraints, indexed densely.
        self.ct_is_atmost: list[bool] = []
        self.ct_r: list[int] = []
        self.ct_scope: list[tuple[int, ...]] = []
        self.ct_label_counts: list[list[int]] = []
        self.ct_distinct: list[int] = []
        self.ct_assigned: list[int] = []
        by_step: list[list[int]] = [[] for _ in range(k)]
        gen_by_step: list[list] = [[] for _ in range(k)]
        self.generic: list = []

        for c in instance.constraints:
            if isinstance(c, NotEquals):
                self.ne_count[c.s] += 1
                self.ne_count[c.t] += 1
                ne_other[c.s].append(c.t)
                ne_other[c.t].append(c.s)
            elif isinstance(c, (AtMost, AtLeast)):
                ci = len(self.ct_r)
                self.ct_is_atmost.append(isinstance(c, AtMost))
                self.ct_r.append(c.r)
                scope = tuple(sorted(c.scope))
                self.ct_scope.append(scope)
                self.ct_label_counts.append([0] * (k + 1))
                self.ct_distinct.append(0)
                self.ct_assigned.append(0)
                for s in scope:
                    by_step[s].append(ci)
            else:
                self.generic.append(c)
                for s in c.scope:
                    gen_by_step[s].append(c)
        self.ne_other = [tuple(x) for x in ne_other]
        self.by_step = [tuple(x) for x in by_step]
        self.gen_by_step = [tuple(x) for x in gen_by_step]

        self.w_sum = [0.0] * k
        for ci, is_atmost in enumerate(self.ct_is_atmost):
            if is_atmost:
                w = _weight(self.ct_r[ci])
                if w:
                    for s in self.ct_scope[ci]:
                        self.w_sum[s] += w
        self._trail: list[tuple[int, int, tuple[int, ...]]] = []

    # -- heuristic ----------------------------------------------------------

    def rho(self, step: int) -> float:
        """Selection score of an unassigned step under the current pattern."""
        return self.ne_count[step] + self.w_sum[step]

    def select_step(self) -> int:
        """Unassigned step with the highest score; ties to the lowest index."""
        entries = self.pattern.entries
        best = -1
        best_score = -math.inf
        w_sum = self.w_sum
        ne_count = self.ne_count
        for s in range(self.step_count):
            if entries[s] == 0:
                score = ne_count[s] + w_sum[s]
                if score > best_score:
                    best_score = score
                    best = s
        if best < 0:
            raise ValueError("pattern is complete")
        return best

    # -- pattern mutation with counter upkeep -------------------------------

    def extend(self, step: int, label: int) -> None:
        self.pattern.extend(step, label)
        distinct = self.ct_distinct
        counts = self.ct_label_counts
        assigned = self.ct_assigned
        changed: list[int] = []
        for ci in self.by_step[step]:
            lc = counts[ci]
            prev = lc[label]
            lc[label] = prev + 1
            assigned[ci] += 1
            if prev == 0:
                d = distinct[ci]
                distinct[ci] = d + 1
                changed.append(ci)
                if self.ct_is_atmost[ci]:
                    gap = self.ct_r[ci] - d
                    delta = _weight(gap - 1) - _weight(gap)
                    if delta:
                        w_sum = self.w_sum
                        for q in self.ct_scope[ci]:
                            w_sum[q] += delta
        self._trail.append((step, label, tuple(changed)))

    def retract(self) -> None:
        step, label, changed = self._trail.pop()
        counts = self.ct_label_counts
        assigned = self.ct_assigned
        for ci in self.by_step[step]:
            counts[ci][label] -= 1
            assigned[ci] -= 1
        distinct = self.ct_distinct
        for ci in changed:
            d = distinct[ci]
            distinct[ci] = d - 1
            if self.ct_is_atmost[ci]:
                gap = self.ct_r[ci] - d
                delta = _weight(gap + 1) - _weight(gap)
                if delta:
                    w_sum = self.w_sum
                    for q in self.ct_scope[ci]:
                        w_sum[q] += delta
        self.pattern.retract()

    # -- extension viability -----------------------------------------------

    def extension_eligible(self, step: int, label: int) -> bool:
        """Would assigning ``label`` to ``step`` leave every constraint repairable?

        Decided from the incremental counters without mutating the
        pattern; equivalent to extending and asking each constraint
        touching ``step`` for a partial check.
        """
        entries = self.pattern.entries
        for t in self.ne_other[step]:
            if entries[t] == label:
                return False
        distinct = self.ct_distinct
        counts = self.ct_label_counts
        assigned = self.ct_assigned
        for ci in self.by_step[step]:
            fresh = 1 if counts[ci][label] == 0 else 0
            if self.ct_is_atmost[ci]:
                if distinct[ci] + fresh > self.ct_r[ci]:
                    return False
            else:
                size = len(self.ct_scope[ci])
                if distinct[ci] + fresh + (size - assigned[ci] - 1) < self.ct_r[ci]:
                    return False
        if self.gen_by_step[step]:
            entries[step] = label
            try:
                for c in self.gen_by_step[step]:
                    if not c.check_partial(entries):
                        return False
            finally:
                entries[step] = 0
        return True


def _run_search(
    state: SearchState,
    deadline: float | None,
    emit: Callable[[tuple[int, ...], Plan], bool],
) -> None:
    """Depth-first search; ``emit`` returns True to stop at a witness."""
    pattern = state.pattern
    stats = state.stats
    k = state.step_count
    prune = state.prune
    instance = state.instance

    def node() -> bool:
        stats.nodes += 1
        if (stats.nodes & _TIMEOUT_MASK) == 1 and deadline is not None:
            if time.perf_counter() >= deadline:
                raise _Timeout
        if pattern.assigned_count == k:
            entries = pattern.entries
            if not prune:
                for c in instance.constraints:
                    if not c.satisfied_by(entries):
                        return False
            stats.matchings += 1
            m = pattern.max_label
            adjacency = pattern.block_masks[1 : m + 1]
            sizes = pattern.block_sizes
            order = sorted(range(m), key=lambda i: (-sizes[i + 1], i))
            user_of = match_blocks(adjacency, order)
            if user_of is None:
                return False
            stats.matchings_full += 1
            plan = {s: user_of[entries[s] - 1] for s in range(k)}
            return emit(canonicalize(entries), plan)
        step = state.select_step()
        extension_mask = pattern.extension_user_mask
        eligible = state.extension_eligible
        for x in range(1, pattern.max_label + 2):
            if prune:
                if extension_mask(step, x) == 0:
                    stats.auth_prunes += 1
                    continue
                if not eligible(step, x):
                    stats.eligibility_prunes += 1
                    continue
            state.extend(step, x)
            stop = node()
            state.retract()
            if stop:
                return True
        return False

    node()


def _root_unsat(state: SearchState) -> bool:
    """Cheap whole-instance checks run before the search (prunes)."""
    if any(mask == 0 for mask in state.instance.auth.step_user_masks):
        return True
    zeros = [0] * state.step_count
    return any(not c.check_partial(zeros) for c in state.instance.constraints)


def _drive(
    instance: WorkflowInstance,
    time_limit: float | None,
    prune: bool,
    emit: Callable[[tuple[int, ...], Plan], bool],
) -> tuple[SearchStats, bool]:
    """Run one timed search; returns its stats and whether it timed out."""
    if time_limit is not None and math.isnan(time_limit):
        raise ValueError("time limit is NaN")
    start = time.perf_counter()
    state = SearchState(instance, prune=prune)
    timed_out = time_limit is not None and time_limit <= 0
    if not timed_out and not (prune and _root_unsat(state)):
        deadline = None if time_limit is None else start + time_limit
        try:
            _run_search(state, deadline, emit)
        except _Timeout:
            timed_out = True
    state.stats.wall_time = time.perf_counter() - start
    return state.stats, timed_out


def solve(
    instance: WorkflowInstance,
    time_limit: float | None = None,
    *,
    prune: bool = True,
) -> SolveOutcome:
    """Decide satisfiability; Sat outcomes carry a witness plan.

    ``time_limit`` is wall-clock seconds; on expiry the outcome status
    is timeout, and a limit of zero or less times out at once.  A NaN
    limit raises ValueError.  ``prune=False`` disables the authorisation
    and eligibility prunes and the root checks: every complete pattern is
    then reached, and each constraint's ``satisfied_by`` decides it
    before the matching runs.  This never changes the verdict.  The
    instance must already be preprocessed, i.e. free of binding-of-duty
    constraints.
    """
    found: list[Plan] = []

    def emit(_pattern: tuple[int, ...], plan: Plan) -> bool:
        found.append(plan)
        return True

    stats, timed_out = _drive(instance, time_limit, prune, emit)
    status = TIMEOUT if timed_out else SAT if found else UNSAT
    return SolveOutcome(status, found[0] if found else None, stats)


@dataclass(frozen=True)
class EnumerationOutcome:
    """All valid complete patterns with one witness plan each."""

    patterns: tuple[tuple[int, ...], ...]
    plans: tuple[Plan, ...]
    stats: SearchStats
    timed_out: bool

    @property
    def count(self) -> int:
        return len(self.patterns)


def solve_enumerating(
    instance: WorkflowInstance,
    time_limit: float | None = None,
    *,
    prune: bool = True,
) -> EnumerationOutcome:
    """Like solve, but keeps searching and reports every valid pattern.

    Patterns are reported in canonical form (labels renumbered by first
    occurrence in step order) with one witness plan per pattern.
    """
    patterns: list[tuple[int, ...]] = []
    plans: list[Plan] = []

    def emit(pat: tuple[int, ...], plan: Plan) -> bool:
        patterns.append(pat)
        plans.append(plan)
        return False

    stats, timed_out = _drive(instance, time_limit, prune, emit)
    return EnumerationOutcome(tuple(patterns), tuple(plans), stats, timed_out)
