"""Backtracking search over patterns with a matching test at the leaves.

The search assigns one step per level.  Assigning a step either reuses
an existing block label or opens one fresh block, so the tree below the
empty pattern enumerates set partitions of the steps, never visiting the
same grouping twice.  Four prunes cut the tree:

* authorisation: a block whose members share no authorised user can
  never be realised, so the extension is rejected outright,
* eligibility: each constraint is re-checked incrementally whenever a
  step of its scope is assigned, rejecting extensions no completion
  can repair,
* forward: after an extension, a branch in which some unassigned step
  has no label left, none both eligible and authorised, is cut at once
  rather than when that step is reached, and
* matching: the blocks of a partial pattern must have a block/user
  matching that covers them all.  Adding a step only shrinks its
  block's users and opening a block only adds a vertex, so a partial
  pattern without one has no realisable completion (Hall's theorem).

The eligibility and forward prunes read one label domain per step (see
``SearchState``), narrowed by each extension and restored on backtrack,
as in forward checking after Haralick and Elliott.  The root check gives
every step a user, so the fresh label is always authorised, and in the
pruned walk only a full at-most scope, one with no room left, takes it
from a domain: without at-most constraints no step can starve, and the
check is skipped.  Extending step s can starve a step whose domain it
narrowed (a not-equals neighbour, or a step of a scope left with no
room, at-most or at-least alike, so ``forward_prunes`` counts at-least
starvation too) and the other steps of s's full at-most scopes, whose
blocks s may have narrowed; the check inspects exactly these.  A block narrowed by a step
outside the starved step's scopes goes unseen, as do the generic
constraints, left to ``extension_eligible``; missing them only makes
the check weaker, never unsound.

The matching prune keeps one held block -> user matching in the walk's
locals, beside the chosen steps, with a per-depth trail that the
backtrack restores.  An extension keeps the block's user when it stays
authorised, or takes the lowest free user of the block, and only when
neither works runs one augmenting path (``matching.augment``); with no
path, the branch is cut.

A complete pattern is then realisable exactly when the block/user graph
has a matching covering every block; the matcher tries the blocks in
label order and supplies the witness plan, so with the prunes on every
leaf reached is realisable.  Steps are selected by a weighted count of
the constraints pressing on them, so nearly-saturated at-most scopes are
grouped early.

The walk is one loop over an explicit stack, one frame per depth
holding the chosen step and the next label to try, so the depth of the
tree is bounded by memory rather than by Python's recursion limit.  It
yields each realisable complete pattern with its witness, the user of
each step, as it is found.  ``solve_enumerating`` keeps every witness as
k user ids in one flat array and builds a plan ``dict`` only when a
caller reads it from ``EnumerationOutcome.plans``.
Per-constraint state is flat: a bitmask of the labels each counting
constraint's scope uses, its room (how many more fresh labels an
at-most scope, or reused labels an at-least scope, can take before no
completion satisfies it), one score per step and one label domain per
step, whose bit each candidate label reads.
"""

from __future__ import annotations

import itertools
import math
import operator
import time
from array import array
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from .constraints import AtLeast, AtMost, BindingOfDuty, NotEquals
from .matching import augment, match_blocks
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


#: Step-selection weights of an at-most constraint, indexed by its room:
#: the budget minus the distinct labels its scope already uses.  A step
#: scores the number of not-equals constraints touching it, plus 100 for
#: each at-most constraint whose scope already uses its full budget of
#: distinct users, 2 for each one user short of the budget, and 1 for
#: each two short.  At-least constraints contribute nothing.
AT_MOST_WEIGHTS = (100.0, 2.0, 1.0)


def _weight(room: int) -> float:
    if 0 <= room <= 2:
        return AT_MOST_WEIGHTS[room]
    return 0.0


#: Score change of every step in an at-most scope when a fresh label
#: spends room g; zero for any g outside 0..3.
_SPEND_DELTA = tuple(_weight(g - 1) - _weight(g) for g in range(4))


#: The deadline is consulted once every this many search nodes.
TIMEOUT_CHECK_INTERVAL = 1024

_TIMEOUT_MASK = TIMEOUT_CHECK_INTERVAL - 1

_ASSIGNED = -math.inf


class _Timeout(Exception):
    pass


class SearchState:
    """Mutable search position: pattern plus incremental constraint counters.

    For every counting constraint ``ci`` the state tracks, in flat lists,
    ``ct_labels[ci]`` (bit x set when some scope step has label x) and
    ``ct_room[ci]``: r - distinct for at-most r, and distinct +
    unassigned - r for at-least r, counted over the scope.  An at-most
    constraint spends one room on each label new to its scope, an
    at-least one on each label its scope already uses; a constraint
    whose room is negative has no satisfying completion.  ``score[s]``
    is the selection score of step s: its not-equals count plus the
    at-most weights, or -inf once s is assigned.

    ``domain[s]`` is the bitmask of the labels unassigned step s may
    still take.  Every bit above ``pattern.max_label`` is alike, so the
    bit of the fresh label says whether s may open a block.  Along a
    branch a domain only shrinks: an extension clears its label from
    the not-equals neighbours, and once a scope has no room left it
    narrows the scope's steps to the labels that spend none.  The trail
    records which constraints gained the new label, which spent room
    and each domain an extension narrowed, so retract undoes exactly
    those.
    """

    def __init__(self, instance: WorkflowInstance):
        for c in instance.constraints:
            if isinstance(c, BindingOfDuty):
                raise ValueError(
                    "instance still has binding-of-duty constraints; preprocess first"
                )
        self.instance = instance
        self.auth = instance.auth.step_user_masks
        k = instance.step_count
        self.step_count = k
        self.pattern = Pattern(k, self.auth)

        # Scores start at each step's not-equals count plus the at-most
        # weights of the empty pattern (small whole numbers, so the float
        # sums are exact in any order).
        score = [0.0] * k
        ne_other: list[list[int]] = [[] for _ in range(k)]
        # counting[s] holds (ci, at_most, scope) for every counting
        # constraint ci whose scope contains s.
        self.ct_labels: list[int] = []
        self.ct_room: list[int] = []
        counting: list[list[tuple[int, bool, tuple[int, ...]]]] = [[] for _ in range(k)]
        gen_by_step: list[list] = [[] for _ in range(k)]

        for c in instance.constraints:
            if isinstance(c, NotEquals):
                score[c.s] += 1
                score[c.t] += 1
                ne_other[c.s].append(c.t)
                ne_other[c.t].append(c.s)
            elif isinstance(c, (AtMost, AtLeast)):
                at_most = isinstance(c, AtMost)
                scope = tuple(sorted(c.scope))
                entry = (len(self.ct_room), at_most, scope)
                self.ct_labels.append(0)
                self.ct_room.append(c.r if at_most else len(scope) - c.r)
                for s in scope:
                    counting[s].append(entry)
                    if at_most:
                        score[s] += _weight(c.r)
            else:
                for s in c.scope:
                    gen_by_step[s].append(c)
        self.ne_other = [tuple(x) for x in ne_other]
        self._counting = [tuple(x) for x in counting]
        self.gen_by_step = [tuple(x) for x in gen_by_step]
        self.score = score
        # Every label from 1 up: at the empty pattern no scope's room is
        # negative, and a scope with none (at-least r = |scope|) uses no
        # label yet, so it excludes none.
        self.domain = [-2] * k
        self._trail: list[tuple[int, int, float, list[int], list[tuple], list[tuple]]] = []

    # -- heuristic ----------------------------------------------------------

    def select_step(self) -> int:
        """Unassigned step with the highest score; ties to the lowest index."""
        score = self.score
        top = max(score)
        if top == _ASSIGNED:
            raise ValueError("pattern is complete")
        return score.index(top)

    # -- pattern mutation with counter upkeep -------------------------------

    def extend(self, step: int, label: int) -> None:
        pattern = self.pattern
        pattern.extend(step, label)
        entries = pattern.entries
        score = self.score
        saved = score[step]
        score[step] = _ASSIGNED
        bit = 1 << label
        domain = self.domain
        narrowed = []
        for q in self.ne_other[step]:
            d = domain[q]
            if d & bit and not entries[q]:
                domain[q] = d ^ bit
                narrowed.append((q, d))
        labels = self.ct_labels
        room = self.ct_room
        fresh = []
        spent = []
        for entry in self._counting[step]:
            ci, at_most, scope = entry
            new = not labels[ci] & bit
            if new:
                labels[ci] |= bit
                fresh.append(ci)
            g = room[ci]
            # At-most spends room on a fresh label, at-least on a reused one.
            if new == at_most:
                g -= 1
                room[ci] = g
                spent.append(entry)
                if at_most and -1 <= g <= 2:
                    delta = _SPEND_DELTA[g + 1]
                    for q in scope:
                        score[q] += delta
            # With no room left a label may not spend any: at-most keeps
            # the labels its scope uses, at-least the ones it does not.
            # An at-most scope's labels change only with a fresh label.
            if g <= 0 and (new or not at_most):
                keep = 0 if g else labels[ci] if at_most else ~labels[ci]
                for q in scope:
                    d = domain[q]
                    if d & keep != d and not entries[q]:
                        domain[q] = d & keep
                        narrowed.append((q, d))
        self._trail.append((step, label, saved, fresh, spent, narrowed))

    def retract(self) -> None:
        step, label, saved, fresh, spent, narrowed = self._trail.pop()
        if fresh:
            keep = ~(1 << label)
            labels = self.ct_labels
            for ci in fresh:
                labels[ci] &= keep
        room = self.ct_room
        score = self.score
        for ci, at_most, scope in spent:
            g = room[ci] + 1
            room[ci] = g
            if at_most and 0 <= g <= 3:
                delta = _SPEND_DELTA[g]
                for q in scope:
                    score[q] -= delta
        domain = self.domain
        for q, d in reversed(narrowed):
            domain[q] = d
        score[step] = saved
        self.pattern.retract()

    # -- extension viability -----------------------------------------------

    def extension_eligible(self, step: int, label: int) -> bool:
        """Would assigning ``label`` to ``step`` leave every constraint repairable?

        Decided from the step's domain and the generic constraints'
        partial checks without mutating the pattern; equivalent to
        extending and asking each constraint touching ``step`` for a
        partial check.
        """
        if not self.domain[step] >> label & 1:
            return False
        generic = self.gen_by_step[step]
        if generic:
            entries = self.pattern.entries
            entries[step] = label
            try:
                for c in generic:
                    if not c.check_partial(entries):
                        return False
            finally:
                entries[step] = 0
        return True

    def starved(self, step: int) -> bool:
        """Did extending ``step`` leave some unassigned step without a label?

        Only two kinds of step can have been starved (see the module
        docstring): those whose domain the extension narrowed, and the
        other steps of its at-most scopes with no room left, whose
        labels' blocks it may have narrowed.
        """
        labelless = self._labelless
        for q, _ in self._trail[-1][5]:
            if labelless(q):
                return True
        room = self.ct_room
        entries = self.pattern.entries
        for ci, at_most, scope in self._counting[step]:
            if at_most and not room[ci]:
                for q in scope:
                    if not entries[q] and labelless(q):
                        return True
        return False

    def _labelless(self, step: int) -> bool:
        """Does no label in the domain give unassigned ``step`` an authorised user?"""
        pattern = self.pattern
        mask = self.domain[step]
        if mask >> (pattern.max_label + 1) & 1:
            return False  # the fresh label
        # Without the fresh bit no higher bit is set either.
        auth = self.auth[step]
        block_masks = pattern.block_masks
        while mask:
            low = mask & -mask
            if block_masks[low.bit_length() - 1] & auth:
                return False
            mask ^= low
        return True


def _search(
    state: SearchState, deadline: float | None, prune: bool, stats: SearchStats
) -> Iterator[tuple[tuple[int, ...], list[int]]]:
    """Depth-first walk yielding (canonical pattern, users) per realisable leaf.

    ``users[s]`` is the witness's user for step s.

    Raises _Timeout once ``deadline`` has passed.  The counters are kept
    in locals and written to ``stats`` when the walk ends: when it is
    exhausted, on a timeout, or when the generator is closed early.
    """
    pattern = state.pattern
    k = state.step_count
    constraints = state.instance.constraints
    auth = state.instance.auth.step_user_masks
    entries = pattern.entries
    block_masks = pattern.block_masks
    extend = state.extend
    retract = state.retract
    select_step = state.select_step
    eligible = state.extension_eligible
    starved = state.starved
    # The forward check is one of the prunes.  Without an at-most scope
    # every step keeps the fresh label, which the root check authorises,
    # so no step can starve.
    forward = prune and any(isinstance(c, AtMost) for c in constraints)
    clock = time.perf_counter
    nodes = 1  # the root
    auth_prunes = eligibility_prunes = forward_prunes = matching_prunes = 0
    matchings = matchings_full = 0
    steps = [0] * k  # the step chosen at each depth
    # The next label to try at each depth; depth k, a complete pattern,
    # has none, so the walk backs out of it like an exhausted depth.
    next_label = [1] * k + [k + 2]
    # The held block -> user matching of the pruned walk: held[x] is the
    # user bit of label x (0 while the label is unused), matched their
    # union.  undo[d] is 0 when depth d's extension kept the matching,
    # the old user bit xor the new one when its block took a free user,
    # or -1 after an augmenting path, with (matched, held) before it in
    # rematched[d].
    held = [0] * (k + 1)
    matched = 0
    undo = [0] * k
    rematched: list = [None] * k
    try:
        if deadline is not None and clock() >= deadline:
            raise _Timeout
        depth = 0
        steps[0] = select_step()
        while depth >= 0:
            x = next_label[depth]
            top = pattern.max_label + 1
            if x > top:
                depth -= 1
                if depth >= 0:
                    retract()
                    d = undo[depth]
                    if d > 0:
                        held[next_label[depth] - 1] ^= d
                        matched ^= d
                    elif d:
                        matched, held = rematched[depth]
                continue
            next_label[depth] = x + 1
            step = steps[depth]
            if prune:
                m = auth[step] if x == top else block_masks[x] & auth[step]
                if not m:
                    auth_prunes += 1
                    continue
                if not eligible(step, x):
                    eligibility_prunes += 1
                    continue
                h = held[x]
                # Keep a matching that covers every block: the block keeps
                # its user, or takes a free one, or one augmenting path
                # re-matches it; failing that, no completion is realisable.
                if m & h:
                    undo[depth] = 0
                else:
                    # The free users m & ~matched, without building ~matched.
                    free = m ^ (m & matched)
                    if free:
                        low = free & -free
                        held[x] = low
                        d = h ^ low
                        matched ^= d
                        undo[depth] = d
                    else:
                        saved = held[:]
                        rematch = augment(block_masks, held, matched ^ h, x, m)
                        if rematch < 0:
                            matching_prunes += 1
                            continue
                        rematched[depth] = matched, saved
                        matched = rematch
                        undo[depth] = -1
            extend(step, x)
            nodes += 1
            if (nodes & _TIMEOUT_MASK) == 1 and deadline is not None and clock() >= deadline:
                raise _Timeout
            depth += 1
            if depth < k:
                if forward and starved(step):
                    # Back out of the new depth as if it were exhausted,
                    # which retracts the extend and restores the matching.
                    forward_prunes += 1
                    next_label[depth] = k + 2
                    continue
                steps[depth] = select_step()
                next_label[depth] = 1
                continue
            # A complete pattern: decide it by one block/user matching.
            if prune or all(c.satisfied_by(entries) for c in constraints):
                matchings += 1
                user_of = match_blocks(block_masks[1 : pattern.max_label + 1])
                if user_of is not None:
                    matchings_full += 1
                    yield canonicalize(entries), [user_of[x - 1] for x in entries]
    finally:
        stats.nodes = nodes
        stats.auth_prunes = auth_prunes
        stats.eligibility_prunes = eligibility_prunes
        stats.forward_prunes = forward_prunes
        stats.matching_prunes = matching_prunes
        stats.matchings = matchings
        stats.matchings_full = matchings_full


def _root_unsat(instance: WorkflowInstance) -> bool:
    """Cheap whole-instance checks run before the search (prunes)."""
    if any(mask == 0 for mask in instance.auth.step_user_masks):
        return True
    zeros = [0] * instance.step_count
    return any(not c.check_partial(zeros) for c in instance.constraints)


def _drive(
    instance: WorkflowInstance,
    time_limit: float | None,
    prune: bool,
    limit: int | None,
) -> tuple[list[tuple[int, ...]], array, SearchStats, bool]:
    """Run one timed search for at most ``limit`` patterns (None: all).

    Returns the patterns found, their witnesses as one flat array of
    users (k per pattern, in step order), the stats and whether the
    search timed out.
    """
    if time_limit is not None and math.isnan(time_limit):
        raise ValueError("time limit is NaN")
    start = time.perf_counter()
    state = SearchState(instance)
    stats = SearchStats()
    patterns: list[tuple[int, ...]] = []
    witnesses = array("q")
    timed_out = time_limit is not None and time_limit <= 0
    if not timed_out and not (prune and _root_unsat(instance)):
        deadline = None if time_limit is None else start + time_limit
        search = _search(state, deadline, prune, stats)
        try:
            for pattern, users in itertools.islice(search, limit):
                patterns.append(pattern)
                witnesses.fromlist(users)
        except _Timeout:
            timed_out = True
        finally:
            search.close()
    stats.wall_time = time.perf_counter() - start
    return patterns, witnesses, stats, timed_out


def solve(
    instance: WorkflowInstance,
    time_limit: float | None = None,
    *,
    prune: bool = True,
) -> SolveOutcome:
    """Decide satisfiability; Sat outcomes carry a witness plan.

    ``time_limit`` is wall-clock seconds; on expiry the outcome status
    is timeout, and a limit of zero or less times out at once.  A NaN
    limit raises ValueError.  ``prune=False`` disables the authorisation,
    eligibility, forward and matching prunes and the root checks: every
    complete pattern is then reached, and each constraint's
    ``satisfied_by`` decides it before the matching runs.  This never
    changes the verdict.  The instance must already be preprocessed,
    i.e. free of binding-of-duty constraints.
    """
    patterns, users, stats, timed_out = _drive(instance, time_limit, prune, 1)
    status = TIMEOUT if timed_out else SAT if patterns else UNSAT
    return SolveOutcome(status, dict(enumerate(users)) if patterns else None, stats)


class _Plans(Sequence[Plan]):
    """Read-only sequence of witness plans over one flat array of users.

    Plan i maps step s to ``users[i * k + s]``; every access builds a
    fresh ``dict``, so the plans cost k array slots each until read.
    """

    __slots__ = ("_users", "_k")

    def __init__(self, users: array, step_count: int):
        self._users = users
        self._k = step_count

    def __len__(self) -> int:
        return len(self._users) // self._k

    def __getitem__(self, index: int) -> Plan:
        n = len(self)
        i = operator.index(index)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("plan index out of range")
        k = self._k
        return dict(enumerate(self._users[i * k : i * k + k]))

    def __iter__(self) -> Iterator[Plan]:
        # zip over k references to one iterator takes the users k at a time.
        return map(dict, map(enumerate, zip(*[iter(self._users)] * self._k)))


@dataclass(frozen=True)
class EnumerationOutcome:
    """All valid complete patterns with one witness plan each.

    ``plans[i]`` realises ``patterns[i]``; each plan is built on access.
    """

    patterns: tuple[tuple[int, ...], ...]
    plans: Sequence[Plan]
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
    occurrence in step order) with one witness plan per pattern, stored
    as k users and built into a ``dict`` when read.
    """
    patterns, users, stats, timed_out = _drive(instance, time_limit, prune, None)
    plans = _Plans(users, instance.step_count)
    return EnumerationOutcome(tuple(patterns), plans, stats, timed_out)
