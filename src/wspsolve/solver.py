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

The matching prune holds one block -> user matching in the walk's locals.
An extension keeps the block's user while it stays authorised, or takes
the block's lowest free user, or else re-matches by one augmenting path
(``matching.augment``); with no path, the branch is cut.  Each depth
snapshots the matching it was reached with, an extension that changes
it writes a copy, and backtracking rebinds the snapshot.  A complete
pattern is realisable exactly when some matching covers every block:
the leaf completes the held one with ``match_blocks`` and reads the
witness plan off it.  With the prunes on it already covers every block,
so every leaf reached is realisable; with them off nothing is held, and
the blocks are matched from scratch in label order.  The last step
passes the same prunes and counts as a node, but no deeper node reads
the search state, so the leaf writes its label in place and restores it
instead of extending.

``solve`` selects steps by constraint weighting after Boussemart,
Hemery, Lecoutre and Sais: each step's weight starts at the number of
not-equals and counting constraints on it, and each eligibility or
forward cut adds 1 to every step of the constraint that caused it
(``SearchState.cause``).  The next step is the one with the largest
static score plus weight per label left in its domain, so steps pressed
by nearly-saturated at-most scopes, or by constraints that keep cutting
the search, come first.  ``solve_enumerating`` keeps the static order,
the score alone, and learns nothing.

The walk is one loop over an explicit stack, one frame per depth
holding the chosen step and the next label to try, so the depth of the
tree is bounded by memory rather than by Python's recursion limit.  It
records each realisable complete pattern with its witness, the user of
each step, as it is found.  ``solve_enumerating`` keeps every witness as
k user ids in one flat array, one byte per id up to 256 users and two up
to 65,536, and builds a plan ``dict`` only when a caller reads it from
``EnumerationOutcome.plans``.

Per-constraint state is flat (see ``SearchState``) and, like the held
matching, copied on each change rather than logged for undo (Schulte
compares copying with trailing for constraint programming).

A search that is still running after ``SPLIT_AFTER`` seconds, 5 ms,
forks one helper process at its next deadline check, one every
``TIMEOUT_CHECK_INTERVAL`` (64) nodes, and shares its remaining
subtrees with it, as in parallel depth-first search after Rao and
Kumar: each process, done with its subtree, claims the next unclaimed
one from a counter the two share, so neither idles while the other has
work left.  The subtrees are the tasks below ``SPLIT_DEPTH`` in a
decision and ``ENUM_SPLIT_DEPTH`` in an enumeration.  A decision resets
its weights at every label attempt down to its task depth, so both
processes walk the depths above the tasks alike and start each task
from the same weights.  Both processes run the same ``_Split``: each
records its counters and patterns per run of the tasks it owns, and one
pass over both processes' runs in depth-first order merges them, so the
outcome, the witnesses, the order of an enumeration's patterns and every
search counter are those of the one-process walk.
"""

from __future__ import annotations

import marshal
import math
import operator
import os
import select
import signal
import sys
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


#: The deadline is consulted once every this many search nodes, about a
#: millisecond of a k=30 search, so that the fork, a helper's report and
#: the parent's notice of it each come within a few dozen nodes.
TIMEOUT_CHECK_INTERVAL = 64

_TIMEOUT_MASK = TIMEOUT_CHECK_INTERVAL - 1

_ASSIGNED = -math.inf


#: A search forks its helper at the first deadline check after it has
#: run this many seconds, three to five times what forking and reaping a
#: process costs, so that a search shorter than this never pays for one.
SPLIT_AFTER = 0.005

#: The depth whose label attempts are the tasks the two processes share
#: in a decision, and down to which its walk resets the learnt weights
#: at every label attempt (see ``_search``), so that both processes walk
#: the depths above alike and start each task from the same weights.
#: Deeper tasks would be smaller but learn less; at depth 3 they were
#: too few to share.
SPLIT_DEPTH = 4

#: The task depth of an enumeration, whose static order learns nothing:
#: deep enough that tasks are many and small, shallow enough that each
#: process re-walks little above them.
ENUM_SPLIT_DEPTH = 8

#: The counters of ``SearchStats`` that a search adds up, in the order
#: the walk reports them.
COUNTERS = (
    "nodes",
    "auth_prunes",
    "eligibility_prunes",
    "forward_prunes",
    "matching_prunes",
    "matchings",
    "matchings_full",
)


class _Timeout(Exception):
    pass


class _Stop(Exception):
    """The walk has no task left to take."""


class SearchState(Pattern):
    """Mutable search position: a ``Pattern`` plus incremental constraint
    counters.

    The search reads ``entries``, ``block_masks``, ``max_label`` and
    ``auth`` off the state itself.  ``extend`` and ``retract`` move the
    pattern through ``Pattern.extend`` and ``Pattern.retract``, looked up
    at each call, because the benchmark's traced pass wraps those two
    and ``Pattern.extension_user_mask``, as well as this class's
    ``extend``, ``retract``, ``extension_eligible`` and ``select_step``,
    by name.

    For every counting constraint ``ci`` the state tracks, in flat lists,
    ``ct_labels[ci]`` (bit x set when some scope step has label x) and
    ``ct_room[ci]``: r - distinct for at-most r, and distinct +
    unassigned - r for at-least r, counted over the scope.  An at-most
    constraint spends one room on each label new to its scope, an
    at-least one on each label its scope already uses; a constraint
    whose room is negative has no satisfying completion.  ``score[s]``
    is the static selection score of step s: its not-equals count plus
    the at-most weights, or -inf once s is assigned.  ``weight[s]`` is
    its learnt weight, which starts at ``start_weight[s]``, the number of
    not-equals and counting constraints on s.  A walk raises it at each
    cut (see ``cause`` and ``bump_lost``) and resets it; no retract
    undoes it.  With ``weight`` None the state selects in the static
    order.

    ``domain[s]`` is the bitmask of the labels unassigned step s may
    still take.  Every bit above ``max_label`` is alike, so the
    bit of the fresh label says whether s may open a block.  Along a
    branch a domain only shrinks: an extension clears its label from
    the not-equals neighbours, and once a scope has no room left it
    narrows the scope's steps to the labels that spend none.  Extending
    pushes these four lists and a bitmask of the narrowed steps onto
    ``_frames``, beside the pattern's own trail, and writes copies (of
    the counting lists only for a step in a counting scope, as nothing
    else writes them); retract rebinds them.
    """

    def __init__(self, instance: WorkflowInstance):
        for c in instance.constraints:
            if isinstance(c, BindingOfDuty):
                raise ValueError(
                    "instance still has binding-of-duty constraints; preprocess first"
                )
        k = instance.step_count
        super().__init__(k, instance.auth.step_user_masks)
        self.instance = instance

        # Scores start at each step's not-equals count plus the at-most
        # weights of the empty pattern (small whole numbers, so the float
        # sums are exact in any order).
        score = [0.0] * k
        ne_other: list[list[int]] = [[] for _ in range(k)]
        # at_most[s] and at_least[s] hold (ci, scope) for every counting
        # constraint ci of that kind whose scope contains s.
        self.ct_labels: list[int] = []
        self.ct_room: list[int] = []
        at_most: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in range(k)]
        at_least: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in range(k)]
        gen_by_step: list[list] = [[] for _ in range(k)]

        for c in instance.constraints:
            if isinstance(c, NotEquals):
                score[c.s] += 1
                score[c.t] += 1
                ne_other[c.s].append(c.t)
                ne_other[c.t].append(c.s)
            elif isinstance(c, (AtMost, AtLeast)):
                most = isinstance(c, AtMost)
                scope = tuple(sorted(c.scope))
                entry = (len(self.ct_room), scope)
                self.ct_labels.append(0)
                self.ct_room.append(c.r if most else len(scope) - c.r)
                for s in scope:
                    (at_most if most else at_least)[s].append(entry)
                    if most:
                        score[s] += _weight(c.r)
            else:
                for s in c.scope:
                    gen_by_step[s].append(c)
        # In step and scope order, so that the cause a cut names and the
        # starved step found first do not depend on the constraints' order.
        by_scope = operator.itemgetter(1)
        self.ne_other = [tuple(sorted(x)) for x in ne_other]
        self._at_most = [tuple(sorted(x, key=by_scope)) for x in at_most]
        self._at_least = [tuple(sorted(x, key=by_scope)) for x in at_least]
        self.gen_by_step = [tuple(x) for x in gen_by_step]
        self.score = score
        self.start_weight = tuple(
            len(ne_other[s]) + len(at_most[s]) + len(at_least[s]) for s in range(k)
        )
        self.weight: list[int] | None = list(self.start_weight)
        # Every label from 1 up: at the empty pattern no scope's room is
        # negative, and a scope with none (at-least r = |scope|) uses no
        # label yet, so it excludes none.
        self.domain = [-2] * k
        self._frames: list[tuple[list[float], list[int], list[int], list[int], int]] = []

    # -- heuristic ----------------------------------------------------------

    def select_step(self) -> int:
        """The unassigned step with the largest ``(score + weight) / size``.

        The size counts the labels 1..max_label + 1 left in the step's
        domain; a step with none left comes first.  Ties go to the lowest
        index.  With ``weight`` None, the static order: the highest score.
        """
        score = self.score
        weight = self.weight
        if weight is None:
            top = max(score)
            if top == _ASSIGNED:
                raise ValueError("pattern is complete")
            return score.index(top)
        labels = (2 << (self.max_label + 1)) - 2
        best, top = -1, -1.0
        for s, d in enumerate(self.domain):
            v = score[s]
            if v == _ASSIGNED:
                continue
            n = (d & labels).bit_count()
            v = (v + weight[s]) / n if n else math.inf
            if v > top:
                best, top = s, v
        if best < 0:
            raise ValueError("pattern is complete")
        return best

    def cause(self, step: int, label: int) -> tuple[int, ...] | None:
        """The steps of the first constraint found that takes ``label``
        from unassigned ``step``'s domain, or None if none does.

        Checked in this order: a not-equals neighbour labelled ``label``
        (the pair), then an at-most scope of ``step`` with room below 0,
        or 0 with ``label`` unused in it, then an at-least scope with room
        below 0, or 0 with ``label`` used in it (the scope).
        """
        entries = self.entries
        for q in self.ne_other[step]:
            if entries[q] == label:
                return step, q
        room, labels = self.ct_room, self.ct_labels
        for used, scopes in ((0, self._at_most[step]), (1, self._at_least[step])):
            for ci, scope in scopes:
                g = room[ci]
                if g < 0 or not g and labels[ci] >> label & 1 == used:
                    return scope
        return None

    def bump_lost(self, step: int) -> None:
        """Add 1 to the weight of every step of the cause of each label
        1..max_label + 1 gone from ``step``'s domain."""
        weight = self.weight
        lost = ~self.domain[step] & ((2 << (self.max_label + 1)) - 2)
        while lost:
            low = lost & -lost
            for q in self.cause(step, low.bit_length() - 1) or ():
                weight[q] += 1
            lost ^= low

    # -- pattern mutation with counter upkeep -------------------------------

    def extend(self, step: int, label: int) -> None:
        Pattern.extend(self, step, label)
        entries = self.entries
        frame = self.score, self.domain, self.ct_labels, self.ct_room
        self.score = score = frame[0][:]
        self.domain = domain = frame[1][:]
        score[step] = _ASSIGNED
        bit = 1 << label
        narrowed = 0
        for q in self.ne_other[step]:
            d = domain[q]
            if d & bit and not entries[q]:
                domain[q] = d ^ bit
                narrowed |= 1 << q
        at_most = self._at_most[step]
        at_least = self._at_least[step]
        if at_most or at_least:
            self.ct_labels = labels = frame[2][:]
            self.ct_room = room = frame[3][:]
            # With no room left a label may not spend any: at-most keeps
            # the labels its scope uses, at-least the ones it does not.
            # An at-most scope spends room, and changes its labels, only
            # on a fresh label; an at-least scope spends it on a reused one.
            for ci, scope in at_most:
                if labels[ci] & bit:
                    continue
                labels[ci] |= bit
                room[ci] = g = room[ci] - 1
                if -1 <= g <= 2:
                    delta = _SPEND_DELTA[g + 1]
                    for q in scope:
                        score[q] += delta
                if g <= 0:
                    keep = 0 if g else labels[ci]
                    for q in scope:
                        d = domain[q]
                        if d & keep != d and not entries[q]:
                            domain[q] = d & keep
                            narrowed |= 1 << q
            for ci, scope in at_least:
                used = labels[ci]
                room[ci] = g = room[ci] - (used >> label & 1)
                labels[ci] = used = used | bit
                if g <= 0:
                    keep = 0 if g else ~used
                    for q in scope:
                        d = domain[q]
                        if d & keep != d and not entries[q]:
                            domain[q] = d & keep
                            narrowed |= 1 << q
        self._frames.append((*frame, narrowed))

    def retract(self) -> None:
        Pattern.retract(self)  # first, so an empty trail raises its ValueError
        self.score, self.domain, self.ct_labels, self.ct_room, _ = self._frames.pop()

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
            entries = self.entries
            entries[step] = label
            try:
                for c in generic:
                    if not c.check_partial(entries):
                        return False
            finally:
                entries[step] = 0
        return True

    def starved(self, step: int) -> int | None:
        """The first unassigned step found that extending ``step`` left
        without a label, or None.

        Only two kinds of step can have been starved (see the module
        docstring): those whose domain the extension narrowed, and the
        other steps of its at-most scopes with no room left, whose
        labels' blocks it may have narrowed.  Each is checked once.
        """
        labelless = self._labelless
        seen = narrowed = self._frames[-1][4]
        while narrowed:
            low = narrowed & -narrowed
            q = low.bit_length() - 1
            if labelless(q):
                return q
            narrowed ^= low
        room = self.ct_room
        entries = self.entries
        for ci, scope in self._at_most[step]:
            if not room[ci]:
                for q in scope:
                    if not seen >> q & 1 and not entries[q]:
                        seen |= 1 << q
                        if labelless(q):
                            return q
        return None

    def _labelless(self, step: int) -> bool:
        """Does no label in the domain give unassigned ``step`` an authorised user?"""
        mask = self.domain[step]
        if mask >> (self.max_label + 1) & 1:
            return False  # the fresh label
        # Without the fresh bit no higher bit is set either.
        auth = self.auth[step]
        block_masks = self.block_masks
        while mask:
            low = mask & -mask
            if block_masks[low.bit_length() - 1] & auth:
                return False
            mask ^= low
        return True


def _search(state: SearchState, split: _Split, stats: SearchStats) -> None:
    """Depth-first walk recording each realisable leaf into ``split``'s open run.

    A leaf appends its canonical pattern to ``split.patterns`` and each
    step's user to ``split.witnesses``, deciding the last step's label in
    place, without ``extend``.  The walk prunes if ``split.prune``; its
    tasks are the label attempts at depth ``split.depth``.

    Raises _Stop at the ``split.limit``-th pattern, and _Timeout once
    ``split.deadline`` has passed.  The counters are kept in locals and
    written to ``stats`` when the walk ends, however it ends.

    Unless ``state.weight`` is None, the walk learns it: each eligibility
    cut bumps its cause, and each forward cut the causes of the labels the
    starved step has lost.  Each label attempt at the tasks' depth or
    above first resets the weights to ``state.start_weight``, so every
    step chosen down to the tasks' depth is chosen by those, and every
    task starts from them.

    Each task first calls ``split.boundary`` with the counters so far,
    which may skip the label (the other process's task) or raise _Stop,
    and the deadline checks, due at ``split.wake``, call ``split.tick``
    for the next time to call it.
    """
    k = state.step_count
    constraints = state.instance.constraints
    auth = state.auth
    entries = state.entries
    block_masks = state.block_masks
    prune = split.prune
    tasks = split.depth
    extend = state.extend
    retract = state.retract
    select_step = state.select_step
    eligible = state.extension_eligible
    starved = state.starved
    weight, start_weight = state.weight, state.start_weight
    cause, bump_lost = state.cause, state.bump_lost
    reset = -1 if weight is None else tasks  # the deepest depth that resets the weights
    # The forward check is one of the prunes.  Without an at-most scope
    # every step keeps the fresh label, which the root check authorises,
    # so no step can starve.
    forward = prune and any(isinstance(c, AtMost) for c in constraints)
    last = k - 1  # the depth of the leaves
    clock = time.perf_counter
    nodes = 1  # the root
    auth_prunes = eligibility_prunes = forward_prunes = matching_prunes = 0
    matchings = matchings_full = 0
    steps = [0] * k  # the step chosen at each depth
    next_label = [1] * k  # the next label to try at each depth
    # The held block -> user matching of the pruned walk: held[x] is the
    # user bit of label x (0 while the label is unused), matched their
    # union.  before[d] is (matched, held) as depth d's extension found
    # them; a snapshot is never written, as a change writes a copy.
    held = [0] * (k + 1)
    matched = 0
    before = [(matched, held)] * k
    boundary, tick, wake = split.boundary, split.tick, split.wake
    patterns, witnesses, limit = split.patterns, split.witnesses, split.limit
    try:
        if clock() >= split.deadline:
            raise _Timeout
        depth = 0
        steps[0] = select_step()
        while depth >= 0:
            x = next_label[depth]
            top = state.max_label + 1
            if x > top:
                depth -= 1
                if depth >= 0:
                    retract()
                    matched, held = before[depth]
                continue
            next_label[depth] = x + 1
            if depth <= reset:
                weight[:] = start_weight
            if depth == tasks and not boundary(
                (nodes, auth_prunes, eligibility_prunes, forward_prunes, matching_prunes,
                 matchings, matchings_full)
            ):
                continue
            step = steps[depth]
            # The users of x's block once step joins it.
            m = auth[step] if x == top else block_masks[x] & auth[step]
            if prune:
                if not m:
                    auth_prunes += 1
                    continue
                if not eligible(step, x):
                    eligibility_prunes += 1
                    if reset >= 0:
                        for q in cause(step, x) or ():
                            weight[q] += 1
                    continue
                before[depth] = matched, held
                h = held[x]
                # Keep a matching that covers every block: the block keeps
                # its user, or takes a free one, or one augmenting path
                # re-matches it; failing that, no completion is realisable.
                if not m & h:
                    held = held[:]
                    # The free users m & ~matched, without building ~matched.
                    free = m ^ (m & matched)
                    if free:
                        held[x] = low = free & -free
                        matched ^= h ^ low
                    else:
                        matched = augment(block_masks, held, matched ^ h, x, m)
                        if matched < 0:
                            matching_prunes += 1
                            matched, held = before[depth]
                            continue
            nodes += 1
            if (nodes & _TIMEOUT_MASK) == 1 and clock() >= wake:
                wake = tick()
            if depth < last:
                extend(step, x)
                depth += 1
                q = starved(step) if forward else None
                if q is not None:
                    # Back out of the new depth as if it were exhausted,
                    # which retracts the extend and restores the matching.
                    forward_prunes += 1
                    if reset >= 0:
                        bump_lost(q)
                    next_label[depth] = k + 1
                    continue
                steps[depth] = select_step()
                next_label[depth] = 1
                continue
            # The last step: decide the complete pattern in place.  The
            # held matching covers every block when pruning and none
            # otherwise; the leaf completes it.
            mask = block_masks[x]
            entries[step] = x
            block_masks[x] = m
            if prune or all(c.satisfied_by(entries) for c in constraints):
                matchings += 1
                end = top + 1 if x == top else top  # one past the last block
                user_of = match_blocks(block_masks[1:end], held[1:end])
                if user_of is not None:
                    matchings_full += 1
                    patterns.append(canonicalize(entries))
                    witnesses.fromlist([user_of[b - 1] for b in entries])
                    if len(patterns) == limit:
                        raise _Stop
            entries[step] = 0
            block_masks[x] = mask
            matched, held = before[depth]
    finally:
        _set_counts(stats, (nodes, auth_prunes, eligibility_prunes, forward_prunes,
                            matching_prunes, matchings, matchings_full))


def _counts(stats: SearchStats) -> tuple[int, ...]:
    return tuple(getattr(stats, name) for name in COUNTERS)


def _set_counts(stats: SearchStats, counts: Sequence[int]) -> None:
    for name, value in zip(COUNTERS, counts):
        setattr(stats, name, value)


def _may_fork() -> bool:
    """May this process fork a helper at no risk to its caller?

    Only on Linux with a second CPU to run it, from a process with one
    thread (a fork copies no other thread, and so no lock one may hold)
    that is not itself a ``multiprocessing`` worker, whose pool already
    spreads the work over the CPUs, and that does not ignore SIGCHLD,
    which would leave no exited helper to reap.
    """
    if sys.platform != "linux" or len(os.sched_getaffinity(0)) < 2:
        return False
    if signal.getsignal(signal.SIGCHLD) == signal.SIG_IGN:
        return False
    mp = sys.modules.get("multiprocessing")  # every worker has imported it
    if mp is not None and mp.parent_process() is not None:
        return False
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:  # no /proc to count the threads in
        return False


# The helper's reports travel over a pipe as one 8-byte length and the
# ``marshal`` bytes of a message: a pipe and marshal cost this process
# no import, and only the forked helper writes what is read here.


def _send(fd: int, message) -> None:
    data = marshal.dumps(message)
    view = memoryview(len(data).to_bytes(8, "little") + data)
    while view:
        view = view[os.write(fd, view) :]


def _read(fd: int, size: int) -> bytearray:
    data = bytearray(size)
    view = memoryview(data)
    while view:
        got = os.readv(fd, [view])
        if not got:
            raise EOFError
        view = view[got:]
    return data


def _receive(fd: int):
    return marshal.loads(_read(fd, int.from_bytes(_read(fd, 8), "little")))


def _readable(fd: int, timeout: float | None = 0.0) -> bool:
    """Can ``fd`` be read (data, or the writer has closed), within ``timeout`` s?"""
    return bool(select.select([fd], [], [], timeout)[0])


def _user_array(user_count: int) -> array:
    """An empty array of the smallest typecode, of ``B``, ``H``, ``I`` and
    ``q``, that holds every user id below ``user_count``: the witnesses."""
    for code in "BHI":
        if user_count <= 1 << 8 * array(code).itemsize:
            return array(code)
    return array("q")


class _Split:
    """A search's tasks, shared by this process (side 0) and one forked
    helper (side 1), which run this same class.

    The tasks are the label attempts at depth ``depth``, numbered in
    depth-first order.  Until the fork side 0 owns every task.  It forks
    at the first deadline check after ``SPLIT_AFTER`` seconds, if
    ``_may_fork`` allows, and keeps the task in progress, ``first``, and
    every one before it.  Each later task goes to the side that claims
    it: a side reaching a task past the ones it holds takes the next
    unclaimed one from a counter the two share (``claim``), and skips
    the tasks before that one, which the other side has claimed.  The
    helper walks from the empty pattern.  Each side skips the other's
    tasks before counting anything for them, and a skipped task leaves
    the search state as a walked one would, so both walk the depths
    above alike.

    A task covers its label attempt, the subtree below it and the walk
    above ``depth`` up to the next task's boundary; the walk before task
    0 is side 0's.  Each side records ``(first task, side, counter
    deltas, patterns, witness bytes)`` per run of consecutive tasks it
    owns: the one-process counters are the sum of both sides' runs, and
    its patterns those of the runs in task order.  The walk appends to
    ``patterns`` and ``witnesses``, which ``end_run`` moves into the run.
    The helper reports its finished runs, and how far they reach
    (``finished``), at its deadline checks and when its walk ends.  A
    walk ends at its ``limit``-th pattern (1 or None): a decision's
    first solution is settled once both sides have walked every task
    before its own, and side 0 takes no task past the helper's solution
    once it knows of it.  A split that ``start``s at infinity never
    forks: its first deadline check is at the deadline.
    """

    def __init__(
        self,
        instance: WorkflowInstance,
        prune: bool,
        limit: int | None,
        depth: int,
        deadline: float | None,
        start: float,
    ):
        self.instance = instance
        self.prune = prune
        self.limit = limit
        self.depth = depth
        self.deadline = math.inf if deadline is None else deadline
        self.wake = min(self.deadline, start + SPLIT_AFTER)
        self.side = 0
        self.first = math.inf  # the last task begun before the fork
        self.task = 0  # the tasks begun so far
        self.start, self.last = 0, math.inf  # the first and last task this side holds
        self.runs: list[tuple] = []  # this side's not yet sent; on side 0 the helper's too
        # The open run, (its first task, the counters there), or None, and
        # the patterns and witnesses the walk has found since it opened.
        self.run: tuple[int, tuple[int, ...]] | None = (-1, (0,) * len(COUNTERS))
        self.patterns: list[tuple[int, ...]] = []
        self.witnesses = _user_array(instance.user_count)
        self.pid = 0  # the helper's, while it runs
        # The pipes' ends: side 0 reads reports and holds the helper alive;
        # both sides read and write the counter's pipe.
        self.reports_fd = self.alive_fd = -1
        self.claim_fds = (-1, -1)
        self.reported = 0  # the helper has reported every task of its before this one
        self.found = math.inf  # the task where the helper's walk met the limit
        self.done = False  # the helper has sent its last report
        self.lost = False  # the helper ended before that

    def boundary(self, counts: tuple[int, ...]) -> bool:
        """Take the task of this label attempt?  Raises _Stop past a solved one."""
        t = self.task
        self.task = t + 1
        if t >= self.found:
            raise _Stop
        if t > self.last:
            self.start, self.last = self.claim()
        mine = t >= self.start
        if not mine:
            self.end_run(counts)
        elif self.run is None:
            self.run = t, counts
        return mine

    def claim(self) -> tuple[int, int]:
        """The first and last task this side holds next: the first one no
        side has claimed, past which it leaves the counter."""
        t = self.take()
        os.write(self.claim_fds[1], (t + 1).to_bytes(8, "little"))
        return t, t

    def take(self) -> int:
        """Read the counter, 8 bytes, out of its pipe, waiting while the
        other side holds it; raises _Stop if that side ends meanwhile."""
        counter = self.claim_fds[0]
        other = self.alive_fd if self.side else self.reports_fd
        while True:
            try:
                return int.from_bytes(os.read(counter, 8), "little")
            except BlockingIOError:
                pass
            # A helper whose walk has ended holds no counter, and its
            # reports pipe stays readable once it exits.
            ready = select.select([counter] if self.done else [counter, other], [], [])[0]
            if other in ready:
                if self.side:
                    raise _Stop
                self.receive()
                if self.lost:
                    raise _Stop

    def finished(self) -> int:
        """Every task before this one that this side owns is in a finished run."""
        return self.task if self.run is None else self.run[0]

    def end_run(self, counts: tuple[int, ...]) -> None:
        """Record the open run, if any, as ending at ``counts``, with the
        patterns and witnesses found in it."""
        if self.run is not None:
            t, start = self.run
            deltas = tuple(map(operator.sub, counts, start))
            self.runs.append((t, self.side, deltas, self.patterns[:], self.witnesses.tobytes()))
            del self.patterns[:], self.witnesses[:]
            self.run = None

    def report(self, done: bool) -> None:
        """Send side 0 the finished runs, how far they reach, and whether
        the walk has ended."""
        _send(self.reports_fd, (self.runs, self.finished(), done))
        self.runs = []

    def tick(self) -> float:
        """The deadline check: forks, or sends or takes in reports; the next check's time."""
        now = time.perf_counter()
        if now >= self.deadline:
            raise _Timeout
        if self.side:
            if self.runs:
                self.report(False)
            if _readable(self.alive_fd):  # side 0 never writes: its end is closed
                raise _Stop
            return now
        if self.pid:
            self.receive()
            if self.lost or self.found < self.task:
                raise _Stop  # the helper is gone, or its solution is settled
            return now
        if _may_fork():
            self._fork()
        return now if self.pid else self.deadline

    def _fork(self) -> None:
        first = self.task - 1
        fds: list[int] = []
        try:
            for _ in range(3):
                fds += os.pipe()
            # A claim waits in select, where it sees the other side end,
            # never in a read of the counter.
            os.set_blocking(fds[4], False)
            os.write(fds[5], (first + 1).to_bytes(8, "little"))
            pid = os.fork()
        except OSError:  # no pipe or process to be had: this one searches alone
            for fd in fds:
                os.close(fd)
            return
        reports_r, reports_w, alive_r, alive_w, *claim_fds = fds
        self.first, self.last, self.claim_fds = first, first, tuple(claim_fds)
        if pid == 0:
            # The helper never returns into the caller's code, so flushes
            # no stdio buffer and runs no exit handler of the caller's.
            try:
                os.close(reports_r)
                os.close(alive_w)
                self.side, self.task, self.run, self.runs = 1, 0, None, []
                self.last = -1  # it holds no task, so claims at its first
                self.patterns, self.witnesses = [], _user_array(self.instance.user_count)
                self.deadline, self.wake = math.inf, 0.0
                self.reports_fd, self.alive_fd = reports_w, alive_r
                _helper(self)
            finally:
                os._exit(0)
        self.pid, self.reports_fd, self.alive_fd = pid, reports_r, alive_w
        self.reported = self.first + 1
        os.close(reports_w)
        os.close(alive_r)

    def receive(self) -> None:
        """Take in every report the helper has sent so far."""
        try:
            while not self.done and _readable(self.reports_fd):
                runs, self.reported, self.done = _receive(self.reports_fd)
                self.runs += runs
                for t, _, _, patterns, _ in runs:
                    if len(patterns) == self.limit:
                        self.found = t
        except EOFError:
            self.lost = True

    def merge(
        self, stats: SearchStats, timed_out: bool
    ) -> tuple[list[tuple[int, ...]], array, SearchStats, bool] | None:
        """The one-process outcome from both sides' runs, for side 0's walk.

        Waits, up to the deadline, until the outcome is settled: the
        helper has reported every task before the first solution, or
        every task of a walk with no limit.  One pass over both sides'
        runs in task order then joins their patterns and witnesses and
        adds up their counters, up to the ``limit``-th pattern.  If the
        deadline passes first, the patterns end before the first run not
        yet reported or past the task this walk timed out in: a prefix
        of the one-process list.  The counters then add up every run
        either side reported.  Returns None if the helper ended without
        reporting what the outcome needs.
        """
        # The task in which this walk met the limit, read before end_run
        # moves its patterns into the run, and the one it timed out in,
        # having walked every task before.
        own = self.task - 1 if len(self.patterns) == self.limit else math.inf
        walked = self.task - 1 if timed_out else math.inf
        self.end_run(_counts(stats))
        while True:
            self.receive()
            end = min(own, self.found)
            settled = end <= walked and (self.done or self.reported >= end)
            if settled or timed_out:
                break
            if self.lost:
                return None
            wait = self.deadline - time.perf_counter()
            if wait <= 0:
                timed_out = True
            else:
                _readable(self.reports_fd, None if wait == math.inf else wait)
        runs = sorted(self.runs)
        merged, users = [], _user_array(self.instance.user_count)
        prev = 1  # the side of the run before: task -1 opens side 0's first run
        for i, (t, side, _, patterns, witnesses) in enumerate(runs):
            if t > walked or side == prev:
                break  # a timeout's prefix ends here
            merged += patterns
            users.frombytes(witnesses)
            prev = side
            if len(merged) == self.limit:  # the one-process walk ends here
                del runs[i + 1 :]
                break
        _set_counts(stats, [sum(c) for c in zip(*[run[2] for run in runs])])
        stats.processes = 2
        return merged, users, stats, timed_out and not settled

    def close(self) -> None:
        """Kill the helper, if it still runs, and reap it."""
        if self.pid:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            for fd in (self.reports_fd, self.alive_fd, *self.claim_fds):
                os.close(fd)
            self.pid = 0


def _helper(split: _Split) -> None:
    """The helper's walk, its runs reported to ``split.reports_fd`` as they
    finish and the last with its end; the helper exits then, and side 0's
    ``close`` reaps it."""
    stats = _walk(SearchState(split.instance), split)[2]
    split.end_run(_counts(stats))
    split.report(True)


def _root_unsat(instance: WorkflowInstance) -> bool:
    """Cheap whole-instance checks run before the search (prunes)."""
    if any(mask == 0 for mask in instance.auth.step_user_masks):
        return True
    zeros = [0] * instance.step_count
    return any(not c.check_partial(zeros) for c in instance.constraints)


def _walk(
    state: SearchState, split: _Split
) -> tuple[list[tuple[int, ...]], array, SearchStats, bool]:
    """One walk of ``split``'s tasks for at most ``split.limit`` patterns
    (None: all; see ``_search``).

    A decision learns its step order; an enumeration (no limit) keeps the
    static one.  Returns the patterns found, their witnesses as one flat
    array of users (k per pattern, in step order), the stats and whether
    the walk timed out.  The patterns and witnesses are the split's
    lists, which hold those of its open run.
    """
    if split.limit is None:
        state.weight = None
    stats = SearchStats()
    timed_out = False
    try:
        _search(state, split, stats)
    except _Timeout:
        timed_out = True
    except _Stop:
        pass
    return split.patterns, split.witnesses, stats, timed_out


def _drive(
    instance: WorkflowInstance,
    time_limit: float | None,
    prune: bool,
    limit: int | None,
) -> tuple[list[tuple[int, ...]], array, SearchStats, bool]:
    """Run one timed search for at most ``limit`` patterns (None: all), as ``_walk``.

    The search may split (see ``_Split``); if its helper ends without
    reporting, the search runs again in this process alone, under a
    ``_Split`` that starts at infinity and so never forks.
    """
    if time_limit is not None and math.isnan(time_limit):
        raise ValueError("time limit is NaN")
    start = time.perf_counter()
    state = SearchState(instance)
    timed_out = time_limit is not None and time_limit <= 0
    if timed_out or (prune and _root_unsat(instance)):
        result = [], _user_array(instance.user_count), SearchStats(), timed_out
    else:
        deadline = None if time_limit is None else start + time_limit
        depth = min(ENUM_SPLIT_DEPTH if limit is None else SPLIT_DEPTH, instance.step_count - 1)
        split = _Split(instance, prune, limit, depth, deadline, start)
        try:
            result = _walk(state, split)
            if split.pid:
                result = split.merge(*result[2:])
                if result is None:
                    split.close()
                    alone = _Split(instance, prune, limit, depth, deadline, math.inf)
                    result = _walk(SearchState(instance), alone)
        finally:
            split.close()
    result[2].wall_time = time.perf_counter() - start
    return result


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

    A search still running after ``SPLIT_AFTER`` seconds (5 ms) forks
    one helper process at its next deadline check, one every
    ``TIMEOUT_CHECK_INTERVAL`` (64) nodes, on Linux with at least two
    CPUs, from a single-threaded process that is not a
    ``multiprocessing`` worker; the two claim the subtrees below a fixed
    depth one at a time from a counter they share.  The outcome, the witness and every
    counter are those of the one-process search; only
    ``stats.processes`` and the times tell.  The fork is otherwise
    visible to the caller: its ``os.register_at_fork`` hooks run,
    ``before`` and ``after_in_parent`` in the caller and
    ``after_in_child`` in the helper, and the helper holds a copy of
    every file descriptor the caller has open.  The helper exits once
    its walk ends; ``solve`` kills it with SIGKILL if it still runs, and
    reaps it, before it returns or raises.
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

    def __getitem__(self, index: int | slice) -> Plan | list[Plan]:
        i = range(len(self))[index]  # IndexError past either end; a slice gives a range
        if isinstance(i, range):
            return [self[j] for j in i]
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

    The search splits as ``solve``'s does.  The helper reports its runs
    of tasks, each with its patterns and witnesses, as it walks, and the
    runs are merged in depth-first order, so the patterns, their order,
    the plans and every counter are those of the one-process search.  A
    timed-out enumeration returns a prefix of that list, ending at the
    first run not yet reported, every witness valid; its counters add up
    all the work either process reported.
    """
    patterns, users, stats, timed_out = _drive(instance, time_limit, prune, None)
    plans = _Plans(users, instance.step_count)
    return EnumerationOutcome(tuple(patterns), plans, stats, timed_out)
