"""Patterns: plans with user identities abstracted away.

A pattern assigns each step a label; steps with equal labels must be
performed by one user, steps with different labels by different users,
and label 0 marks an unassigned step.  Two plans have the same pattern
exactly when one can be turned into the other by renaming users, so a
complete pattern is a set partition of the steps and the search over
plans collapses to a search over patterns.

Labels are kept canonical with respect to the order in which steps were
assigned: the first block created is 1, the next 2, and so on.  A new
assignment may therefore reuse any existing label or open exactly one
fresh block (the current maximum plus one).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence


def encode(plan: Mapping[int, int], step_count: int, order: Sequence[int] | None = None) -> tuple[int, ...]:
    """Encode a (possibly partial) plan as a pattern.

    Scanning the steps in ``order`` (index order by default), the first
    user met gets label 1, the next new user 2, and so on; unassigned
    steps stay 0.  Plans that assign the same steps with the same
    user-sharing structure encode to the same tuple.
    """
    order = range(step_count) if order is None else order
    labels: dict[int, int] = {}
    out = [0] * step_count
    for s in order:
        u = plan.get(s)
        if u is None:
            continue
        lab = labels.get(u)
        if lab is None:
            lab = len(labels) + 1
            labels[u] = lab
        out[s] = lab
    return tuple(out)


def canonicalize(entries: Sequence[int], order: Sequence[int] | None = None) -> tuple[int, ...]:
    """Renumber labels by first occurrence along ``order``; zeros stay put."""
    k = len(entries)
    order = range(k) if order is None else order
    remap: dict[int, int] = {}
    out = [0] * k
    for s in order:
        x = entries[s]
        if x == 0:
            continue
        lab = remap.get(x)
        if lab is None:
            lab = len(remap) + 1
            remap[x] = lab
        out[s] = lab
    return tuple(out)


class Pattern:
    """Mutable pattern with O(1) undo and cached block intersections.

    The search mutates a single pattern in place: ``extend`` assigns a
    step, ``retract`` undoes the most recent assignment.  When
    constructed with per-step authorised-user bitmasks, each block keeps
    the running intersection of its members' user sets; the previous
    value is saved on a trail so retraction is a pointer swap.  Memory
    stays O(steps * users): one entry array, one block list and one
    intersection mask per label, and a trail of at most k frames.
    """

    __slots__ = (
        "step_count",
        "entries",
        "max_label",
        "assigned_count",
        "_blocks",
        "_inter",
        "_auth",
        "_trail",
    )

    def __init__(self, step_count: int, step_user_masks: Sequence[int] | None = None):
        if step_count < 1:
            raise ValueError("need at least one step")
        self.step_count = step_count
        self.entries: list[int] = [0] * step_count
        self.max_label = 0
        self.assigned_count = 0
        self._blocks: list[list[int]] = [[] for _ in range(step_count + 1)]
        self._inter: list[int] = [0] * (step_count + 1)
        self._auth = step_user_masks
        self._trail: list[tuple[int, int, int]] = []

    @property
    def is_complete(self) -> bool:
        return self.assigned_count == self.step_count

    def as_tuple(self) -> tuple[int, ...]:
        return tuple(self.entries)

    def block_steps(self, label: int) -> tuple[int, ...]:
        return tuple(self._blocks[label])

    def block_user_mask(self, label: int) -> int:
        if self._auth is None:
            raise ValueError("pattern built without authorisation masks")
        return self._inter[label]

    def extension_user_mask(self, step: int, label: int) -> int:
        """Intersection the block would have after extend(step, label)."""
        if self._auth is None:
            raise ValueError("pattern built without authorisation masks")
        if label > self.max_label:
            return self._auth[step]
        return self._inter[label] & self._auth[step]

    def extend(self, step: int, label: int) -> None:
        """Assign ``label`` to ``step``.

        The label must be an existing block or the next fresh one
        (max_label + 1); the step must currently be unassigned.
        """
        if self.entries[step] != 0:
            raise ValueError(f"step {step} already assigned")
        if not 1 <= label <= self.max_label + 1:
            raise ValueError(
                f"label {label} out of range 1..{self.max_label + 1}"
            )
        prev_inter = self._inter[label]
        self.entries[step] = label
        self._blocks[label].append(step)
        self.assigned_count += 1
        if label > self.max_label:
            self.max_label = label
            if self._auth is not None:
                self._inter[label] = self._auth[step]
        elif self._auth is not None:
            self._inter[label] = prev_inter & self._auth[step]
        self._trail.append((step, label, prev_inter))

    def retract(self) -> None:
        """Undo the most recent extend."""
        if not self._trail:
            raise ValueError("nothing to retract")
        step, label, prev_inter = self._trail.pop()
        self.entries[step] = 0
        self._blocks[label].pop()
        self.assigned_count -= 1
        if not self._blocks[label]:
            self.max_label = label - 1
        self._inter[label] = prev_inter


@dataclass
class EnumerationCounters:
    """Filled in by enumerate_complete when passed as ``counters``."""

    nodes: int = 0
    complete: int = 0


def enumerate_complete(
    step_count: int,
    visitor: Callable[[tuple[int, ...]], None] | None = None,
    counters: EnumerationCounters | None = None,
) -> int:
    """Visit every complete pattern on ``step_count`` steps exactly once.

    Steps are assigned in index order and labels tried in ascending
    order, mirroring an unconstrained solver search.  Returns the number
    of complete patterns (the Bell number of ``step_count``); ``counters``
    additionally receives the total number of patterns touched, root
    included, which stays within twice the number of complete patterns.
    """
    pat = Pattern(step_count)
    nodes = 1
    complete = 0

    def walk(depth: int) -> None:
        nonlocal nodes, complete
        if depth == step_count:
            complete += 1
            if visitor is not None:
                visitor(pat.as_tuple())
            return
        for label in range(1, pat.max_label + 2):
            pat.extend(depth, label)
            nodes += 1
            walk(depth + 1)
            pat.retract()

    walk(0)
    if counters is not None:
        counters.nodes = nodes
        counters.complete = complete
    return complete
