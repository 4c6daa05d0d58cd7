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

from typing import Mapping, Sequence


def encode(plan: Mapping[int, int], step_count: int) -> tuple[int, ...]:
    """Encode a (possibly partial) plan as a pattern.

    Scanning the steps in index order, the first user met gets label 1,
    the next new user 2, and so on; unassigned steps stay 0.  Plans that
    assign the same steps with the same user-sharing structure encode to
    the same tuple.  User ids are non-negative, so user u is read as
    label u + 1 and 0 stays free to mean "unassigned".
    """
    return canonicalize([plan.get(s, -1) + 1 for s in range(step_count)])


def canonicalize(entries: Sequence[int]) -> tuple[int, ...]:
    """Renumber labels by first occurrence in step order; zeros stay put."""
    # 0 maps to itself, so the n-th label met is numbered n.
    remap = {0: 0}
    return tuple([remap.setdefault(x, len(remap)) for x in entries])


class Pattern:
    """Mutable pattern with O(1) undo and cached block intersections.

    The search mutates a single pattern in place: ``extend`` assigns a
    step, ``retract`` undoes the most recent assignment.  ``auth`` gives
    each step's authorised users as a bitmask.  One public list, indexed
    by label (index 0 unused), describes the blocks: ``block_masks[x]``
    is the intersection of the user masks of the steps labelled ``x``,
    i.e. the users who may perform the whole block.  The previous
    intersection and ``max_label`` are saved on a trail, so retraction
    is a pointer swap.  Memory stays O(steps * users): one entry array,
    one intersection mask per label, and a trail of at most k frames.

    The solver's ``SearchState`` subclasses it.  The benchmark's traced
    pass wraps ``extend``, ``retract`` and ``extension_user_mask`` here
    by name.
    """

    __slots__ = ("step_count", "entries", "max_label", "block_masks", "auth", "_trail")

    def __init__(self, step_count: int, step_user_masks: Sequence[int]):
        if step_count < 1:
            raise ValueError("need at least one step")
        self.step_count = step_count
        self.entries: list[int] = [0] * step_count
        self.max_label = 0
        self.block_masks: list[int] = [0] * (step_count + 1)
        self.auth = step_user_masks
        self._trail: list[tuple[int, int, int, int]] = []

    def extension_user_mask(self, step: int, label: int) -> int:
        """Intersection the block would have after extend(step, label).
        No caller in the package; kept while the traced benchmark wraps it."""
        if label > self.max_label:
            return self.auth[step]
        return self.block_masks[label] & self.auth[step]

    def extend(self, step: int, label: int) -> None:
        """Assign ``label`` to ``step``.

        The step must be one of 0..k-1 and unassigned; the label must be
        an existing block or the next fresh one (max_label + 1).
        """
        entries = self.entries
        if not 0 <= step < len(entries):
            raise ValueError(f"step {step} out of range 0..{len(entries) - 1}")
        if entries[step]:
            raise ValueError(f"step {step} already assigned")
        prev_max = self.max_label
        if not 1 <= label <= prev_max + 1:
            raise ValueError(f"label {label} out of range 1..{prev_max + 1}")
        prev_mask = self.block_masks[label]
        entries[step] = label
        if label > prev_max:
            self.max_label = label
            self.block_masks[label] = self.auth[step]
        else:
            self.block_masks[label] = prev_mask & self.auth[step]
        self._trail.append((step, label, prev_mask, prev_max))

    def retract(self) -> None:
        """Undo the most recent extend."""
        if not self._trail:
            raise ValueError("nothing to retract")
        step, label, prev_mask, self.max_label = self._trail.pop()
        self.entries[step] = 0
        self.block_masks[label] = prev_mask
