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
    step, ``retract`` undoes the most recent assignment.
    ``step_user_masks`` gives each step's authorised users as a bitmask.
    One public list, indexed by label (index 0 unused), describes the
    blocks: ``block_masks[x]`` is the intersection of the user masks of
    the steps labelled ``x``, i.e. the users who may perform the whole
    block.  The previous intersection and ``max_label`` are saved on a
    trail, so retraction is a pointer swap.  Memory stays
    O(steps * users): one entry array, one intersection mask per label,
    and a trail of at most k frames.
    """

    __slots__ = (
        "step_count",
        "entries",
        "max_label",
        "assigned_count",
        "block_masks",
        "_auth",
        "_trail",
    )

    def __init__(self, step_count: int, step_user_masks: Sequence[int]):
        if step_count < 1:
            raise ValueError("need at least one step")
        self.step_count = step_count
        self.entries: list[int] = [0] * step_count
        self.max_label = 0
        self.assigned_count = 0
        self.block_masks: list[int] = [0] * (step_count + 1)
        self._auth = step_user_masks
        self._trail: list[tuple[int, int, int, int]] = []

    def extension_user_mask(self, step: int, label: int) -> int:
        """Intersection the block would have after extend(step, label)."""
        if label > self.max_label:
            return self._auth[step]
        return self.block_masks[label] & self._auth[step]

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
        prev_mask = self.block_masks[label]
        prev_max = self.max_label
        self.entries[step] = label
        self.assigned_count += 1
        if label > prev_max:
            self.max_label = label
            self.block_masks[label] = self._auth[step]
        else:
            self.block_masks[label] = prev_mask & self._auth[step]
        self._trail.append((step, label, prev_mask, prev_max))

    def retract(self) -> None:
        """Undo the most recent extend."""
        if not self._trail:
            raise ValueError("nothing to retract")
        step, label, prev_mask, self.max_label = self._trail.pop()
        self.entries[step] = 0
        self.assigned_count -= 1
        self.block_masks[label] = prev_mask
