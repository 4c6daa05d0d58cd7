"""Constraint families for workflow instances.

Every family here is user-independent: whether a plan satisfies the
constraint depends only on which steps share a user, never on which
user it is.  Each constraint therefore supports two views:

* ``satisfied_by(plan)`` decides a complete assignment.  It only reads
  ``plan[s]`` for the steps of its scope and compares the values for
  equality, so it accepts a concrete plan (step -> user) and a complete
  pattern (a label per step) alike, with the same verdict.
* ``check_partial(pattern)`` evaluates a possibly incomplete pattern,
  rejecting it only when no completion can satisfy the constraint.
  Binding-of-duty, merged away before any search, has only the first.

Patterns are passed as sequences of integer labels indexed by step,
where 0 marks an unassigned step and equal positive labels mean
"same user".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Protocol, Sequence


class UserIndependentConstraint(Protocol):
    """Extension point for additional user-independent constraint families.

    ``scope`` must list every step the predicate reads.
    ``satisfied_by`` is the reference verdict: plan validation and the
    oracle call it with a plan, and the solver calls it with a complete
    pattern when pruning is off, so it may only index its argument by
    step and compare the values for equality.  Constraints that reach
    the search also need ``check_partial``.  The solver re-checks a
    constraint only when a step of its scope was just assigned, so
    implementations must honour two contracts:

    * ``check_partial`` may report dead (return ``False``) only when no
      completion of the pattern can satisfy the constraint, and
    * once every scope step is assigned, ``check_partial`` must decide
      exactly, i.e. agree with ``satisfied_by``.
    """

    scope: frozenset[int]

    def satisfied_by(self, plan: Mapping[int, int] | Sequence[int]) -> bool: ...

    def check_partial(self, pattern: Sequence[int]) -> bool: ...


def _distinct_assigned(pattern: Sequence[int], scope: frozenset[int]) -> tuple[int, int]:
    """Count (distinct labels, unassigned steps) over the scope."""
    labels = set()
    unassigned = 0
    for s in scope:
        x = pattern[s]
        if x == 0:
            unassigned += 1
        else:
            labels.add(x)
    return len(labels), unassigned


@dataclass(frozen=True)
class NotEquals:
    """Steps ``s`` and ``t`` must be performed by different users."""

    s: int
    t: int
    scope: frozenset[int] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if self.s == self.t:
            raise ValueError("not-equals endpoints must differ")
        object.__setattr__(self, "scope", frozenset((self.s, self.t)))

    def satisfied_by(self, plan: Mapping[int, int] | Sequence[int]) -> bool:
        return plan[self.s] != plan[self.t]

    def check_partial(self, pattern: Sequence[int]) -> bool:
        # Dead only once both endpoints are assigned the same label.
        a, b = pattern[self.s], pattern[self.t]
        return a == 0 or b == 0 or a != b


@dataclass(frozen=True)
class BindingOfDuty:
    """Steps ``s`` and ``t`` must be performed by the same user.

    Present only between parsing and preprocessing; preprocessing merges
    the two steps and removes the constraint.
    """

    s: int
    t: int
    scope: frozenset[int] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if self.s == self.t:
            raise ValueError("binding-of-duty endpoints must differ")
        object.__setattr__(self, "scope", frozenset((self.s, self.t)))

    def satisfied_by(self, plan: Mapping[int, int] | Sequence[int]) -> bool:
        return plan[self.s] == plan[self.t]


@dataclass(frozen=True)
class AtMost:
    """At most ``r`` distinct users may perform the steps in ``scope``."""

    r: int
    scope: frozenset[int]

    def __post_init__(self) -> None:
        if len(self.scope) < 2:
            raise ValueError("at-most scope needs at least two steps")
        if not 1 <= self.r <= len(self.scope):
            raise ValueError("at-most bound must satisfy 1 <= r <= |scope|")

    def satisfied_by(self, plan: Mapping[int, int] | Sequence[int]) -> bool:
        return len({plan[s] for s in self.scope}) <= self.r

    def check_partial(self, pattern: Sequence[int]) -> bool:
        # Labels only accumulate, so exceeding r among the assigned
        # scope steps can never be repaired by a completion.
        distinct, _ = _distinct_assigned(pattern, self.scope)
        return distinct <= self.r


@dataclass(frozen=True)
class AtLeast:
    """At least ``r`` distinct users must perform the steps in ``scope``."""

    r: int
    scope: frozenset[int]

    def __post_init__(self) -> None:
        if len(self.scope) < 2:
            raise ValueError("at-least scope needs at least two steps")
        if not 1 <= self.r <= len(self.scope):
            raise ValueError("at-least bound must satisfy 1 <= r <= |scope|")

    def satisfied_by(self, plan: Mapping[int, int] | Sequence[int]) -> bool:
        return len({plan[s] for s in self.scope}) >= self.r

    def check_partial(self, pattern: Sequence[int]) -> bool:
        # Each unassigned scope step can contribute at most one fresh
        # user, so distinct + unassigned is an upper bound on what any
        # completion can reach.
        distinct, unassigned = _distinct_assigned(pattern, self.scope)
        return distinct + unassigned >= self.r


@dataclass(frozen=True)
class Never:
    """A contradiction: no plan satisfies it.

    Emitted by preprocessing when step merging makes a constraint
    unsatisfiable outright (a not-equals pair collapsing into one step,
    or an at-least bound exceeding its shrunken scope).  It has no file
    format tag and never appears in parsed instances.
    """

    scope: frozenset[int]
    reason: str = ""

    def __post_init__(self) -> None:
        if not self.scope:
            raise ValueError("contradiction marker needs a non-empty scope")

    def satisfied_by(self, plan: Mapping[int, int] | Sequence[int]) -> bool:
        return False

    def check_partial(self, pattern: Sequence[int]) -> bool:
        return False
