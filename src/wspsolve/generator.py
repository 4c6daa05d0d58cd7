"""Random instance generator with a pinned, reproducible RNG.

An instance with k steps gets 10k users.  Each user is authorised for a
uniformly sized, uniformly drawn subset of between 1 and ceil(k/2)
steps.  Constraints are ``e`` distinct not-equals pairs plus ``c``
at-most-3 and ``c`` at-least-3 constraints, each over an independent
uniform 5-step scope (scopes may repeat).  Not-equals density ``d`` is
the percentage of the k(k-1)/2 possible pairs that are constrained.

Reproducibility: all randomness comes from SplitMix64, a fixed 64-bit
generator small enough to pin here in full, so the same seed yields the
same instance on any machine or reimplementation.  Draws happen in a
fixed order (authorisations user by user, then the not-equals pairs,
then the at-most scopes, then the at-least scopes); bounded integers
use rejection sampling on the raw 64-bit output and subsets come from a
partial Fisher-Yates shuffle, as spelled out below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constraints import AtLeast, AtMost, NotEquals, UserIndependentConstraint
from .model import AuthorisationLists, WorkflowInstance

_MASK64 = (1 << 64) - 1
_TWO64 = 1 << 64
# SplitMix64's increment (2**64 over the golden ratio) and its two mixing
# multipliers.
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

COUNTING_SCOPE_SIZE = 5
COUNTING_BOUND = 3
USERS_PER_STEP = 10


class SplitMix64:
    """SplitMix64: state advances by the golden-ratio increment, output
    is the finalizer mix of the new state.

    ``below``, ``take`` and the generator's per-user loop
    (``_user_steps``) repeat ``next_u64``'s arithmetic inline, with the
    state in a local, so that a draw costs no call and no attribute
    store; each writes the state back once.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), unbiased via rejection.

        One 64-bit draw covers at most 2**64 values, so a larger bound
        raises ValueError.
        """
        limit = _limit(bound)
        state = self._state
        while True:
            state = (state + _GAMMA) & _MASK64
            z = ((state ^ (state >> 30)) * _MIX1) & _MASK64
            z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
            z ^= z >> 31
            if z < limit:
                self._state = state
                return z % bound

    def take(self, items: list, count: int) -> list:
        """First ``count`` items of a partial Fisher-Yates shuffle.

        Mutates ``items``; swap i with a uniform index in [i, len) for
        i = 0..count-1 and return the prefix.  The draws are those of
        ``below(len - i)``; a count above ``len`` raises its ValueError
        before any draw.
        """
        n = len(items)
        if count > 0:
            _limit(n - count + 1)  # the smallest bound drawn
        # Every bound here is at most n, and a bound's limit exceeds
        # 2**64 minus the bound, so a draw below ``cut`` is accepted
        # without computing its limit.
        cut = _TWO64 - n
        state = self._state
        for i in range(count):
            bound = n - i
            while True:
                state = (state + _GAMMA) & _MASK64
                z = ((state ^ (state >> 30)) * _MIX1) & _MASK64
                z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
                z ^= z >> 31
                if z < cut or z < _limit(bound):
                    break
            j = i + z % bound
            items[i], items[j] = items[j], items[i]
        self._state = state
        return items[:count]


def _limit(bound: int) -> int:
    """The rejection limit of a draw below ``bound``: the largest multiple
    of ``bound`` that is at most 2**64.  A draw under it, taken modulo
    ``bound``, is uniform."""
    if bound <= 0:
        raise ValueError("bound must be positive")
    if bound > _TWO64:
        raise ValueError(f"bound {bound} exceeds 2**64")
    return _TWO64 - _TWO64 % bound


def density_to_e(step_count: int, density: float) -> int:
    """Not-equals count for a density given as a percentage of all pairs.

    Rounds half away from zero, so k=20 at 10% gives 19 constraints.
    """
    if not 0 <= density <= 100:
        raise ValueError("density is a percentage between 0 and 100")
    pairs_twice = step_count * (step_count - 1)  # 2 * C(k, 2)
    if float(density).is_integer():
        return (int(density) * pairs_twice + 100) // 200
    return math.floor(density * pairs_twice / 200 + 0.5)


@dataclass(frozen=True)
class GeneratorConfig:
    """Shape of one random instance.

    ``users`` defaults to 10 per step; overriding it is meant for test
    corpora that must stay within an exhaustive checker's budget.
    """

    step_count: int
    not_equals: int
    counting: int  # number of at-most-3 AND of at-least-3 constraints
    seed: int
    users: int | None = None

    def __post_init__(self) -> None:
        k = self.step_count
        if k < 1:
            raise ValueError("need at least one step")
        if k > _MASK64 + 1:
            # Drawing a subset of the steps picks one of k steps at a time.
            raise ValueError(f"step count {k} exceeds 2**64, the most one draw can pick from")
        if not 0 <= self.not_equals <= k * (k - 1) // 2:
            raise ValueError("not-equals count exceeds the number of step pairs")
        if self.counting < 0:
            raise ValueError("counting constraint count must be non-negative")
        if self.counting > 0 and k < COUNTING_SCOPE_SIZE:
            raise ValueError(
                f"counting constraints need at least {COUNTING_SCOPE_SIZE} steps"
            )
        if self.users is not None and self.users < 1:
            raise ValueError("need at least one user")

    @property
    def user_count(self) -> int:
        return USERS_PER_STEP * self.step_count if self.users is None else self.users


def _user_steps(rng: SplitMix64, n: int, k: int) -> list[list[int]]:
    """Each of n users' steps, in draw order: the draws of
    ``rng.take(list(range(k)), 1 + rng.below(ceil(k / 2)))`` per user,
    with the draw loop inline and the state written back once."""
    max_auth = math.ceil(k / 2)
    size_limit = _limit(max_auth)
    cut = _TWO64 - k  # as in take: every bound is at most k
    steps = range(k)
    out = []
    state = rng._state
    for _ in range(n):
        while True:
            state = (state + _GAMMA) & _MASK64
            z = ((state ^ (state >> 30)) * _MIX1) & _MASK64
            z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
            z ^= z >> 31
            if z < size_limit:
                break
        m = 1 + z % max_auth
        items = list(steps)
        for i in range(m):
            bound = k - i
            while True:
                state = (state + _GAMMA) & _MASK64
                z = ((state ^ (state >> 30)) * _MIX1) & _MASK64
                z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
                z ^= z >> 31
                if z < cut or z < _limit(bound):
                    break
            j = i + z % bound
            items[i], items[j] = items[j], items[i]
        out.append(items[:m])
    rng._state = state
    return out


def generate(config: GeneratorConfig) -> WorkflowInstance:
    """Draw one instance; the same config always yields the same instance."""
    rng = SplitMix64(config.seed)
    k = config.step_count
    n = config.user_count

    user_steps = _user_steps(rng, n, k)

    constraints: list[UserIndependentConstraint] = []
    all_pairs = [(s, t) for s in range(k) for t in range(s + 1, k)]
    for s, t in rng.take(all_pairs, config.not_equals):
        constraints.append(NotEquals(s, t))
    for _ in range(config.counting):
        scope = rng.take(list(range(k)), COUNTING_SCOPE_SIZE)
        constraints.append(AtMost(COUNTING_BOUND, frozenset(scope)))
    for _ in range(config.counting):
        scope = rng.take(list(range(k)), COUNTING_SCOPE_SIZE)
        constraints.append(AtLeast(COUNTING_BOUND, frozenset(scope)))

    auth = AuthorisationLists.from_user_steps(k, user_steps)
    return WorkflowInstance(k, n, auth, tuple(constraints))
