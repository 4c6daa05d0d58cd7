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
partial Fisher-Yates shuffle, as spelled out below.  Output i after a
state is the finalizer of state + (i + 1) * gamma, so the shuffle takes
its outputs a chunk at a time from one lane-packed kernel, ``_mix``; the
draws, their order and every instance are those of one ``next_u64``
call per draw.
"""

from __future__ import annotations

import math
import operator
import sys
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate

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

    ``next_u64`` is the published algorithm, one output per call.  Every
    subset draw (``take``, the per-user draws and the not-equals pairs)
    runs the one partial Fisher-Yates loop, ``_shuffle``, on outputs that
    ``_mix`` computes up to ``_CHUNK`` at a time, each in its own 128-bit
    lane of one int, where a 64-bit product cannot spill into the next
    lane.  A rejected draw reads the next output, as ``below`` does, and
    a chunk never holds an output that is not drawn, so the state after
    a call is the start state plus gamma per output drawn.  The draws,
    their order and every generated text are those of ``next_u64``
    called once per draw.
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
        while True:
            z = self.next_u64()
            if z < limit:
                return z % bound

    def take(self, items: list, count: int) -> list:
        """First ``count`` items of a partial Fisher-Yates shuffle.

        Mutates ``items``; swap i with a uniform index in [i, len) for
        i = 0..count-1 and return the prefix.  The draws are those of
        ``below(len - i)``; a negative count, or one above ``len``,
        raises ValueError before any draw.
        """
        if count < 0:
            raise ValueError(f"count {count} is negative")
        if count > 0:
            _limit(len(items) - count + 1)  # the smallest bound drawn
        self._state = _shuffle(self._state, items, count)[0]
        return items[:count]


# Lane i of a packed int is its bits 128i .. 128i + 127.  _LANES_ONE holds
# 1 in every lane, _LANES_LOW 2**64 - 1 and _LANES_STEP (i + 1) * gamma in
# lane i, for _CHUNK lanes; the low n lanes of each serve a chunk of n.
_CHUNK = 1024
_LANES_ONE = int.from_bytes((b"\x01" + bytes(15)) * _CHUNK, "little")
_LANES_LOW = int.from_bytes((b"\xff" * 8 + bytes(8)) * _CHUNK, "little")
_LANES_STEP = int.from_bytes(
    b"".join(((i + 1) * _GAMMA).to_bytes(16, "little") for i in range(_CHUNK)), "little"
)
# The words of a lane's low 64 bits in a native-order array of 64-bit words.
_LOW_WORDS = slice(None, None, 2) if sys.byteorder == "little" else slice(None, None, -2)


def _mix(state: int, n: int) -> tuple[int, list[int]]:
    """SplitMix64's next ``n`` outputs after ``state``, 1 <= n <= _CHUNK,
    and the state after them.

    Lane i of one int holds state + (i + 1) * gamma, and each step of the
    finalizer runs once over all lanes.  A lane's value stays below
    2**64 after each mask, so its product with a 64-bit multiplier stays
    below 2**128 and never carries into the next lane; the bits a right
    shift brings in from the next lane are masked off before the
    multiply.  Only the low 64 bits of each lane are read at the end, so
    the last xor-shift needs no mask.
    """
    top = (1 << (n << 7)) - 1
    low = _LANES_LOW & top
    x = (state * (_LANES_ONE & top) + (_LANES_STEP & top)) & low
    x = ((x ^ (x >> 30)) & low) * _MIX1 & low
    x = ((x ^ (x >> 27)) & low) * _MIX2 & low
    x ^= x >> 31
    words = memoryview(x.to_bytes(n << 4, sys.byteorder)).cast("Q")
    return (state + n * _GAMMA) & _MASK64, words[_LOW_WORDS].tolist()


def _shuffle(
    state: int, items, count: int, outputs: Sequence[int] = (), pos: int = 0
) -> tuple[int, Sequence[int], int]:
    """Swap ``items[i]`` with a uniform ``items[j]``, j in [i, len), for
    i = 0..count-1, drawing as ``below(len - i)`` would.

    The draws read ``outputs[pos:]``, the generator's next outputs, and
    then chunks mixed from ``state``, the state after the last of them.
    Return ``(state, outputs, pos)`` after the last draw.  A chunk mixed
    here is no longer than the draws still to come, so every output it
    holds is drawn.
    """
    n = len(items)
    # Every bound here is at most n, and a bound's limit exceeds 2**64
    # minus the bound, so a draw below ``cut`` is accepted without
    # computing its limit.
    cut = _TWO64 - n
    end = len(outputs)
    for i in range(count):
        bound = n - i
        while True:
            if pos == end:
                state, outputs = _mix(state, min(count - i, _CHUNK))
                pos, end = 0, len(outputs)
            z = outputs[pos]
            pos += 1
            if z < cut or z < _limit(bound):
                break
        j = i + z % bound
        items[i], items[j] = items[j], items[i]
    return state, outputs, pos


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
    with the size draw inline and one ``_shuffle`` call per user."""
    max_auth = math.ceil(k / 2)
    size_limit = _limit(max_auth)
    steps = list(range(k))
    out = []
    state, outputs, pos = rng._state, (), 0
    for left in range(n, 0, -1):
        while True:
            if pos == len(outputs):
                # Each user left draws at least twice, its size and a step,
                # so every output of the chunk is drawn.
                state, outputs = _mix(state, min(2 * left, _CHUNK))
                pos = 0
            z = outputs[pos]
            pos += 1
            if z < size_limit:
                break
        m = 1 + z % max_auth
        items = steps[:]
        state, outputs, pos = _shuffle(state, items, m, outputs, pos)
        out.append(items[:m])
    rng._state = state
    return out


class _Unmoved(dict):
    """A sequence of ``n`` items for ``_shuffle``, item t being t until a
    swap overwrites it: only the overwritten items are stored, so a
    partial shuffle of ``count`` items takes memory in ``count``, not n."""

    # Item t of the unmoved ones is t, returned without a Python call.
    __missing__ = staticmethod(operator.index)

    def __init__(self, n: int):
        super().__init__()
        self._n = n

    def __len__(self) -> int:
        return self._n


def generate(config: GeneratorConfig) -> WorkflowInstance:
    """Draw one instance; the same config always yields the same instance."""
    rng = SplitMix64(config.seed)
    k = config.step_count
    n = config.user_count

    user_steps = _user_steps(rng, n, k)

    constraints: list[UserIndependentConstraint] = []
    # The not-equals pairs are those of ``rng.take`` on the lexicographic
    # list of the k(k-1)/2 pairs, drawn on their indices so that the list
    # is never built.  The pairs (s, .) start at index row_start[s].
    picked = _Unmoved(k * (k - 1) // 2)
    rng._state = _shuffle(rng._state, picked, config.not_equals)[0]
    row_start = list(accumulate(range(k - 1, 0, -1), initial=0))
    for i in range(config.not_equals):
        t = picked[i]
        s = bisect_right(row_start, t) - 1
        constraints.append(NotEquals(s, s + 1 + t - row_start[s]))
    for _ in range(config.counting):
        scope = rng.take(list(range(k)), COUNTING_SCOPE_SIZE)
        constraints.append(AtMost(COUNTING_BOUND, frozenset(scope)))
    for _ in range(config.counting):
        scope = rng.take(list(range(k)), COUNTING_SCOPE_SIZE)
        constraints.append(AtLeast(COUNTING_BOUND, frozenset(scope)))

    auth = AuthorisationLists.from_user_steps(k, user_steps)
    return WorkflowInstance(k, n, auth, tuple(constraints))
