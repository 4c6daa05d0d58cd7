"""Instance generator: pinned RNG, draw order, shape invariants, uniformity."""

from __future__ import annotations

import hashlib
import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import stats

from wspsolve import (
    AtLeast,
    AtMost,
    GeneratorConfig,
    NotEquals,
    SplitMix64,
    density_to_e,
    generate,
    serialize_instance,
)

#: Published first outputs of SplitMix64; any reimplementation of the
#: generator must reproduce these exactly.
SPLITMIX64_SEED0 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)
SPLITMIX64_SEED1234567 = (0x599ED017FB08FC85, 0x2C73F08458540FA5)


#: sha256 of ``serialize_instance(generate(config))`` for each config below,
#: frozen when the draw loop was first inlined: every draw, rejection and
#: swap must stay as it was.
PINNED_DIGESTS = {
    # The benchmark's wide-users shape: k=30, d=10, c=30, 20,000 users.
    (30, 44, 30, 0, 20000): "6c410461422a5064cce1aca49f16cc4f038af8d041fac23ae081fb9b847b7541",
    (30, 44, 30, 1, 20000): "58997bb2162fc8ad833769f7e62840f2b8192231b1a77ef9ad01978e50a95ab8",
    # The paper's suite, k=30 d=10 c=1.0k,1.2k,1.4k, seeds 0..2.
    (30, 44, 30, 0, None): "e2599345d8745b43c0aa5ec2c5ab19348d84efbad4177ebed53b37c0b40da9c5",
    (30, 44, 36, 0, None): "94d32f2fe1afecbcff2962e9de1504e74dff90685753b58fc2639cb952efdc9b",
    (30, 44, 42, 0, None): "cdac6d3f03060647ab8687419d6caa980ce415da5769862a6eb30c5fad934b27",
    (30, 44, 30, 1, None): "bbe808e773d827f53d7d9bb63e4704f0633a18967775957431e62d41b949d650",
    (30, 44, 36, 1, None): "07796badb7274607d9d02eac2024c116cd44a0c0619d7badfe09931b3748f9b2",
    (30, 44, 42, 1, None): "823884b78d8faa463965de324c15860e04095427c9100237384d80790fd03029",
    (30, 44, 30, 2, None): "b645e4c80656a1955ce7b3e8589ee737f208ec01b213e590714ad8a9ed50b4d7",
    (30, 44, 36, 2, None): "492e6803ee4cc7c2bca2d3c969180c9a815f62ccb783115d913b2a13fa78076a",
    (30, 44, 42, 2, None): "06b6ec0cd39141978870f3560d3ab57b246ba04a2fc77cc120834e406fbbb22f",
    # One larger-k instance: k=40 d=10 c=1.0k, seed 0.
    (40, 78, 40, 0, None): "1a4edec343d4560720d31798ee3c97ebe371a0ed39e45c7e6751aa3ec69e3778",
}


def below_reference(rng, bound):
    """``below`` as one ``next_u64`` call per draw, the published stream."""
    limit = 2**64 - 2**64 % bound
    while True:
        x = rng.next_u64()
        if x < limit:
            return x % bound


def take_reference(rng, items, count):
    for i in range(count):
        j = i + below_reference(rng, len(items) - i)
        items[i], items[j] = items[j], items[i]
    return items[:count]


def generate_reference(cfg):
    """The generator's draw order, spelled out over the reference draws."""
    rng = SplitMix64(cfg.seed)
    k = cfg.step_count
    users = [
        frozenset(take_reference(rng, list(range(k)), 1 + below_reference(rng, math.ceil(k / 2))))
        for _ in range(cfg.user_count)
    ]
    pairs = [(s, t) for s in range(k) for t in range(s + 1, k)]
    constraints = [NotEquals(s, t) for s, t in take_reference(rng, pairs, cfg.not_equals)]
    for kind in (AtMost, AtLeast):
        for _ in range(cfg.counting):
            constraints.append(kind(3, frozenset(take_reference(rng, list(range(k)), 5))))
    return users, tuple(constraints)


class SparseList:
    """A list of ``n`` items, item i being i until it is overwritten, held
    as a dict of the overwritten ones: lets ``take`` run on a length near
    2**63, where draws need the exact rejection limit."""

    def __init__(self, n):
        self.n = n
        self.moved = {}

    def __len__(self):
        return self.n

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(self.n))]
        return self.moved.get(i, i)

    def __setitem__(self, i, value):
        self.moved[i] = value


# --- the pinned RNG ----------------------------------------------------------


def test_splitmix64_reference_vectors():
    r = SplitMix64(0)
    assert tuple(r.next_u64() for _ in SPLITMIX64_SEED0) == SPLITMIX64_SEED0
    r = SplitMix64(1234567)
    assert (
        tuple(r.next_u64() for _ in SPLITMIX64_SEED1234567)
        == SPLITMIX64_SEED1234567
    )


def test_splitmix64_seed_wraps_to_64_bits():
    assert SplitMix64(1 << 64).next_u64() == SplitMix64(0).next_u64()


def test_below_stays_in_bounds():
    r = SplitMix64(42)
    assert all(r.below(1) == 0 for _ in range(5))
    assert all(0 <= r.below(7) < 7 for _ in range(1000))
    with pytest.raises(ValueError):
        r.below(0)


def test_below_takes_bounds_up_to_two_to_the_64():
    r = SplitMix64(42)
    assert 0 <= r.below(2**64) < 2**64
    # One 64-bit draw cannot cover more values; rejection would never end.
    with pytest.raises(ValueError):
        r.below(2**64 + 1)


def test_bound_errors_are_kept():
    r = SplitMix64(42)
    with pytest.raises(ValueError, match=r"^bound must be positive$"):
        r.below(0)
    with pytest.raises(ValueError, match=r"^bound must be positive$"):
        r.below(-1)
    with pytest.raises(ValueError, match=r"^bound 18446744073709551617 exceeds 2\*\*64$"):
        r.below(2**64 + 1)
    # A count above the length reaches a bound of 0.
    with pytest.raises(ValueError, match=r"^bound must be positive$"):
        r.take([1, 2], 3)
    # A negative count is refused, not read as a slice end.
    items = [1, 2, 3]
    with pytest.raises(ValueError, match=r"^count -1 is negative$"):
        r.take(items, -1)
    assert items == [1, 2, 3]
    # The failed calls drew nothing.
    assert r.next_u64() == SplitMix64(42).next_u64()


@given(st.integers(0, 2**64 - 1), st.integers(1, 2**64), st.integers(0, 5))
@example(7, 2**63 + 1, 5)  # about half of all draws are rejected
@example(7, 2**64, 5)  # nothing is rejected
def test_below_draws_the_published_stream(seed, bound, extra):
    rng, ref = SplitMix64(seed), SplitMix64(seed)
    assert [rng.below(bound) for _ in range(extra + 1)] == [
        below_reference(ref, bound) for _ in range(extra + 1)
    ]
    assert rng.next_u64() == ref.next_u64()


@given(st.integers(0, 2**64 - 1), st.integers(0, 40), st.data())
def test_take_draws_the_published_stream(seed, n, data):
    count = data.draw(st.integers(0, n), label="count")
    rng, ref = SplitMix64(seed), SplitMix64(seed)
    items, ref_items = list(range(n)), list(range(n))
    assert rng.take(items, count) == take_reference(ref, ref_items, count)
    assert items == ref_items
    assert rng.next_u64() == ref.next_u64()


def test_take_on_a_length_near_two_to_the_63():
    # About half of these draws lie above 2**64 - len, where take checks
    # the bound's exact rejection limit.
    n = 2**63 - 1
    for seed in range(3):
        rng, ref = SplitMix64(seed), SplitMix64(seed)
        assert rng.take(SparseList(n), 40) == take_reference(ref, SparseList(n), 40)
        assert rng.next_u64() == ref.next_u64()


def test_take_prefixes():
    r = SplitMix64(7)
    assert r.take([3, 1, 4], 0) == []
    got = r.take(list(range(10)), 10)
    assert sorted(got) == list(range(10))
    assert len(set(r.take(list(range(10)), 4))) == 4


# --- density -----------------------------------------------------------------


@pytest.mark.parametrize(
    "k, d, e",
    [
        (20, 10, 19),
        (30, 10, 44),
        (5, 30, 3),
        (4, 25, 2),  # 1.5 pairs rounds up
        (7, 0, 0),
        (7, 100, 21),
        (1, 50, 0),
        (20, 7.5, 14),  # 14.25 rounds down
    ],
)
def test_density_to_e(k, d, e):
    assert density_to_e(k, d) == e


def test_density_validation():
    with pytest.raises(ValueError):
        density_to_e(5, -1)
    with pytest.raises(ValueError):
        density_to_e(5, 101)


# --- configuration -----------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig(0, 0, 0, seed=1)
    with pytest.raises(ValueError):
        GeneratorConfig(5, 11, 0, seed=1)  # only C(5,2) = 10 pairs exist
    with pytest.raises(ValueError):
        GeneratorConfig(4, 2, 1, seed=1)  # scopes need 5 steps
    with pytest.raises(ValueError):
        GeneratorConfig(5, 2, -1, seed=1)
    with pytest.raises(ValueError):
        GeneratorConfig(5, 2, 1, seed=1, users=0)
    assert GeneratorConfig(5, 2, 1, seed=1).user_count == 50
    # A subset draw picks one of the k steps at a time, and one 64-bit
    # draw covers at most 2**64 values.
    assert GeneratorConfig(2**64, 0, 0, seed=1).step_count == 2**64
    with pytest.raises(ValueError, match="step count 18446744073709551617 exceeds 2"):
        GeneratorConfig(2**64 + 1, 0, 0, seed=1)
    assert GeneratorConfig(5, 2, 1, seed=1, users=9).user_count == 9


# --- generated shape ---------------------------------------------------------


def test_generate_shape_and_composition():
    cfg = GeneratorConfig(8, 11, 2, seed=3)
    inst = generate(cfg)
    assert inst.step_count == 8
    assert inst.user_count == 80
    limit = math.ceil(8 / 2)
    for steps in inst.auth.user_steps:
        assert 1 <= len(steps) <= limit
    ne = [c for c in inst.constraints if isinstance(c, NotEquals)]
    atmost = [c for c in inst.constraints if isinstance(c, AtMost)]
    atleast = [c for c in inst.constraints if isinstance(c, AtLeast)]
    assert inst.constraints == tuple(ne) + tuple(atmost) + tuple(atleast)
    assert len(ne) == 11
    assert len({(c.s, c.t) for c in ne}) == 11  # pairwise distinct
    assert all(c.s < c.t for c in ne)
    assert len(atmost) == len(atleast) == 2
    for c in atmost + atleast:
        assert c.r == 3
        assert len(c.scope) == 5


def test_generate_user_override():
    inst = generate(GeneratorConfig(6, 0, 0, seed=9, users=4))
    assert inst.user_count == 4


def test_generate_is_deterministic():
    cfg = GeneratorConfig(12, 20, 3, seed=77)
    assert serialize_instance(generate(cfg)) == serialize_instance(generate(cfg))


def test_generate_varies_with_seed():
    a = generate(GeneratorConfig(12, 20, 3, seed=1))
    b = generate(GeneratorConfig(12, 20, 3, seed=2))
    assert a != b


def test_generate_pinned_instance():
    """Freeze one tiny instance end to end; a change here means the
    generator's output stream moved for every seed."""
    inst = generate(GeneratorConfig(5, 2, 1, seed=0, users=3))
    assert [sorted(s) for s in inst.auth.user_steps] == [[0, 4], [2, 3], [0, 1, 4]]
    assert inst.constraints[:2] == (NotEquals(0, 2), NotEquals(0, 3))
    assert inst.constraints[2] == AtMost(3, frozenset(range(5)))
    assert inst.constraints[3] == AtLeast(3, frozenset(range(5)))


@given(
    st.integers(1, 12),
    st.integers(0, 2**64 - 1),
    st.integers(1, 30),
    st.data(),
)
def test_generate_matches_the_reference_draws(k, seed, users, data):
    e = data.draw(st.integers(0, k * (k - 1) // 2), label="e")
    c = data.draw(st.integers(0, 3 if k >= 5 else 0), label="c")
    cfg = GeneratorConfig(k, e, c, seed, users=users)
    inst = generate(cfg)
    ref_users, ref_constraints = generate_reference(cfg)
    assert inst.auth.user_steps == tuple(ref_users)
    assert inst.constraints == ref_constraints


@pytest.mark.parametrize(
    "k, e, c, seed, users", list(PINNED_DIGESTS), ids=lambda v: str(v)
)
def test_generated_texts_are_pinned(k, e, c, seed, users):
    assert density_to_e(k, 10) == e
    text = serialize_instance(generate(GeneratorConfig(k, e, c, seed, users=users)))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_DIGESTS[k, e, c, seed, users]


# --- uniformity (chi-square, significance pinned at 0.001) --------------------


def test_authorisation_sizes_are_uniform():
    counts = [0] * 10  # sizes 1..10 for k = 20
    for seed in range(50):
        inst = generate(GeneratorConfig(20, 0, 0, seed=seed))
        for steps in inst.auth.user_steps:
            counts[len(steps) - 1] += 1
    assert sum(counts) == 50 * 200
    assert stats.chisquare(counts).pvalue >= 0.001


def test_authorised_steps_are_uniform():
    counts = [0] * 6
    for seed in range(200):
        inst = generate(GeneratorConfig(6, 0, 0, seed=seed, users=30))
        for steps in inst.auth.user_steps:
            for s in steps:
                counts[s] += 1
    assert stats.chisquare(counts).pvalue >= 0.001


def test_not_equals_pairs_are_uniform():
    pair_counts = {(s, t): 0 for s in range(6) for t in range(s + 1, 6)}
    for seed in range(600):
        inst = generate(GeneratorConfig(6, 3, 0, seed=seed, users=1))
        for c in inst.constraints:
            pair_counts[(c.s, c.t)] += 1
    assert stats.chisquare(list(pair_counts.values())).pvalue >= 0.001


def test_counting_scopes_are_uniform():
    step_counts = [0] * 7
    for seed in range(400):
        inst = generate(GeneratorConfig(7, 0, 2, seed=seed, users=1))
        for c in inst.constraints:
            for s in c.scope:
                step_counts[s] += 1
    assert stats.chisquare(step_counts).pvalue >= 0.001
