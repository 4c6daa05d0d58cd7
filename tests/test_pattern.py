"""Pattern encoding and the mutable search pattern."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wspsolve import Pattern, canonicalize, encode


# --- encode / canonicalize --------------------------------------------------


def canonical_along(entries, order) -> tuple[int, ...]:
    """Renumber labels by first occurrence along ``order``; zeros stay put."""
    remap: dict[int, int] = {}
    out = [0] * len(entries)
    for s in order:
        x = entries[s]
        if x:
            out[s] = remap.setdefault(x, len(remap) + 1)
    return tuple(out)


def test_encode_examples():
    assert encode({0: 0, 1: 0, 2: 3, 3: 4}, 4) == (1, 1, 2, 3)
    assert encode({0: 9, 1: 9, 2: 9}, 3) == (1, 1, 1)
    assert encode({}, 3) == (0, 0, 0)
    # Partial plans leave unassigned steps at 0.
    assert encode({0: 5, 2: 5, 3: 1}, 4) == (1, 0, 1, 2)


def test_encode_respects_order():
    plan = {0: 7, 1: 8, 2: 8}
    assert encode(plan, 3) == (1, 2, 2)


def test_encode_is_user_name_invariant():
    plan = {0: 3, 1: 1, 2: 3, 3: 4}
    for perm in itertools.permutations(range(5)):
        renamed = {s: perm[u] for s, u in plan.items()}
        assert encode(renamed, 4) == encode(plan, 4)


def test_canonicalize_examples():
    assert canonicalize((3, 3, 2, 1)) == (1, 1, 2, 3)
    assert canonical_along((1, 1, 2, 3), (3, 2, 1, 0)) == (3, 3, 2, 1)
    assert canonicalize((0, 4, 0, 4)) == (0, 1, 0, 1)


@given(
    st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=7),
    st.permutations(range(1, 8)),
)
def test_canonicalize_idempotent_and_relabel_invariant(entries, perm):
    relabelled = [0 if x == 0 else perm[x - 1] for x in entries]
    canon = canonicalize(entries)
    assert canonicalize(relabelled) == canon
    assert canonicalize(canon) == canon
    assert canonical_along(entries, range(len(entries))) == canon
    # Zeros never move or appear.
    assert all((a == 0) == (b == 0) for a, b in zip(entries, canon))


def test_encode_groups_plans_by_sharing_structure():
    """Two partial plans encode equally iff they assign the same steps
    and share users on exactly the same step pairs."""
    k, n = 3, 3
    plans = []
    for domain_bits in range(2**k):
        domain = [s for s in range(k) if domain_bits >> s & 1]
        for users in itertools.product(range(n), repeat=len(domain)):
            plans.append(dict(zip(domain, users)))

    def structure(plan):
        domain = frozenset(plan)
        pairs = frozenset(
            (s, t)
            for s in domain
            for t in domain
            if s < t and plan[s] == plan[t]
        )
        return domain, pairs

    for a in plans:
        for b in plans:
            assert (encode(a, k) == encode(b, k)) == (structure(a) == structure(b))


# --- mutable pattern --------------------------------------------------------


def test_pattern_extend_retract_lifecycle():
    pat = Pattern(4, [1] * 4)
    assert pat.entries.count(0) == 4
    pat.extend(2, 1)
    pat.extend(0, 2)
    pat.extend(1, 2)
    assert pat.entries == [2, 2, 1, 0]
    assert pat.max_label == 2
    pat.extend(3, 3)
    assert pat.entries.count(0) == 0
    pat.retract()
    pat.retract()
    assert pat.entries == [2, 0, 1, 0]
    assert pat.max_label == 2
    pat.retract()
    assert pat.entries == [0, 0, 1, 0]
    assert pat.max_label == 1
    pat.retract()
    with pytest.raises(ValueError):
        pat.retract()


def test_pattern_rejects_bad_moves():
    with pytest.raises(ValueError):
        Pattern(0, [])
    pat = Pattern(3, [1] * 3)
    pat.extend(0, 1)
    with pytest.raises(ValueError):
        pat.extend(0, 1)  # already assigned
    with pytest.raises(ValueError):
        pat.extend(1, 3)  # skips label 2
    with pytest.raises(ValueError):
        pat.extend(1, 0)
    for step in (-1, 3):  # outside 0..k-1, even where an index would wrap
        with pytest.raises(ValueError, match="out of range"):
            pat.extend(step, 1)
    assert pat.entries == [1, 0, 0]


def mask_of(users: set[int]) -> int:
    return sum(1 << u for u in users)


def test_pattern_intersection_cache(golden_instance):
    masks = golden_instance.auth.step_user_masks
    pat = Pattern(4, masks)
    pat.extend(0, 1)
    assert pat.block_masks[1] == mask_of({0, 1})
    pat.extend(1, 1)
    assert pat.block_masks[1] == mask_of({0})
    pat.extend(2, 2)
    assert pat.block_masks[2] == mask_of({0, 3, 4})
    # Peek must match what extend would produce, without mutating.
    before = list(pat.entries)
    assert pat.extension_user_mask(3, 2) == pat.block_masks[2] & masks[3]
    assert pat.extension_user_mask(3, 3) == masks[3]
    assert pat.entries == before
    pat.retract()  # drop step 2 again
    assert pat.block_masks[1] == mask_of({0})
    pat.retract()  # drop step 1: block 1 recovers its wider user set
    assert pat.block_masks[1] == mask_of({0, 1})


@given(st.data())
def test_pattern_tracks_encode_under_random_walks(data):
    """extend/retract stay consistent with re-encoding from scratch."""
    k = data.draw(st.integers(min_value=1, max_value=6))
    masks = [data.draw(st.integers(min_value=0, max_value=2**5 - 1)) for _ in range(k)]
    pat = Pattern(k, masks)
    plan: dict[int, int] = {}  # step -> block label, used as a fake user id
    history: list[int] = []
    for _ in range(data.draw(st.integers(min_value=0, max_value=12))):
        can_extend = len(plan) < k
        if history and (not can_extend or data.draw(st.booleans())):
            pat.retract()
            del plan[history.pop()]
        elif can_extend:
            step = data.draw(
                st.sampled_from([s for s in range(k) if s not in plan])
            )
            label = data.draw(st.integers(min_value=1, max_value=pat.max_label + 1))
            pat.extend(step, label)
            plan[step] = label
            history.append(step)
        else:
            continue
        assert tuple(pat.entries) == canonical_along(
            [plan.get(s, 0) for s in range(k)], history
        )
        assert pat.entries.count(0) == k - len(plan)
        assert pat.max_label == max(pat.entries, default=0)
        for lab in range(1, pat.max_label + 1):
            members = [s for s in range(k) if pat.entries[s] == lab]
            assert members
            expect = masks[members[0]]
            for s in members[1:]:
                expect &= masks[s]
            assert pat.block_masks[lab] == expect

