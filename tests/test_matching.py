"""Block/user matching: the authorisation test for complete patterns."""

from __future__ import annotations

import random

from conftest import (
    GOLDEN_PLAN,
    authorised_patterns,
    bell_numbers,
    reference_max_matching,
)
from wspsolve import (
    AuthorisationLists,
    Pattern,
    Valid,
    WorkflowInstance,
    encode,
    match_blocks,
    solve_enumerating,
    validate_plan,
)
from wspsolve.matching import augment


def pattern_of(entries, masks) -> Pattern:
    """Materialise a canonical pattern tuple as a Pattern object."""
    pat = Pattern(len(entries), masks)
    for s, x in enumerate(entries):
        if x:
            pat.extend(s, x)
    return pat


def block_adjacency(pat: Pattern) -> list[int]:
    """User bitmask of each block, block 1 first."""
    return pat.block_masks[1 : pat.max_label + 1]


def mask_to_set(mask: int) -> set[int]:
    return {i for i in range(mask.bit_length()) if mask >> i & 1}


def greedy_matching(rnd: random.Random, adjacency: list[int]) -> tuple[list[int], int]:
    """A held matching grown greedily over a random subset of the vertices:
    one user bit per vertex (0 for none) and their union."""
    held = [0] * len(adjacency)
    matched = 0
    for i in rnd.sample(range(len(adjacency)), rnd.randint(0, len(adjacency))):
        free = adjacency[i] & ~matched
        if free:
            bit = 1 << rnd.choice(sorted(mask_to_set(free)))
            held[i] = bit
            matched |= bit
    return held, matched


# --- golden example ---------------------------------------------------------


def test_block_masks_golden(golden_instance):
    pat = pattern_of((1, 1, 2, 3), golden_instance.auth.step_user_masks)
    assert pat.max_label == 3
    assert pat.entries == [1, 1, 2, 3]
    adjacency = block_adjacency(pat)
    assert [mask_to_set(m) for m in adjacency] == [{0}, {0, 3, 4}, {0, 3, 4}]
    assert all(m < 1 << golden_instance.user_count for m in adjacency)


def test_full_matching_golden(golden_instance):
    pat = pattern_of((1, 1, 2, 3), golden_instance.auth.step_user_masks)
    user_of = match_blocks(block_adjacency(pat))
    assert user_of == [0, 3, 4]
    plan = {s: user_of[x - 1] for s, x in enumerate(pat.entries)}
    assert plan == GOLDEN_PLAN
    assert validate_plan(golden_instance, plan) == Valid()


def test_unmatchable_pattern_golden(golden_instance):
    # Blocks {0,3} and {1,2}: user 0 is the only one authorised for all
    # of either block, so the two blocks compete for one user.
    pat = pattern_of((1, 2, 2, 1), golden_instance.auth.step_user_masks)
    adjacency = block_adjacency(pat)
    assert mask_to_set(adjacency[0]) == mask_to_set(adjacency[1]) == {0}
    assert match_blocks(adjacency) is None


# --- matcher against a reference implementation ------------------------------


def test_match_blocks_trivial_cases():
    assert match_blocks([]) == []
    assert match_blocks([0b1]) == [0]
    assert match_blocks([0b0]) is None
    # Two vertices forced onto one user.
    assert match_blocks([0b1, 0b1]) is None
    # Augmenting path: vertex 1 evicts vertex 0 to user 1.
    assert match_blocks([0b11, 0b01]) == [1, 0]
    # A held matching is completed, not rebuilt: vertex 0 keeps user 1.
    assert match_blocks([0b11, 0b01], [0b10, 0]) == [1, 0]
    # Vertex 0 holds the only user vertex 1 may take, so nothing covers both.
    assert match_blocks([0b1, 0b1], [0b1, 0]) is None
    # Every vertex holds a user: the matching is read off, and the held
    # list passed in is left as it was.
    held = [0b10, 0b01]
    assert match_blocks([0b11, 0b01], held) == [1, 0]
    assert held == [0b10, 0b01]


def test_match_blocks_follows_a_path_through_every_block():
    # Block i may take users i and i + 1; the last block only user 0,
    # which block 0 holds, so one augmenting path shifts every block.
    n = 3000
    adjacency = [(1 << i) | (1 << (i + 1)) for i in range(n - 1)] + [1]
    assert match_blocks(adjacency) == [*range(1, n), 0]


def test_match_blocks_agrees_with_reference_on_random_graphs():
    """From scratch and from a greedy held matching alike, the blocks are
    covered exactly when the reference matching covers them, and the
    held matching passed in is left unchanged."""
    rnd = random.Random(0xA11CE)
    grow = random.Random(0xA11CE + 1)
    for _ in range(400):
        k = rnd.randint(1, 10)
        n = rnd.randint(1, 100)
        adjacency = [rnd.getrandbits(n) for _ in range(k)]
        ref = reference_max_matching([mask_to_set(m) for m in adjacency])
        held, _ = greedy_matching(grow, adjacency)
        start = list(held)
        for got in (match_blocks(adjacency), match_blocks(adjacency, held)):
            if ref == k:
                assert got is not None
                assert len(set(got)) == k  # users pairwise distinct
                assert all(adjacency[i] >> u & 1 for i, u in enumerate(got))
            else:
                assert got is None
        assert held == start


def test_augment_agrees_with_reference_on_random_held_matchings():
    """One augmenting path from a new vertex exists exactly when the held
    vertices plus that vertex have a matching one larger, and on success
    the held vertices stay matched, each to its own authorised user."""
    rnd = random.Random(0xB10C)
    for _ in range(400):
        k = rnd.randint(1, 10)
        n = rnd.randint(1, 12)
        adjacency = [rnd.getrandbits(n) for _ in range(k)]
        held, matched = greedy_matching(rnd, adjacency)
        unheld = [i for i in range(k) if not held[i]]
        if not unheld:
            continue
        root = rnd.choice(unheld)
        mask = adjacency[root]
        # The root may still hold a user it gave back, outside ``matched``.
        if rnd.random() < 0.5 and ~matched & ((1 << n) - 1):
            held[root] = 1 << rnd.choice(sorted(mask_to_set(~matched & ((1 << n) - 1))))
        vertices = [i for i in range(k) if held[i] & matched] + [root]
        ref = reference_max_matching([mask_to_set(adjacency[i]) for i in vertices])
        before = list(held)
        got = augment(adjacency, held, matched, root, mask)
        if ref == len(vertices):
            assert got == sum(held[i] for i in vertices)
            assert len({held[i] for i in vertices}) == len(vertices)
            assert all(held[i] & adjacency[i] for i in vertices)
            assert held[root] & mask
            assert all(held[i] == before[i] for i in range(k) if i not in vertices)
        else:
            assert got == -1
            assert held == before


# --- the matching test decides pattern realisability -------------------------


def random_auth_instance(rnd: random.Random, k: int, n: int) -> WorkflowInstance:
    step_users = [
        frozenset(u for u in range(n) if rnd.random() < 0.6) for _ in range(k)
    ]
    return WorkflowInstance(
        k, n, AuthorisationLists.from_step_users(n, step_users), ()
    )


def test_matching_decides_realisability_exhaustively():
    """A complete pattern has a full matching iff some authorised plan
    realises it, checked both ways against a plan sweep."""
    rnd = random.Random(2024)
    for _ in range(25):
        k = rnd.randint(1, 4)
        n = rnd.randint(1, 6)
        inst = random_auth_instance(rnd, k, n)
        # Without prunes every complete pattern reaches the leaf matching.
        out = solve_enumerating(inst, prune=False)
        assert out.stats.matchings == bell_numbers(k)[-1]
        assert set(out.patterns) == authorised_patterns(inst)
        step_users = inst.auth.step_users
        for entries, plan in zip(out.patterns, out.plans):
            assert encode(plan, inst.step_count) == entries
            assert all(u in step_users[s] for s, u in plan.items())
