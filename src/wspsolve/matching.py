"""Authorisation test for complete patterns via bipartite matching.

A complete pattern is realisable by an authorised plan exactly when the
bipartite graph pairing its blocks with the users authorised for every
step of the block has a matching that covers all blocks.  The solver
hands ``match_blocks`` one user bitmask per block (the pattern's cached
block intersections) and turns the returned users into the witness
plan.  The matcher grows a matching one block at a time with augmenting
paths; as soon as one block admits no augmenting path the maximum
matching can never cover all blocks, so the search aborts immediately.
"""

from __future__ import annotations

from typing import Sequence


def match_blocks(adjacency: Sequence[int], order: Sequence[int]) -> list[int] | None:
    """Cover every left vertex with a matching, or report failure.

    ``adjacency[i]`` is the user bitmask of left vertex i; vertices are
    processed in ``order``.  Returns user indices per left vertex, or
    None as soon as some vertex has no augmenting path (at that point no
    matching can cover all vertices, so the remaining vertices are never
    examined).
    """
    user_of = [-1] * len(adjacency)
    owner: dict[int, int] = {}  # user -> left vertex currently matched
    matched_mask = 0

    def augment(i: int, visited: int) -> tuple[bool, int]:
        nonlocal matched_mask
        adj = adjacency[i]
        free = adj & ~matched_mask & ~visited
        if free:
            low = free & -free
            u = low.bit_length() - 1
            owner[u] = i
            user_of[i] = u
            matched_mask |= low
            return True, visited | low
        todo = adj & ~visited
        while todo:
            low = todo & -todo
            todo ^= low
            visited |= low
            u = low.bit_length() - 1
            ok, visited = augment(owner[u], visited)
            if ok:
                owner[u] = i
                user_of[i] = u
                return True, visited
        return False, visited

    for i in order:
        ok, _ = augment(i, 0)
        if not ok:
            return None
    return user_of
