"""Authorisation test for patterns via bipartite block/user matching.

A complete pattern is realisable by an authorised plan exactly when the
bipartite graph pairing its blocks with the users authorised for every
step of the block has a matching that covers all blocks.  The test is
monotone: adding a step to a block only shrinks the block's user mask,
so a partial pattern without such a matching has no realisable
completion.

One augmenting-path routine, ``augment``, serves both uses.  The search
keeps one held matching over the blocks of its partial pattern and calls
``augment`` when an extension cannot be fixed by taking a free user.
``match_blocks`` builds a matching from scratch for a complete pattern
by calling ``augment`` on each block in index order, and gives up as
soon as one block admits no augmenting path, since the maximum matching
can then never cover all blocks.  A matching is held as one user bit per
block (0 for none) plus the union of those bits.
"""

from __future__ import annotations

from typing import Sequence


def augment(
    adjacency: Sequence[int], held: list[int], matched: int, root: int, mask: int
) -> int:
    """Match vertex ``root`` to a user of ``mask`` by one augmenting path.

    ``held[i]`` is the user bit vertex i holds (0 for none) and
    ``matched`` the union of the held bits; ``root`` holds no user of
    ``matched``.  Other vertices i may take the users in
    ``adjacency[i]``.  On success the vertices along the path take
    their new users in ``held`` and the new union is returned; when no
    augmenting path exists, -1 is returned and ``held`` is unchanged.

    The path is a depth-first search over users, lowest user first,
    that visits every user at most once.  A vertex takes a free user as
    soon as it has one.  It runs on an explicit stack, so a path may be
    as long as there are vertices.
    """
    # The free users mask & ~matched, without building ~matched.
    free = mask ^ (mask & matched)
    if free:
        held[root] = free & -free
        return matched | held[root]
    owner = {bit: i for i, bit in enumerate(held) if bit}
    visited = 0
    # path[j] = [vertex, users it may still try, user it is trying]; every
    # user a stacked vertex may try is held, so trying one puts its owner
    # on top, and that owner either takes a free user or tries in turn.
    path = [[root, mask, 0]]
    while path:
        frame = path[-1]
        todo = frame[1] & ~visited
        if not todo:
            path.pop()
            continue
        low = todo & -todo
        visited |= low
        frame[1] = todo ^ low
        frame[2] = low
        i = owner[low]
        adj = adjacency[i]
        free = adj ^ (adj & matched)
        if free:
            low = free & -free
            held[i] = low
            # Every vertex on the path takes the user it tried.
            for v, _, bit in path:
                held[v] = bit
            return matched | low
        path.append([i, adj, 0])
    return -1


def match_blocks(adjacency: Sequence[int]) -> list[int] | None:
    """Cover every left vertex with a matching, or report failure.

    ``adjacency[i]`` is the user bitmask of left vertex i; vertices are
    matched in index order, one ``augment`` each.  Returns user indices
    per left vertex, or None as soon as some vertex has no augmenting
    path (at that point no matching can cover all vertices, so the
    remaining vertices are never examined).
    """
    held = [0] * len(adjacency)
    matched = 0
    for root, mask in enumerate(adjacency):
        matched = augment(adjacency, held, matched, root, mask)
        if matched < 0:
            return None
    return [bit.bit_length() - 1 for bit in held]
