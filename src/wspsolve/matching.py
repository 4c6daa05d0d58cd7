"""Authorisation test for complete patterns via bipartite matching.

A complete pattern is realisable by an authorised plan exactly when the
bipartite graph pairing its blocks with the users authorised for every
step of the block has a matching that covers all blocks.  The solver
hands ``match_blocks`` one user bitmask per block (the pattern's cached
block intersections) and turns the returned users into the witness
plan.  The matcher grows a matching one block at a time, taking the
vertices in index order, with augmenting paths; as soon as one block admits no augmenting path the maximum
matching can never cover all blocks, so the search aborts immediately.
"""

from __future__ import annotations

from typing import Sequence


def match_blocks(adjacency: Sequence[int]) -> list[int] | None:
    """Cover every left vertex with a matching, or report failure.

    ``adjacency[i]`` is the user bitmask of left vertex i; vertices are
    processed in index order.  Returns user indices per left vertex, or
    None as soon as some vertex has no augmenting path (at that point no
    matching can cover all vertices, so the remaining vertices are never
    examined).

    Each augmenting path is a depth-first search over users, lowest user
    first, that visits every user at most once.  It runs on an explicit
    stack, so a path may be as long as there are vertices.
    """
    user_of = [-1] * len(adjacency)
    owner: dict[int, int] = {}  # user -> left vertex currently matched
    matched_mask = 0
    for root in range(len(adjacency)):
        # path[j] = [vertex, users it has yet to try, user it is trying];
        # the vertex on top either takes a free user or tries to take an
        # unvisited one from its owner, who then goes on top.
        path = [[root, None, -1]]
        visited = 0
        while path:
            frame = path[-1]
            todo = frame[1]
            if todo is None:
                adj = adjacency[frame[0]]
                free = adj & ~matched_mask & ~visited
                if free:
                    low = free & -free
                    matched_mask |= low
                    frame[2] = low.bit_length() - 1
                    # Every vertex on the path takes the user it tried.
                    for i, _, u in path:
                        owner[u] = i
                        user_of[i] = u
                    break
                todo = adj & ~visited
            if not todo:
                path.pop()
                continue
            low = todo & -todo
            frame[1] = todo ^ low
            visited |= low
            u = low.bit_length() - 1
            frame[2] = u
            path.append([owner[u], None, -1])
        else:
            return None
    return user_of
