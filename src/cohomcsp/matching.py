"""Bipartite maximum matching by augmenting paths (deterministic vertex order)."""

from __future__ import annotations

from typing import Sequence


def maximum_matching(n_left: int, n_right: int,
                     adj: Sequence[Sequence[int]]) -> list[int]:
    """Return match_left where match_left[u] is u's partner on the right or -1.

    ``adj[u]`` lists the right-vertices reachable from left-vertex u.  Vertices
    are tried in increasing index order, so the result is deterministic.
    """
    match_left = [-1] * n_left
    match_right = [-1] * n_right
    seen = [-1] * n_right  # seen[v] == root: v was tried in root's search
    for root in range(n_left):  # unmatched: only earlier roots are matched
        # depth-first search for an augmenting path: stack[i + 1] holds the
        # old partner of the right vertex that stack[i] tried last
        stack = [(root, iter(adj[root]))]
        while stack:
            for v in stack[-1][1]:
                if seen[v] != root:
                    break
            else:
                stack.pop()
                continue
            seen[v] = root
            if match_right[v] != -1:
                stack.append((match_right[v], iter(adj[match_right[v]])))
                continue
            while stack:  # flip the path: each vertex takes the one tried
                u = stack.pop()[0]  # from it, freeing its old partner below
                match_left[u], match_right[v], v = v, u, match_left[u]
    return match_left


def has_perfect_matching(n: int, adj: Sequence[Sequence[int]]) -> bool:
    """True iff the bipartite graph on n + n vertices has a perfect matching."""
    return -1 not in maximum_matching(n, n, adj)
