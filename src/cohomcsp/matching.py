"""Bipartite perfect matching by augmenting paths (deterministic vertex order)."""

from __future__ import annotations

from typing import Sequence


def has_perfect_matching(n: int, adj: Sequence[Sequence[int]]) -> bool:
    """True iff the bipartite graph on n + n vertices has a perfect matching.

    ``adj[u]`` lists the right-vertices reachable from left-vertex u.  Left
    vertices are matched in increasing index order; the answer is False at
    the first one that no augmenting path reaches.
    """
    match_left = [-1] * n
    match_right = [-1] * n
    seen = [-1] * n  # seen[v] == root: v was tried in root's search
    for root in range(n):  # unmatched: only earlier roots are matched
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
        if match_left[root] == -1:
            return False
    return True
