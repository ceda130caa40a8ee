from cohomcsp.matching import has_perfect_matching


def test_perfect_matching_exists():
    # complete bipartite
    assert has_perfect_matching(3, [[0, 1, 2]] * 3)


def test_no_perfect_matching_on_shared_neighbour():
    # two left vertices both only like right vertex 0
    assert not has_perfect_matching(2, [[0], [0]])


def test_augmenting_path_reassignment():
    # greedy would strand vertex 1 without augmenting paths
    assert has_perfect_matching(3, [[0, 1], [0], [2]])
    # vertex 0 gives up 0 for vertex 1, then no path reaches vertex 2
    assert not has_perfect_matching(3, [[0, 1], [0], [1]])


def test_long_augmenting_path_needs_no_recursion():
    """Vertex u likes u+1 then u, so the last vertex's augmenting path runs
    back through every vertex: 3,000 steps, past the default recursion limit."""
    n = 3000
    adj = [[u + 1, u] for u in range(n - 1)] + [[n - 1]]
    assert has_perfect_matching(n, adj)
