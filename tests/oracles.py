"""Independent brute-force oracles used by the tests."""

import itertools

from reference import IntMatrix


def box_solve(m: IntMatrix, b, bound: int):
    """Search integer solutions of m x = b with every |x_i| <= bound.

    Meet-in-the-middle over a split of the variables, so bound^($n/2$) work
    instead of bound^n.  Returns a solution or None (None only means: nothing
    inside the box).
    """
    n = m.cols
    rows = m.to_rows()
    if n == 0:
        return [] if all(v == 0 for v in b) else None
    half = n // 2
    rng = range(-bound, bound + 1)
    left_sums = {}
    for xs in itertools.product(rng, repeat=half):
        key = tuple(sum(rows[i][j] * xs[j] for j in range(half))
                    for i in range(m.rows))
        left_sums.setdefault(key, xs)
    for ys in itertools.product(rng, repeat=n - half):
        need = tuple(b[i] - sum(rows[i][half + j] * ys[j] for j in range(n - half))
                     for i in range(m.rows))
        if need in left_sums:
            return list(left_sums[need]) + list(ys)
    return None
