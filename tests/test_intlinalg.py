import random

from cohomcsp import IntLattice, SparseEchelon
from oracles import box_solve
from reference import IntMatrix, det_bareiss, hermite_normal_form, hnf_solve


def is_row_hnf(h: IntMatrix, rank: int, pivots) -> bool:
    rows = h.to_rows()
    last = -1
    for i in range(rank):
        j = pivots[i]
        if j <= last:
            return False
        last = j
        if rows[i][j] <= 0:
            return False
        if any(rows[i][t] != 0 for t in range(j)):
            return False
        for above in range(i):
            if not (0 <= rows[above][j] < rows[i][j]):
                return False
    return all(all(v == 0 for v in rows[i]) for i in range(rank, h.rows))


def test_hnf_identity():
    m = IntMatrix.identity(3)
    res = hermite_normal_form(m)
    assert res.H == m and res.U == m and res.rank == 3


def test_hnf_worked_example():
    m = IntMatrix.from_rows([[2, 4], [6, 8]])
    res = hermite_normal_form(m)
    assert res.H.to_rows() == [[2, 0], [0, 4]]
    assert res.U.matmul(m) == res.H
    assert abs(det_bareiss(res.U)) == 1


def test_hnf_zero_matrix():
    m = IntMatrix.zero(2, 3)
    res = hermite_normal_form(m)
    assert res.H == m and res.rank == 0


def test_hnf_random_round_trip():
    rng = random.Random(7)
    for _ in range(200):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = IntMatrix.from_rows([[rng.randint(-5, 5) for _ in range(cols)]
                                 for _ in range(rows)])
        res = hermite_normal_form(m)
        assert res.U.matmul(m) == res.H
        assert abs(det_bareiss(res.U)) == 1
        assert is_row_hnf(res.H, res.rank, res.pivots)


def test_solve_simple():
    assert hnf_solve(IntMatrix.from_rows([[2]]), [2]) == [1]
    assert hnf_solve(IntMatrix.from_rows([[2]]), [1]) is None
    # x + y = 1, x - y = 0  forces 2x = 1
    m = IntMatrix.from_rows([[1, 1], [1, -1]])
    assert hnf_solve(m, [1, 0]) is None


def test_solve_verifies_and_matches_box_oracle():
    rng = random.Random(11)
    for _ in range(300):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = IntMatrix.from_rows([[rng.randint(-4, 4) for _ in range(cols)]
                                 for _ in range(rows)])
        b = [rng.randint(-6, 6) for _ in range(rows)]
        x = hnf_solve(m, b)
        if x is not None:
            assert m.matvec(x) == b
        else:
            assert box_solve(m, b, 6) is None


def test_sparse_echelon_matches_dense_solver():
    rng = random.Random(13)
    for _ in range(200):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        dense = [[rng.choice([0, 0, 0, 1, -1, 2, -2]) for _ in range(cols)]
                 for _ in range(rows)]
        b = [rng.randint(-4, 4) for _ in range(rows)]
        m = IntMatrix.from_rows(dense)
        sparse_rows = [{j: v for j, v in enumerate(r) if v} for r in dense]
        ech = SparseEchelon(cols, sparse_rows, track_combos=True)
        rhs = {i: v for i, v in enumerate(b) if v}
        dense_sol = hnf_solve(m, b)
        assert ech.feasible(rhs) == (dense_sol is not None)
        x = ech.solve(rhs)
        if dense_sol is None:
            assert x is None
        else:
            assert x is not None and m.matvec(x) == b


def test_sparse_kernel_basis_spans_kernel():
    rng = random.Random(17)
    for _ in range(100):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        dense = [[rng.choice([0, 0, 1, -1, 2]) for _ in range(cols)]
                 for _ in range(rows)]
        m = IntMatrix.from_rows(dense)
        sparse_rows = [{j: v for j, v in enumerate(r) if v} for r in dense]
        ech = SparseEchelon(cols, sparse_rows, track_combos=True)
        basis = ech.kernel_basis()
        lattice = IntLattice(cols)
        for vec in basis:
            dense_vec = [vec.get(j, 0) for j in range(cols)]
            assert m.matvec(dense_vec) == [0] * rows
            lattice.add(dense_vec)
        # every small integer kernel vector must lie in the spanned lattice
        import itertools
        for x in itertools.product(range(-2, 3), repeat=cols):
            if m.matvec(list(x)) == [0] * rows:
                assert lattice.contains(list(x))


def test_int_lattice_membership():
    lat = IntLattice(2)
    lat.add([2, 0])
    lat.add([0, 3])
    assert lat.contains([4, 3])
    assert not lat.contains([1, 0])
    lat.add([1, 1])
    # span{[2,0],[0,3],[1,1]} is all of Z^2: 3*[1,1]-[0,3]=[3,0], gcd(3,2)=1
    assert lat.contains([1, 1])
    assert lat.contains([1, 0])
    assert lat.contains([0, 1])


def test_int_lattice_gcd_combination():
    lat = IntLattice(1)
    lat.add([4])
    lat.add([6])
    assert lat.contains([2]) and not lat.contains([1])


def test_int_lattice_matches_hnf_solve():
    """v lies in the span of the generators G iff G^T y = v is solvable."""
    rng = random.Random(29)
    outcomes = set()
    for _ in range(500):
        dim = rng.randint(1, 4)
        gens = [[rng.choice([0, 0, 1, -1, 2, -2, 3, 4]) for _ in range(dim)]
                for _ in range(rng.randint(1, 4))]
        lat = IntLattice(dim)
        for g in gens:
            lat.add(g)
        g_t = IntMatrix.from_rows([[g[i] for g in gens] for i in range(dim)])
        for _ in range(5):
            if rng.random() < 0.5:
                ys = [rng.randint(-3, 3) for _ in gens]
                v = [sum(y * g[i] for y, g in zip(ys, gens)) for i in range(dim)]
            else:
                v = [rng.randint(-5, 5) for _ in range(dim)]
            member = lat.contains(v)
            assert member == (hnf_solve(g_t, v) is not None), (gens, v)
            outcomes.add(member)
    assert outcomes == {True, False}


def test_coefficient_growth_50x50_completes():
    rng = random.Random(23)
    m = IntMatrix.from_rows([[rng.randint(-10, 10) for _ in range(50)]
                             for _ in range(50)])
    res = hermite_normal_form(m)
    assert res.U.matmul(m) == res.H
    assert is_row_hnf(res.H, res.rank, res.pivots)
