import random

from hypothesis import given, settings, strategies as st

from cohomcsp import IntLattice, SparseEchelon
from oracles import box_solve
from reference import (DenseIntLattice, IntMatrix, det_bareiss,
                       hermite_normal_form, hnf_solve)


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
        ech = SparseEchelon(cols, sparse_rows)
        # explicit zero entries change neither the kernel nor the witnesses
        with_zeros = SparseEchelon(cols, [dict(enumerate(r)) for r in dense])
        assert with_zeros.kernel_basis() == ech.kernel_basis()
        rhs = {i: v for i, v in enumerate(b) if v}
        dense_sol = hnf_solve(m, b)
        x = ech.solve(rhs)
        assert with_zeros.solve(rhs) == x == ech.solve(dict(enumerate(b)))
        if dense_sol is None:
            assert x is None
        else:
            assert x is not None and m.matvec(x) == b
        for outside in (-1, rows):  # rhs rows the matrix does not have
            assert ech.solve({**rhs, outside: 1}) is None


def test_sparse_kernel_basis_spans_kernel():
    """Entries from {0, 1, -1, 2} make every column combine an exact
    division; the coprime non-unit draw needs Euclid's remainder steps.  The
    basis must span the kernel of the transposed row HNF: the rows of U
    whose H rows vanish."""
    rng = random.Random(17)
    for entries in ([0, 0, 1, -1, 2], [0, 0, 2, 3, -3, 4]):
        for _ in range(100):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 5)
            dense = [[rng.choice(entries) for _ in range(cols)]
                     for _ in range(rows)]
            m = IntMatrix.from_rows(dense)
            sparse_rows = [{j: v for j, v in enumerate(r) if v} for r in dense]
            ech = SparseEchelon(cols, sparse_rows)
            assert all(set(vec) <= set(range(cols))
                       for vec in ech.kernel_basis())
            basis = [[vec.get(j, 0) for j in range(cols)]
                     for vec in ech.kernel_basis()]
            hnf = hermite_normal_form(m.transpose())
            reference = hnf.U.to_rows()[hnf.rank:]
            assert len(basis) == len(reference)
            lattice, ref_lattice = IntLattice(cols), IntLattice(cols)
            for vec in basis:
                assert m.matvec(vec) == [0] * rows
                lattice.add(vec)
            for vec in reference:
                ref_lattice.add(vec)
            assert all(lattice.contains(v) for v in reference)
            assert all(ref_lattice.contains(v) for v in basis)


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


def test_int_lattice_is_full_iff_units_contained():
    """units == dim (a +-1 pivot at every coordinate) holds exactly when
    every unit vector lies in the lattice."""
    rng = random.Random(31)
    cases = [(3, [[1, 0, 0], [0, 1, 0], [1, 1, 0]]),  # rank-deficient
             (1, [[2], [-4]]),                        # 2Z
             (2, [[2, 0], [0, 2], [2, 2]]),           # (2Z)^2, full rank
             (2, [[2, 1], [1, 1]])]                   # Z^2 without a unit generator
    for _ in range(400):
        dim = rng.randint(1, 4)
        cases.append((dim, [[rng.choice([0, 0, 1, -1, 2, -2, 3])
                             for _ in range(dim)]
                            for _ in range(rng.randint(0, 6))]))
    full = 0
    for dim, gens in cases:
        lat = IntLattice(dim)
        for g in gens:
            lat.add(g)
        units = all(lat.contains([int(i == j) for i in range(dim)])
                    for j in range(dim))
        assert (lat.units == dim) == units, (dim, gens)
        full += units
    assert [IntLattice(d).units == d for d in (0, 1)] == [True, False]
    assert 0 < full < len(cases)


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


def _projected_kernel(rng: random.Random, dim: int, coeffs) -> list[list[int]]:
    """Generators shaped like the sweep's: the projections onto dim coordinates
    of the integer kernel of a random sparse system in more variables, those
    with 1-14 nonzeros; then multiples of unit vectors, so that lattices fill
    up, some through the gcd of two non-unit pivots."""
    n = dim + rng.randint(dim // 2 + 1, 2 * dim + 1)
    rows = [{c: rng.choice(coeffs)
             for c in rng.sample(range(n), rng.randint(2, min(4, n)))}
            for _ in range(rng.randint(0, n // 2))]
    kernel = SparseEchelon(n, rows).kernel_basis()
    projs = [[vec.get(t, 0) for t in range(dim)] for vec in kernel]
    scaled = [[rng.choice(coeffs) * (t == u) for t in range(dim)]
              for u in rng.choices(range(dim), k=dim)]
    return [p for p in projs if 0 < sum(map(bool, p)) <= 14] + scaled


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 64),
       coeffs=st.sampled_from(((1, -1), (1, -1, 2), (1, -1, 2, -2, 3), (2, -3, 4))))
def test_sparse_lattice_matches_dense_reference(seed, dim, coeffs):
    """At the sweep's dimensions (1-64), with non-unit coefficients that send
    adds through Euclid's remainder steps, the sparse lattice keeps the
    dense reference's echelon after every add, it is full (units == dim)
    when the reference is, and contains() agrees on every unit vector and on
    random vectors."""
    rng = random.Random(seed)
    gens = _projected_kernel(rng, dim, coeffs)
    sparse, dense = IntLattice(dim), DenseIntLattice(dim)
    units = [[int(t == u) for t in range(dim)] for u in range(dim)]
    for i, g in enumerate(gens):
        sparse.add(g)
        dense.add(g)
        assert sparse.rows == {j: [(t, x) for t, x in enumerate(row) if x]
                               for j, row in dense.rows.items()}
        assert (sparse.units == dim) == dense.is_full()
        ys = [rng.randint(-2, 2) for _ in range(i + 1)]
        member = [sum(y * h[t] for y, h in zip(ys, gens)) for t in range(dim)]
        noise = [rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(dim)]
        for v in units + [member, noise]:
            assert sparse.contains(v) == dense.contains(v), v


def test_coefficient_growth_50x50_completes():
    rng = random.Random(23)
    m = IntMatrix.from_rows([[rng.randint(-10, 10) for _ in range(50)]
                             for _ in range(50)])
    res = hermite_normal_form(m)
    assert res.U.matmul(m) == res.H
    assert is_row_hnf(res.H, res.rank, res.pivots)
