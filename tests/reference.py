"""Exact reference implementations that the tests compare the engine against.

None of this runs in a decision.  The dense integer linear algebra (row HNF
with its unimodular transform, Bareiss determinants, Diophantine solving via
the transposed HNF) is the independent check of `SparseEchelon` and
`IntLattice`.  The pinned-section routines decide Z-extendability of one
section at a time by its own pinned compatibility system, which is what the
engine's one-kernel sweep must agree with.  `restrict` cuts a validated
`LocalSection` down to a sub-context by looking its elements up, where the
engine drops one value per codimension-1 face.  `remove_with_upset`,
`downward_close` and `same_sections` are the naive section-set operations the
fixpoint tests replay.  `cohom_fixpoint` is the exception: it runs the
engine's cohomological fixpoint on a given section set, which `run_decision`
only does on the full enumeration.

The dense routines implement one fixed convention: row-style HNF, pivots
positive, entries above a pivot reduced into [0, pivot), zero rows last.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from cohomcsp.cohomology import (_classical, _run_cohom_fixpoint, _SweepStats,
                                 build_compatibility_system,
                                 invert_section_set)
from cohomcsp.intlinalg import SparseEchelon
from cohomcsp.presheaf import (Context, Section, SectionSet,
                               _downward_close_inplace)
from cohomcsp.structures import LocalSection


# --- dense integer linear algebra -------------------------------------------

@dataclass(frozen=True)
class IntMatrix:
    """Dense integer matrix, row-major entries."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entries length must be rows * cols")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]]) -> "IntMatrix":
        m = len(rows)
        n = len(rows[0]) if m else 0
        if any(len(r) != n for r in rows):
            raise ValueError("ragged rows")
        return IntMatrix(m, n, tuple(int(x) for r in rows for x in r))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        e = [0] * (n * n)
        for i in range(n):
            e[i * n + i] = 1
        return IntMatrix(n, n, tuple(e))

    @staticmethod
    def zero(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols, (0,) * (rows * cols))

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "IntMatrix":
        rows = self.to_rows()
        return IntMatrix.from_rows([[rows[i][j] for i in range(self.rows)]
                                    for j in range(self.cols)])

    def matmul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        a, b = self.to_rows(), other.to_rows()
        out = [[sum(a[i][k] * b[k][j] for k in range(self.cols))
                for j in range(other.cols)] for i in range(self.rows)]
        return IntMatrix.from_rows(out) if out else IntMatrix.zero(0, other.cols)

    def matvec(self, x: Sequence[int]) -> list[int]:
        if len(x) != self.cols:
            raise ValueError("dimension mismatch")
        return [sum(self.row(i)[j] * x[j] for j in range(self.cols))
                for i in range(self.rows)]


@dataclass(frozen=True)
class HnfResult:
    """Row-style Hermite normal form H = U * M with unimodular U."""

    H: IntMatrix
    U: IntMatrix
    rank: int
    pivots: tuple[int, ...]  # pivot column of each of the first `rank` rows


def hermite_normal_form(m: IntMatrix) -> HnfResult:
    """Compute the row HNF of m with its unimodular transform.

    Pivot columns are chosen left to right, pivots are normalised positive and
    entries above each pivot are reduced into [0, pivot).  Entries are reduced
    during elimination, which keeps intermediate growth in check.
    """
    h = m.to_rows()
    nrows, ncols = m.rows, m.cols
    u = IntMatrix.identity(nrows).to_rows()
    r = 0
    pivots = []
    for j in range(ncols):
        # gcd-eliminate column j below row r
        while True:
            nz = [i for i in range(r, nrows) if h[i][j] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(h[i][j]), i))
            if i0 != r:
                h[r], h[i0] = h[i0], h[r]
                u[r], u[i0] = u[i0], u[r]
            p = h[r][j]
            done = True
            for i in range(r + 1, nrows):
                if h[i][j] != 0:
                    q = h[i][j] // p
                    if q:
                        hi, hr = h[i], h[r]
                        for t in range(j, ncols):
                            hi[t] -= q * hr[t]
                        ui, ur = u[i], u[r]
                        for t in range(nrows):
                            ui[t] -= q * ur[t]
                    if h[i][j] != 0:
                        done = False
            if done:
                break
        if r < nrows and h[r][j] != 0:
            if h[r][j] < 0:
                h[r] = [-x for x in h[r]]
                u[r] = [-x for x in u[r]]
            p = h[r][j]
            for i in range(r):
                q = h[i][j] // p
                if q:
                    hi, hr = h[i], h[r]
                    for t in range(j, ncols):
                        hi[t] -= q * hr[t]
                    ui, ur = u[i], u[r]
                    for t in range(nrows):
                        ui[t] -= q * ur[t]
            pivots.append(j)
            r += 1
            if r == nrows:
                break
    return HnfResult(IntMatrix.from_rows(h) if h else IntMatrix.zero(0, ncols),
                     IntMatrix.from_rows(u) if u else IntMatrix.zero(0, 0),
                     r, tuple(pivots))


def det_bareiss(m: IntMatrix) -> int:
    """Exact determinant by fraction-free Bareiss elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant of non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = m.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def hnf_solve(m: IntMatrix, b: Sequence[int]) -> Optional[list[int]]:
    """Solve m * x = b exactly over the integers.

    Returns a witness x or None when no integer solution exists.  The method
    is HNF of the transposed matrix: the HNF rows form an echelon basis of the
    column lattice of m, so membership of b is decided by forward reduction
    (a non-divisible pivot or a nonzero residual certifies infeasibility).
    """
    if len(b) != m.rows:
        raise ValueError("right-hand side length must equal row count")
    res = hermite_normal_form(m.transpose())
    h = res.H.to_rows()
    residual = [int(x) for x in b]
    coeff = [0] * res.H.rows
    ncols = res.H.cols
    pivot_at = {res.pivots[i]: i for i in range(res.rank)}
    for j in range(ncols):
        if residual[j] == 0:
            continue
        i = pivot_at.get(j)
        if i is None:
            return None
        q, rem = divmod(residual[j], h[i][j])
        if rem:
            return None
        coeff[i] = q
        hi = h[i]
        for t in range(j, ncols):
            residual[t] -= q * hi[t]
    if any(residual):
        return None
    # x = U^T * coeff
    u = res.U.to_rows()
    n = m.cols
    x = [0] * n
    for i in range(res.rank):
        c = coeff[i]
        if c:
            ui = u[i]
            for k in range(n):
                x[k] += c * ui[k]
    return x


# --- pinned Z-extendability ---------------------------------------------------

@dataclass(frozen=True)
class ZLinearSection:
    """A formal integer combination of the stored sections at one context."""

    context: Context
    coefficients: tuple[tuple[Section, int], ...]

    def as_dict(self) -> dict[Section, int]:
        return dict(self.coefficients)


def z_extendable(s_set: SectionSet, c: Context, s: Section) -> bool:
    """True iff the compatibility system pinned at s has an integer solution."""
    system = build_compatibility_system(s_set, (c, s))
    ech = SparseEchelon(system.n_vars, system.rows)
    return ech.feasible({i: v for i, v in enumerate(system.rhs) if v})


def z_linear_witness(s_set: SectionSet, c: Context, s: Section
                     ) -> Optional[dict[Context, ZLinearSection]]:
    """A global Z-linear section pinning s, or None when s is not Z-extendable."""
    system = build_compatibility_system(s_set, (c, s))
    ech = SparseEchelon(system.n_vars, system.rows, track_combos=True)
    x = ech.solve({i: v for i, v in enumerate(system.rhs) if v})
    if x is None:
        return None
    per_ctx: dict[Context, dict[Section, int]] = {
        u: {} for u in s_set.contexts()}
    for (u, sec), i in system.var_of.items():
        per_ctx[u][sec] = x[i]
    for sib in s_set.sections[c]:
        per_ctx[c][sib] = 1 if sib == s else 0
    return {u: ZLinearSection(u, tuple(sorted(v.items())))
            for u, v in per_ctx.items()}


def z_bi_extendable(s_set: SectionSet, c: Context, s: Section) -> bool:
    """Z-extendability of s in S together with that of s^-1 in S^-1."""
    if s_set.kind != "isom":
        raise ValueError("bi-extendability is defined for isomorphism sets only")
    if not z_extendable(s_set, c, s):
        return False
    inv = LocalSection(c, s, "isom").inverse()
    return z_extendable(invert_section_set(s_set), inv.domain, inv.values)


def cohom_fixpoint(s_set: SectionSet) -> SectionSet:
    """The cohomological fixpoint of the set's kind, by the engine's own
    classical-then-cohomological run (what `run_decision` does after
    enumeration)."""
    pre: list[dict] = []
    return _run_cohom_fixpoint(_classical(s_set, pre), pre, [], _SweepStats())


# --- naive section-set operations --------------------------------------------

def restrict(s: LocalSection, context: Context) -> LocalSection:
    """Cut s down to the sub-context `context` (which must be within its domain)."""
    dom = s.domain
    vals = []
    i = 0
    for e in context:
        while i < len(dom) and dom[i] < e:
            i += 1
        if i == len(dom) or dom[i] != e:
            raise ValueError(f"{context} is not a subset of {dom}")
        vals.append(s.values[i])
    return LocalSection(context, tuple(vals), s.kind)


def same_sections(s_set: SectionSet, other: SectionSet) -> bool:
    return {c: frozenset(v) for c, v in s_set.sections.items()} == \
           {c: frozenset(v) for c, v in other.sections.items()}


def remove_with_upset(s_set: SectionSet,
                      victims: Iterable[tuple[Context, Section]]) -> SectionSet:
    """Remove the victims and every stored section extending a victim."""
    by_context: dict[Context, set[Section]] = {}
    for vc, v in victims:
        by_context.setdefault(vc, set()).add(v)
    if not by_context:
        return s_set.copy()
    out = s_set.copy()
    victim_contexts = sorted(by_context, key=len)
    for c, secs in out.sections.items():
        doomed = set()
        for s in secs:
            sec = LocalSection(c, s, s_set.kind)
            for vc in victim_contexts:
                if len(vc) > len(c):
                    break
                if set(vc) <= set(c) and restrict(sec, vc).values in by_context[vc]:
                    doomed.add(s)
                    break
        secs -= doomed
    return out


def downward_close(s_set: SectionSet) -> SectionSet:
    out = s_set.copy()
    _downward_close_inplace(out)
    return out
