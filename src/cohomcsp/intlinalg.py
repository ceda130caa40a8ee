"""Exact sparse integer linear algebra over arbitrary-precision Python ints.

`SparseEchelon` backs the compatibility-system solving in the cohomology
engine, where systems are large but each equation touches only a handful of
variables: it column-reduces M under an identity block, [I; M], pivoting by
Markowitz's cost, for integer feasibility, witnesses and kernel bases.
`IntLattice` decides membership in the projection of that kernel onto one
context, from echelon rows that keep only their nonzeros.
"""

from __future__ import annotations

import heapq
from typing import Optional, Sequence


class SparseEchelon:
    """Column echelon form of a sparse integer matrix over Z.

    Built once from the rows of a homogeneous coefficient matrix, the echelon
    then answers ``solve(rhs)`` queries (is M x = rhs solvable over Z, and
    by which x?) by forward substitution along the
    recorded pivot order, and emits an integer basis of the kernel lattice.

    It column-reduces M stacked under an identity block (Cohen 1993, section
    2.4): each column is one sparse dict over [I; M], whose key j < n_cols
    is its coefficient on input column j and key n_cols + r its entry in row
    r of M.  The column operations are unimodular, so the identity block of
    the columns whose M part is eliminated spans the kernel, and that of the
    pivot columns makes witnesses.  Rows are processed greedily by current
    fill (fewest active columns first), which keeps fill-in low on the
    marginalisation-style systems this is used for.  A row's pivot column is
    the one with the smallest entry there, then the fewest nonzeros over
    [I; M]: every other active column gets a multiple of it added, so that
    count is the fill the choice can cause (Markowitz's pivot cost,
    Management Science 3, 1957), and it keeps the kernel basis sparse.
    """

    def __init__(self, n_cols: int, rows: Sequence[dict[int, int]]):
        self.n_cols = n_cols
        self.cols: list[dict[int, int]] = [{c: 1} for c in range(n_cols)]
        # per key, the live columns touching that row of M until it is
        # processed; None at identity keys and processed rows
        self._row_index: list[Optional[set[int]]] = [None] * n_cols
        for r, row in enumerate(rows, n_cols):
            self._row_index.append({c for c, v in row.items() if v})
            for c in self._row_index[r]:
                self.cols[c][r] = row[c]
        self.live: set[int] = set(range(n_cols))
        # (n_cols + row, pivot column) per pivoted row, in processing order
        self.pivot_order: list[tuple[int, int]] = []
        self._eliminate()

    def _addmul(self, dst: int, src: int, q: int) -> None:
        """col[dst] += q * col[src]."""
        cd, index = self.cols[dst], self._row_index
        for k, v in self.cols[src].items():
            nv = cd.get(k, 0) + q * v
            if nv:
                if k not in cd and index[k] is not None:
                    index[k].add(dst)
                cd[k] = nv
            else:
                del cd[k]  # nv == 0 with q * v != 0: the entry was there
                if index[k] is not None:
                    index[k].discard(dst)

    def _combine(self, acc: int, other: int, r: int) -> int:
        """Zero row r in one of columns acc and other by Euclid's division
        steps, each a unimodular column operation; return the column left
        holding their gcd there."""
        a, v = self.cols[acc][r], self.cols[other].get(r, 0)
        while v:
            q = v // a
            self._addmul(other, acc, -q)
            v -= q * a
            if v:
                acc, other, a, v = other, acc, v, a
        return acc

    def _eliminate(self) -> None:
        index = self._row_index
        heap = [(len(index[r]), r) for r in range(self.n_cols, len(index))]
        heapq.heapify(heap)
        while heap:
            size, r = heapq.heappop(heap)
            active = index[r]
            if len(active) != size:
                heapq.heappush(heap, (len(active), r))
                continue
            index[r] = None  # _addmul stops updating the index of row r
            if not active:
                continue
            acc = min(active, key=lambda c: (
                abs(self.cols[c][r]), len(self.cols[c]), c))
            for other in sorted(active - {acc}):
                acc = self._combine(acc, other, r)
            self.pivot_order.append((r, acc))
            self.live.discard(acc)
            # acc is frozen: drop it from the index of remaining rows
            for k in self.cols[acc]:
                if index[k] is not None:
                    index[k].discard(acc)

    def solve(self, rhs: dict[int, int]) -> Optional[list[int]]:
        """Return x with M x = rhs (rhs sparse over rows), or None."""
        n = self.n_cols
        if not all(0 <= r < len(self._row_index) - n for r in rhs):
            return None
        # (0; rhs) minus q times pivot columns: (-x; rhs - M x) for x so far
        acc = {n + r: v for r, v in rhs.items() if v}
        for r, piv in self.pivot_order:
            if r not in acc:
                continue
            q, rem = divmod(acc[r], self.cols[piv][r])
            if rem:
                return None
            for k, v in self.cols[piv].items():
                nv = acc.get(k, 0) - q * v
                if nv:
                    acc[k] = nv
                else:
                    del acc[k]
        if any(k >= n for k in acc):
            return None
        return [-acc.get(c, 0) for c in range(n)]

    def kernel_basis(self) -> list[dict[int, int]]:
        """Integer basis of {x : M x = 0} as sparse coefficient dicts: the
        live columns, whose M part is eliminated."""
        return [self.cols[c] for c in sorted(self.live)]


class IntLattice:
    """Incremental echelon generating set for a sublattice of Z^p.

    Supports adding generator vectors and testing membership; used for the
    projections of kernel lattices onto the coordinates of one context.  Each
    echelon row is its nonzero (coordinate, value) pairs, pivot first: a
    reduction step costs the row's nonzeros, not p.
    """

    def __init__(self, dim: int):
        self.dim = dim
        # sparse echelon rows keyed by leading (pivot) coordinate
        self.rows: dict[int, list[tuple[int, int]]] = {}
        self.units = 0  # rows whose pivot is +-1

    def add(self, vec: Sequence[int]) -> None:
        v = list(vec)
        for j in range(self.dim):
            if v[j] == 0:
                continue
            row = self.rows.get(j)
            if row is None:
                self.rows[j] = [(t, v[t]) for t in range(j, self.dim) if v[t]]
                self.units += abs(v[j]) == 1
                return
            while v[j]:  # Euclid's division steps, each unimodular
                q = v[j] // row[0][1]
                for t, x in row:
                    v[t] -= q * x
                if v[j]:  # the remainder becomes the pivot, the old row is reduced
                    self.units += abs(v[j]) == 1  # it replaces a non-unit pivot
                    old, row = row, [(t, v[t]) for t in range(j, self.dim) if v[t]]
                    self.rows[j] = row
                    v = [0] * self.dim
                    for t, x in old:
                        v[t] = x

    def contains(self, vec: Sequence[int]) -> bool:
        v = list(vec)
        for j in range(self.dim):
            if v[j] == 0:
                continue
            row = self.rows.get(j)
            if row is None:
                return False
            q, rem = divmod(v[j], row[0][1])
            if rem:
                return False
            for t, x in row:
                v[t] -= q * x
        return True
