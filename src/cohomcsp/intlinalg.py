"""Exact sparse integer linear algebra over arbitrary-precision Python ints.

`SparseEchelon` backs the compatibility-system solving in the cohomology
engine, where systems are large but each equation touches only a handful of
variables: integer feasibility, witnesses and kernel bases.  `IntLattice`
decides membership in the projection of that kernel onto one context, from
echelon rows that keep only their nonzeros.
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

    Columns are mutated by unimodular column operations, so the column lattice
    and kernel are those of the input matrix.  Each column tracks its
    combination of the input columns: witnesses and kernel vectors are made
    of them.  Rows are processed greedily by current fill (fewest active
    columns first), which keeps fill-in low on the marginalisation-style
    systems this is used for.  A row's pivot column is the one with the
    smallest entry there, then the fewest nonzeros in the column and its
    combination together: every other active column gets a multiple of both
    added, so that count is the fill the choice can cause (Markowitz's pivot
    cost, Management Science 3, 1957), and it keeps the kernel basis sparse.
    """

    def __init__(self, n_cols: int, rows: Sequence[dict[int, int]]):
        self.n_cols = n_cols
        # columns as sparse dicts row -> value
        self.cols: list[dict[int, int]] = [dict() for _ in range(n_cols)]
        # for each not-yet-processed row, the live columns touching it
        self._row_index: list[set[int]] = [set() for _ in range(len(rows))]
        self._done: list[bool] = [False] * len(rows)
        for r, row in enumerate(rows):
            for c, v in row.items():
                if v:
                    self.cols[c][r] = v
                    self._row_index[r].add(c)
        self.combos: list[dict[int, int]] = [{c: 1} for c in range(n_cols)]
        self.live: set[int] = set(range(n_cols))
        # (row, pivot_col or None) in processing order
        self.pivot_order: list[tuple[int, Optional[int]]] = []
        self._eliminate()

    def _addmul(self, dst: int, src: int, q: int) -> None:
        """col[dst] += q * col[src]."""
        cd = self.cols[dst]
        done, index = self._done, self._row_index
        for r, v in self.cols[src].items():
            nv = cd.get(r, 0) + q * v
            if nv:
                if r not in cd and not done[r]:
                    index[r].add(dst)
                cd[r] = nv
            else:
                del cd[r]  # nv == 0 with v != 0: the entry was there
                if not done[r]:
                    index[r].discard(dst)
        kd = self.combos[dst]
        for c, v in self.combos[src].items():
            nv = kd.get(c, 0) + q * v
            if nv:
                kd[c] = nv
            else:
                kd.pop(c, None)

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
        nrows = len(self._row_index)
        heap = [(len(self._row_index[r]), r) for r in range(nrows)]
        heapq.heapify(heap)
        while heap:
            size, r = heapq.heappop(heap)
            if self._done[r]:
                continue
            active = self._row_index[r]
            if len(active) != size:
                heapq.heappush(heap, (len(active), r))
                continue
            self._done[r] = True  # _addmul stops updating the index of row r
            if not active:
                self.pivot_order.append((r, None))
                continue
            acc = min(active, key=lambda c: (
                abs(self.cols[c][r]), len(self.cols[c]) + len(self.combos[c]),
                c))
            for other in sorted(active - {acc}):
                acc = self._combine(acc, other, r)
            self.pivot_order.append((r, acc))
            self.live.discard(acc)
            # acc is frozen: drop it from the index of remaining rows
            for rr in self.cols[acc]:
                if not self._done[rr]:
                    self._row_index[rr].discard(acc)

    def solve(self, rhs: dict[int, int]) -> Optional[list[int]]:
        """Return x with M x = rhs (rhs sparse over rows), or None."""
        residual = dict(rhs)
        witness: dict[int, int] = {}
        for r, piv in self.pivot_order:
            val = residual.get(r, 0)
            if val == 0:
                continue
            if piv is None:
                return None
            p = self.cols[piv][r]
            q, rem = divmod(val, p)
            if rem:
                return None
            for rr, v in self.cols[piv].items():
                nv = residual.get(rr, 0) - q * v
                if nv:
                    residual[rr] = nv
                else:
                    residual.pop(rr, None)
            for c, v in self.combos[piv].items():
                nv = witness.get(c, 0) + q * v
                if nv:
                    witness[c] = nv
                else:
                    witness.pop(c, None)
        if residual:
            return None
        return [witness.get(c, 0) for c in range(self.n_cols)]

    def kernel_basis(self) -> list[dict[int, int]]:
        """Integer basis of {x : M x = 0} as sparse coefficient dicts."""
        return [self.combos[c] for c in sorted(self.live)]


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

    def is_full(self) -> bool:
        """True iff the lattice is all of Z^dim: a +-1 pivot at every coordinate."""
        return self.units == self.dim

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
