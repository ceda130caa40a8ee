"""Exact sparse integer linear algebra over arbitrary-precision Python ints.

`SparseEchelon` backs the compatibility-system solving in the cohomology
engine, where systems are large but each equation touches only a handful of
variables: integer feasibility, witnesses and kernel bases.  `IntLattice`
decides membership in the projection of that kernel onto one context.
"""

from __future__ import annotations

import heapq
from typing import Optional, Sequence


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, u, v) with u*a + v*b = g = gcd(a, b), g > 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


class SparseEchelon:
    """Column echelon form of a sparse integer matrix over Z.

    Built once from the rows of a homogeneous coefficient matrix, the echelon
    then answers ``feasible(rhs)`` queries (is M x = rhs solvable over Z?) by
    forward substitution along the recorded pivot order, and can emit an
    integer basis of the kernel lattice when ``track_combos`` is on.

    Columns are mutated by unimodular column operations, so the column lattice
    and kernel are those of the input matrix.  Rows are processed greedily by
    current fill (fewest active columns first), which keeps fill-in low on the
    marginalisation-style systems this is used for.
    """

    def __init__(self, n_cols: int, rows: Sequence[dict[int, int]],
                 track_combos: bool = False):
        self.n_cols = n_cols
        self.track = track_combos
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
        self.combos: list[dict[int, int]] = (
            [{c: 1} for c in range(n_cols)] if track_combos else [])
        self.live: set[int] = set(range(n_cols))
        # (row, pivot_col or None) in processing order
        self.pivot_order: list[tuple[int, Optional[int]]] = []
        self._eliminate()

    def _set_entry(self, col: int, r: int, v: int) -> None:
        cd = self.cols[col]
        if v:
            if r not in cd and not self._done[r]:
                self._row_index[r].add(col)
            cd[r] = v
        else:
            if cd.pop(r, None) is not None and not self._done[r]:
                self._row_index[r].discard(col)

    def _addmul(self, dst: int, src: int, q: int) -> None:
        """col[dst] += q * col[src]."""
        if q == 0:
            return
        cd = self.cols[dst]
        for r, v in self.cols[src].items():
            self._set_entry(dst, r, cd.get(r, 0) + q * v)
        if self.track:
            kd, ks = self.combos[dst], self.combos[src]
            for c, v in ks.items():
                nv = kd.get(c, 0) + q * v
                if nv:
                    kd[c] = nv
                else:
                    kd.pop(c, None)

    def _combine(self, acc: int, other: int, r: int) -> None:
        """Unimodular 2-column update zeroing col[other] at row r."""
        a = self.cols[acc].get(r, 0)
        v = self.cols[other].get(r, 0)
        if v == 0:
            return
        if a != 0 and v % a == 0:
            self._addmul(other, acc, -(v // a))
            return
        g, u, w = _ext_gcd(a, v)
        aa, bb = a // g, v // g
        keys = set(self.cols[acc]) | set(self.cols[other])
        old_a = dict(self.cols[acc])
        old_o = dict(self.cols[other])
        for k in keys:
            x, y = old_a.get(k, 0), old_o.get(k, 0)
            self._set_entry(acc, k, u * x + w * y)
            self._set_entry(other, k, -bb * x + aa * y)
        if self.track:
            ka, ko = self.combos[acc], self.combos[other]
            nka: dict[int, int] = {}
            nko: dict[int, int] = {}
            for k in set(ka) | set(ko):
                x, y = ka.get(k, 0), ko.get(k, 0)
                s = u * x + w * y
                t = -bb * x + aa * y
                if s:
                    nka[k] = s
                if t:
                    nko[k] = t
            self.combos[acc] = nka
            self.combos[other] = nko

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
            if not active:
                self._done[r] = True
                self.pivot_order.append((r, None))
                continue
            acc = min(active, key=lambda c: (abs(self.cols[c].get(r, 0)),
                                             len(self.cols[c]), c))
            for other in sorted(active - {acc}):
                self._combine(acc, other, r)
            self._done[r] = True
            self.pivot_order.append((r, acc))
            self.live.discard(acc)
            # acc is frozen: drop it from the index of remaining rows
            for rr in self.cols[acc]:
                if not self._done[rr]:
                    self._row_index[rr].discard(acc)

    def feasible(self, rhs: dict[int, int]) -> bool:
        """Decide integer solvability of M x = rhs (rhs sparse over rows)."""
        return self._solve(rhs, want_witness=False) is not False

    def solve(self, rhs: dict[int, int]) -> Optional[list[int]]:
        """Return x with M x = rhs, or None.  Requires track_combos=True."""
        if not self.track:
            raise ValueError("witness extraction requires track_combos=True")
        out = self._solve(rhs, want_witness=True)
        if out is False:
            return None
        x = [0] * self.n_cols
        for c, v in out.items():  # type: ignore[union-attr]
            x[c] = v
        return x

    def _solve(self, rhs: dict[int, int], want_witness: bool):
        residual = dict(rhs)
        witness: dict[int, int] = {}
        for r, piv in self.pivot_order:
            val = residual.get(r, 0)
            if val == 0:
                continue
            if piv is None:
                return False
            p = self.cols[piv][r]
            q, rem = divmod(val, p)
            if rem:
                return False
            for rr, v in self.cols[piv].items():
                nv = residual.get(rr, 0) - q * v
                if nv:
                    residual[rr] = nv
                else:
                    residual.pop(rr, None)
            if want_witness and q:
                for c, v in self.combos[piv].items():
                    nv = witness.get(c, 0) + q * v
                    if nv:
                        witness[c] = nv
                    else:
                        witness.pop(c, None)
        if residual:
            return False
        return witness if want_witness else True

    def kernel_basis(self) -> list[dict[int, int]]:
        """Integer basis of {x : M x = 0} as sparse coefficient dicts."""
        if not self.track:
            raise ValueError("kernel extraction requires track_combos=True")
        return [self.combos[c] for c in sorted(self.live)]


class IntLattice:
    """Incremental echelon generating set for a sublattice of Z^p.

    Supports adding generator vectors and testing membership; used for the
    projections of kernel lattices onto the coordinates of one context.
    """

    def __init__(self, dim: int):
        self.dim = dim
        # echelon rows keyed by leading (pivot) coordinate
        self.rows: dict[int, list[int]] = {}

    def add(self, vec: Sequence[int]) -> None:
        v = list(vec)
        for j in range(self.dim):
            if v[j] == 0:
                continue
            row = self.rows.get(j)
            if row is None:
                self.rows[j] = v
                return
            a, b = row[j], v[j]
            if b % a == 0:
                q = b // a
                for t in range(j, self.dim):
                    v[t] -= q * row[t]
            else:
                g, u, w = _ext_gcd(a, b)
                aa, bb = a // g, b // g
                new_row = [u * row[t] + w * v[t] for t in range(self.dim)]
                v = [-bb * row[t] + aa * v[t] for t in range(self.dim)]
                self.rows[j] = new_row

    def contains(self, vec: Sequence[int]) -> bool:
        v = list(vec)
        for j in range(self.dim):
            if v[j] == 0:
                continue
            row = self.rows.get(j)
            if row is None:
                return False
            q, rem = divmod(v[j], row[j])
            if rem:
                return False
            for t in range(j, self.dim):
                v[t] -= q * row[t]
        return True
