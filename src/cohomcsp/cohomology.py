"""Integer-linear extendability of local sections and the cohomological
decision procedures refining k-consistency and k-Weisfeiler-Leman.

A local section s at context C is Z-extendable in a section set S when there
is a family of formal integer combinations r_U of the sections at every
context U, agreeing under restriction, with r_C = s exactly.  Compatibility of
such a family is a sparse homogeneous linear system over Z (one equation per
codimension-1 inclusion and target section); pinning s turns membership into
an integer feasibility problem.  Sections that are not Z-extendable cannot be
part of any global section, so the decision procedure starts from the
classical fixpoint, removes them, propagates the classical check from the
removals in place, and iterates to a greatest fixpoint.  Each round's system
is the last one's minus an upward-closed set of sections, so its kernel is
cut down from the last one's, kept as its projections onto the maximal
contexts.
A compatible family restricts to one on any downward-closed set of contexts,
so when the scope sub-presheaf (around the A-tuples) holds at most half the
sections, the first round builds the same kernel on it before the full
system, and rejects from there when the empty section fails.

Restrictions compose, so compatibility constraints are generated only for
codimension-1 inclusions; agreement along those implies agreement for all
inclusions of contexts.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import asdict, dataclass, field
from typing import Optional

from .intlinalg import IntLattice, SparseEchelon
from .presheaf import (Context, Section, SectionSet, _propagate,
                       classical_fixpoint, enumerate_sections, wl_fixpoint)
from .structures import Structure


@dataclass
class CompatibilitySystem:
    """Sparse homogeneous linear system expressing global compatibility.

    Variables are the stored sections.  Each row states that the combination
    at a context restricts to the combination at a codimension-1 sub-context.
    """

    variables: list[tuple[Context, Section]]
    var_of: dict[tuple[Context, Section], int]
    rows: list[dict[int, int]]

    @property
    def n_vars(self) -> int:
        return len(self.variables)


def build_compatibility_system(s_set: SectionSet) -> CompatibilitySystem:
    """Build the homogeneous compatibility system of s_set.

    For every codimension-1 inclusion C' of C and every s' stored at C' there
    is one equation: the coefficients of the sections at C restricting to s'
    sum to the coefficient of s'.  Each section at C restricts to one s', so
    every entry is +1 or -1.
    """
    variables = [(c, s) for c in s_set.contexts()
                 for s in sorted(s_set.sections[c])]
    var_of = {cs: i for i, cs in enumerate(variables)}
    rows: list[dict[int, int]] = []
    for c in s_set.contexts():
        for i in range(len(c)):
            sub = c[:i] + c[i + 1:]
            groups: dict[Section, dict[int, int]] = {}
            for s in s_set.sections[c]:
                groups.setdefault(s[:i] + s[i + 1:], {})[var_of[(c, s)]] = 1
            for sp in sorted(s_set.sections[sub]):
                row = groups.get(sp, {})
                row[var_of[(sub, sp)]] = -1
                rows.append(row)
    return CompatibilitySystem(variables, var_of, rows)


def _inverse(c: Context, s: Section) -> tuple[Context, Section]:
    """The inverse of the partial isomorphism c -> s as a (context, values) pair."""
    pairs = sorted(zip(s, c))
    return tuple(v for v, _ in pairs), tuple(e for _, e in pairs)


def invert_section_set(s_set: SectionSet) -> SectionSet:
    """Swap the roles of A and B by inverting every stored partial isomorphism."""
    if s_set.kind != "isom":
        raise ValueError("only isomorphism section sets can be inverted")
    out = SectionSet(s_set.b, s_set.a, s_set.k, "isom")
    for c, secs in s_set.sections.items():
        for s in secs:
            ic, inv = _inverse(c, s)
            out.sections[ic].add(inv)
    return out


# --- fixpoint machinery ------------------------------------------------------

class _Kernel:
    """An integer kernel basis of one direction's compatibility system, kept
    across the sweeps of one fixpoint run, as each vector's projections.

    A vector is kept as its empty-section coefficient and {i: projection},
    the projection onto top[i]'s sections of each maximal context i it
    touches, computed once when the system is eliminated.  The rows make a
    lower section's coefficient the sum of its extensions' at any maximal
    context above it, so these coordinates determine the vector.

    Every set after the first is the previous one minus an upward-closed set
    R of sections (the forth and downward closures keep it so), so its kernel
    is exactly {x in old kernel : x_R = 0}: rows at removed sub-sections sum
    removed variables only, and the other rows lose only vanishing terms.  A
    removed lower section's extensions at a maximal context are all removed,
    so x_R = 0 needs checking at removed maximal sections only.  Those keep
    their positions in top, as coordinates that are zero in every vector.
    """

    basis: Optional[list[tuple[int, dict[int, tuple[int, ...]]]]] = None

    def build(self, s_set: SectionSet) -> None:
        system = build_compatibility_system(s_set)
        empty = system.var_of[((), ())]
        # the maximal contexts and each variable's (context, position) among them
        self.top = [(c, sorted(s_set.sections[c])) for c in s_set.contexts()
                    if len(c) == s_set.max_level() and s_set.sections[c]]
        slot: list[Optional[tuple[int, int]]] = [None] * system.n_vars
        for i, (c, secs) in enumerate(self.top):
            for t, s in enumerate(secs):
                slot[system.var_of[(c, s)]] = (i, t)
        basis = SparseEchelon(system.n_vars, system.rows).kernel_basis()
        del system  # later sweeps need only the projections
        self.basis = []
        for vec in basis:
            touched: dict[int, list[int]] = {}
            for v, x in vec.items():
                at = slot[v]
                if at is not None:
                    i, t = at
                    if i not in touched:
                        touched[i] = [0] * len(self.top[i][1])
                    touched[i][t] = x
            self.basis.append((vec.get(empty, 0),
                               {i: tuple(p) for i, p in touched.items()}))

    def restrict(self, s_set: SectionSet) -> None:
        """Cut the basis down to the kernel of s_set.

        sum a_i b_i vanishes on R iff the coefficients of the basis vectors
        touching R lie in the kernel of their restriction to R, so those
        vectors are replaced by that small kernel's combinations of them
        (Cohen 1993, section 2.4).  Only the maximal contexts that lost
        sections are looked at; positions cut in an earlier sweep are zero
        in every vector, so they add no rows.
        """
        cut: dict[int, list[int]] = {}  # context -> its removed positions
        for i, (c, secs) in enumerate(self.top):
            live = s_set.sections[c]
            if len(live) < len(secs):
                cut[i] = [t for t, s in enumerate(secs) if s not in live]
        rows: dict[tuple[int, int], dict[int, int]] = {}
        hits, kept = [], []
        for vec in self.basis:
            projs = vec[1]
            at = [((i, t), projs[i][t]) for i in cut.keys() & projs.keys()
                  for t in cut[i] if projs[i][t]]
            for key, x in at:
                rows.setdefault(key, {})[len(hits)] = x
            (hits if at else kept).append(vec)
        ech = SparseEchelon(len(hits), list(rows.values()))
        for combo in ech.kernel_basis():
            empty, acc = 0, {}
            for j, q in combo.items():
                empty += q * hits[j][0]
                for i, p in hits[j][1].items():
                    if i not in acc:
                        acc[i] = [0] * len(p)
                    row = acc[i]
                    for t, x in enumerate(p):
                        row[t] += q * x
            kept.append((empty, {i: tuple(p) for i, p in acc.items() if any(p)}))
        self.basis = kept


def _system_shape(s_set: SectionSet) -> dict[str, int]:
    """Rows and columns of s_set's compatibility system, without building it:
    one row per stored section at each codimension-1 face of each context,
    one column per stored section."""
    return {"rows": sum(len(s_set.sections[c[:i] + c[i + 1:]])
                        for c in s_set.sections for i in range(len(c))),
            "cols": s_set.total()}


def _scope(s_set: SectionSet) -> SectionSet:
    """The sub-presheaf of s_set on the maximal contexts that hold the element
    set of some A-tuple, and on all their subsets."""
    top = s_set.max_level()
    spans = {tuple(sorted(e)) for e in set(map(frozenset, itertools.chain(
        *s_set.a.relations.values()))) if len(e) <= top}
    faces: set[Context] = {()}
    for c in s_set.sections:
        if len(c) == top:
            subs = [d for r in range(top + 1) for d in itertools.combinations(c, r)]
            if not spans.isdisjoint(subs):
                faces.update(subs)
    return SectionSet(s_set.a, s_set.b, s_set.k, s_set.kind,
                      {d: s_set.sections[d] for d in faces})


def _zext_sweep(s_set: SectionSet, kernel: _Kernel
                ) -> Optional[list[tuple[Context, Section]]]:
    """Find the stored sections that are not Z-extendable in s_set.

    Returns None when the empty section itself is not Z-extendable, in which
    case every stored section fails (any witness pinning a section restricts
    to a witness pinning the empty section).  Otherwise only sections at
    maximal contexts need solving: the set is flasque here, so a non-maximal
    section inherits a witness from any surviving extension, and one whose
    extensions all fail is removed by the forth closure that follows.

    The first sweep of a kernel builds it on the scope sub-presheaf first
    (`_scope`), when that holds at most half the stored sections (beyond that
    it costs most of a full elimination), and returns None without building
    the full system when the empty section fails there.  This is sound: the
    scope is downward closed, so each row of its system is a row of the full
    system over the same variables, and a full kernel vector with empty
    coordinate 1 restricts to a scope kernel vector with empty coordinate 1.
    The benchmark's Tseitin instances keep 1-3 % of their sections in scope,
    its CFI pairs 67-74 %.

    A pin (C, s) is feasible iff the indicator of s lies in the projection of
    the unpinned system's kernel onto the coordinates of S(C), so all pins at
    one context share a lattice, and none needs a test once that lattice is
    all of Z^|S(C)|.  The kernel is `kernel`'s, built on its first sweep and
    restricted to s_set on each later one.  It holds each basis vector's
    projections onto the maximal contexts (see `_Kernel`), so a sweep only
    deduplicates them per context and feeds each context's lattice.
    """
    if kernel.basis is None:
        scope = _scope(s_set)
        if 2 * scope.total() <= s_set.total():
            kernel.build(scope)
            if math.gcd(*(empty for empty, _ in kernel.basis)) != 1:
                return None
        kernel.build(s_set)
    else:
        kernel.restrict(s_set)
    if math.gcd(*(empty for empty, _ in kernel.basis)) != 1:
        return None

    # each context's distinct projections, in basis order
    projections: list[dict[tuple[int, ...], None]] = [{} for _ in kernel.top]
    for _, projs in kernel.basis:
        for i, proj in projs.items():
            projections[i][proj] = None

    failures: list[tuple[Context, Section]] = []
    for (c, secs), projs in zip(kernel.top, projections):
        lat = IntLattice(len(secs))
        for proj in projs:
            lat.add(proj)
            if lat.is_full():
                break
        else:
            failures.extend((c, s) for t, s in enumerate(secs)
                            if s in s_set.sections[c] and not lat.contains(
                                [int(u == t) for u in range(len(secs))]))
    return failures


# section kind -> report key for the classical check's removals
_CHECK_LABEL = {"hom": "forth", "isom": "bijforth"}


def _run_cohom_fixpoint(t: SectionSet, removed_log: list[dict]) -> None:
    """Shrink the classical fixpoint t in place to the cohomological one.

    Each iteration removes the sections that are not Z-extendable
    (Z-bi-extendable for isomorphisms) and propagates the classical check of
    t's kind (forth for hom, bijective forth for isom) from the removals; its
    entry in removed_log splits the removals by cause.
    """
    forward, backward = _Kernel(), _Kernel()
    iteration = 0
    while not t.is_empty():
        iteration += 1
        failures = _zext_sweep(t, forward)
        if failures is not None and t.kind == "isom":
            back = _zext_sweep(invert_section_set(t), backward)
            failures = None if back is None else set(failures).union(
                _inverse(c, s) for c, s in back)
        if failures is None:  # the empty section fails, so all do
            failures = [(c, s) for c, secs in t.sections.items() for s in secs]
        rounds: list[dict[str, int]] = []
        _propagate(t, failures, rounds)
        removed_log.append({
            "iteration": iteration,
            "zext": len(failures),
            "closure": sum(e["closure"] for e in rounds),
            _CHECK_LABEL[t.kind]: sum(e["forth"] for e in rounds[1:]),
            "remaining": t.total(),
        })
        if not failures:
            break


# --- decision procedures with reports ----------------------------------------

@dataclass
class DecisionReport:
    """Outcome and run statistics of one decision procedure invocation."""

    verdict: str               # "accept" | "reject"
    k: int
    method: str                # e.g. "cohom-consistency"
    iterations: int
    removed: list[dict]
    max_system: dict[str, int]
    ms: float
    sections_remaining: int = 0
    sections_per_size: dict[int, int] = field(default_factory=dict)
    reason: Optional[str] = None

    @property
    def accepted(self) -> bool:
        return self.verdict == "accept"

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["sections_per_size"] = {str(k): v
                                    for k, v in sorted(self.sections_per_size.items())}
        if self.reason is None:
            del doc["reason"]
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _finish_report(method: str, k: int, t: SectionSet, removed_log: list[dict],
                   t0: float, max_system: Optional[dict[str, int]] = None,
                   reason: Optional[str] = None) -> DecisionReport:
    return DecisionReport(
        verdict="accept" if not t.is_empty() else "reject",
        k=k,
        method=method,
        iterations=max((e["iteration"] for e in removed_log), default=0),
        removed=removed_log,
        max_system=max_system or {"rows": 0, "cols": 0},
        ms=round((time.perf_counter() - t0) * 1000.0, 3),
        sections_remaining=t.total(),
        sections_per_size=t.per_size(),
        reason=reason,
    )


# problem -> (section kind, method-name suffix)
_PROBLEMS = {"csp": ("hom", "consistency"), "iso": ("isom", "wl")}


def run_decision(a: Structure, b: Structure, k: int, method: str,
                 problem: str) -> list[DecisionReport]:
    """Decide one instance by k-consistency (problem "csp") or k-WL ("iso").

    method is "classical" or "cohomological".  Returns [classical] or
    [classical, cohomological]; the last report carries the verdict of the
    requested method.  The cohomological run starts from the classical
    fixpoint (its iteration 0), so both reports come from one enumeration and
    one classical fixpoint.
    """
    if problem not in _PROBLEMS or method not in ("classical", "cohomological"):
        raise ValueError(
            f"unknown method/problem combination {method!r}/{problem!r}")
    kind, suffix = _PROBLEMS[problem]
    methods = ["classical-" + suffix]
    if method == "cohomological":
        methods.append("cohom-" + suffix)
    t0 = time.perf_counter()
    if kind == "isom" and a.size != b.size:
        empty = SectionSet(a, b, k, kind)
        return [_finish_report(m, k, empty, [], t0, reason="size")
                for m in methods]
    label = _CHECK_LABEL[kind]
    fixpoint = wl_fixpoint if kind == "isom" else classical_fixpoint
    pre: list[dict] = []
    t = fixpoint(enumerate_sections(a, b, k, kind), pre)
    log = [{"iteration": i + 1, label: e["forth"], "closure": e["closure"],
            "zext": 0} for i, e in enumerate(pre)]
    reports = [_finish_report(methods[0], k, t, log, t0)]
    if method == "cohomological":
        removed_log = [{"iteration": 0, label: sum(e[label] for e in log),
                        "closure": sum(e["closure"] for e in log), "zext": 0,
                        "remaining": t.total()}]
        # the first forward system is the largest: later sets are subsets
        # of t, and inversion keeps the shape
        max_system = _system_shape(t)
        _run_cohom_fixpoint(t, removed_log)
        reports.append(_finish_report(methods[1], k, t, removed_log, t0,
                                      max_system))
    return reports
