"""Integer-linear extendability of local sections and the cohomological
decision procedures refining k-consistency and k-Weisfeiler-Leman.

A local section s at context C is Z-extendable in a section set S when there
is a family of formal integer combinations r_U of the sections at every
context U, agreeing under restriction, with r_C = s exactly.  Compatibility of
such a family is a sparse homogeneous linear system over Z (one equation per
codimension-1 inclusion and target section); pinning s turns membership into
an integer feasibility problem.  Sections that are not Z-extendable cannot be
part of any global section, so the decision procedure starts from the
classical fixpoint, removes them, re-runs the classical closure, and iterates
to a greatest fixpoint.

Restrictions compose, so compatibility constraints are generated only for
codimension-1 inclusions; agreement along those implies agreement for all
inclusions of contexts.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Optional

from .intlinalg import IntLattice, SparseEchelon
from .presheaf import (Context, SectionSet, _remove_and_close,
                       classical_fixpoint, enumerate_sections, restrict,
                       wl_fixpoint)
from .structures import LocalSection, Structure


@dataclass(frozen=True)
class ZLinearSection:
    """A formal integer combination of the stored sections at one context."""

    context: Context
    coefficients: tuple[tuple[LocalSection, int], ...]

    def as_dict(self) -> dict[LocalSection, int]:
        return dict(self.coefficients)


@dataclass
class CompatibilitySystem:
    """Sparse linear system expressing global compatibility, optionally pinned.

    Variables are the stored sections, except those at the pinned context when
    there is a pin (their coefficients are substituted with the indicator of
    the pinned section).  Each row states that the combination at a context
    restricts to the combination at a codimension-1 sub-context.  Without a
    pin the system is homogeneous.
    """

    variables: list[LocalSection]
    var_of: dict[LocalSection, int]
    rows: list[dict[int, int]]
    rhs: list[int]
    pin: Optional[tuple[Context, LocalSection]]

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_vars(self) -> int:
        return len(self.variables)


def build_compatibility_system(s_set: SectionSet,
                               pin: Optional[tuple[Context, LocalSection]] = None
                               ) -> CompatibilitySystem:
    """Build the compatibility system, pinned for Z-extendability of pin[1].

    For every codimension-1 inclusion C' of C and every s' stored at C' there
    is one equation: the coefficients of the sections at C restricting to s'
    sum to the coefficient of s'.  The pinned context contributes constants
    (1 for the pinned section, 0 for its siblings), which moves to the
    right-hand side.
    """
    pin_ctx, pin_sec = pin if pin is not None else (None, None)
    if pin is not None and (pin_sec.domain != pin_ctx or pin_sec not in s_set):
        raise ValueError("pinned section is not stored in the section set")
    variables = [s for c in s_set.contexts() if c != pin_ctx
                 for s in sorted(s_set.sections[c], key=lambda s: s.values)]
    var_of = {s: i for i, s in enumerate(variables)}
    rows: list[dict[int, int]] = []
    rhs: list[int] = []
    for c in s_set.contexts():
        if not c:
            continue
        for i in range(len(c)):
            sub = c[:i] + c[i + 1:]
            groups: dict[LocalSection, dict[int, int]] = {}
            pinned_hits: dict[LocalSection, int] = {}
            for s in s_set.sections[c]:
                r = restrict(s, sub)
                if c == pin_ctx:
                    if s == pin_sec:
                        pinned_hits[r] = pinned_hits.get(r, 0) + 1
                else:
                    row = groups.setdefault(r, {})
                    v = var_of[s]
                    row[v] = row.get(v, 0) + 1
            for sp in sorted(s_set.sections[sub], key=lambda s: s.values):
                row = dict(groups.get(sp, {}))
                const = pinned_hits.get(sp, 0)
                if sub == pin_ctx:
                    const -= 1 if sp == pin_sec else 0
                else:
                    v = var_of[sp]
                    row[v] = row.get(v, 0) - 1
                rows.append(row)
                rhs.append(-const)
    return CompatibilitySystem(variables, var_of, rows, rhs, pin)


def z_extendable(s_set: SectionSet, s: LocalSection) -> bool:
    """True iff the compatibility system pinned at s has an integer solution."""
    system = build_compatibility_system(s_set, (s.domain, s))
    ech = SparseEchelon(system.n_vars, system.rows)
    return ech.feasible({i: v for i, v in enumerate(system.rhs) if v})


def z_linear_witness(s_set: SectionSet, s: LocalSection
                     ) -> Optional[dict[Context, ZLinearSection]]:
    """A global Z-linear section pinning s, or None when s is not Z-extendable."""
    system = build_compatibility_system(s_set, (s.domain, s))
    ech = SparseEchelon(system.n_vars, system.rows, track_combos=True)
    x = ech.solve({i: v for i, v in enumerate(system.rhs) if v})
    if x is None:
        return None
    per_ctx: dict[Context, dict[LocalSection, int]] = {
        c: {} for c in s_set.contexts()}
    for sec, i in system.var_of.items():
        per_ctx[sec.domain][sec] = x[i]
    for sib in s_set.sections[s.domain]:
        per_ctx[s.domain][sib] = 1 if sib == s else 0
    return {c: ZLinearSection(c, tuple(sorted(v.items(), key=lambda kv: kv[0].values)))
            for c, v in per_ctx.items()}


def invert_section_set(s_set: SectionSet) -> SectionSet:
    """Swap the roles of A and B by inverting every stored partial isomorphism."""
    if s_set.kind != "isom":
        raise ValueError("only isomorphism section sets can be inverted")
    out = SectionSet(s_set.b, s_set.a, s_set.k, "isom")
    for secs in s_set.sections.values():
        for s in secs:
            inv = s.inverse()
            out.sections[inv.domain].add(inv)
    return out


def z_bi_extendable(s_set: SectionSet, s: LocalSection) -> bool:
    """Z-extendability of s in S together with that of s^-1 in S^-1."""
    if s_set.kind != "isom":
        raise ValueError("bi-extendability is defined for isomorphism sets only")
    if not z_extendable(s_set, s):
        return False
    return z_extendable(invert_section_set(s_set), s.inverse())


# --- fixpoint machinery ------------------------------------------------------

class _SweepStats:
    __slots__ = ("max_rows", "max_cols")

    def __init__(self):
        self.max_rows = 0
        self.max_cols = 0

    def record(self, rows: int, cols: int) -> None:
        self.max_rows = max(self.max_rows, rows)
        self.max_cols = max(self.max_cols, cols)


def _zext_sweep(s_set: SectionSet, stats: _SweepStats
                ) -> Optional[list[LocalSection]]:
    """Find the stored sections that are not Z-extendable in s_set.

    Returns None when the empty section itself is not Z-extendable, in which
    case every stored section fails (any witness pinning a section restricts
    to a witness pinning the empty section).  Otherwise only sections at
    maximal contexts need solving: the set is flasque here, so a non-maximal
    section inherits a witness from any surviving extension, and one whose
    extensions all fail is removed by the forth closure that follows.

    The kernel of the unpinned compatibility system is computed once; a pin
    (C, s) is feasible iff the indicator of s lies in the kernel's projection
    onto the coordinates of S(C), so all pins at one context share a lattice.
    """
    system = build_compatibility_system(s_set)
    var_of = system.var_of
    stats.record(system.n_rows, system.n_vars)
    ech = SparseEchelon(system.n_vars, system.rows, track_combos=True)
    basis = ech.kernel_basis()

    empty_sec = LocalSection((), (), s_set.kind)
    empty_var = var_of[empty_sec]
    lat0 = IntLattice(1)
    for vec in basis:
        v = vec.get(empty_var, 0)
        if v:
            lat0.add((v,))
    if not lat0.contains((1,)):
        return None

    touch: dict[int, list[int]] = {}
    for bi, vec in enumerate(basis):
        for v in vec:
            touch.setdefault(v, []).append(bi)

    failures: list[LocalSection] = []
    top = s_set.max_level()
    for c in s_set.contexts():
        if len(c) != top:
            continue
        secs = sorted(s_set.sections[c], key=lambda s: s.values)
        if not secs:
            continue
        vars_c = [var_of[s] for s in secs]
        coord = {v: t for t, v in enumerate(vars_c)}
        p = len(vars_c)
        vec_ids = sorted({bi for v in vars_c for bi in touch.get(v, ())})
        lat = IntLattice(p)
        seen: set[tuple[int, ...]] = set()
        for bi in vec_ids:
            vec = basis[bi]
            proj = tuple(vec.get(v, 0) for v in vars_c)
            if proj in seen:
                continue
            seen.add(proj)
            lat.add(proj)
        for s in secs:
            unit = [0] * p
            unit[coord[var_of[s]]] = 1
            if not lat.contains(unit):
                failures.append(s)
    return failures


# section kind -> report key for the classical check's removals
_CHECK_LABEL = {"hom": "forth", "isom": "bijforth"}


def _classical(s_set: SectionSet, log: list[dict]) -> SectionSet:
    """The classical fixpoint of the set's kind: k-consistency or k-WL."""
    fixpoint = wl_fixpoint if s_set.kind == "isom" else classical_fixpoint
    return fixpoint(s_set, log)


def _run_cohom_fixpoint(t: SectionSet, pre: list[dict],
                        removed_log: list[dict], stats: _SweepStats
                        ) -> SectionSet:
    """Continue from the classical fixpoint t, whose per-round removals are
    `pre`, to the cohomological one.

    The classical fixpoint (flasque for kind=hom, bijective forth for
    kind=isom) is logged as iteration 0.  Each later iteration removes the
    sections that are not Z-extendable (Z-bi-extendable for isomorphisms) and
    re-runs the classical fixpoint.  t is modified in place.
    """
    bi_directional = t.kind == "isom"
    label = _CHECK_LABEL[t.kind]
    removed_log.append({
        "iteration": 0,
        label: sum(e["forth"] for e in pre),
        "closure": sum(e["closure"] for e in pre),
        "zext": 0,
        "remaining": t.total(),
    })
    iteration = 0
    while not t.is_empty():
        iteration += 1
        failures = _zext_sweep(t, stats)
        if bi_directional and failures is not None:
            back = _zext_sweep(invert_section_set(t), stats)
            if back is None:
                failures = None
            else:
                fwd = set(failures)
                fwd.update(s.inverse() for s in back)
                failures = sorted(fwd, key=lambda s: (s.domain, s.values))
        if failures is None:
            count = t.total()
            for secs in t.sections.values():
                secs.clear()
            removed_log.append({"iteration": iteration, label: 0,
                                "closure": 0, "zext": count, "remaining": 0})
            break
        if not failures:
            removed_log.append({"iteration": iteration, label: 0,
                                "closure": 0, "zext": 0,
                                "remaining": t.total()})
            break
        removed = _remove_and_close(t, set(failures))
        closure = len(removed) - len(failures)
        post: list[dict] = []
        t = _classical(t, post)
        removed_log.append({
            "iteration": iteration,
            "zext": len(failures),
            "closure": closure + sum(e["closure"] for e in post),
            label: sum(e["forth"] for e in post),
            "remaining": t.total(),
        })
    return t


def _cohom_fixpoint(s_set: SectionSet, removed_log: Optional[list[dict]],
                    stats: Optional[_SweepStats]) -> SectionSet:
    pre: list[dict] = []
    t = _classical(s_set, pre)
    return _run_cohom_fixpoint(t, pre,
                               removed_log if removed_log is not None else [],
                               stats if stats is not None else _SweepStats())


def cohom_consistency_fixpoint(s_set: SectionSet,
                               removed_log: Optional[list[dict]] = None,
                               stats: Optional[_SweepStats] = None) -> SectionSet:
    """Greatest fixpoint removing forth failures and non-Z-extendable sections."""
    if s_set.kind != "hom":
        raise ValueError("cohom_consistency_fixpoint expects kind=hom")
    return _cohom_fixpoint(s_set, removed_log, stats)


def cohom_wl_fixpoint(s_set: SectionSet,
                      removed_log: Optional[list[dict]] = None,
                      stats: Optional[_SweepStats] = None) -> SectionSet:
    """Greatest fixpoint removing bijective-forth failures and sections that
    are not Z-bi-extendable."""
    if s_set.kind != "isom":
        raise ValueError("cohom_wl_fixpoint expects kind=isom")
    return _cohom_fixpoint(s_set, removed_log, stats)


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
        doc = {
            "verdict": self.verdict,
            "k": self.k,
            "method": self.method,
            "iterations": self.iterations,
            "removed": self.removed,
            "max_system": self.max_system,
            "ms": self.ms,
            "sections_remaining": self.sections_remaining,
            "sections_per_size": {str(k): v
                                  for k, v in sorted(self.sections_per_size.items())},
        }
        if self.reason is not None:
            doc["reason"] = self.reason
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _finish_report(method: str, k: int, t: SectionSet, removed_log: list[dict],
                   stats: _SweepStats, t0: float,
                   reason: Optional[str] = None) -> DecisionReport:
    iterations = max((e["iteration"] for e in removed_log), default=0)
    return DecisionReport(
        verdict="accept" if not t.is_empty() else "reject",
        k=k,
        method=method,
        iterations=iterations,
        removed=removed_log,
        max_system={"rows": stats.max_rows, "cols": stats.max_cols},
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
        return [_finish_report(m, k, empty, [], _SweepStats(), t0, reason="size")
                for m in methods]
    pre: list[dict] = []
    t = _classical(enumerate_sections(a, b, k, kind), pre)
    log = [{"iteration": i + 1, _CHECK_LABEL[kind]: e["forth"],
            "closure": e["closure"], "zext": 0} for i, e in enumerate(pre)]
    reports = [_finish_report(methods[0], k, t, log, _SweepStats(), t0)]
    if method == "cohomological":
        removed_log: list[dict] = []
        stats = _SweepStats()
        t = _run_cohom_fixpoint(t, pre, removed_log, stats)
        reports.append(_finish_report(methods[1], k, t, removed_log, stats, t0))
    return reports
