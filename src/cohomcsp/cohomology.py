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
from .presheaf import (Context, Section, SectionSet, _remove_and_close,
                       classical_fixpoint, enumerate_sections, wl_fixpoint)
from .structures import Structure


@dataclass
class CompatibilitySystem:
    """Sparse linear system expressing global compatibility, optionally pinned.

    Variables are the stored sections, except those at the pinned context when
    there is a pin (their coefficients are substituted with the indicator of
    the pinned section).  Each row states that the combination at a context
    restricts to the combination at a codimension-1 sub-context.  Without a
    pin the system is homogeneous.
    """

    variables: list[tuple[Context, Section]]
    var_of: dict[tuple[Context, Section], int]
    rows: list[dict[int, int]]
    rhs: list[int]

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_vars(self) -> int:
        return len(self.variables)


def build_compatibility_system(s_set: SectionSet,
                               pin: Optional[tuple[Context, Section]] = None
                               ) -> CompatibilitySystem:
    """Build the compatibility system, pinned for Z-extendability of pin[1].

    For every codimension-1 inclusion C' of C and every s' stored at C' there
    is one equation: the coefficients of the sections at C restricting to s'
    sum to the coefficient of s'.  The pinned context contributes constants
    (1 for the pinned section, 0 for its siblings), which moves to the
    right-hand side.
    """
    pin_ctx, pin_sec = pin if pin is not None else (None, None)
    if pin is not None and pin_sec not in s_set.sections.get(pin_ctx, ()):
        raise ValueError("pinned section is not stored in the section set")
    variables = [(c, s) for c in s_set.contexts() if c != pin_ctx
                 for s in sorted(s_set.sections[c])]
    var_of = {cs: i for i, cs in enumerate(variables)}
    rows: list[dict[int, int]] = []
    rhs: list[int] = []
    for c in s_set.contexts():
        if not c:
            continue
        for i in range(len(c)):
            sub = c[:i] + c[i + 1:]
            groups: dict[Section, dict[int, int]] = {}
            pinned_hits: dict[Section, int] = {}
            for s in s_set.sections[c]:
                r = s[:i] + s[i + 1:]
                if c == pin_ctx:
                    if s == pin_sec:
                        pinned_hits[r] = pinned_hits.get(r, 0) + 1
                else:
                    row = groups.setdefault(r, {})
                    v = var_of[(c, s)]
                    row[v] = row.get(v, 0) + 1
            for sp in sorted(s_set.sections[sub]):
                row = dict(groups.get(sp, {}))
                const = pinned_hits.get(sp, 0)
                if sub == pin_ctx:
                    const -= 1 if sp == pin_sec else 0
                else:
                    v = var_of[(sub, sp)]
                    row[v] = row.get(v, 0) - 1
                rows.append(row)
                rhs.append(-const)
    return CompatibilitySystem(variables, var_of, rows, rhs)


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

class _SweepStats:
    __slots__ = ("max_rows", "max_cols")

    def __init__(self):
        self.max_rows = 0
        self.max_cols = 0

    def record(self, rows: int, cols: int) -> None:
        self.max_rows = max(self.max_rows, rows)
        self.max_cols = max(self.max_cols, cols)


def _zext_sweep(s_set: SectionSet, stats: _SweepStats
                ) -> Optional[list[tuple[Context, Section]]]:
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

    empty_var = var_of[((), ())]
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

    failures: list[tuple[Context, Section]] = []
    top = s_set.max_level()
    for c in s_set.contexts():
        if len(c) != top:
            continue
        secs = sorted(s_set.sections[c])
        if not secs:
            continue
        vars_c = [var_of[(c, s)] for s in secs]
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
        for t, s in enumerate(secs):
            unit = [0] * p
            unit[t] = 1
            if not lat.contains(unit):
                failures.append((c, s))
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
                failures = set(failures).union(_inverse(c, s) for c, s in back)
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
        removed = _remove_and_close(t, failures)
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
