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
removals in place, and iterates to a greatest fixpoint.  Each round builds
one system in `_condensed`, the only writer of compatibility rows: it
condenses every maximal context to the integer relations on its face
sections, so it eliminates over the lower levels only, and tests each
maximal section's face vector against the kernel's projection there.  A
compatible family restricts to one on any downward-closed set of contexts, so
when the scope sub-presheaf (around the A-tuples) holds at most half the
sections, the first round condenses it first, and rejects from there when
the empty section fails.

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


def _face_relations(n_faces: int, hits: tuple) -> Optional[SparseEchelon]:
    """The echelon of one maximal context's face map ∂_C, transposed: a row
    {face coordinate: 1} per section.  Its kernel spans the relations all
    face vectors satisfy, which cut out the image of ∂_C if it is saturated,
    as +-1 pivots prove (the pivot block is lower triangular); else None."""
    ech = SparseEchelon(n_faces, [dict.fromkeys(hit, 1) for hit in hits])
    return ech if all(abs(ech.cols[p][r]) == 1 for r, p in ech.pivot_order) else None


def _condensed(s_set: SectionSet):
    """The kernel of s_set's compatibility system condensed onto the sections
    below the top level.  One pass over the contexts finds each one's face
    coordinates (the variable blocks of its codimension-1 faces) and each
    section's face positions.  A maximal context adds its `_face_relations`
    over its face sections (without sections, they force those to 0).  Every
    other context, and a maximal one whose relations are None, numbers its
    sections as columns and writes one row per face section: the columns
    restricting to it sum to it.  Returns var_of, the basis, and per maximal
    context holding sections (context, sections, face variables, each
    section's face positions, rank ∂_C or the face count)."""
    top = s_set.max_level()
    var_of: dict[tuple[Context, Section], int] = {}
    start: dict[Context, int] = {}  # each context's first variable
    rows: list[dict[int, int]] = []
    relations: dict[tuple, Optional[SparseEchelon]] = {}  # by (n_faces, hits)
    tops = []
    for c in s_set.contexts():
        subs = [c[:i] + c[i + 1:] for i in range(len(c))]
        faces, offs = [], []
        for sub in subs:
            first = start.get(sub, 0)
            offs.append(len(faces) - first)
            faces.extend(range(first, first + len(s_set.sections[sub])))
        secs = sorted(s_set.sections[c])
        hits = tuple(tuple([offs[i] + var_of[subs[i], s[:i] + s[i + 1:]]
                            for i in range(len(c))]) for s in secs)
        ech = None
        if len(c) == top:
            if (len(faces), hits) not in relations:
                relations[len(faces), hits] = _face_relations(len(faces), hits)
            ech = relations[len(faces), hits]
            if secs:
                tops.append((c, secs, faces, hits,
                             len(faces) if ech is None else len(ech.pivot_order)))
        if ech is None:
            start[c] = len(var_of)
            face_rows = [{v: -1} for v in faces]
            for s, hit in zip(secs, hits):
                var_of[c, s] = col = len(var_of)
                for f in hit:
                    face_rows[f][col] = 1
            rows.extend(face_rows)
        else:
            rows.extend({faces[f]: x for f, x in z.items()}
                        for z in ech.kernel_basis())
    return var_of, SparseEchelon(len(var_of), rows).kernel_basis(), tops


def _empty_gcd(var_of: dict, basis: list[dict[int, int]]) -> int:
    """The gcd of the empty section's kernel coordinates: 1 iff Z-extendable."""
    return math.gcd(*(vec.get(var_of[((), ())], 0) for vec in basis))


def _zext_sweep(s_set: SectionSet, first: bool
                ) -> Optional[list[tuple[Context, Section]]]:
    """Find the stored sections that are not Z-extendable in s_set.

    Returns None when the empty section itself is not Z-extendable, in which
    case every stored section fails (any witness pinning a section restricts
    to a witness pinning the empty section).  Otherwise only sections at
    maximal contexts need solving: the set is flasque here, so a non-maximal
    section inherits a witness from any surviving extension, and one whose
    extensions all fail is removed by the forth closure that follows.

    On the first sweep of a run, when the scope sub-presheaf (`_scope`) holds
    at most half the stored sections, its condensed system comes first, and
    the sweep returns None when the empty section fails there.  That is
    sound: the scope is downward closed, so a full kernel vector with empty
    coordinate 1 restricts to a scope kernel vector with empty coordinate 1.

    s at a maximal context C is Z-extendable iff its face vector ∂_C e_s
    lies in the lattice of the kernel's projections onto C's face
    coordinates: a kernel vector with those face values differs from e_s at
    C by an element of ker ∂_C, which extends by zero.  That lattice lies in
    the image of ∂_C, so once it has rank ∂_C unit pivots it is the image.
    """
    if s_set.max_level() == 0:
        return []  # the empty section is the only one, and nothing constrains it
    if (first and 2 * (scope := _scope(s_set)).total() <= s_set.total()
            and _empty_gcd(*_condensed(scope)[:2]) != 1):
        return None
    var_of, basis, tops = _condensed(s_set)
    if _empty_gcd(var_of, basis) != 1:
        return None
    entries: dict[int, list[tuple[int, int]]] = {}  # variable -> (vector, value)
    for j, vec in enumerate(basis):
        for v, x in vec.items():
            entries.setdefault(v, []).append((j, x))
    failures: list[tuple[Context, Section]] = []
    for c, secs, faces, hits, rank in tops:
        projections: dict[int, list[int]] = {}  # vector -> its face values
        for f, v in enumerate(faces):
            for j, x in entries.get(v, ()):
                if j not in projections:
                    projections[j] = [0] * len(faces)
                projections[j][f] = x
        lat = IntLattice(len(faces))
        for proj in dict.fromkeys(tuple(projections[j]) for j in sorted(projections)):
            lat.add(proj)
            if lat.units == rank:
                break
        else:
            failures.extend((c, s) for s, hit in zip(secs, hits) if not lat.contains(
                [int(f in hit) for f in range(len(faces))]))
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
    iteration = 0
    while not t.is_empty():
        iteration += 1
        failures = _zext_sweep(t, iteration == 1)
        if failures is not None and t.kind == "isom":
            back = _zext_sweep(invert_section_set(t), iteration == 1)
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
