"""Presheaves of k-local partial homomorphisms/isomorphisms and the classical
fixpoint algorithms deciding k-consistency and k-Weisfeiler-Leman equivalence.

A *context* is a sorted tuple of at most k elements of A.  A local section
over C is a map C -> B, stored as its value tuple s in context order (s[i] is
the image of C[i]); restricting it along the face without C[i] drops s[i].  A
`SectionSet` stores, for every context, the set of value tuples currently
alive: a section's context is its key and its kind (hom or isom) the set's.
The partial-map oracles in `structures` take their own validated (domain,
values, kind) section type; the engine never builds one.
`enumerate_sections` builds the full presheaf bottom-up, extending each
section at C[:-1] by one value for C[-1].  The classical algorithms
repeatedly remove sections that fail the forth (resp. bijective-forth)
extension property, together with everything extending them, until the set
is stable; acceptance means the fixpoint is non-empty, which by the
conventions here is equivalent to the empty section surviving.

Note on the parameter k: it is the pebble count / maximum context size.  The
algorithm called k-Weisfeiler-Leman here corresponds to what much of the
literature calls (k-1)-WL.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from typing import Callable, Iterable, Optional

from .matching import has_perfect_matching
from .structures import Structure

Context = tuple[int, ...]
Section = tuple[int, ...]  # the values of a local section, in context order


def all_contexts(n: int, k: int) -> list[Context]:
    """All sorted subsets of {0..n-1} of size <= k, ordered by (size, lex)."""
    out: list[Context] = []
    for size in range(min(n, k) + 1):
        out.extend(itertools.combinations(range(n), size))
    return out


class SectionSet:
    """A family of local sections indexed by contexts (a sub-presheaf candidate).

    The sections at a context C are value tuples: s[i] is the image of C[i].
    """

    def __init__(self, a: Structure, b: Structure, k: int, kind: str,
                 sections: Optional[dict[Context, set[Section]]] = None):
        if kind not in ("hom", "isom"):
            raise ValueError(f"bad kind {kind!r}")
        if k < 1:
            raise ValueError("k must be >= 1")
        self.a = a
        self.b = b
        self.k = k
        self.kind = kind
        if sections is None:
            sections = {c: set() for c in all_contexts(a.size, k)}
        self.sections = sections

    # -- basic queries ------------------------------------------------------

    def contexts(self) -> list[Context]:
        return sorted(self.sections, key=lambda c: (len(c), c))

    def at(self, context: Context) -> set[Section]:
        return self.sections[context]

    def total(self) -> int:
        return sum(len(v) for v in self.sections.values())

    def is_empty(self) -> bool:
        return self.total() == 0

    def max_level(self) -> int:
        return min(self.k, self.a.size)

    def per_size(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for c, v in self.sections.items():
            out[len(c)] = out.get(len(c), 0) + len(v)
        return out

    def copy(self) -> "SectionSet":
        return SectionSet(self.a, self.b, self.k, self.kind,
                          {c: set(v) for c, v in self.sections.items()})


def enumerate_sections(a: Structure, b: Structure, k: int, kind: str) -> SectionSet:
    """Enumerate all k-local partial homomorphisms (kind="hom") or partial
    isomorphisms (kind="isom") from a to b, organised by context.

    Every context of size <= k is present; the empty context carries exactly
    the empty section.  Built bottom-up: a section at C restricts to one at
    C[:-1], which comes earlier in (size, lex) order, so the sections at C are
    those at C[:-1] extended by a value for C[-1] such that every A-tuple
    inside C using C[-1] maps into B and, for isomorphisms, every other
    position tuple over C using C[-1] does not.  Tuples not using C[-1] were
    checked at C[:-1].
    """
    if a.signature != b.signature:
        raise ValueError("structures must share a signature")
    out = SectionSet(a, b, k, kind)
    out.sections[()].add(())
    # A-tuples by their largest element, the last one of any context holding them
    by_max: dict[int, list[tuple[str, tuple[int, ...]]]] = {}
    for name, _ in a.signature.symbols:
        for t in a.relations[name]:
            by_max.setdefault(max(t), []).append((name, t))
    for context in out.contexts()[1:]:
        pos_of = {e: i for i, e in enumerate(context)}
        # position tuple over C using C[-1] -> must its image be a B-tuple (iff
        # it is an A-tuple); a homomorphism only preserves, so checks the A-tuples
        expect = {(name, tuple(pos_of[e] for e in t)): True
                  for name, t in by_max.get(context[-1], ())
                  if all(e in pos_of for e in t)}
        if kind == "isom":
            for name, arity in a.signature.symbols:
                for p in itertools.product(range(len(context)), repeat=arity):
                    if len(context) - 1 in p:
                        expect.setdefault((name, p), False)
        checks = [(b.relations[name], p, want) for (name, p), want in expect.items()]
        for s in out.sections[context[:-1]]:
            for v in range(b.size):
                if kind == "isom" and v in s:
                    continue
                vals = s + (v,)
                if all((tuple(map(vals.__getitem__, p)) in rel) == want
                       for rel, p, want in checks):
                    out.sections[context].add(vals)
    return out


def forth_holds(s_set: SectionSet, c: Context, s: Section) -> bool:
    """Forth property: every element of A extends s by some value within the set.

    Only defined for sections with |c| < k.  For elements already in c the only
    admissible extension is the section itself.
    """
    if len(c) >= s_set.k:
        raise ValueError("forth is only defined for sections below size k")
    used = set(s) if s_set.kind == "isom" else ()
    for a in range(s_set.a.size):
        pos = bisect_left(c, a)
        if pos < len(c) and c[pos] == a:
            continue
        stored = s_set.sections[c[:pos] + (a,) + c[pos:]]
        head, tail = s[:pos], s[pos:]
        if not any(head + (bv,) + tail in stored
                   for bv in range(s_set.b.size) if bv not in used):
            return False
    return True


def bij_forth_holds(s_set: SectionSet, c: Context, s: Section) -> bool:
    """Bijective forth: one bijection A -> B must extend s pointwise within the set.

    Decided by maximum matching on the bipartite graph of admissible pairs.
    """
    if len(c) >= s_set.k:
        raise ValueError("bijective forth is only defined for sections below size k")
    n = s_set.a.size
    if n != s_set.b.size:
        raise ValueError("bijective forth requires equal universe sizes")
    alive = s in s_set.sections[c]
    used = set(s)
    adj: list[list[int]] = []
    for a in range(n):
        pos = bisect_left(c, a)
        if pos < len(c) and c[pos] == a:
            adj.append([s[pos]] if alive else [])
            continue
        stored = s_set.sections[c[:pos] + (a,) + c[pos:]]
        head, tail = s[:pos], s[pos:]
        adj.append([bv for bv in range(n) if bv not in used and
                    head + (bv,) + tail in stored])
    return has_perfect_matching(n, adj)


def _downward_close_inplace(s_set: SectionSet) -> list[tuple[Context, Section]]:
    """Keep only sections all of whose restrictions are present; ascending pass."""
    removed = []
    for c in s_set.contexts():
        subs = [s_set.sections[c[:i] + c[i + 1:]] for i in range(len(c))]
        secs = s_set.sections[c]
        doomed = [s for s in secs
                  if any(s[:i] + s[i + 1:] not in sub for i, sub in enumerate(subs))]
        for s in doomed:
            secs.discard(s)
            removed.append((c, s))
    return removed


def _remove_and_close(s_set: SectionSet, victims: Iterable[tuple[Context, Section]]
                      ) -> list[tuple[Context, Section]]:
    """Delete victims in place, then restore downward closure; returns all removals."""
    removed = []
    for c, s in victims:
        secs = s_set.sections[c]
        if s in secs:
            secs.discard(s)
            removed.append((c, s))
    removed.extend(_downward_close_inplace(s_set))
    return removed


def _affected_after_removal(s_set: SectionSet, removed: list[tuple[Context, Section]]
                            ) -> set[tuple[Context, Section]]:
    """Sections whose forth status may have changed: restrictions of removals."""
    dirty = set()
    for c, s in removed:
        for i in range(len(c)):
            sub, t = c[:i] + c[i + 1:], s[:i] + s[i + 1:]
            if t in s_set.sections[sub]:
                dirty.add((sub, t))
    return dirty


def _fixpoint(s_set: SectionSet, check: Callable[[SectionSet, Context, Section], bool],
              stats: Optional[list[dict[str, int]]] = None) -> SectionSet:
    """Greatest fixpoint of batched check-failure removal plus downward closure."""
    out = s_set.copy()
    _downward_close_inplace(out)
    dirty = {(c, s) for c in out.contexts() if len(c) < out.k
             for s in out.sections[c]}
    while dirty:
        failures = {(c, s) for c, s in dirty if not check(out, c, s)}
        if not failures:
            break
        removed = _remove_and_close(out, failures)
        if stats is not None:
            stats.append({"forth": len(failures),
                          "closure": len(removed) - len(failures)})
        dirty = {(c, s) for c, s in _affected_after_removal(out, removed)
                 if len(c) < out.k}
    return out


def classical_fixpoint(s_set: SectionSet,
                       stats: Optional[list[dict[str, int]]] = None) -> SectionSet:
    """Largest flasque sub-presheaf: iteratively drop forth failures (k-consistency)."""
    if s_set.kind != "hom":
        raise ValueError("classical_fixpoint expects kind=hom")
    return _fixpoint(s_set, forth_holds, stats)


def wl_fixpoint(s_set: SectionSet,
                stats: Optional[list[dict[str, int]]] = None) -> SectionSet:
    """Largest sub-presheaf with the bijective forth property (k-Weisfeiler-Leman)."""
    if s_set.kind != "isom":
        raise ValueError("wl_fixpoint expects kind=isom")
    if s_set.a.size != s_set.b.size:
        raise ValueError("wl_fixpoint requires equal universe sizes")
    return _fixpoint(s_set, bij_forth_holds, stats)
