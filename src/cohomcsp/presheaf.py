"""Presheaves of k-local partial homomorphisms/isomorphisms and the classical
fixpoint algorithms deciding k-consistency and k-Weisfeiler-Leman equivalence.

A *context* is a sorted tuple of at most k elements of A.  A `SectionSet`
stores, for every context, the set of local sections currently alive.
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
from typing import Callable, Optional

from .matching import has_perfect_matching
from .structures import LocalSection, Structure

Context = tuple[int, ...]


def all_contexts(n: int, k: int) -> list[Context]:
    """All sorted subsets of {0..n-1} of size <= k, ordered by (size, lex)."""
    out: list[Context] = []
    for size in range(min(n, k) + 1):
        out.extend(itertools.combinations(range(n), size))
    return out


class SectionSet:
    """A family of local sections indexed by contexts (a sub-presheaf candidate)."""

    def __init__(self, a: Structure, b: Structure, k: int, kind: str,
                 sections: Optional[dict[Context, set[LocalSection]]] = None):
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
        self._ext_cache: dict[tuple[Context, int], tuple[Context, int]] = {}

    # -- basic queries ------------------------------------------------------

    def contexts(self) -> list[Context]:
        return sorted(self.sections, key=lambda c: (len(c), c))

    def at(self, context: Context) -> set[LocalSection]:
        return self.sections[context]

    def __contains__(self, s: LocalSection) -> bool:
        got = self.sections.get(s.domain)
        return got is not None and s in got

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

    def extension_target(self, context: Context, a: int) -> tuple[Context, int]:
        """Context obtained by inserting element a, and a's position in it."""
        key = (context, a)
        hit = self._ext_cache.get(key)
        if hit is None:
            pos = 0
            while pos < len(context) and context[pos] < a:
                pos += 1
            hit = (context[:pos] + (a,) + context[pos:], pos)
            self._ext_cache[key] = hit
        return hit


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
    out.sections[()].add(LocalSection((), (), kind))
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
                if kind == "isom" and v in s.values:
                    continue
                vals = s.values + (v,)
                if all((tuple(map(vals.__getitem__, p)) in rel) == want
                       for rel, p, want in checks):
                    out.sections[context].add(LocalSection(context, vals, kind))
    return out


def forth_holds(s_set: SectionSet, s: LocalSection) -> bool:
    """Forth property: every element of A extends s by some value within the set.

    Only defined for sections with |domain| < k.  For elements already in the
    domain the only admissible extension is the section itself.
    """
    if len(s.domain) >= s_set.k:
        raise ValueError("forth is only defined for sections below size k")
    dom = set(s.domain)
    used = set(s.values) if s.kind == "isom" else frozenset()
    for a in range(s_set.a.size):
        if a in dom:
            continue
        target, pos = s_set.extension_target(s.domain, a)
        stored = s_set.sections[target]
        head, tail = s.values[:pos], s.values[pos:]
        if not any(LocalSection(target, head + (bv,) + tail, s.kind) in stored
                   for bv in range(s_set.b.size) if bv not in used):
            return False
    return True


def bij_forth_holds(s_set: SectionSet, s: LocalSection) -> bool:
    """Bijective forth: one bijection A -> B must extend s pointwise within the set.

    Decided by maximum matching on the bipartite graph of admissible pairs.
    """
    if len(s.domain) >= s_set.k:
        raise ValueError("bijective forth is only defined for sections below size k")
    n = s_set.a.size
    if n != s_set.b.size:
        raise ValueError("bijective forth requires equal universe sizes")
    pinned = s.mapping()
    used = set(s.values)
    adj: list[list[int]] = []
    for a in range(n):
        if a in pinned:
            adj.append([pinned[a]] if s in s_set else [])
            continue
        target, pos = s_set.extension_target(s.domain, a)
        stored = s_set.sections[target]
        head, tail = s.values[:pos], s.values[pos:]
        adj.append([bv for bv in range(n) if bv not in used and
                    LocalSection(target, head + (bv,) + tail, s.kind) in stored])
    return has_perfect_matching(n, adj)


def _downward_close_inplace(s_set: SectionSet) -> list[LocalSection]:
    """Keep only sections all of whose restrictions are present; ascending pass."""
    removed = []
    for c in s_set.contexts():
        if not c:
            continue
        subs = [c[:i] + c[i + 1:] for i in range(len(c))]
        secs = s_set.sections[c]
        doomed = [s for s in secs
                  if any(restrict(s, sub) not in s_set.sections[sub] for sub in subs)]
        for s in doomed:
            secs.discard(s)
            removed.append(s)
    return removed


def _remove_and_close(s_set: SectionSet, victims: set[LocalSection]) -> list[LocalSection]:
    """Delete victims in place, then restore downward closure; returns all removals."""
    removed = []
    for v in victims:
        secs = s_set.sections[v.domain]
        if v in secs:
            secs.discard(v)
            removed.append(v)
    removed.extend(_downward_close_inplace(s_set))
    return removed


def _affected_after_removal(s_set: SectionSet,
                            removed: list[LocalSection]) -> set[LocalSection]:
    """Sections whose forth status may have changed: restrictions of removals."""
    dirty = set()
    for r in removed:
        c = r.domain
        for i in range(len(c)):
            sub = c[:i] + c[i + 1:]
            t = restrict(r, sub)
            if t in s_set.sections[sub]:
                dirty.add(t)
    return dirty


def _fixpoint(s_set: SectionSet, check: Callable[[SectionSet, LocalSection], bool],
              stats: Optional[list[dict[str, int]]] = None) -> SectionSet:
    """Greatest fixpoint of batched check-failure removal plus downward closure."""
    out = s_set.copy()
    _downward_close_inplace(out)
    dirty = {s for c in out.contexts() if len(c) < out.k
             for s in out.sections[c]}
    while dirty:
        failures = {s for s in dirty if not check(out, s)}
        if not failures:
            break
        removed = _remove_and_close(out, failures)
        if stats is not None:
            stats.append({"forth": len(failures),
                          "closure": len(removed) - len(failures)})
        dirty = {s for s in _affected_after_removal(out, removed)
                 if len(s.domain) < out.k}
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
