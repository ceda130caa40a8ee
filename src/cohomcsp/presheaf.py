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
section at C[:-1] by one value for C[-1] that maps the A-tuples through C[-1]
into B; for a partial isomorphism the value is new and the B-tuples through
it inside the image are exactly as many, counted by element set, so the cost
does not grow with declared arities.  Contexts whose last element has the
same atomic type share the extensions of a prefix.  Forth and bijective forth
read a section's cofaces C + a, a in A, through one probe.  The classical
algorithms repeatedly remove the sections failing the check, with everything
extending them (downward closure), until the set is stable.  `_propagate`,
the one place that removes sections, does this in place from given removals;
the cohomological run starts it from the sections that are not Z-extendable.
Acceptance means the fixpoint is non-empty, which by the conventions here is
equivalent to the empty section surviving.

Note on the parameter k: it is the pebble count / maximum context size.  The
algorithm called k-Weisfeiler-Leman here corresponds to what much of the
literature calls (k-1)-WL.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Collection, Optional

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
    those at C[:-1] extended by a value v for C[-1] such that every A-tuple
    inside C using C[-1] maps into B and, for isomorphisms, v is new and the
    B-tuples of all symbols inside the image using v are as many: the
    injective extension maps those A-tuples one to one into them, so it
    reflects them iff the counts agree.  Tuples not using C[-1] were checked
    at C[:-1].  So the extensions of a prefix depend only on the atomic type
    of C[-1] in C, the (symbol, position tuple) pairs of those A-tuples:
    contexts of one type share them, added in the same order.
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
    # B-tuples of every symbol by element set, counted for isomorphisms
    in_b = Counter(frozenset(t) for rel in b.relations.values() for t in rel)
    # atomic type of C[-1] in C -> prefix section -> its one-value extensions
    shared: dict[frozenset, dict[Section, list[Section]]] = {}
    for context in out.contexts()[1:]:
        pos_of = {e: i for i, e in enumerate(context)}
        atoms = frozenset((name, tuple(pos_of[e] for e in t))
                          for name, t in by_max.get(context[-1], ())
                          if all(e in pos_of for e in t))
        known = shared.setdefault(atoms, {})
        keep, checks = out.sections[context], None
        for s in out.sections[context[:-1]]:
            ext = known.get(s)
            if ext is None:
                if checks is None:
                    checks = [(b.relations[name], p) for name, p in atoms]
                    # one position tuple per subset of C holding C[-1]
                    spans = [p + (len(s),) for r in range(len(s) + 1)
                             for p in itertools.combinations(range(len(s)), r)]
                ext = known[s] = []
                for v in range(b.size):
                    vals = s + (v,)
                    if kind == "isom" and v in s or not all(
                            tuple(map(vals.__getitem__, p)) in rel for rel, p in checks):
                        continue
                    if kind == "hom" or len(checks) == sum(
                            in_b[frozenset(map(vals.__getitem__, p))] for p in spans):
                        ext.append(vals)
            keep.update(ext)
    return out


def _cofaces(s_set: SectionSet, c: Context, s: Section):
    """For s stored at c, |c| < k, and each element a of A in turn: (None,
    None, None) when a is in c, else the sections stored at c + a and s split
    where a goes, as (stored, head, tail); s extends at a to head + (v,) + tail."""
    if len(c) >= s_set.k:
        raise ValueError("forth is only defined for sections below size k")
    pos, head, tail = 0, (), s  # pos counts the elements of c below a
    for a in range(s_set.a.size):
        if pos < len(c) and c[pos] == a:
            pos += 1
            head, tail = s[:pos], s[pos:]
            yield None, None, None
        else:
            yield s_set.sections[c[:pos] + (a,) + c[pos:]], head, tail


def forth_holds(s_set: SectionSet, c: Context, s: Section) -> bool:
    """Forth property: every element of A outside c extends s by some value
    within the set.  Only defined for a section s stored at c with |c| < k."""
    values = range(s_set.b.size)
    for stored, head, tail in _cofaces(s_set, c, s):
        if stored is not None and not any(head + (v,) + tail in stored
                                          for v in values):
            return False
    return True


def bij_forth_holds(s_set: SectionSet, c: Context, s: Section) -> bool:
    """Bijective forth: one bijection A -> B extends s pointwise within the set,
    i.e. the bipartite graph of admissible pairs has a perfect matching.  s is
    stored at c, |c| < k: an element of c admits only its own value, and no
    stored extension repeats a value of s (it would not be injective)."""
    n = s_set.a.size
    if n != s_set.b.size:
        raise ValueError("bijective forth requires equal universe sizes")
    own = iter(s)  # the values of the elements of c, met in context order
    adj = [[next(own)] if stored is None else
           [v for v in range(n) if head + (v,) + tail in stored]
           for stored, head, tail in _cofaces(s_set, c, s)]
    return has_perfect_matching(n, adj)


def _propagate(s_set: SectionSet, failures: Collection[tuple[Context, Section]],
               log: list[dict[str, int]]) -> None:
    """Remove the stored sections `failures` in place, restore downward
    closure, and repeat with the sections now failing the check of the set's
    kind (forth for hom, bijective forth for isom) until none fails: the
    greatest sub-presheaf without the failures that is closed under the check,
    when s_set was downward closed and every other section below k passed the
    check before the call.  No other function removes sections.

    Closure is one ascending scan dropping each section with a face
    restriction not stored, past the contexts no larger than the smallest
    removal (they keep theirs).  Only restrictions of removed sections can
    start failing, so only they are checked again.  Each round logs its
    {"forth", "closure"} removals; the first "forth" counts `failures`.
    """
    check = bij_forth_holds if s_set.kind == "isom" else forth_holds
    while failures:
        for c, s in failures:
            s_set.sections[c].discard(s)
        above, closed = min(len(c) for c, _ in failures), []
        for c in s_set.contexts():
            if len(c) <= above:
                continue
            subs = [s_set.sections[c[:i] + c[i + 1:]] for i in range(len(c))]
            secs = s_set.sections[c]
            doomed = [s for s in secs
                      if any(s[:i] + s[i + 1:] not in sub for i, sub in enumerate(subs))]
            for s in doomed:
                secs.discard(s)
                closed.append((c, s))
        log.append({"forth": len(failures), "closure": len(closed)})
        if () not in s_set.sections[()]:  # the closure removed everything
            break
        dirty = {(c[:i] + c[i + 1:], s[:i] + s[i + 1:])
                 for c, s in itertools.chain(failures, closed)
                 for i in range(len(c))}
        failures = [(c, s) for c, s in dirty
                    if s in s_set.sections[c] and not check(s_set, c, s)]


def _fixpoint(s_set: SectionSet,
              stats: Optional[list[dict[str, int]]] = None) -> SectionSet:
    """Greatest fixpoint of the check of s_set's kind below s_set, which must
    be downward closed (as enumeration leaves it); logs rounds to stats."""
    out = s_set.copy()
    check = bij_forth_holds if out.kind == "isom" else forth_holds
    failures = [(c, s) for c in out.contexts() if len(c) < out.k
                for s in out.sections[c] if not check(out, c, s)]
    _propagate(out, failures, [] if stats is None else stats)
    return out


def classical_fixpoint(s_set: SectionSet,
                       stats: Optional[list[dict[str, int]]] = None) -> SectionSet:
    """Largest flasque sub-presheaf: iteratively drop forth failures (k-consistency)."""
    if s_set.kind != "hom":
        raise ValueError("classical_fixpoint expects kind=hom")
    return _fixpoint(s_set, stats)


def wl_fixpoint(s_set: SectionSet,
                stats: Optional[list[dict[str, int]]] = None) -> SectionSet:
    """Largest sub-presheaf with the bijective forth property (k-Weisfeiler-Leman)."""
    if s_set.kind != "isom":
        raise ValueError("wl_fixpoint expects kind=isom")
    if s_set.a.size != s_set.b.size:
        raise ValueError("wl_fixpoint requires equal universe sizes")
    return _fixpoint(s_set, stats)
