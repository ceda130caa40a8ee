"""Finite relational structures, partial maps, and brute-force oracles.

Universes are always ``{0..n-1}``; external element names must be mapped to
dense indices before construction.  Relations are sets of ordered tuples, so a
symmetric relation has to list both orientations explicitly.  Literals and
files alike are checked by `validate_structure`, undeclared relation names too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence


class StructureFormatError(ValueError):
    """Raised when a structure file or literal fails validation."""


@dataclass(frozen=True)
class Signature:
    """Ordered (name, arity) pairs: unique string names, arity >= 1."""

    symbols: tuple[tuple[str, int], ...]

    def __post_init__(self):
        seen = set()
        for name, arity in self.symbols:
            if type(name) is not str:
                raise StructureFormatError(f"relation name {name!r} is not a string")
            if name in seen:
                raise StructureFormatError(f"duplicate relation symbol {name!r}")
            seen.add(name)
            if arity < 1:
                raise StructureFormatError(f"symbol {name!r} has arity {arity} < 1")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.symbols)


@dataclass(frozen=True)
class Structure:
    """A finite relational structure over ``signature`` with universe {0..size-1}."""

    signature: Signature
    size: int
    relations: Mapping[str, frozenset[tuple[int, ...]]]

    @staticmethod
    def make(signature: Signature, size: int,
             relations: Mapping[str, Iterable[Sequence[int]]]) -> "Structure":
        """Build a structure, normalising tuple containers, and validate it."""
        rels = {name: frozenset() for name in signature.names}
        rels.update((name, frozenset(tuple(t) for t in ts))
                    for name, ts in relations.items())
        s = Structure(signature, size, rels)
        problems = validate_structure(s)
        if problems:
            raise StructureFormatError("; ".join(problems))
        return s


def validate_structure(s: Structure) -> list[str]:
    """Return every arity/range violation; an empty list means the structure is ok."""
    problems = []
    if s.size < 0:
        problems.append(f"negative size {s.size}")
    for name, arity in s.signature.symbols:
        for idx, t in enumerate(sorted(s.relations.get(name, ()))):
            if len(t) != arity:
                problems.append(
                    f"arity mismatch: symbol {name!r} tuple #{idx} has length "
                    f"{len(t)}, expected {arity}")
                continue
            for e in t:
                if not (0 <= e < s.size):
                    problems.append(
                        f"entry out of range: symbol {name!r} tuple #{idx} "
                        f"entry {e} not in [0, {s.size})")
    for name in s.relations:
        if name not in s.signature.names:
            problems.append(f"relation {name!r} not declared in signature")
    return problems


@dataclass(frozen=True)
class LocalSection:
    """A partial map A -> B given by parallel (domain, values) with sorted domain.

    ``kind`` is "hom" for partial homomorphisms and "isom" for partial
    isomorphisms; an isom section must be injective.
    """

    domain: tuple[int, ...]
    values: tuple[int, ...]
    kind: str = "hom"

    def __post_init__(self):
        if len(self.domain) != len(self.values):
            raise ValueError("domain and values must have equal length")
        if any(self.domain[i] >= self.domain[i + 1] for i in range(len(self.domain) - 1)):
            raise ValueError("domain must be strictly sorted")
        if self.kind not in ("hom", "isom"):
            raise ValueError(f"bad section kind {self.kind!r}")
        if self.kind == "isom" and len(set(self.values)) != len(self.values):
            raise ValueError("isom section must have pairwise distinct values")

    def mapping(self) -> dict[int, int]:
        return dict(zip(self.domain, self.values))


def _check_section_ranges(s: LocalSection, a: Structure, b: Structure) -> None:
    for e in s.domain:
        if not (0 <= e < a.size):
            raise ValueError(f"section domain element {e} outside universe of A")
    for e in s.values:
        if not (0 <= e < b.size):
            raise ValueError(f"section value {e} outside universe of B")


def is_partial_hom(s: LocalSection, a: Structure, b: Structure) -> bool:
    """True iff s preserves every related tuple of A lying inside its domain."""
    _check_section_ranges(s, a, b)
    dom = set(s.domain)
    m = s.mapping()
    for name, _ in a.signature.symbols:
        b_rel = b.relations[name]
        for t in a.relations[name]:
            if all(e in dom for e in t):
                if tuple(m[e] for e in t) not in b_rel:
                    return False
    return True


def is_partial_iso(s: LocalSection, a: Structure, b: Structure) -> bool:
    """True iff s is injective and both s and its inverse B -> A are partial homs."""
    if len(set(s.values)) != len(s.values) or not is_partial_hom(s, a, b):
        return False
    back = dict(zip(s.values, s.domain))
    image = tuple(sorted(back))
    return is_partial_hom(LocalSection(image, tuple(map(back.get, image))), b, a)


class SearchResult(NamedTuple):
    status: str  # "found" | "none" | "budget_exceeded"
    mapping: Optional[tuple[int, ...]]  # mapping[i] = image of element i


class _Budget:
    __slots__ = ("left",)

    def __init__(self, n: int):
        self.left = n

    def spend(self) -> bool:
        self.left -= 1
        return self.left < 0


def _hom_search(a: Structure, b: Structure, candidates: Sequence[Sequence[int]],
                injective: bool, budget: int) -> SearchResult:
    """Backtracking search for a total hom, injective if asked, that sends
    element i into candidates[i]; each tried value spends one unit of budget.
    A tuple of A is checked for preservation once its largest element is
    assigned.  Reflection is never checked (see `brute_force_iso`)."""
    n = a.size
    checks_at: list[list[tuple[tuple[int, ...], frozenset]]] = [[] for _ in range(n)]
    for name, _ in a.signature.symbols:
        rel = b.relations[name]
        for t in a.relations[name]:
            checks_at[max(t)].append((t, rel))
    image: list[int] = [-1] * n
    used: set[int] = set()  # values taken, for injective search
    budget_box = _Budget(budget)
    # depth-first search: stack[i] holds the candidates element i has left
    depth, stack = 0, []
    while depth < n:
        if depth == len(stack):
            stack.append(iter(candidates[depth]))
        for val in stack[depth]:
            if budget_box.spend():
                return SearchResult("budget_exceeded", None)
            if val in used:
                continue
            image[depth] = val
            if all(tuple([image[e] for e in t]) in rel
                   for t, rel in checks_at[depth]):
                break
        else:  # no candidate left: backtrack
            stack.pop()
            depth -= 1
            if depth < 0:
                return SearchResult("none", None)
            used.discard(image[depth])
            continue
        if injective:
            used.add(val)
        depth += 1
    return SearchResult("found", tuple(image))


def brute_force_hom(a: Structure, b: Structure, budget: int = 10**7) -> SearchResult:
    """Exhaustive (pruned) search for a homomorphism A -> B.

    ``found`` implies the returned map is a homomorphism; ``none`` implies no
    homomorphism exists.  The search refuses to visit more than ``budget``
    nodes and returns ``budget_exceeded`` instead of running unbounded.
    """
    if a.signature != b.signature:
        raise ValueError("structures must share a signature")
    return _hom_search(a, b, [range(b.size)] * a.size, False, budget)


def _profiles(s: Structure) -> list[tuple[int, ...]]:
    """Per element, how many tuples hold it at each (symbol, position) slot
    of the symbols that have tuples: its length does not grow with declared
    arities, and `brute_force_iso`'s precheck makes both sides skip the
    same symbols."""
    used = [(name, arity) for name, arity in s.signature.symbols
            if s.relations[name]]
    counts = [[0] * sum(arity for _, arity in used) for _ in range(s.size)]
    base = 0
    for name, arity in used:
        for t in s.relations[name]:
            for pos, e in enumerate(t, base):
                counts[e][pos] += 1
        base += arity
    return [tuple(c) for c in counts]


def brute_force_iso(a: Structure, b: Structure, budget: int = 10**7) -> SearchResult:
    """Exhaustive (pruned) search for an isomorphism A -> B.

    Returns ``none`` at once unless the sizes and every symbol's tuple count
    agree.  Past that check an injective total homomorphism is an
    isomorphism: it maps each relation of A injectively into the equally
    large relation of B, so onto it, and so reflects every tuple.  The search
    checks preservation only; its correctness rests on that precheck.  An
    isomorphism keeps each element's degree profile (its tuple count per
    symbol and position), so element i only tries the B elements with its
    profile.  A bijection that keeps profiles keeps every tuple count too, so
    the profile filter backs up the count half of the precheck.
    """
    if a.signature != b.signature:
        raise ValueError("structures must share a signature")
    if a.size != b.size or any(len(a.relations[name]) != len(b.relations[name])
                               for name in a.signature.names):
        return SearchResult("none", None)
    by_profile: dict[tuple[int, ...], list[int]] = {}
    for v, p in enumerate(_profiles(b)):
        by_profile.setdefault(p, []).append(v)
    return _hom_search(a, b, [by_profile.get(p, []) for p in _profiles(a)],
                       True, budget)


# --- JSON interchange -------------------------------------------------------
#
# {"signature":[{"name":"E","arity":2}],"size":4,"relations":{"E":[[0,1],[1,0]]}}

def structure_to_json(s: Structure) -> str:
    doc = {
        "signature": [{"name": n, "arity": a} for n, a in s.signature.symbols],
        "size": s.size,
        "relations": {n: sorted([list(t) for t in s.relations[n]])
                      for n, _ in s.signature.symbols},
    }
    return json.dumps(doc, sort_keys=True)


def _json_int(value, what: str) -> int:
    """value itself if it is a JSON integer; floats and booleans are refused."""
    if type(value) is not int:
        raise StructureFormatError(f"{what} must be an integer, got {value!r}")
    return value


def structure_from_json(text: str) -> Structure:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise StructureFormatError(f"invalid JSON: {e}") from e
    try:
        sig = Signature(tuple((d["name"], _json_int(d["arity"], "arity"))
                              for d in doc["signature"]))
        size = _json_int(doc["size"], "size")
        rels = {name: [tuple(_json_int(x, "tuple entry") for x in t) for t in ts]
                for name, ts in doc.get("relations", {}).items()}
    except (KeyError, TypeError, AttributeError) as e:
        raise StructureFormatError(f"malformed structure document: {e}") from e
    return Structure.make(sig, size, rels)


def load_structure(path: str) -> Structure:
    with open(path, "r", encoding="utf-8") as f:
        return structure_from_json(f.read())


def save_structure(s: Structure, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(structure_to_json(s))
        f.write("\n")
