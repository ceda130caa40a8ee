"""Finite relational structures, partial maps, and brute-force oracles.

Universes are always ``{0..n-1}``; external element names must be mapped to
dense indices before construction.  Relations are sets of ordered tuples, so a
symmetric relation has to list both orientations explicitly.
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
        rels = {name: frozenset(tuple(t) for t in relations.get(name, ()))
                for name, _ in signature.symbols}
        s = Structure(signature, size, rels)
        problems = validate_structure(s)
        if problems:
            raise StructureFormatError("; ".join(problems))
        return s

    def tuples(self, name: str) -> frozenset[tuple[int, ...]]:
        return self.relations[name]


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

    def inverse(self) -> "LocalSection":
        """Swap domain and values (only meaningful for injective sections)."""
        pairs = sorted(zip(self.values, self.domain))
        return LocalSection(tuple(b for b, _ in pairs), tuple(a for _, a in pairs),
                            self.kind)


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
    """True iff s is an injective partial hom that also reflects tuples from its image."""
    if len(set(s.values)) != len(s.values):
        return False
    if not is_partial_hom(s, a, b):
        return False
    img = set(s.values)
    inv = {v: d for d, v in zip(s.domain, s.values)}
    for name, _ in b.signature.symbols:
        a_rel = a.relations[name]
        for t in b.relations[name]:
            if all(e in img for e in t):
                if tuple(inv[e] for e in t) not in a_rel:
                    return False
    return True


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


def _hom_search(a: Structure, b: Structure, injective: bool, reflect: bool,
                budget: int) -> SearchResult:
    """Backtracking search for a total hom/iso, counting visited nodes against budget."""
    n = a.size
    # tuples become checkable once their last (max) element is assigned
    checks_at: list[list[tuple[str, tuple[int, ...]]]] = [[] for _ in range(max(n, 1))]
    for name, _ in a.signature.symbols:
        for t in a.relations[name]:
            if t:
                checks_at[max(t)].append((name, t))
    # for reflection: b-side tuples indexed by each member
    b_index: dict[int, list[tuple[str, tuple[int, ...]]]] = {}
    if reflect:
        for name, _ in b.signature.symbols:
            for t in b.relations[name]:
                for e in set(t):
                    b_index.setdefault(e, []).append((name, t))

    image: list[int] = [-1] * n
    inv: dict[int, int] = {}  # value -> preimage, for injective search
    budget_box = _Budget(budget)

    def ok(depth: int, val: int) -> bool:
        image[depth] = val
        try:
            for name, t in checks_at[depth]:
                if tuple(image[e] for e in t) not in b.relations[name]:
                    return False
            if reflect:
                inv[val] = depth
                try:
                    for name, t in b_index.get(val, ()):
                        if all(e in inv for e in t):
                            if tuple(inv[e] for e in t) not in a.relations[name]:
                                return False
                finally:
                    del inv[val]
            return True
        finally:
            image[depth] = -1

    def search(depth: int) -> Optional[str]:
        if depth == n:
            return "found"
        for val in range(b.size):
            if budget_box.spend():
                return "budget_exceeded"
            if injective and val in inv:
                continue
            if not ok(depth, val):
                continue
            image[depth] = val
            if injective:
                inv[val] = depth
            r = search(depth + 1)
            if r is not None:
                return r
            image[depth] = -1
            if injective:
                del inv[val]
        return None

    r = search(0)
    if r == "found":
        return SearchResult("found", tuple(image))
    if r == "budget_exceeded":
        return SearchResult("budget_exceeded", None)
    return SearchResult("none", None)


def brute_force_hom(a: Structure, b: Structure, budget: int = 10**7) -> SearchResult:
    """Exhaustive (pruned) search for a homomorphism A -> B.

    ``found`` implies the returned map is a homomorphism; ``none`` implies no
    homomorphism exists.  The search refuses to visit more than ``budget``
    nodes and returns ``budget_exceeded`` instead of running unbounded.
    """
    if a.size > 0 and b.size == 0:
        return SearchResult("none", None)
    return _hom_search(a, b, injective=False, reflect=False, budget=budget)


def brute_force_iso(a: Structure, b: Structure, budget: int = 10**7) -> SearchResult:
    """Exhaustive (pruned) search for an isomorphism, immediate none on size mismatch."""
    if a.size != b.size:
        return SearchResult("none", None)
    for name, _ in a.signature.symbols:
        if len(a.relations[name]) != len(b.relations[name]):
            return SearchResult("none", None)
    return _hom_search(a, b, injective=True, reflect=True, budget=budget)


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
    for name in rels:
        if name not in sig.names:
            raise StructureFormatError(f"relation {name!r} not declared in signature")
    return Structure.make(sig, size, rels)


def load_structure(path: str) -> Structure:
    with open(path, "r", encoding="utf-8") as f:
        return structure_from_json(f.read())


def save_structure(s: Structure, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(structure_to_json(s))
        f.write("\n")
