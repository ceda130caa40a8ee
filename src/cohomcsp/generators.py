"""Instance generators: affine systems over Z_q as structure pairs, Tseitin
parity contradictions, the Cai-Furer-Immerman construction CFI_q(G, g), its
associated equation system, and the arity-3 reduction of CFI structures to
ring CSP instances.

All constructions are deterministic: gadget elements are indexed by their
value tables in lexicographic neighbour order, relation symbols carry
canonical names derived from their defining linear equation, and the random
families are driven by an explicit seed.  `cfi_structure` and `cfi_equations`
read one walk over gadget pairs (`_Gadgets.value_pairs`, `edge_pairs`).
"""

from __future__ import annotations

import itertools
import random
import re
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .structures import Signature, Structure


@dataclass(frozen=True)
class OrderedGraph:
    """Simple undirected graph on {0..n-1}; the vertex order is 0 < 1 < ... < n-1."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"negative vertex count {self.n}")
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u},{v}) not sorted or out of range")

    @staticmethod
    def make(n: int, edges: Iterable[Sequence[int]]) -> "OrderedGraph":
        return OrderedGraph(n, frozenset(tuple(sorted((int(u), int(v))))
                                         for u, v in edges))

    def edge_list(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def neighbors(self, v: int) -> list[int]:
        out = []
        for a, b in self.edges:
            if a == v:
                out.append(b)
            elif b == v:
                out.append(a)
        return sorted(out)

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))


def complete_graph(n: int) -> OrderedGraph:
    return OrderedGraph.make(n, itertools.combinations(range(n), 2))


def cycle_graph(n: int) -> OrderedGraph:
    if n < 3:
        raise ValueError(f"cycle graph c{n} needs at least 3 vertices")
    return OrderedGraph.make(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> OrderedGraph:
    return OrderedGraph.make(n, [(i, i + 1) for i in range(n - 1)])


def named_graph(name: str) -> OrderedGraph:
    """Small named bases used by the experiments."""
    name = name.lower()
    if name == "k3":
        return complete_graph(3)
    if name == "k4":
        return complete_graph(4)
    if name == "k33":
        return OrderedGraph.make(6, [(u, v) for u in range(3) for v in range(3, 6)])
    if name == "prism":
        return OrderedGraph.make(6, [(0, 1), (1, 2), (0, 2),
                                     (3, 4), (4, 5), (3, 5),
                                     (0, 3), (1, 4), (2, 5)])
    if name == "p3":
        return path_graph(3)
    if name.startswith("c") and name[1:].isascii() and name[1:].isdigit():
        return cycle_graph(int(name[1:]))
    raise ValueError(f"unknown graph name {name!r}")


def _is_prime_power(q: int) -> bool:
    if q < 2:
        return False
    p = 2
    while p * p <= q:
        if q % p == 0:
            while q % p == 0:
                q //= p
            return q == 1
        p += 1
    return True  # q itself prime


@dataclass(frozen=True)
class CfiSpec:
    """Parameters of CFI_q(G, g): ordered base graph, modulus, edge twists."""

    base: OrderedGraph
    q: int
    twist: Mapping[tuple[int, int], int]

    def __post_init__(self):
        if self.q < 2:
            raise ValueError("modulus must be at least 2")
        if not _is_prime_power(self.q):
            warnings.warn(f"q={self.q} is not a prime power; the construction "
                          "is defined, but the twist-total isomorphism "
                          "correspondence is only guaranteed for prime powers",
                          stacklevel=2)
        if set(self.twist) != set(self.base.edges):
            raise ValueError("twist must be defined on exactly the edge set")


def zero_twist(base: OrderedGraph, q: int, total: int = 0) -> CfiSpec:
    """Twist assigning `total` to the first edge and 0 elsewhere."""
    edges = base.edge_list()
    if not edges:
        raise ValueError("base graph has no edges")
    twist = {e: 0 for e in edges}
    twist[edges[0]] = total % q if q else total  # CfiSpec refuses q = 0
    return CfiSpec(base, q, twist)


@dataclass(frozen=True)
class AffineSystem:
    """A system of linear equations over Z_q.

    Each equation is (coefficients, variable indices, constant); variables may
    repeat within an equation.
    """

    q: int
    variables: int
    equations: tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...]

    def __post_init__(self):
        if self.q < 2:
            raise ValueError("modulus must be at least 2")
        for coeffs, idx, _ in self.equations:
            if len(coeffs) != len(idx) or not idx:
                raise ValueError("each equation needs >= 1 variable with coefficients")
            for v in idx:
                if not (0 <= v < self.variables):
                    raise ValueError(f"variable index {v} out of range")


def affine_solvable_brute(sys: AffineSystem) -> bool:
    """Exhaustive modular satisfiability by backtracking (test oracle)."""
    last_var_eqs: list[list[tuple[tuple[int, ...], tuple[int, ...], int]]] = \
        [[] for _ in range(sys.variables)]
    for eq in sys.equations:
        last_var_eqs[max(eq[1])].append(eq)
    assign = [0] * sys.variables

    def backtrack(v: int) -> bool:
        if v == sys.variables:
            return True
        for val in range(sys.q):
            assign[v] = val
            if all(sum(c * assign[i] for c, i in zip(coeffs, idx)) % sys.q == b % sys.q
                   for coeffs, idx, b in last_var_eqs[v]):
                if backtrack(v + 1):
                    return True
        return False

    return backtrack(0)


# --- ring CSP instances -------------------------------------------------------

def _shape_name(coeffs: tuple[int, ...], b: int) -> str:
    return f"E{len(coeffs)}_" + "_".join(str(c) for c in coeffs) + f"__{b}"


def _canonical_shape(q: int, coeffs: Sequence[int], b: int
                     ) -> tuple[tuple[int, ...], int]:
    return tuple(c % q for c in coeffs), b % q


def ring_structure(q: int, symbols: Sequence[tuple[Sequence[int], int]]) -> Structure:
    """The ring Z_q presented as a relational structure.

    For every requested (coefficients a, constant b) there is one relation of
    arity m = len(a) holding exactly the m-tuples r with sum a_i * r_i = b.
    """
    if q < 2:
        raise ValueError("modulus must be at least 2")
    shapes = sorted({_canonical_shape(q, a, b) for a, b in symbols},
                    key=lambda s: (len(s[0]), s[0], s[1]))
    sig = Signature(tuple((_shape_name(a, b), len(a)) for a, b in shapes))
    relations = {}
    for a, b in shapes:
        m = len(a)
        tuples = [t for t in itertools.product(range(q), repeat=m)
                  if sum(c * x for c, x in zip(a, t)) % q == b]
        relations[_shape_name(a, b)] = tuples
    return Structure.make(sig, q, relations)


def affine_to_instance(sys: AffineSystem) -> tuple[Structure, Structure]:
    """Encode an affine system as a CSP instance (A, B).

    B is the ring structure over the equation shapes occurring in the system;
    A has one element per variable and one related tuple per equation, so
    homomorphisms A -> B are exactly the solutions.
    """
    shapes = [_canonical_shape(sys.q, coeffs, b) for coeffs, _, b in sys.equations]
    b_struct = ring_structure(sys.q, shapes)
    relations: dict[str, list[tuple[int, ...]]] = \
        {name: [] for name, _ in b_struct.signature.symbols}
    for (coeffs, idx, b), shape in zip(sys.equations, shapes):
        relations[_shape_name(*shape)].append(tuple(idx))
    a_struct = Structure.make(b_struct.signature, sys.variables, relations)
    return a_struct, b_struct


def tseitin_system(graph: OrderedGraph, charge: Mapping[int, int]) -> AffineSystem:
    """Parity equations over Z_2: one variable per edge, one equation per vertex.

    Solvable iff every connected component has even total charge.  Vertices of
    degree zero are rejected (they would produce an empty equation).  This is
    `flow_system` over Z_2, where both edge signs are 1.
    """
    return flow_system(graph, 2, charge)


def flow_system(graph: OrderedGraph, q: int,
                charge: Mapping[int, int]) -> AffineSystem:
    """Signed incidence equations over Z_q: edge e = (u, v) with u < v enters v
    and leaves u, and each vertex demands inflow - outflow = charge(v).

    For a connected base this is solvable iff the charges sum to 0 mod q,
    generalising Tseitin contradictions to arbitrary moduli.
    """
    edges = graph.edge_list()
    edge_index = {e: i for i, e in enumerate(edges)}
    eqs = []
    for v in range(graph.n):
        nbrs = graph.neighbors(v)
        if not nbrs:
            raise ValueError(f"vertex {v} is isolated")
        idx, coeffs = [], []
        for u in nbrs:
            e = tuple(sorted((v, u)))
            idx.append(edge_index[e])
            coeffs.append(1 if e[1] == v else q - 1)
        eqs.append((tuple(coeffs), tuple(idx), charge.get(v, 0) % q))
    return AffineSystem(q, len(edges), tuple(eqs))


# --- the CFI construction -----------------------------------------------------

class _Gadgets:
    """Gadget elements of CFI_q(G, *): zero-sum value tables per vertex."""

    def __init__(self, base: OrderedGraph, q: int):
        self.base = base
        self.q = q
        self.neighbors = [base.neighbors(x) for x in range(base.n)]
        for x, nbrs in enumerate(self.neighbors):
            if not nbrs:
                raise ValueError(f"vertex {x} is isolated; gadget undefined")
        self.elements: list[list[tuple[int, ...]]] = []
        for x in range(base.n):
            deg = len(self.neighbors[x])
            elems = [t for t in itertools.product(range(q), repeat=deg)
                     if sum(t) % q == 0]
            self.elements.append(elems)
        self.offset = [0] * base.n
        for x in range(1, base.n):
            self.offset[x] = self.offset[x - 1] + len(self.elements[x - 1])
        self.size = self.offset[-1] + len(self.elements[-1])

    def eid(self, x: int, local: int) -> int:
        return self.offset[x] + local

    def value_pairs(self) -> Iterator[tuple[int, int, int, int, int]]:
        """(x, y, i, j, a_i[y] - a_j[y] mod q) for each vertex x, neighbour y and
        elements i, j of gadget x; same-value pairs have 0, cycle pairs 1."""
        for x in range(self.base.n):
            elems = self.elements[x]
            for pos, y in enumerate(self.neighbors[x]):
                for i, a in enumerate(elems):
                    for j, b in enumerate(elems):
                        yield x, y, i, j, (a[pos] - b[pos]) % self.q

    def edge_pairs(self, spec: CfiSpec) -> Iterator[tuple[int, int, int, int, int]]:
        """(x, i, y, j, c) for each base edge (x, y) and elements i of gadget
        x, j of gadget y, with c = a_i[y] + b_j[x] - twist(x, y) mod q."""
        for (x, y) in self.base.edge_list():
            tw = spec.twist[(x, y)]
            posxy = self.neighbors[x].index(y)
            posyx = self.neighbors[y].index(x)
            for i, a in enumerate(self.elements[x]):
                for j, b in enumerate(self.elements[y]):
                    yield x, i, y, j, (a[posxy] + b[posyx] - tw) % self.q


def cfi_structure(spec: CfiSpec) -> Structure:
    """The structure CFI_q(G, g): gadgets, a linear preorder between them,
    ternary same-value / cycle relations padded by a neighbour gadget, and
    binary edge relations shifted by the twist."""
    g = _Gadgets(spec.base, spec.q)
    q = spec.q
    sig = Signature((("prec", 2), ("RI", 3), ("RC", 3))
                    + tuple((f"RE{c}", 2) for c in range(q)))
    rels: dict[str, list[tuple[int, ...]]] = {name: [] for name in sig.names}
    for x in range(spec.base.n):
        for y in range(x + 1, spec.base.n):
            for i in range(len(g.elements[x])):
                for j in range(len(g.elements[y])):
                    rels["prec"].append((g.eid(x, i), g.eid(y, j)))
    for x, y, i, j, d in g.value_pairs():
        if d < 2:
            rels["RC" if d else "RI"].extend((g.eid(x, i), g.eid(x, j), g.eid(y, c))
                                             for c in range(len(g.elements[y])))
    for x, i, y, j, c in g.edge_pairs(spec):
        rels[f"RE{c}"] += [(g.eid(x, i), g.eid(y, j)), (g.eid(y, j), g.eid(x, i))]
    return Structure.make(sig, g.size, rels)


def cfi_equations(spec: CfiSpec) -> AffineSystem:
    """The linear system over Z_q whose solvability is equivalent to the total
    twist vanishing: variables w[(gadget element, neighbour)], equations from
    the zero-sum, same-value, cycle, and (twist-shifted) edge families."""
    g = _Gadgets(spec.base, spec.q)
    q = spec.q
    var_of: dict[tuple[int, int], int] = {}
    for x in range(spec.base.n):
        for i in range(len(g.elements[x])):
            for y in g.neighbors[x]:
                var_of[(g.eid(x, i), y)] = len(var_of)
    eqs = []
    # zero-sum within each gadget element
    for x in range(spec.base.n):
        for i in range(len(g.elements[x])):
            idx = tuple(var_of[(g.eid(x, i), y)] for y in g.neighbors[x])
            eqs.append(((1,) * len(idx), idx, 0))
    # same-value constraints once per pair, and cycle constraints
    for x, y, i, j, d in g.value_pairs():
        if d == 1 or (d == 0 and i < j):
            eqs.append(((1, q - 1),
                        (var_of[(g.eid(x, i), y)], var_of[(g.eid(x, j), y)]), d))
    # edge constraints, shifted by the twist
    for x, i, y, j, c in g.edge_pairs(spec):
        eqs.append(((1, 1),
                    (var_of[(g.eid(x, i), y)], var_of[(g.eid(y, j), x)]),
                    c))
    return AffineSystem(q, len(var_of), tuple(eqs))


def phi_interpretation(cfi: Structure, q: int) -> tuple[Structure, Structure]:
    """Reduce a CFI structure to a ring CSP instance with relations of arity <= 3.

    The produced pair (A, B) has B = Z_q with the used equation shapes and A a
    structure over variable elements w[a,b], z[a,b] for adjacent-gadget pairs,
    encoding: identification of w/z across gadget mates, the same-value /
    cycle / edge equations, and running-total chains which replace each
    gadget's zero-sum equation by three-variable steps along the neighbour
    order.  A homomorphism A -> B exists iff the underlying total twist is 0.
    """
    names = set(cfi.signature.names)
    needed = {"prec", "RI", "RC"} | {f"RE{c}" for c in range(q)}
    if not needed <= names:
        raise ValueError(f"structure is not CFI-shaped for q={q}: "
                         f"missing {sorted(needed - names)}")
    # recover gadgets from the preorder: same predecessor count = same gadget
    pred_count = [0] * cfi.size
    for (_, b) in cfi.relations["prec"]:
        pred_count[b] += 1
    levels = sorted(set(pred_count))
    gadget_of = [levels.index(pred_count[e]) for e in range(cfi.size)]
    n_gadgets = len(levels)
    members: list[list[int]] = [[] for _ in range(n_gadgets)]
    for e in range(cfi.size):
        members[gadget_of[e]].append(e)
    # gadget adjacency from the edge relations
    adjacent: set[tuple[int, int]] = set()
    for c in range(q):
        for (a, b) in cfi.relations[f"RE{c}"]:
            ga, gb = gadget_of[a], gadget_of[b]
            adjacent.add((ga, gb))
            adjacent.add((gb, ga))

    pairs = [(a, b) for a in range(cfi.size) for b in range(cfi.size)
             if (gadget_of[a], gadget_of[b]) in adjacent]
    w_of = {p: i for i, p in enumerate(pairs)}
    z_of = {p: len(pairs) + i for i, p in enumerate(pairs)}
    universe = 2 * len(pairs)

    eqs: list[tuple[tuple[int, ...], tuple[int, ...], int]] = []

    def emit(coeffs: tuple[int, ...], const: int, tup: tuple[int, ...]) -> None:
        eqs.append((coeffs, tup, const))

    # identify w/z across mates within the same neighbouring gadget
    for (a, b) in pairs:
        gb = gadget_of[b]
        for b2 in members[gb]:
            if b2 > b:
                emit((1, -1), 0, (w_of[(a, b)], w_of[(a, b2)]))
                emit((1, -1), 0, (z_of[(a, b)], z_of[(a, b2)]))
    # same-value and cycle equations
    for (a1, a2, c) in cfi.relations["RI"]:
        if a1 != a2:
            emit((1, -1), 0, (w_of[(a1, c)], w_of[(a2, c)]))
    for (a1, a2, c) in cfi.relations["RC"]:
        if a1 != a2:
            emit((1, -1), 1, (w_of[(a1, c)], w_of[(a2, c)]))
    # edge equations
    for c in range(q):
        for (a, b) in cfi.relations[f"RE{c}"]:
            emit((1, 1), c, (w_of[(a, b)], w_of[(b, a)]))
    # running totals along the neighbour-gadget order
    for a in range(cfi.size):
        nbr_gadgets = sorted({gadget_of[b] for (x, b) in pairs if x == a})
        if not nbr_gadgets:
            continue
        for b in members[nbr_gadgets[0]]:
            emit((1, -1), 0, (w_of[(a, b)], z_of[(a, b)]))
        for prev_g, cur_g in zip(nbr_gadgets, nbr_gadgets[1:]):
            for bp in members[prev_g]:
                for b in members[cur_g]:
                    emit((1, 1, -1), 0, (z_of[(a, bp)], w_of[(a, b)], z_of[(a, b)]))
        for b in members[nbr_gadgets[-1]]:
            emit((1,), 0, (z_of[(a, b)],))
    return affine_to_instance(AffineSystem(q, universe, tuple(eqs)))


# --- random families -----------------------------------------------------------

def random_instances(seed: int, family: str, count: Optional[int] = None,
                     **params) -> Iterator:
    """Deterministic stream of random instances of the given family.

    Families: "affine" (AffineSystem over Z_q, 2 or 3 variables per
    equation), "gnp" (Erdos-Renyi ordered graph), "regular" (d-regular via
    the pairing model with rejection), and "twist" (random edge twist for a
    given graph and modulus).  q < 2, neqs < 0, nvars < 0 (or 0 with
    equations), p outside [0, 1] and d < 0 raise before any draw.
    """
    rng = random.Random(seed)
    steps = itertools.count() if count is None else range(count)
    if family == "affine":
        q = params["q"]
        nvars = params["nvars"]
        neqs = params["neqs"]
        planted = params.get("planted")
        if q < 2 or neqs < 0 or nvars < 0 or (nvars == 0 and neqs > 0):
            raise ValueError(f"need q >= 2, neqs >= 0 and nvars >= 0 (>= 1 with "
                             f"equations), got q={q}, neqs={neqs}, nvars={nvars}")
        for _ in steps:
            solution = [rng.randrange(q) for _ in range(nvars)]
            eqs = []
            for _ in range(neqs):
                w = rng.randint(2, 3)
                idx = tuple(sorted(rng.sample(range(nvars), min(w, nvars))))
                coeffs = tuple(rng.randrange(1, q) for _ in idx)
                if planted:
                    b = sum(c * solution[v] for c, v in zip(coeffs, idx)) % q
                else:
                    b = rng.randrange(q)
                eqs.append((coeffs, idx, b))
            yield AffineSystem(q, nvars, tuple(eqs))
    elif family == "gnp":
        n = params["n"]
        p = params["p"]
        if not 0 <= p <= 1:
            raise ValueError(f"gnp needs 0 <= p <= 1, got p={p}")
        for _ in steps:
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < p]
            yield OrderedGraph.make(n, edges)
    elif family == "regular":
        n = params["n"]
        d = params["d"]
        if d < 0 or (n * d) % 2 != 0 or d >= n:
            raise ValueError(f"d-regular needs 0 <= d < n={n} and n*d even, got d={d}")
        for _ in steps:
            yield _random_regular(rng, n, d)
    elif family == "twist":
        base: OrderedGraph = params["graph"]
        q = params["q"]
        for _ in steps:
            yield CfiSpec(base, q,
                          {e: rng.randrange(q) for e in base.edge_list()})
    else:
        raise ValueError(f"unknown family {family!r}")


def _random_regular(rng: random.Random, n: int, d: int) -> OrderedGraph:
    """Pairing model: retry until the pairing yields a simple d-regular graph."""
    stubs = [v for v in range(n) for _ in range(d)]
    while True:
        rng.shuffle(stubs)
        edges = set()
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v or tuple(sorted((u, v))) in edges:
                break
            edges.add(tuple(sorted((u, v))))
        else:
            return OrderedGraph.make(n, edges)


# --- graph text format ----------------------------------------------------------
#
# First line: n.  Then one `u v` line per edge.

def graph_to_text(graph: OrderedGraph) -> str:
    lines = [str(graph.n)]
    lines.extend(f"{u} {v}" for u, v in graph.edge_list())
    return "\n".join(lines) + "\n"


def _graph_int(token: str) -> int:
    """token as an int if it is ASCII digits with an optional minus sign (a
    negative count reaches OrderedGraph's error); int() also takes "1_0",
    "+4" and non-ASCII digits."""
    if not re.fullmatch(r"-?[0-9]+", token):
        raise ValueError(f"graph file numbers must be ASCII integers: {token!r}")
    return int(token)


def graph_from_text(text: str) -> OrderedGraph:
    r"""Lines end at "\n" or "\r\n", fields at spaces and tabs (not U+2028, U+00A0)."""
    lines = [ln for ln in (raw.removesuffix("\r").strip(" \t")
                           for raw in text.split("\n")) if ln]
    if not lines:
        raise ValueError("empty graph file")
    n = _graph_int(lines[0])
    edges = []
    for ln in lines[1:]:
        parts = re.split(r"[ \t]+", ln)
        if len(parts) != 2:
            raise ValueError(f"graph edge line must be two integers: {ln!r}")
        edges.append((_graph_int(parts[0]), _graph_int(parts[1])))
    return OrderedGraph.make(n, edges)
