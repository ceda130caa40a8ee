"""Seeded instance sets for the benchmark, each with an answer known without
the deciders.

Every generator takes a ``random.Random`` seeded from the workload name and
the ``--seed`` argument, writes the structure files the CLI will read into
``workdir``, and returns the instances in the order one pass decides them.
The known answer comes from ``affine_solvable_brute`` (affine pool), charge
parity per connected component (Tseitin), or twist totals mod q (CFI).
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Optional

from cohomcsp.generators import (AffineSystem, CfiSpec, affine_solvable_brute,
                                 affine_to_instance, cfi_structure, flow_system,
                                 named_graph, random_instances, tseitin_system)
from cohomcsp.structures import Structure, save_structure

AFFINE_MODULI = (2, 3, 4)
FLOW_BASES = ("k4", "k33", "prism")
ORACLE_BUDGET = 10 ** 8


@dataclass
class Instance:
    """One decision of a pass: CLI arguments, or a structure pair for the oracle."""

    iid: str
    expected: bool                      # satisfiable / isomorphic
    argv: Optional[list[str]] = None    # cli.main arguments, without --out
    pair: Optional[tuple[Structure, Structure]] = None


def _csp_instance(workdir: str, label: str, system, expected: bool) -> Instance:
    a, b = affine_to_instance(system)
    pa = os.path.join(workdir, f"{label}_A.json")
    pb = os.path.join(workdir, f"{label}_B.json")
    save_structure(a, pa)
    save_structure(b, pb)
    return Instance(label, expected,
                    argv=["decide-csp", pa, pb, "--k", "3", "--compare"])


def _affine_system(rng: random.Random, q: int, nv: int, ne: int, planted: bool):
    return next(random_instances(rng.randrange(10 ** 9), "affine", count=1,
                                 q=q, nvars=nv, neqs=ne, planted=planted or None))


def _relabel(system: AffineSystem, perm: list[int]) -> AffineSystem:
    """The system with variable v renamed perm[v]; coefficients stay with
    their variables, so every equation keeps its shape."""
    return AffineSystem(system.q, system.variables, tuple(
        (coeffs, tuple(perm[v] for v in idx), b)
        for coeffs, idx, b in system.equations))


def affine_pool(rng: random.Random, workdir: str) -> list[Instance]:
    """102 systems: per modulus 14 planted, 14 random, 6 flow (criterion 1's mix).

    Criterion 1 draws the variable count (6..10), the equation count and
    (through the constants) whether a system is solvable.  Here those are
    stratified instead: variable counts alternate between 6 and 7, equation counts
    through the criterion's range, and random and flow systems come in a
    fixed solvable share (drawn again until the known answer matches the
    slot).  A pass of 102 takes 8 to 12 seconds, so two or three whole
    passes fill a run.

    The systems themselves are drawn from one fixed stream, and the seed
    draws an isomorphic copy: every system's variables renamed by a random
    permutation, and the pool in a random order.  Systems of one stratum
    differ up to tenfold in decision time, so with fresh systems per seed
    the pass median moved by up to a fifth between seeds; a renamed copy
    asks the deciders the same questions under other names, so the seeds
    differ in the order of the work and not in its amount.
    """
    draw = random.Random("affine-pool:systems")
    out = []
    for q in AFFINE_MODULI:
        for i in range(14):
            nv = 6 + i % 2
            ne = nv + (nv * (i * 3 // 14)) // 2             # nv, 1.5 nv, 2 nv
            out.append((f"z{q}-planted{i}", _affine_system(draw, q, nv, ne, True)))
        for i in range(14):
            nv = 6 + i % 2
            ne = nv - 2 + ((nv + 2) * (i * 3 // 14)) // 2   # nv-2 .. 2 nv
            # the sparsest 5 solvable, the other 9 not: the usual outcome at
            # each density, so a matching system turns up within a few draws
            want = i < 5
            for _ in range(1000):
                system = _affine_system(draw, q, nv, ne, False)
                if affine_solvable_brute(system) == want:
                    break
            else:
                raise RuntimeError(f"no random system with solvable={want}")
            out.append((f"z{q}-random{i}", system))
        for i in range(6):
            name = FLOW_BASES[i % len(FLOW_BASES)]
            base = named_graph(name)
            charge = {v: draw.randrange(q) for v in range(base.n)}
            # solvable iff the charges sum to 0 mod q: 3 solvable of 6
            total = 0 if i % 2 == 1 else draw.randrange(1, q)
            charge[base.n - 1] = (total - sum(charge.values())
                                  + charge[base.n - 1]) % q
            out.append((f"z{q}-flow{i}-{name}", flow_system(base, q, charge)))
    renamed = []
    for label, system in out:
        perm = list(range(system.variables))
        rng.shuffle(perm)
        renamed.append((label, _relabel(system, perm)))
    rng.shuffle(renamed)
    return [_csp_instance(workdir, label, system, affine_solvable_brute(system))
            for label, system in renamed]


def _even_charge_per_component(graph, charge: dict[int, int]) -> bool:
    """Tseitin solvability: every connected component has even total charge."""
    parent = list(range(graph.n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in graph.edge_list():
        parent[find(u)] = find(v)
    totals: dict[int, int] = {}
    for v, c in charge.items():
        totals[find(v)] = totals.get(find(v), 0) + c
    return all(t % 2 == 0 for t in totals.values())


def _has_triangle(graph) -> bool:
    edges = graph.edges
    return any((a, c) in edges
               for a, b in edges for c in graph.neighbors(b) if c > b)


TSEITIN_SIZES = (12, 20)


def tseitin_parity(rng: random.Random, workdir: str) -> list[Instance]:
    """Odd charge {0: 1} and zero charge on one random 3-regular graph per n.

    Graphs are drawn until one has a triangle, as most do at these sizes.
    The parity of the three edges leaving a triangle follows from its three
    vertex equations together, not from any one of them, so 3-local
    sections that break it survive the classical closure and the first
    Z-extendability sweep removes them: the zero-charge decision takes its
    two-sweep path.  Graphs without such a small cut decide in one sweep,
    and mixing the two made the pass time swing by half between seeds.
    Without n=16 a pass takes 12 to 16 seconds, so one or two whole passes
    fill a run.
    """
    out = []
    for n in TSEITIN_SIZES:
        graph = next(g for g in random_instances(rng.randrange(10 ** 9),
                                                 "regular", n=n, d=3)
                     if _has_triangle(g))
        for label, charge in (("odd", {0: 1}), ("zero", {})):
            out.append(_csp_instance(workdir, f"n{n}-{label}",
                                     tseitin_system(graph, charge),
                                     _even_charge_per_component(graph, charge)))
    return out


def _twist(rng: random.Random, base, q: int, total: int) -> CfiSpec:
    """A uniformly random twist of the base's edges with the given total mod q."""
    edges = base.edge_list()
    values = [rng.randrange(q) for _ in edges]
    values[-1] = (total - sum(values[:-1])) % q
    return CfiSpec(base, q, dict(zip(edges, values)))


def _total(spec: CfiSpec) -> int:
    return sum(spec.twist.values()) % spec.q


# (q, base, twist totals of the structures relative to the first, pairs)
CFI_BASES = ((2, "k4", (0, 1, 0), ((0, 1), (0, 2))),
             (3, "k3", (0, 1, 0, 1, 0, 1),
              ((0, 1), (0, 2), (2, 3), (1, 3), (4, 5), (3, 5))))


def cfi_iso(rng: random.Random, workdir: str) -> list[Instance]:
    """CFI twin and re-twist pairs at k=2.

    Each base gets structures with random twists whose totals alternate
    between t and t + 1, and pairs of them with equal totals (isomorphic)
    and with totals one apart (twins, not isomorphic): on K4 three
    structures and one pair of each kind, on K3 six structures and three
    pairs of each kind.  A K3 decision takes a few hundredths of the time of
    a K4 one, so the K4 pairs set the pass time, the throughput and p90,
    and the median is a K3 decision taken from a dozen or more samples; with
    a median among a few K4 decisions of 2 to 4 seconds it moved by a fifth
    between runs with the machine's swings.  A pass takes 5 to 9 seconds, so
    three to five whole passes fill a run.
    """
    out = []
    for q, name, offsets, pairs in CFI_BASES:
        base = named_graph(name)
        total = rng.randrange(q)
        specs = [_twist(rng, base, q, total + off) for off in offsets]
        paths = []
        for i, spec in enumerate(specs):
            path = os.path.join(workdir, f"cfi{q}-{name}-{i}.json")
            save_structure(cfi_structure(spec), path)
            paths.append(path)
        for i, j in pairs:
            out.append(Instance(
                f"cfi{q}-{name}-{i}{j}", _total(specs[i]) == _total(specs[j]),
                argv=["decide-iso", paths[i], paths[j], "--k", "2", "--compare"]))
    return out


ORACLE_ISO, ORACLE_NONISO = 94, 47


def oracle_iso(rng: random.Random, workdir: str) -> list[Instance]:
    """CFI_2(K4) twist pairs from criterion 4's family, two isomorphic per
    non-isomorphic one.

    The fixed 2:1 mix keeps the median on the fast isomorphic mode and the
    p90 on the slow non-isomorphic one, whatever the seed.  A pass of 141
    takes 9 to 16 seconds, so one to three whole passes fill a run.
    """
    base = named_graph("k4")
    edges = base.edge_list()
    n = 2 ** len(edges)
    bits = [tuple((v >> e) & 1 for e in range(len(edges))) for v in range(n)]
    same = [(i, j) for i in range(n) for j in range(i, n)
            if sum(bits[i]) % 2 == sum(bits[j]) % 2]
    diff = [(i, j) for i in range(n) for j in range(i, n)
            if sum(bits[i]) % 2 != sum(bits[j]) % 2]
    chosen = rng.sample(same, ORACLE_ISO) + rng.sample(diff, ORACLE_NONISO)
    rng.shuffle(chosen)
    structs: dict[int, Structure] = {}

    def struct(v: int) -> Structure:
        if v not in structs:
            structs[v] = cfi_structure(CfiSpec(base, 2, dict(zip(edges, bits[v]))))
        return structs[v]

    return [Instance(f"k4-{i}-{j}", sum(bits[i]) % 2 == sum(bits[j]) % 2,
                     pair=(struct(i), struct(j)))
            for i, j in chosen]


GENERATORS = {
    "affine-pool": affine_pool,
    "tseitin-parity": tseitin_parity,
    "cfi-iso": cfi_iso,
    "oracle-iso": oracle_iso,
}
