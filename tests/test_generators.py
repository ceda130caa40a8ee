import hashlib
import itertools
import json
import random
import re

import pytest

from cohomcsp import (AffineSystem, CfiSpec, OrderedGraph,
                      affine_solvable_brute, affine_to_instance,
                      brute_force_hom, brute_force_iso, cfi_equations,
                      cfi_structure, cycle_graph, graph_from_text,
                      graph_to_text, named_graph, path_graph,
                      phi_interpretation, random_instances, ring_structure,
                      structure_to_json, tseitin_system, zero_twist)
from cohomcsp.generators import flow_system
from reference import affine_solvable_mod


def all_twists(base, q):
    edges = base.edge_list()
    for values in itertools.product(range(q), repeat=len(edges)):
        yield CfiSpec(base, q, dict(zip(edges, values)))


def twist_total(spec):
    return sum(spec.twist.values()) % spec.q


def test_ring_structure_examples():
    b = ring_structure(2, [((1, 1), 0)])
    name = b.signature.names[0]
    assert b.relations[name] == {(0, 0), (1, 1)}
    b3 = ring_structure(2, [((1, 1, 1), 1)])
    assert len(b3.relations[b3.signature.names[0]]) == 4
    b4 = ring_structure(4, [((2,), 1)])
    assert b4.relations[b4.signature.names[0]] == frozenset()
    with pytest.raises(ValueError):
        ring_structure(1, [])


def test_ring_relation_sizes_with_unit_coefficient():
    for q in (2, 3, 4):
        for m in (1, 2, 3):
            coeffs = tuple([1] + [q - 1] * (m - 1))
            b = ring_structure(q, [(coeffs, 1)])
            assert len(b.relations[b.signature.names[0]]) == q ** (m - 1)


def test_affine_to_instance_round_trip():
    solvable = AffineSystem(2, 3, (((1, 1), (0, 1), 0), ((1, 1), (1, 2), 1)))
    a, b = affine_to_instance(solvable)
    assert brute_force_hom(a, b).status == "found"
    contradiction = AffineSystem(2, 2, (((1, 1), (0, 1), 0), ((1, 1), (0, 1), 1)))
    a2, b2 = affine_to_instance(contradiction)
    assert brute_force_hom(a2, b2).status == "none"
    # one symbol per distinct (a, b) shape
    assert len(a2.signature.symbols) == 2


def test_affine_round_trip_matches_modular_brute(rng):
    for _ in range(25):
        q = rng.choice((2, 3, 4))
        sys_ = next(random_instances(rng.randrange(10**6), "affine", count=1,
                                     q=q, nvars=rng.randint(2, 5),
                                     neqs=rng.randint(1, 6)))
        truth = affine_solvable_brute(sys_)
        assert affine_solvable_mod(sys_) == truth
        a, b = affine_to_instance(sys_)
        assert (brute_force_hom(a, b).status == "found") == truth


def test_tseitin():
    k4 = named_graph("k4")
    assert affine_solvable_brute(tseitin_system(k4, {}))
    assert not affine_solvable_brute(tseitin_system(k4, {0: 1}))
    c4 = cycle_graph(4)
    sys_ = tseitin_system(c4, {0: 1, 1: 1})
    assert affine_solvable_brute(sys_)
    # the edge between the two charged vertices flips both parities
    x = [1, 0, 0, 0]
    assert all(sum(c * x[v] for c, v in zip(coeffs, idx)) % 2 == b
               for coeffs, idx, b in sys_.equations)
    with pytest.raises(ValueError):
        tseitin_system(OrderedGraph.make(3, [(0, 1)]), {})


def test_tseitin_component_parity(rng):
    for _ in range(20):
        g = next(random_instances(rng.randrange(10**6), "gnp", count=1,
                                  n=5, p=0.6))
        if any(g.degree(v) == 0 for v in range(g.n)):
            continue
        charge = {v: rng.randint(0, 1) for v in range(g.n)}
        comp = _components(g)
        expect = all(sum(charge[v] for v in c) % 2 == 0 for c in comp)
        assert affine_solvable_brute(tseitin_system(g, charge)) == expect
        assert tseitin_system(g, charge) == flow_system(g, 2, charge)


def _components(g):
    seen, comps = set(), []
    for v in range(g.n):
        if v in seen:
            continue
        stack, comp = [v], []
        while stack:
            u = stack.pop()
            if u in seen:
                continue
            seen.add(u)
            comp.append(u)
            stack.extend(g.neighbors(u))
        comps.append(comp)
    return comps


def test_flow_system_solvable_iff_zero_total():
    for q in (2, 3, 4):
        for name in ("k4", "c4", "k33"):
            g = named_graph(name)
            for total in range(q):
                charge = {0: total}
                sys_ = flow_system(g, q, charge)
                assert affine_solvable_mod(sys_) == (total % q == 0)


def test_cfi_structure_sizes():
    s = cfi_structure(zero_twist(named_graph("k4"), 2))
    assert s.size == 16
    t = cfi_structure(zero_twist(named_graph("k3"), 3))
    assert t.size == 9
    with pytest.raises(ValueError):
        cfi_structure(zero_twist(OrderedGraph.make(3, [(0, 1)]), 2))


def test_cfi_preorder_and_adjacency():
    spec = zero_twist(named_graph("k3"), 2)
    s = cfi_structure(spec)
    prec = s.relations["prec"]
    # linear preorder: exactly the cross-gadget ordered pairs, gadgets of size 2
    gadget = [e // 2 for e in range(s.size)]
    for a, b in itertools.product(range(s.size), repeat=2):
        assert ((a, b) in prec) == (gadget[a] < gadget[b])
    for c in range(2):
        for a, b in s.relations[f"RE{c}"]:
            assert gadget[a] != gadget[b]
    # on a path base, RE must only relate gadgets of adjacent base vertices
    p = cfi_structure(zero_twist(path_graph(3), 2))
    bounds = [0, 1, 3, 4]  # gadget sizes q^(deg-1) = 1, 2, 1
    gadget_p = [next(i for i in range(3) if bounds[i] <= e < bounds[i + 1])
                for e in range(p.size)]
    for c in range(2):
        for a, b in p.relations[f"RE{c}"]:
            assert abs(gadget_p[a] - gadget_p[b]) == 1


def test_cfi_iso_iff_equal_totals_small():
    base = path_graph(3)
    structs = {}
    for spec in all_twists(base, 2):
        structs[tuple(sorted(spec.twist.items()))] = (
            twist_total(spec), cfi_structure(spec))
    items = list(structs.values())
    for (t1, s1), (t2, s2) in itertools.combinations(items, 2):
        assert (brute_force_iso(s1, s2).status == "found") == (t1 == t2)


def test_cfi_equations_variable_count_and_solvability():
    for name, q in (("k4", 2), ("k3", 3), ("c4", 4)):
        g = named_graph(name)
        expected_vars = sum(q ** (g.degree(u) - 1) * g.degree(u)
                            for u in range(g.n))
        for total in range(q):
            spec = zero_twist(g, q, total)
            sys_ = cfi_equations(spec)
            assert sys_.variables == expected_vars
            assert affine_solvable_mod(sys_) == (total % q == 0)


def test_cfi_equations_exhaustive_small_base():
    base = path_graph(3)
    for q in (2, 3):
        for spec in all_twists(base, q):
            sys_ = cfi_equations(spec)
            assert affine_solvable_brute(sys_) == (twist_total(spec) == 0)


def test_cfi_equations_random_bases_up_to_5_vertices(rng):
    trials = 0
    while trials < 12:
        n = rng.randint(2, 5)
        g = next(random_instances(rng.randrange(10**6), "gnp", count=1,
                                  n=n, p=0.7))
        if any(g.degree(v) == 0 for v in range(g.n)) or not _connected(g):
            continue
        trials += 1
        q = rng.choice((2, 3, 4))
        r = random.Random(rng.randrange(10**6))
        spec = CfiSpec(g, q, {e: r.randrange(q) for e in g.edge_list()})
        assert affine_solvable_mod(cfi_equations(spec)) == \
               (twist_total(spec) == 0)


# sha256 prefixes of structure_to_json(cfi_structure(spec)) and of
# json.dumps([q, variables, equations]) of cfi_equations(spec), recorded before
# both builders were moved onto one walk over gadget pairs
CFI_DIGESTS = {
    ("k4", 2, 0): ("1683771df571b761", "e7910392ae8b03c2"),
    ("k4", 2, 1): ("1d121107c6bd3a27", "e165f01210d22b79"),
    ("k3", 3, 0): ("e63e180f6ce74d47", "1f502ff8c90e500f"),
    ("k3", 3, 1): ("9cb4b915f49568b7", "0a01f88b6d3c1534"),
    ("k33", 2, 0): ("35b936561b01be86", "85b91d5e7c873a07"),
    ("k33", 2, 1): ("e1eae15a194c3a5b", "2a0c1e17837ea968"),
    ("prism", 2, 0): ("c3876adb52e4b1a9", "9faf6cc96a1dbd6c"),
    ("prism", 2, 1): ("618431453af22717", "78e33ff019491185"),
}

# sha256 prefixes of structure_to_json of A and of B from
# phi_interpretation(cfi_structure(spec), q), recorded before Phi was encoded
# through affine_to_instance
PHI_DIGESTS = {
    ("k4", 2, 0): ("b41c014f7e20b821", "022b108d43664e90"),
    ("k4", 2, 1): ("eca33b6cc82fef2d", "022b108d43664e90"),
    ("k3", 3, 0): ("721d64fbba4fad6e", "4be42924af2660a7"),
    ("k3", 3, 1): ("3b90f351804bec97", "4be42924af2660a7"),
    ("k33", 2, 0): ("7f89a10775766e33", "022b108d43664e90"),
    ("k33", 2, 1): ("3868dcf8d0487f55", "022b108d43664e90"),
}


def _sha16(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("key", sorted(CFI_DIGESTS))
def test_cfi_builders_match_recorded_digests(key):
    """Same relations, and the same equations in the same order; Phi gives
    the same pair of structures."""
    name, q, total = key
    spec = zero_twist(named_graph(name), q, total)
    sys_ = cfi_equations(spec)
    digests = (_sha16(structure_to_json(cfi_structure(spec))),
               _sha16(json.dumps([sys_.q, sys_.variables, sys_.equations])))
    assert digests == CFI_DIGESTS[key]
    if key in PHI_DIGESTS:
        pair = phi_interpretation(cfi_structure(spec), q)
        assert tuple(_sha16(structure_to_json(s)) for s in pair) == \
            PHI_DIGESTS[key]


def _connected(g):
    return len(_components(g)) == 1


def test_phi_interpretation_arity_and_correctness():
    for q, name in ((2, "p3"), (3, "p3"), (2, "k3")):
        g = named_graph(name)
        for total in range(q):
            spec = zero_twist(g, q, total)
            cfi = cfi_structure(spec)
            a, b = phi_interpretation(cfi, q)
            assert a.signature == b.signature
            assert max(ar for _, ar in a.signature.symbols) <= 3
            hom = brute_force_hom(a, b, budget=10**7)
            assert hom.status in ("found", "none")
            assert (hom.status == "found") == (total % q == 0), (q, name, total)


def test_phi_matches_equation_solvability(rng):
    for _ in range(4):
        g = next(random_instances(rng.randrange(10**6), "gnp", count=1,
                                  n=4, p=0.7))
        if any(g.degree(v) == 0 for v in range(g.n)):
            continue
        r = random.Random(rng.randrange(10**6))
        spec = CfiSpec(g, 2, {e: r.randrange(2) for e in g.edge_list()})
        a, b = phi_interpretation(cfi_structure(spec), 2)
        eq_solvable = affine_solvable_mod(cfi_equations(spec))
        assert (brute_force_hom(a, b, budget=10**7).status == "found") == eq_solvable


def test_phi_rejects_non_cfi_input():
    from conftest import complete_structure
    with pytest.raises(ValueError, match="CFI-shaped"):
        phi_interpretation(complete_structure(3), 2)


def test_random_instances_deterministic():
    a1 = list(random_instances(42, "affine", count=3, q=3, nvars=5, neqs=4))
    a2 = list(random_instances(42, "affine", count=3, q=3, nvars=5, neqs=4))
    assert a1 == a2
    empty = next(random_instances(1, "affine", count=1, q=2, nvars=3, neqs=0))
    assert empty.equations == ()
    no_vars = next(random_instances(1, "affine", count=1, q=2, nvars=0, neqs=0))
    assert no_vars == AffineSystem(2, 0, ()) and affine_solvable_brute(no_vars)
    assert {len(next(random_instances(1, "gnp", count=1, n=4, p=p)).edge_list())
            for p in (0, 1)} == {0, 6}
    g1 = list(random_instances(7, "regular", count=2, n=6, d=3))
    g2 = list(random_instances(7, "regular", count=2, n=6, d=3))
    assert g1 == g2
    for g in g1:
        assert all(g.degree(v) == 3 for v in range(g.n))
    with pytest.raises(ValueError):
        next(random_instances(1, "regular", count=1, n=5, d=3))
    # bad parameters are refused before anything is drawn, naming the parameter
    for family, params, name in (("regular", dict(n=5, d=-2), "d=-2"),
                                 ("affine", dict(q=2, nvars=3, neqs=-1), "neqs=-1"),
                                 ("affine", dict(q=1, nvars=3, neqs=2), "q=1"),
                                 ("affine", dict(q=2, nvars=-1, neqs=2), "nvars=-1"),
                                 ("affine", dict(q=2, nvars=0, neqs=2), "nvars=0"),
                                 ("gnp", dict(n=4, p=7), "p=7"),
                                 ("gnp", dict(n=4, p=-3), "p=-3")):
        with pytest.raises(ValueError, match=name):
            next(random_instances(1, family, count=1, **params))


def test_non_prime_power_warns():
    with pytest.warns(UserWarning, match="prime power"):
        zero_twist(named_graph("k3"), 6)


def test_graph_text_round_trip():
    g = named_graph("prism")
    assert graph_from_text(graph_to_text(g)) == g


def test_graph_text_takes_only_ascii_integers():
    """int() would read the first four as 10 vertices, 4 vertices, edge
    (0, 3) and 4 vertices, and splitlines() or split() would read the last
    four as edge (0, 1); each is refused, naming its token or line.  Graph
    names are held to ASCII digits as well."""
    for text, token in (("1_0\n0 1\n", "1_0"), ("\uff14\n0 1\n", "\uff14"),
                        ("4\n0 \u0663\n", "\u0663"), ("+4\n", "+4"),
                        ("2\u20280 1\n", "2\u20280 1"), ("2\x1c0 1\n", "2\x1c0 1"),
                        ("2\n0\u00a01\n", "0\u00a01"), ("2\n0\u30001\n", "0\u30001")):
        with pytest.raises(ValueError, match=re.escape(repr(token))):
            graph_from_text(text)
    # CRLF line ends, tabs and runs of blanks still load
    assert graph_from_text("2\r\n0\t 1\r\n\r\n") == OrderedGraph.make(2, [(0, 1)])
    # a cycle name takes only ASCII digits too, and a cycle has 3 vertices
    # or more: c2 would be one edge, c0 the empty graph, c\u0663 a triangle
    with pytest.raises(ValueError, match="unknown graph name 'c\u0663'"):
        named_graph("c\u0663")
    for n in (0, 1, 2):
        with pytest.raises(ValueError, match=f"cycle graph c{n} "):
            named_graph(f"c{n}")
        with pytest.raises(ValueError, match=f"cycle graph c{n} "):
            cycle_graph(n)
    assert named_graph("c3") == cycle_graph(3)


def test_isolated_vertex_detected():
    g = OrderedGraph.make(2, [])
    with pytest.raises(ValueError):
        flow_system(g, 2, {})


def test_flow_system_refuses_modulus_below_2():
    """q = 0 reaches AffineSystem's check too, not a division by zero."""
    for q in (0, 1):
        with pytest.raises(ValueError, match="modulus must be at least 2"):
            flow_system(OrderedGraph.make(2, [(0, 1)]), q, {0: 1})
