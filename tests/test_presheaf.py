import itertools
import random

import pytest

from cohomcsp import (LocalSection, SectionSet, Signature, all_contexts,
                      bij_forth_holds, brute_force_hom, brute_force_iso,
                      cfi_structure, classical_fixpoint, enumerate_sections,
                      forth_holds, is_partial_hom, is_partial_iso, named_graph,
                      run_decision, wl_fixpoint, zero_twist)
from conftest import (BIN_SIG, complete_structure, cycle_structure,
                      graph_structure, random_structure)
from reference import (downward_close, remove_with_upset, restrict,
                       same_sections)

MIXED_SIG = Signature((("U", 1), ("E", 2), ("T", 3)))


def naive_sections(a, b, k, kind):
    """Reference enumeration: filter all value tuples per context."""
    check = is_partial_hom if kind == "hom" else is_partial_iso
    out = {}
    for c in all_contexts(a.size, k):
        secs = set()
        for vals in itertools.product(range(b.size), repeat=len(c)):
            if kind == "isom" and len(set(vals)) != len(vals):
                continue
            if check(LocalSection(c, vals, kind), a, b):
                secs.add(vals)
        out[c] = secs
    return out


def test_enumerate_k2_k3_counts():
    k2, k3 = complete_structure(2), complete_structure(3)
    s1 = enumerate_sections(k2, k3, 1, "hom")
    assert s1.per_size() == {0: 1, 1: 6}
    s2 = enumerate_sections(k2, k3, 2, "hom")
    at01 = s2.at((0, 1))
    assert len(at01) == 6
    assert all(s[0] != s[1] for s in at01)


def test_enumerate_isom_different_sizes_local():
    a = complete_structure(3)
    b = complete_structure(4)
    s = enumerate_sections(a, b, 1, "isom")
    assert len(s.at((0,))) == 4


def test_enumerate_matches_naive(rng):
    """Random binary structures, random structures with a unary, a binary and
    a ternary symbol (whose tuples with repeated entries the extension checks
    must get right), and the CFI2(K3) zero/twisted pair."""
    cfi = [cfi_structure(zero_twist(named_graph("k3"), 2, t)) for t in (0, 1)]
    cases = []
    for sig in (BIN_SIG, MIXED_SIG):
        for _ in range(15):
            a = random_structure(rng, rng.randint(1, 4), sig)
            b = random_structure(rng, rng.randint(1, 3), sig)
            for kind in ("hom", "isom"):
                cases.append((a, b, kind, rng.randint(1, 3)))
    cases += [(*cfi, "isom", k) for k in (2, 3)]
    for a, b, kind, k in cases:
        got = enumerate_sections(a, b, k, kind)
        want = naive_sections(a, b, k, kind)
        assert {c: frozenset(v) for c, v in got.sections.items()} == \
               {c: frozenset(v) for c, v in want.items()}


def test_restrict():
    s = LocalSection((0, 1), (2, 0))
    assert restrict(s, (0, 1)) == s
    assert restrict(s, ()) == LocalSection((), ())
    assert restrict(s, (1,)) == LocalSection((1,), (0,))
    with pytest.raises(ValueError):
        restrict(s, (2,))


def test_restrict_functorial(rng):
    s = LocalSection((0, 2, 3, 5), (1, 1, 0, 2))
    assert restrict(restrict(s, (0, 2, 5)), (0, 5)) == restrict(s, (0, 5))


def test_forth_holds_examples():
    k2, k3 = complete_structure(2), complete_structure(3)
    s = enumerate_sections(k2, k3, 2, "hom")
    assert forth_holds(s, (0,), (0,))
    # H_2(C3, K2): {0 -> 0} extends at both other elements via value 1
    t = enumerate_sections(cycle_structure(3), complete_structure(2), 2, "hom")
    for a in (1, 2):
        assert (0, 1) in t.at((0, a))
    assert forth_holds(t, (0,), (0,))
    # only the empty section over a nonempty A: no extension exists
    empty_only = SectionSet(k2, k3, 2, "hom")
    empty_only.sections[()].add(())
    assert not forth_holds(empty_only, (), ())
    with pytest.raises(ValueError):
        forth_holds(s, (0, 1), next(iter(s.at((0, 1)))))  # |dom| = k


def test_bij_forth_examples():
    edgeless = graph_structure(2, [])
    s = enumerate_sections(edgeless, edgeless, 2, "isom")
    assert bij_forth_holds(s, (), ())
    arrow = graph_structure(2, [(0, 1)], directed=True)
    t = enumerate_sections(arrow, edgeless, 2, "isom")
    assert wl_fixpoint(t).is_empty()
    with pytest.raises(ValueError):
        bij_forth_holds(enumerate_sections(edgeless, graph_structure(3, []), 2,
                                           "isom"),
                        (), ())


def test_remove_with_upset():
    k2, k3 = complete_structure(2), complete_structure(3)
    s = enumerate_sections(k2, k3, 2, "hom")
    total = s.total()
    assert remove_with_upset(s, []).total() == total
    # removing the empty section removes everything
    assert remove_with_upset(s, [((), ())]).total() == 0
    victim = ((0,), (0,))
    pruned = remove_with_upset(s, [victim])
    assert victim[1] not in pruned.at(victim[0])
    assert all(sec[0] != 0 for sec in pruned.at((0, 1)))
    assert len(pruned.at((0, 1))) == 4  # 6 minus the two mapping 0 -> 0


def test_downward_close():
    k2, k3 = complete_structure(2), complete_structure(3)
    s = enumerate_sections(k2, k3, 2, "hom")
    assert same_sections(downward_close(s), s)
    orphan = SectionSet(k2, k3, 2, "hom")
    orphan.sections[(0, 1)].add((0, 1))
    assert downward_close(orphan).total() == 0


def test_classical_fixpoint_examples():
    k2 = complete_structure(2)
    assert run_decision(cycle_structure(3), k2, 3, "classical", "csp")[-1].accepted is False
    assert run_decision(cycle_structure(4), k2, 2, "classical", "csp")[-1].accepted is True
    # classical incompleteness witness: odd cycle accepted at k=2
    assert brute_force_hom(cycle_structure(5), k2).status == "none"
    assert run_decision(cycle_structure(5), k2, 2, "classical", "csp")[-1].accepted is True
    a = cycle_structure(4)
    assert run_decision(a, a, 2, "classical", "csp")[-1].accepted is True


def test_classical_fixpoint_sound_vs_brute(rng):
    for _ in range(25):
        a = random_structure(rng, rng.randint(1, 4))
        b = random_structure(rng, rng.randint(1, 4))
        if brute_force_hom(a, b).status == "found":
            for k in (1, 2, 3):
                assert run_decision(a, b, k, "classical", "csp")[-1].accepted, (a, b, k)


def test_k_monotonicity(rng):
    for _ in range(15):
        a = random_structure(rng, rng.randint(1, 4))
        b = random_structure(rng, rng.randint(1, 4))
        verdicts = [run_decision(a, b, k, "classical", "csp")[-1].accepted for k in (1, 2, 3)]
        for lo, hi in zip(verdicts, verdicts[1:]):
            assert lo or not hi  # accept at k+1 implies accept at k


def test_classical_fixpoint_output_flasque(rng):
    for _ in range(10):
        a = random_structure(rng, 3)
        b = random_structure(rng, 3)
        out = classical_fixpoint(enumerate_sections(a, b, 2, "hom"))
        for c in out.contexts():
            for s in out.at(c):
                for big in out.contexts():
                    if len(big) == len(c) + 1 and set(c) <= set(big):
                        assert any(restrict(LocalSection(big, t), c).values == s
                                   for t in out.at(big)), \
                            "restriction map not surjective"


def test_fixpoint_idempotent(rng):
    for _ in range(10):
        a = random_structure(rng, 3)
        b = random_structure(rng, 3)
        once = classical_fixpoint(enumerate_sections(a, b, 2, "hom"))
        again = classical_fixpoint(once)
        assert same_sections(once, again)
        if a.size == b.size:
            w1 = wl_fixpoint(enumerate_sections(a, b, 2, "isom"))
            assert same_sections(w1, wl_fixpoint(w1))


def test_fixpoints_leave_input_unchanged():
    """Both fixpoints work on a copy; the benchmark's traced run counts their
    removals as input total minus output total."""
    d3 = graph_structure(3, [(0, 1), (1, 2), (2, 0)], directed=True)
    p3 = graph_structure(3, [(0, 1), (1, 2)], directed=True)
    cases = [(classical_fixpoint, enumerate_sections(
                 cycle_structure(3), complete_structure(2), 3, "hom")),
             (wl_fixpoint, enumerate_sections(d3, p3, 2, "isom"))]
    for fixpoint, s_set in cases:
        before = {c: frozenset(v) for c, v in s_set.sections.items()}
        out = fixpoint(s_set)
        assert out.total() < s_set.total()
        assert {c: frozenset(v) for c, v in s_set.sections.items()} == before


def test_fixpoint_order_invariance(rng):
    """The greatest fixpoint does not depend on iteration order."""
    for seed in range(5):
        local = random.Random(seed)
        a = random_structure(local, 3)
        b = random_structure(local, 3)
        base = enumerate_sections(a, b, 2, "hom")
        reference = classical_fixpoint(base)
        # rebuild with shuffled insertion order (different set iteration order)
        shuffled = SectionSet(a, b, 2, "hom")
        entries = [(c, s) for c in base.contexts() for s in base.at(c)]
        local.shuffle(entries)
        for c, s in entries:
            shuffled.sections[c].add(s)
        assert same_sections(classical_fixpoint(shuffled), reference)


def test_wl_examples():
    d3 = graph_structure(3, [(0, 1), (1, 2), (2, 0)], directed=True)
    p3 = graph_structure(3, [(0, 1), (1, 2)], directed=True)
    assert run_decision(d3, d3, 2, "classical", "iso")[-1].accepted is True
    assert run_decision(d3, p3, 2, "classical", "iso")[-1].accepted is False
    with pytest.raises(ValueError):
        wl_fixpoint(enumerate_sections(d3, complete_structure(4), 2, "isom"))


def test_wl_sound_vs_brute(rng):
    for _ in range(15):
        a = random_structure(rng, 3)
        b = random_structure(rng, 3)
        if brute_force_iso(a, b).status == "found":
            assert run_decision(a, b, 2, "classical", "iso")[-1].accepted
            assert run_decision(a, b, 3, "classical", "iso")[-1].accepted
