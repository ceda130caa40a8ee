import itertools
import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cohomcsp import (LocalSection, SectionSet, Signature, Structure,
                      affine_to_instance, all_contexts, bij_forth_holds,
                      brute_force_hom, brute_force_iso, cfi_structure,
                      classical_fixpoint, enumerate_sections, flow_system,
                      forth_holds, is_partial_hom, is_partial_iso, named_graph,
                      run_decision, tseitin_system, wl_fixpoint, zero_twist)
from cohomcsp.presheaf import _downward_close_inplace, _propagate
from conftest import (BIN_SIG, complete_structure, cycle_structure,
                      graph_structure, random_structure)
from reference import (downward_close, enumerate_sections_per_context,
                       remove_with_upset, restrict, same_sections)

MIXED_SIG = Signature((("U", 1), ("E", 2), ("T", 3)))
SHARED_SIG = Signature((("E", 2), ("F", 2), ("T", 3)))


def shared_structure(rng, size):
    """A SHARED_SIG structure whose F holds about half of E's tuples, so one
    element set carries tuples of several symbols."""
    s = random_structure(rng, size, SHARED_SIG)
    shared = [t for t in sorted(s.relations["E"]) if rng.random() < 0.5]
    return Structure.make(SHARED_SIG, size, {**s.relations,
                                             "F": s.relations["F"] | set(shared)})


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
    at01 = s2.sections[(0, 1)]
    assert len(at01) == 6
    assert all(s[0] != s[1] for s in at01)


def test_enumerate_isom_different_sizes_local():
    a = complete_structure(3)
    b = complete_structure(4)
    s = enumerate_sections(a, b, 1, "isom")
    assert len(s.sections[(0,)]) == 4


def test_enumerate_matches_naive(rng):
    """Random binary structures, random structures with a unary, a binary and
    a ternary symbol (whose tuples with repeated entries the extension checks
    must get right), the CFI2(K3) zero/twisted pair, and random structures
    with two binary symbols sharing tuples and a ternary one (the isomorphism
    check counts B-tuples of all symbols by element set)."""
    cfi = [cfi_structure(zero_twist(named_graph("k3"), 2, t)) for t in (0, 1)]
    cases = []
    for sig in (BIN_SIG, MIXED_SIG):
        for _ in range(15):
            a = random_structure(rng, rng.randint(1, 4), sig)
            b = random_structure(rng, rng.randint(1, 3), sig)
            for kind in ("hom", "isom"):
                cases.append((a, b, kind, rng.randint(1, 3)))
    cases += [(*cfi, "isom", k) for k in (2, 3)]
    for _ in range(15):
        a = shared_structure(rng, rng.randint(1, 4))
        b = shared_structure(rng, rng.randint(1, 3))
        for kind in ("hom", "isom"):
            cases.append((a, b, kind, rng.randint(1, 3)))
    for a, b, kind, k in cases:
        got = enumerate_sections(a, b, k, kind)
        want = naive_sections(a, b, k, kind)
        assert {c: frozenset(v) for c, v in got.sections.items()} == \
               {c: frozenset(v) for c, v in want.items()}
        # the fixpoints rely on enumeration being downward closed
        assert _downward_close_inplace(got.copy()) == []


def test_enumerate_matches_per_context_reference():
    """Extensions shared by contexts whose last element has the same atomic
    type give each context the sections, in the insertion order, that testing
    every context on its own gives: CFI pairs whose contexts share prefixes
    across many element sets, Tseitin and a Z_3 flow on the prism, whose
    atomic types are ternary tuples of several symbols, and a one-edge graph
    whose edge sits at positions (1, 2) of (0, 1, 3) but (0, 2) of (1, 2, 3),
    so a type made of element ids would share extensions between the two."""
    prism = named_graph("prism")
    cases = [(*(cfi_structure(zero_twist(named_graph(g), q, t)) for t in (0, 1)),
              k, "isom") for g, q, k in (("k4", 2, 2), ("k3", 3, 3))]
    cases += [(graph_structure(4, [(1, 3)]), cycle_structure(4), 3, kind)
              for kind in ("hom", "isom")]
    cases += [(*affine_to_instance(system), 3, "hom")
              for system in (tseitin_system(prism, {0: 1}),
                             flow_system(prism, 3, {0: 1, 5: 1}))]
    for a, b, k, kind in cases:
        got = enumerate_sections(a, b, k, kind).sections
        want = enumerate_sections_per_context(a, b, k, kind).sections
        assert {c: list(v) for c, v in got.items()} == \
               {c: list(v) for c, v in want.items()}


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
        assert (0, 1) in t.sections[(0, a)]
    assert forth_holds(t, (0,), (0,))
    # only the empty section over a nonempty A: no extension exists
    empty_only = SectionSet(k2, k3, 2, "hom")
    empty_only.sections[()].add(())
    assert not forth_holds(empty_only, (), ())
    with pytest.raises(ValueError):
        forth_holds(s, (0, 1), next(iter(s.sections[(0, 1)])))  # |dom| = k


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
    assert victim[1] not in pruned.sections[victim[0]]
    assert all(sec[0] != 0 for sec in pruned.sections[(0, 1)])
    assert len(pruned.sections[(0, 1)]) == 4  # 6 minus the two mapping 0 -> 0


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
            for s in out.sections[c]:
                for big in out.contexts():
                    if len(big) == len(c) + 1 and set(c) <= set(big):
                        assert any(restrict(LocalSection(big, t), c).values == s
                                   for t in out.sections[big]), \
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


def test_propagate_leaves_set_downward_closed(rng):
    """The fixpoints rely on their input being downward closed; in the
    cohomological run that input is what `_propagate` leaves."""
    for _ in range(10):
        a = random_structure(rng, 3)
        b = random_structure(rng, 3)
        for kind, fixpoint in (("hom", classical_fixpoint), ("isom", wl_fixpoint)):
            t = fixpoint(enumerate_sections(a, b, 2, kind))
            entries = sorted((c, s) for c in t.contexts() for s in t.sections[c])
            _propagate(t, rng.sample(entries, min(3, len(entries))), [])
            assert _downward_close_inplace(t.copy()) == []


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(("hom", "isom")),
       k=st.integers(1, 3), n_victims=st.integers(1, 4), empty=st.booleans(),
       mixed=st.booleans())
# sections removed by the closure have restrictions that must be checked again
@example(seed=17, kind="hom", k=2, n_victims=1, empty=False, mixed=False)
@example(seed=59, kind="isom", k=2, n_victims=1, empty=False, mixed=False)
def test_propagate_matches_fixpoint_after_removal(seed, kind, k, n_victims, empty,
                                                  mixed):
    """Removing victims at one context size (or, when mixed, at any sizes)
    from a classical fixpoint t in place and propagating from them gives the
    classical fixpoint of t without the victims and their upset, also when
    the empty section is a victim; the closure starts above the smallest
    victim's size.  The first round logs the victims and their upset, and
    the rounds' sums account for every removal."""
    rng = random.Random(seed)
    a = random_structure(rng, rng.randint(1, 4))
    if kind == "isom":
        b = a if rng.random() < 0.5 else random_structure(rng, a.size)
    else:
        b = random_structure(rng, rng.randint(1, 3))
    fixpoint = wl_fixpoint if kind == "isom" else classical_fixpoint
    t = fixpoint(enumerate_sections(a, b, k, kind))
    size = rng.randint(1, t.max_level())
    stored = sorted((c, s) for c in t.contexts() if c and (mixed or len(c) == size)
                    for s in t.sections[c])
    assume(stored)
    victims = set(rng.sample(stored, min(n_victims, len(stored))))
    if empty:
        victims.add(((), ()))
    upset_gone = remove_with_upset(t, victims)
    want = fixpoint(downward_close(upset_gone))
    before, log = t.total(), []
    _propagate(t, victims, log)
    assert same_sections(t, want)
    assert log[0]["forth"] == len(victims)
    assert before - log[0]["forth"] - log[0]["closure"] == upset_gone.total()
    assert all(e["forth"] > 0 for e in log)
    assert sum(e["forth"] + e["closure"] for e in log) == before - t.total()


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
        entries = [(c, s) for c in base.contexts() for s in base.sections[c]]
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
