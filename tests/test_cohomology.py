import random

import pytest

from cohomcsp import (AffineSystem, LocalSection,
                      affine_to_instance, brute_force_hom,
                      build_compatibility_system, classical_fixpoint,
                      enumerate_sections, invert_section_set, is_partial_iso,
                      run_decision,
                      tseitin_system, named_graph, wl_fixpoint)
from cohomcsp.cohomology import _SweepStats, _zext_sweep
from conftest import (complete_structure, cycle_structure,
                      graph_structure, random_structure)
from reference import (cohom_fixpoint, downward_close, remove_with_upset,
                       restrict, same_sections, z_bi_extendable, z_extendable,
                       z_linear_witness)


def _witness_is_global_section(s_set, witness, pinned):
    """Marginal agreement of the witness family plus the pin indicator;
    pinned is a (context, values) pair."""
    for c in s_set.contexts():
        coeffs = witness[c].as_dict()
        assert set(coeffs) <= s_set.at(c) | set(coeffs)
        for i in range(len(c)):
            sub = c[:i] + c[i + 1:]
            marg = {}
            for sec, v in coeffs.items():
                r = restrict(LocalSection(c, sec), sub).values
                marg[r] = marg.get(r, 0) + v
            sub_coeffs = witness[sub].as_dict()
            for sec in set(marg) | set(sub_coeffs):
                if sec in s_set.at(sub):
                    assert marg.get(sec, 0) == sub_coeffs.get(sec, 0)
    pin_ctx, pin = pinned
    pin_coeffs = witness[pin_ctx].as_dict()
    for sec in s_set.at(pin_ctx):
        assert pin_coeffs.get(sec, 0) == (1 if sec == pin else 0)


def test_compat_system_single_context_pins_empty_section():
    a = graph_structure(1, [])
    b = graph_structure(2, [])
    s = enumerate_sections(a, b, 1, "hom")
    pin = (1,)
    system = build_compatibility_system(s, ((0,), pin))
    # variables: only the empty section remains after substitution
    assert system.n_vars == 1
    witness = z_linear_witness(s, (0,), pin)
    assert witness is not None
    assert witness[()].as_dict()[()] == 1
    _witness_is_global_section(s, witness, ((0,), pin))


def test_compat_system_dimension_formulas():
    # H_3 with |A| = 6, |B| = 2
    a = cycle_structure(6)
    b = complete_structure(2)
    s = enumerate_sections(a, b, 3, "hom")
    pin_ctx = (0,)
    pin = sorted(s.at(pin_ctx))[0]
    system = build_compatibility_system(s, (pin_ctx, pin))
    n_vars = sum(len(s.at(c)) for c in s.contexts()) - len(s.at(pin_ctx))
    n_rows = 0
    for c in s.contexts():
        for i in range(len(c)):
            sub = c[:i] + c[i + 1:]
            n_rows += len(s.at(sub))
    assert system.n_vars == n_vars
    assert system.n_rows == n_rows


def test_restriction_of_total_hom_is_z_extendable(rng):
    for _ in range(10):
        a = random_structure(rng, 3)
        b = random_structure(rng, 3)
        found = brute_force_hom(a, b)
        if found.status != "found":
            continue
        s = enumerate_sections(a, b, 2, "hom")
        total = found.mapping
        for c in [(0,), (0, 2), ()]:
            sec = tuple(total[e] for e in c)
            assert z_extendable(s, c, sec)
            witness = z_linear_witness(s, c, sec)
            _witness_is_global_section(s, witness, (c, sec))


def test_full_h1_singletons_extendable():
    # loop-free A, so every singleton of H_1 is a section; the only
    # codimension-1 constraints tie each singleton context to the empty one
    rng = random.Random(3)
    a = graph_structure(4, [(u, v) for u in range(4) for v in range(u + 1, 4)
                            if rng.random() < 0.6])
    b = complete_structure(2)
    s = enumerate_sections(a, b, 1, "hom")
    assert all(len(s.at(c)) == 2 for c in s.contexts() if len(c) == 1)
    for c in s.contexts():
        for sec in s.at(c):
            assert z_extendable(s, c, sec)


def test_tseitin_k4_sections_all_fail_zext():
    sys_odd = tseitin_system(named_graph("k4"), {0: 1})
    a, b = affine_to_instance(sys_odd)
    s = classical_fixpoint(enumerate_sections(a, b, 3, "hom"))
    assert not s.is_empty()  # classically accepted
    assert not z_extendable(s, (), ())
    # a couple of spot checks deeper in the presheaf
    some = [(c, sorted(s.at(c))[0]) for c in [(0,), (0, 1), (0, 1, 2)]]
    for c, sec in some:
        assert not z_extendable(s, c, sec)


def test_sweep_matches_per_pin_zext(rng):
    """The kernel-projection sweep equals per-pin checks at maximal contexts."""
    for _ in range(12):
        a = random_structure(rng, rng.randint(2, 3))
        b = random_structure(rng, rng.randint(2, 3))
        s = classical_fixpoint(enumerate_sections(a, b, 2, "hom"))
        if s.is_empty():
            continue
        failures = _zext_sweep(s, _SweepStats())
        if failures is None:
            assert not z_extendable(s, (), ())
            continue
        assert z_extendable(s, (), ())
        failed = set(failures)
        top = s.max_level()
        for c in s.contexts():
            if len(c) != top:
                continue
            for sec in s.at(c):
                assert z_extendable(s, c, sec) == ((c, sec) not in failed), (a, b, sec)


def test_invert_section_set():
    a = cycle_structure(4)
    s = wl_fixpoint(enumerate_sections(a, a, 2, "isom"))
    inv = invert_section_set(s)
    assert inv.total() == s.total()
    assert same_sections(invert_section_set(inv), s)
    for c in inv.contexts():
        for sec in inv.at(c):
            assert is_partial_iso(LocalSection(c, sec, "isom"), a, a)
    with pytest.raises(ValueError):
        invert_section_set(enumerate_sections(a, a, 2, "hom"))


def test_z_bi_extendable_basics():
    a = cycle_structure(4)
    s = wl_fixpoint(enumerate_sections(a, a, 2, "isom"))
    ident = LocalSection((0, 1), (0, 1), "isom")
    assert ident.values in s.at(ident.domain)
    assert z_bi_extendable(s, ident.domain, ident.values)
    # symmetry
    inv = invert_section_set(s)
    back = ident.inverse()
    assert z_bi_extendable(inv, back.domain, back.values)


def test_cohom_fixpoint_subset_of_classical(rng):
    for _ in range(8):
        a = random_structure(rng, 3)
        b = random_structure(rng, 3)
        base = enumerate_sections(a, b, 2, "hom")
        classical = classical_fixpoint(base)
        cohom = cohom_fixpoint(base)
        for c in cohom.contexts():
            assert cohom.at(c) <= classical.at(c)


def test_cohom_wl_fixpoint_subset_and_symmetry(rng):
    for _ in range(8):
        a = random_structure(rng, 3)
        b = random_structure(rng, 3)
        base = enumerate_sections(a, b, 2, "isom")
        wl = wl_fixpoint(base)
        cw = cohom_fixpoint(base)
        for c in cw.contexts():
            assert cw.at(c) <= wl.at(c)
        # inversion symmetry with the run in the other direction
        other = cohom_fixpoint(enumerate_sections(b, a, 2, "isom"))
        assert same_sections(invert_section_set(cw), other)


def test_unsolvable_z2_affine_rejected_k3():
    sys_bad = AffineSystem(2, 3, (
        ((1, 1, 1), (0, 1, 2), 0),
        ((1, 1), (0, 1), 0),
        ((1, 1), (1, 2), 0),
        ((1, 1), (0, 2), 1),
    ))
    from cohomcsp import affine_solvable_brute
    assert not affine_solvable_brute(sys_bad)
    a, b = affine_to_instance(sys_bad)
    rep = run_decision(a, b, 3, "cohomological", "csp")[-1]
    assert rep.verdict == "reject"


def test_decide_cohom_reflexive_and_z4():
    a = cycle_structure(4)
    assert run_decision(a, a, 2, "cohomological", "csp")[-1].verdict == "accept"
    # solvable and unsolvable Z4 instances with 3 variables per equation
    from cohomcsp import affine_solvable_brute, random_instances
    solvable = next(random_instances(5, "affine", count=1, q=4, nvars=6,
                                     neqs=7, planted=True))
    assert affine_solvable_brute(solvable)
    sa, sb = affine_to_instance(solvable)
    assert run_decision(sa, sb, 3, "cohomological", "csp")[-1].verdict == "accept"
    from cohomcsp.generators import flow_system
    bad = flow_system(named_graph("k4"), 4, {0: 1})
    assert not affine_solvable_brute(bad)
    ba, bb = affine_to_instance(bad)
    rep = run_decision(ba, bb, 3, "cohomological", "csp")[-1]
    assert rep.verdict == "reject"
    assert rep.iterations == 1
    assert rep.removed[-1]["zext"] == rep.removed[0]["remaining"]


def test_cohom_wl_accept_implies_both_consistencies(rng):
    for _ in range(6):
        a = random_structure(rng, 3)
        b = random_structure(rng, 3)
        if run_decision(a, b, 2, "cohomological", "iso")[-1].accepted:
            assert run_decision(a, b, 2, "cohomological", "csp")[-1].accepted
            assert run_decision(b, a, 2, "cohomological", "csp")[-1].accepted


def test_rejection_sound_vs_brute(rng):
    for _ in range(15):
        a = random_structure(rng, rng.randint(1, 4))
        b = random_structure(rng, rng.randint(1, 3))
        for k in (2, 3):
            rep = run_decision(a, b, k, "cohomological", "csp")[-1]
            if rep.verdict == "reject":
                assert brute_force_hom(a, b).status == "none"


def test_refinement_and_k_monotonicity(rng):
    for _ in range(10):
        a = random_structure(rng, 3)
        b = random_structure(rng, 3)
        acc = {k: run_decision(a, b, k, "cohomological", "csp")[-1].accepted for k in (1, 2, 3)}
        for k in (1, 2, 3):
            if acc[k]:
                assert run_decision(a, b, k, "classical", "csp")[-1].accepted
        assert not (acc[3] and not acc[2])
        assert not (acc[2] and not acc[1])


def test_report_verdict_matches_survivors(rng):
    for _ in range(10):
        a = random_structure(rng, rng.randint(1, 3))
        b = random_structure(rng, rng.randint(1, 3))
        rep = run_decision(a, b, 2, "cohomological", "csp")[-1]
        assert rep.accepted == (rep.sections_remaining > 0)


def test_size_mismatch_iso_reject_with_reason():
    a = complete_structure(3)
    b = complete_structure(4)
    rep = run_decision(a, b, 2, "cohomological", "iso")[-1]
    assert rep.verdict == "reject" and rep.reason == "size"
    rep2 = run_decision(a, b, 2, "classical", "iso")[-1]
    assert rep2.verdict == "reject" and rep2.reason == "size"


def _reference_cohom_fixpoint(s_set, bi_directional=False):
    """Literal batch semantics: every section below k is forth-checked and
    every stored section is Zext-checked per iteration, no shortcuts."""
    from cohomcsp import bij_forth_holds, forth_holds
    t = downward_close(s_set)
    while True:
        victims = []
        for c in t.contexts():
            for sec in sorted(t.at(c)):
                if len(c) < t.k:
                    check = bij_forth_holds if bi_directional else forth_holds
                    if not check(t, c, sec):
                        victims.append((c, sec))
                        continue
                if bi_directional:
                    if not z_bi_extendable(t, c, sec):
                        victims.append((c, sec))
                elif not z_extendable(t, c, sec):
                    victims.append((c, sec))
        if not victims:
            return t
        t = downward_close(remove_with_upset(t, victims))


def test_fixpoint_matches_reference_implementation(rng):
    """The optimised fixpoint (kernel projections, maximal-context sweeps,
    empty-section fast path) computes the same greatest fixpoint as the
    literal all-sections batch procedure."""
    for trial in range(10):
        a = random_structure(rng, rng.randint(2, 3))
        b = random_structure(rng, rng.randint(2, 3))
        base = enumerate_sections(a, b, 2, "hom")
        fast = cohom_fixpoint(base)
        slow = _reference_cohom_fixpoint(base)
        assert same_sections(fast, slow), (a, b)
        if a.size == b.size:
            ibase = enumerate_sections(a, b, 2, "isom")
            fast_i = cohom_fixpoint(ibase)
            slow_i = _reference_cohom_fixpoint(ibase, bi_directional=True)
            assert same_sections(fast_i, slow_i), (a, b)


def test_cohom_wl_symmetric_verdicts(rng):
    for _ in range(8):
        a = random_structure(rng, 3)
        b = random_structure(rng, 3)
        assert run_decision(a, b, 2, "cohomological", "iso")[-1].accepted == \
               run_decision(b, a, 2, "cohomological", "iso")[-1].accepted


def test_transitivity_small_sample(rng):
    for _ in range(20):
        c = random_structure(rng, rng.randint(1, 3))
        b = random_structure(rng, rng.randint(1, 3))
        a = random_structure(rng, rng.randint(1, 3))
        k = rng.choice((2, 3))
        if run_decision(a, b, k, "cohomological", "csp")[-1].accepted and \
           run_decision(b, c, k, "cohomological", "csp")[-1].accepted:
            assert run_decision(a, c, k, "cohomological", "csp")[-1].accepted
