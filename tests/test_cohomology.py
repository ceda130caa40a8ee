import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from cohomcsp import (AffineSystem, CfiSpec, IntLattice, LocalSection,
                      OrderedGraph, Signature, SparseEchelon, Structure,
                      affine_to_instance, brute_force_hom, cfi_structure,
                      classical_fixpoint, enumerate_sections, flow_system,
                      invert_section_set, is_partial_iso, random_instances,
                      run_decision, tseitin_system, named_graph, wl_fixpoint,
                      zero_twist)
from cohomcsp import cohomology
from cohomcsp.cohomology import _zext_sweep
from conftest import (complete_structure, cycle_structure,
                      graph_structure, random_structure)
from reference import (cohom_fixpoint, compatibility_system, downward_close,
                       inverse, pinned_system, remove_with_upset, restrict,
                       same_sections, z_bi_extendable, z_extendable,
                       z_linear_witness)


def _witness_is_global_section(s_set, witness, pinned):
    """Marginal agreement of the witness family plus the pin indicator;
    pinned is a (context, values) pair."""
    for c in s_set.contexts():
        coeffs = witness[c].as_dict()
        assert set(coeffs) <= s_set.sections[c]
        for i in range(len(c)):
            sub = c[:i] + c[i + 1:]
            marg = {}
            for sec, v in coeffs.items():
                r = restrict(LocalSection(c, sec), sub).values
                marg[r] = marg.get(r, 0) + v
            sub_coeffs = witness[sub].as_dict()
            for sec in set(marg) | set(sub_coeffs):
                if sec in s_set.sections[sub]:
                    assert marg.get(sec, 0) == sub_coeffs.get(sec, 0)
    pin_ctx, pin = pinned
    pin_coeffs = witness[pin_ctx].as_dict()
    for sec in s_set.sections[pin_ctx]:
        assert pin_coeffs.get(sec, 0) == (1 if sec == pin else 0)


def test_compat_system_single_context_pins_empty_section():
    a = graph_structure(1, [])
    b = graph_structure(2, [])
    s = enumerate_sections(a, b, 1, "hom")
    pin = (1,)
    var_of, rows = compatibility_system(s)
    # variables: the empty section and both sections at (0,); one row ties
    # the two singletons to the empty section
    assert len(var_of) == 3
    assert len(rows) == 1
    witness = z_linear_witness(s, (0,), pin)
    assert witness is not None
    assert witness[()].as_dict()[()] == 1
    _witness_is_global_section(s, witness, ((0,), pin))


def test_compat_system_dimension_formulas():
    # H_3 with |A| = 6, |B| = 2
    a = cycle_structure(6)
    b = complete_structure(2)
    s = enumerate_sections(a, b, 3, "hom")
    var_of, rows = compatibility_system(s)
    n_vars = sum(len(s.sections[c]) for c in s.contexts())
    n_rows = 0
    for c in s.contexts():
        for i in range(len(c)):
            sub = c[:i] + c[i + 1:]
            n_rows += len(s.sections[sub])
    assert len(var_of) == n_vars
    assert len(rows) == n_rows
    # the reference pin adds one unit row per section at the pinned context
    pin_ctx = (0,)
    pin = sorted(s.sections[pin_ctx])[0]
    pinned_var_of, pinned_rows, rhs = pinned_system(s, pin_ctx, pin)
    assert len(pinned_var_of) == n_vars
    assert len(pinned_rows) == n_rows + len(s.sections[pin_ctx])
    assert rhs == {n_rows: 1}
    with pytest.raises(ValueError):
        pinned_system(s, pin_ctx, (2,))  # B has no element 2


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
    assert all(len(s.sections[c]) == 2 for c in s.contexts() if len(c) == 1)
    for c in s.contexts():
        for sec in s.sections[c]:
            assert z_extendable(s, c, sec)


def test_tseitin_k4_sections_all_fail_zext():
    sys_odd = tseitin_system(named_graph("k4"), {0: 1})
    a, b = affine_to_instance(sys_odd)
    s = classical_fixpoint(enumerate_sections(a, b, 3, "hom"))
    assert not s.is_empty()  # classically accepted
    assert not z_extendable(s, (), ())
    # a couple of spot checks deeper in the presheaf
    some = [(c, sorted(s.sections[c])[0]) for c in [(0,), (0, 1), (0, 1, 2)]]
    for c, sec in some:
        assert not z_extendable(s, c, sec)


def _assert_sweep_matches_per_pin(s):
    """The sweep of s fails exactly the maximal sections that are not
    Z-extendable, all of them when it returns None."""
    failures = _zext_sweep(s, True)
    assert z_extendable(s, (), ()) == (failures is not None)
    failed = set(failures or ())
    top = s.max_level()
    for c in s.contexts():
        if len(c) != top:
            continue
        for sec in s.sections[c]:
            assert z_extendable(s, c, sec) == (
                failures is not None and (c, sec) not in failed), (c, sec)


def _assert_columns_follow_the_reference_rows(s):
    """With every context kept as columns (`_face_relations` returning None),
    `_condensed` numbers the sections and writes the rows as the reference
    builder does: the same var_of and the same kernel basis."""
    var_of, rows = compatibility_system(s)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cohomology, "_face_relations", lambda n_faces, hits: None)
        condensed_var_of, basis, _ = cohomology._condensed(s)
    assert condensed_var_of == var_of
    assert basis == SparseEchelon(len(var_of), rows).kernel_basis()


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_sweep_matches_per_pin_zext(seed):
    """The face-lattice sweep equals per-pin checks at maximal contexts, on
    hom sets at k=2 and 3 and on isomorphism sets at k=2 and 3 in both
    directions, and its rows, uncondensed, are the reference builder's.  Raw
    k=3 hom sets have maximal contexts without sections above faces with
    sections, which the system must force to 0: K3 -> C5 has integer
    compatible families on its edges with empty coordinate 1, but none on
    its one empty maximal context."""
    rng = random.Random(seed)
    a = random_structure(rng, rng.randint(2, 3))
    b = random_structure(rng, rng.randint(2, 3))
    same = a if rng.random() < 0.5 else random_structure(rng, a.size)
    raw = enumerate_sections(a, b, 3, "hom")
    sets = [classical_fixpoint(enumerate_sections(a, b, 2, "hom")), raw,
            classical_fixpoint(raw)]
    for k in (2, 3):
        s = wl_fixpoint(enumerate_sections(a, same, k, "isom"))
        sets += [s, invert_section_set(s)]
    sets.append(enumerate_sections(complete_structure(3), cycle_structure(5),
                                   3, "hom"))
    for s in sets:
        if not s.is_empty():
            _assert_sweep_matches_per_pin(s)
            _assert_columns_follow_the_reference_rows(s)


# the 6-vertex real projective plane, by its triangles
RP2 = (124, 126, 135, 136, 145, 234, 235, 256, 346, 456)


def test_unsaturated_face_map_keeps_its_columns(monkeypatch):
    """A = one ternary tuple, B = the flags (vertex, edge, triangle) of the
    6-vertex RP^2 on its 6 + 15 + 10 cells.  At k=3 the face map of the one
    maximal context (0, 1, 2) has Smith invariant 2 (H_1(RP^2) = Z/2), so
    `_face_relations` refuses to condense it, and the sweep, on its kept
    columns, still equals the per-pin checks."""
    triangles = [tuple(int(d) - 1 for d in str(t)) for t in RP2]
    edges = sorted({e for t in triangles for e in itertools.combinations(t, 2)})
    cell = {e: 6 + i for i, e in enumerate(edges)}
    cell.update((t, 21 + i) for i, t in enumerate(triangles))
    flags = [(v, cell[e], cell[t]) for t in triangles for e in edges
             if set(e) <= set(t) for v in e]
    sig = Signature((("R", 3),))
    a = Structure.make(sig, 3, {"R": [(0, 1, 2)]})
    b = Structure.make(sig, 31, {"R": flags})
    assert (len(edges), len(flags)) == (15, 60)
    s = classical_fixpoint(enumerate_sections(a, b, 3, "hom"))
    assert len(s.sections[(0, 1, 2)]) == 60
    face_relations, results = cohomology._face_relations, []

    def recorded(n_faces, hits):
        results.append(face_relations(n_faces, hits))
        return results[-1]

    monkeypatch.setattr(cohomology, "_face_relations", recorded)
    _assert_sweep_matches_per_pin(s)
    assert results == [None]


def _lattice_of(vectors, coords):
    """The lattice spanned by sparse vectors keyed by coords (such as
    (context, section) pairs), with the dense vectors; a vector off coords
    raises KeyError."""
    index = {cs: i for i, cs in enumerate(coords)}
    lat = IntLattice(len(coords))
    dense = []
    for vec in vectors:
        row = [0] * len(coords)
        for cs, x in vec.items():
            row[index[cs]] = x
        lat.add(row)
        dense.append(row)
    return lat, dense


def test_reused_kernel_sweeps_match_fresh_sweeps(monkeypatch):
    """Every sweep of a fixpoint run that takes two iterations, on the
    condensed system, finds the failures the same sweep finds with every
    maximal context kept as columns (`_face_relations` returning None), and
    each direction sweeps again after the first iteration."""
    sweep = cohomology._zext_sweep
    later = []

    def checked(s_set, first):
        failures = sweep(s_set, first)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cohomology, "_face_relations", lambda n_faces, hits: None)
            assert sweep(s_set, first) == failures
        if not first:
            later.append(s_set)
        return failures

    monkeypatch.setattr(cohomology, "_zext_sweep", checked)
    prism, k3 = named_graph("prism"), named_graph("k3")
    edges = k3.edge_list()
    retwist = CfiSpec(k3, 3, {edges[0]: 1, edges[1]: 2, edges[2]: 0})
    cases = [  # (A, B, k, problem, directions)
        (*affine_to_instance(tseitin_system(prism, {})), 3, "csp", 1),
        (*affine_to_instance(flow_system(prism, 2, {0: 1, 5: 1})), 3, "csp", 1),
        (*affine_to_instance(flow_system(prism, 3, {})), 3, "csp", 1),
        (cfi_structure(zero_twist(k3, 3)), cfi_structure(retwist), 2, "iso", 2),
    ]
    for a, b, k, problem, directions in cases:
        later.clear()
        report = run_decision(a, b, k, "cohomological", problem)[-1]
        assert report.accepted and report.iterations == 2
        assert len(later) == directions


def _scope_cases(family, seed):
    """The section sets a first sweep sees on one small instance: the
    classical fixpoint at k=3 of a random affine system or a flow system
    over Z2-Z4, or of a Tseitin instance, or both directions of a CFI pair's
    k-WL fixpoint at k=2."""
    rng = random.Random(seed)
    if family == "cfi":
        base, q = rng.choice([(named_graph("k3"), 2), (named_graph("k3"), 3),
                              (named_graph("k4"), 2)])
        a = cfi_structure(zero_twist(base, q))
        b = cfi_structure(zero_twist(base, q, rng.randrange(q)))
        s = wl_fixpoint(enumerate_sections(a, b, 2, "isom"))
        return [s, invert_section_set(s)]
    q = rng.randint(2, 4)
    if family == "affine" and rng.random() < 0.5:
        system = next(random_instances(
            seed, "affine", count=1, q=q, nvars=rng.randint(5, 7),
            neqs=rng.randint(2, 5), planted=rng.random() < 0.5))
    elif family == "affine":
        graph = named_graph(rng.choice(["k4", "prism"]))
        system = flow_system(graph, q, {rng.randrange(graph.n): rng.randrange(q)})
    else:
        graph = named_graph(rng.choice(["k4", "k33", "prism"]))
        system = tseitin_system(graph, {rng.randrange(graph.n): rng.randint(0, 1)})
    a, b = affine_to_instance(system)
    return [classical_fixpoint(enumerate_sections(a, b, 3, "hom"))]


def _empty_gcd(s_set):
    """The gcd of the empty section's coordinate over s_set's condensed
    kernel: the empty section is Z-extendable in s_set iff it is 1."""
    var_of, basis, _ = cohomology._condensed(s_set)
    return math.gcd(*(vec.get(var_of[((), ())], 0) for vec in basis))


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(("affine", "tseitin", "cfi")),
       seed=st.integers(0, 2 ** 32 - 1))
def test_scope_test_changes_no_sweep(family, seed):
    """A sweep returns the same with and without the scope test.  The scope's
    empty-section gcd divides the full kernel's, so the scope never rejects
    when the full gcd is 1; the uncounted system shape is the built one's.
    With `_scope` the identity, the half rule skips the scope."""
    for s in _scope_cases(family, seed):
        if s.is_empty():
            continue
        var_of, rows = compatibility_system(s)
        assert cohomology._system_shape(s) == {"rows": len(rows),
                                               "cols": len(var_of)}
        full = _empty_gcd(s)
        scoped = _empty_gcd(cohomology._scope(s))
        assert full % scoped == 0 if scoped else full == 0
        if full == 1:
            assert scoped == 1
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cohomology, "_scope", lambda s_set: s_set)
            unscoped = _zext_sweep(s, True)
        assert _zext_sweep(s, True) == unscoped


PETERSEN = ([(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
            + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


def test_odd_tseitin_rejects_on_its_scope(monkeypatch):
    """Odd-charge Tseitin on the Petersen graph at k=3 is rejected on its
    scope: every echelon of the decision has under a tenth of the full
    system's columns, and max_system is still the full system's shape."""
    a, b = affine_to_instance(tseitin_system(OrderedGraph.make(10, PETERSEN),
                                             {0: 1}))
    var_of, rows = compatibility_system(
        classical_fixpoint(enumerate_sections(a, b, 3, "hom")))
    widths = []

    class Recorded(SparseEchelon):
        def __init__(self, n_cols, rows):
            widths.append(n_cols)
            super().__init__(n_cols, rows)

    monkeypatch.setattr(cohomology, "SparseEchelon", Recorded)
    report = run_decision(a, b, 3, "cohomological", "csp")[-1]
    assert report.verdict == "reject"
    assert widths and all(10 * w < len(var_of) for w in widths), widths
    assert report.max_system == {"rows": len(rows), "cols": len(var_of)}


def test_kernel_basis_fill_on_tseitin():
    """The kernel basis of zero-charge Tseitin on a seeded 3-regular graph
    on 12 vertices at k=3 (7,129 columns, 940 kernel vectors) stays sparse:
    choosing each row's pivot column by its entry and column nonzeros alone
    left 66,609 nonzeros, and counting the column's combination too leaves
    42,475.  The basis solves the system and spans the same lattice as the
    kernel of the system with its columns numbered in reverse, a different
    elimination."""
    graph = next(random_instances(1, "regular", n=12, d=3))
    a, b = affine_to_instance(tseitin_system(graph, {}))
    var_of, rows = compatibility_system(
        classical_fixpoint(enumerate_sections(a, b, 3, "hom")))
    n = len(var_of)
    basis = SparseEchelon(n, rows).kernel_basis()
    assert len(basis) == 940
    assert sum(map(len, basis)) < 50_000
    entries = [[] for _ in range(n)]  # column -> (row, value)
    for r, row in enumerate(rows):
        for c, x in row.items():
            entries[c].append((r, x))
    for vec in basis:
        image = {}
        for c, y in vec.items():
            for r, x in entries[c]:
                image[r] = image.get(r, 0) + x * y
        assert not any(image.values())
    flipped = SparseEchelon(n, [{n - 1 - c: x for c, x in row.items()}
                                for row in rows]).kernel_basis()
    coords = list(range(n))
    ours, ours_vecs = _lattice_of(basis, coords)
    ref, ref_vecs = _lattice_of(
        [{n - 1 - c: x for c, x in vec.items()} for vec in flipped], coords)
    assert all(ref.contains(v) for v in ours_vecs)
    assert all(ours.contains(v) for v in ref_vecs)


def test_invert_section_set():
    a = cycle_structure(4)
    s = wl_fixpoint(enumerate_sections(a, a, 2, "isom"))
    inv = invert_section_set(s)
    assert inv.total() == s.total()
    assert same_sections(invert_section_set(inv), s)
    for c in inv.contexts():
        for sec in inv.sections[c]:
            assert is_partial_iso(LocalSection(c, sec, "isom"), a, a)
    with pytest.raises(ValueError):
        invert_section_set(enumerate_sections(a, a, 2, "hom"))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 3))
def test_inverted_system_has_the_same_shape(seed, k):
    """Inverting an isomorphism set keeps its compatibility system's rows and
    columns, raw and at the k-WL fixpoint, so the backward system is never
    larger than the forward one."""
    rng = random.Random(seed)
    a = random_structure(rng, rng.randint(1, 4))
    b = a if rng.random() < 0.5 else random_structure(rng, a.size)
    raw = enumerate_sections(a, b, k, "isom")
    for s in (raw, wl_fixpoint(raw)):
        var_of, rows = compatibility_system(s)
        inv_var_of, inv_rows = compatibility_system(invert_section_set(s))
        assert (len(inv_rows), len(inv_var_of)) == (len(rows), len(var_of))


def test_z_bi_extendable_basics():
    a = cycle_structure(4)
    s = wl_fixpoint(enumerate_sections(a, a, 2, "isom"))
    ident = LocalSection((0, 1), (0, 1), "isom")
    assert ident.values in s.sections[ident.domain]
    assert z_bi_extendable(s, ident.domain, ident.values)
    # symmetry
    inv = invert_section_set(s)
    back = inverse(ident)
    assert z_bi_extendable(inv, back.domain, back.values)


def test_cohom_fixpoint_subset_of_classical(rng):
    for _ in range(8):
        a = random_structure(rng, 3)
        b = random_structure(rng, 3)
        base = enumerate_sections(a, b, 2, "hom")
        classical = classical_fixpoint(base)
        cohom = cohom_fixpoint(base)
        for c in cohom.contexts():
            assert cohom.sections[c] <= classical.sections[c]


def test_cohom_wl_fixpoint_subset_and_symmetry(rng):
    for _ in range(8):
        a = random_structure(rng, 3)
        b = random_structure(rng, 3)
        base = enumerate_sections(a, b, 2, "isom")
        wl = wl_fixpoint(base)
        cw = cohom_fixpoint(base)
        for c in cw.contexts():
            assert cw.sections[c] <= wl.sections[c]
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
            for sec in sorted(t.sections[c]):
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
