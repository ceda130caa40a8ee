"""Acceptance suite.

Each criterion test prints one [PASS]/[FAIL] line (visible with `pytest -s`
or in captured output).  The heavyweight instance pools are module-scoped
fixtures so the refinement criterion can audit every instance touched.
"""

import itertools
import random
import time

import pytest

from cohomcsp import (SparseEchelon, affine_solvable_brute, affine_to_instance,
                      brute_force_iso, cfi_structure, named_graph,
                      random_instances, tseitin_system, zero_twist, CfiSpec,
                      Structure, run_decision)
from cohomcsp.cli import _compare_doc
from cohomcsp.generators import flow_system
from conftest import BIN_SIG, random_structure
from oracles import box_solve
from reference import IntMatrix, det_bareiss, hermite_normal_form, hnf_solve

MODULI = (2, 3, 4)
FLOW_BASES = ("k4", "k33", "prism")


def report_line(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _affine_pool_for(q: int):
    """100 instances over Z_q: planted solvable, random, and flow systems."""
    rng = random.Random(1000 + q)
    systems = []
    for i in range(40):
        nv = rng.randint(6, 10)
        ne = rng.randint(nv, 2 * nv)
        systems.append(next(random_instances(rng.randrange(10 ** 9), "affine",
                                             count=1, q=q, nvars=nv, neqs=ne,
                                             planted=True)))
    for i in range(40):
        nv = rng.randint(6, 10)
        ne = rng.randint(nv - 2, 2 * nv)
        systems.append(next(random_instances(rng.randrange(10 ** 9), "affine",
                                             count=1, q=q, nvars=nv, neqs=ne)))
    for i in range(20):
        base = named_graph(FLOW_BASES[i % len(FLOW_BASES)])
        charge = {v: rng.randrange(q) for v in range(base.n)}
        systems.append(flow_system(base, q, charge))
    records = []
    for sys_ in systems:
        truth = affine_solvable_brute(sys_)
        a, b = affine_to_instance(sys_)
        doc = _compare_doc(a, b, 3, "csp")
        records.append({"q": q, "system": sys_, "truth": truth, "doc": doc})
    return records


@pytest.fixture(scope="module")
def affine_pool():
    t0 = time.perf_counter()
    pool = {q: _affine_pool_for(q) for q in MODULI}
    pool["elapsed"] = time.perf_counter() - t0
    return pool


@pytest.fixture(scope="module")
def tseitin_records():
    records = []
    for name in FLOW_BASES:
        base = named_graph(name)
        sys_odd = tseitin_system(base, {0: 1})
        assert not affine_solvable_brute(sys_odd)
        a, b = affine_to_instance(sys_odd)
        records.append({"base": name, "doc": _compare_doc(a, b, 3, "csp")})
    return records


def _cfi_separation_search(q: int, base_names, k_max: int = 4,
                           enum_budget: int = 4 * 10 ** 6):
    """Find (base, minimal k <= k_max) with classical accept + cohom reject."""
    docs = []
    found = None
    for name in base_names:
        base = named_graph(name)
        a = cfi_structure(zero_twist(base, q, 0))
        b = cfi_structure(zero_twist(base, q, 1))
        for k in range(1, k_max + 1):
            # crude enumeration-size guard: candidates ~ C(n, k) * n^k
            n = a.size
            cand = 1
            for i in range(k):
                cand = cand * (n - i) // (i + 1)
            if cand * n ** k > enum_budget:
                break
            doc = _compare_doc(a, b, k, "iso")
            docs.append({"q": q, "base": name, "k": k, "doc": doc})
            classical = doc["classical"]["verdict"] == "accept"
            cohom = doc["cohomological"]["verdict"] == "accept"
            if classical and not cohom:
                found = (name, k)
                break
            if not classical and not cohom:
                break  # base too small for this and any larger k; escalate
        if found:
            break
    return found, docs


@pytest.fixture(scope="module")
def cfi_separations():
    out = {}
    all_docs = []
    for q, bases in ((2, ("k4", "k33", "prism")), (3, ("k3", "c4", "c5"))):
        found, docs = _cfi_separation_search(q, bases)
        out[q] = found
        all_docs.extend(docs)
    out["docs"] = all_docs
    return out


def test_criterion_1_affine_csps_decided(affine_pool):
    """Cohomological 3-consistency decides random affine CSPs over Z_2/3/4."""
    total_fail = 0
    details = []
    for q in MODULI:
        agree = sum(1 for r in affine_pool[q]
                    if (r["doc"]["cohomological"]["verdict"] == "accept")
                    == r["truth"])
        details.append(f"Z_{q}: {agree}/100")
        total_fail += 100 - agree
    elapsed = affine_pool["elapsed"]
    ok = total_fail == 0 and elapsed < 600
    report_line(1, ok, f"oracle agreement {', '.join(details)}; "
                       f"pool built in {elapsed:.0f}s (budget 600s)")


def test_criterion_2_classical_incompleteness_tseitin(tseitin_records):
    """Tseitin-K4 odd (and 3-regular 6-vertex bases): classical accepts while
    cohomological rejects at k=3.  Classical acceptance is an empirical
    expectation; if some base is classically refuted, the family search must
    still produce a separating base, and failure occurs only if none does."""
    separating = [r["base"] for r in tseitin_records
                  if r["doc"]["classical"]["verdict"] == "accept"
                  and r["doc"]["cohomological"]["verdict"] == "reject"]
    all_rejected = all(r["doc"]["cohomological"]["verdict"] == "reject"
                       for r in tseitin_records)
    ok = all_rejected and bool(separating)
    report_line(2, ok, f"family {FLOW_BASES}: separating bases at k=3: "
                       f"{separating} (all cohomologically refuted: "
                       f"{all_rejected})")


def test_criterion_3_one_iteration_refutation(affine_pool):
    """Unsolvable affine instances that survive the classical pre-fixpoint are
    wiped by Zext in the first cohomological pass."""
    checked = non_vacuous = 0
    violations = []
    for q in MODULI:
        for r in affine_pool[q]:
            if r["truth"]:
                continue
            checked += 1
            rep = r["doc"]["cohomological"]
            assert rep["verdict"] == "reject"
            entries = rep["removed"]
            survived_prefix = entries[0]["remaining"] if entries else 0
            if survived_prefix == 0:
                continue  # already refuted classically; vacuous here
            non_vacuous += 1
            first = entries[1]
            good = (rep["iterations"] == 1
                    and first["zext"] == survived_prefix
                    and first["forth"] == 0 and first["closure"] == 0
                    and first["remaining"] == 0)
            if not good:
                violations.append((q, entries))
    ok = not violations and non_vacuous > 0 and checked > 0
    report_line(3, ok, f"{checked} unsolvable instances, {non_vacuous} past the "
                       f"classical pre-fixpoint, all wiped in one Zext pass")


def test_criterion_4_cfi_iso_fact_exhaustive():
    """brute_force_iso on CFI_2(K4, g) vs (K4, h) finds an isomorphism exactly
    when the twist totals agree, over all twist pairs."""
    base = named_graph("k4")
    edges = base.edge_list()
    structs = []
    for values in itertools.product(range(2), repeat=len(edges)):
        spec = CfiSpec(base, 2, dict(zip(edges, values)))
        structs.append((sum(values) % 2, cfi_structure(spec)))
    mismatches = 0
    pairs = 0
    for (t1, s1), (t2, s2) in itertools.combinations_with_replacement(structs, 2):
        pairs += 1
        found = brute_force_iso(s1, s2, budget=10 ** 8).status == "found"
        if found != (t1 == t2):
            mismatches += 1
    ok = mismatches == 0
    report_line(4, ok, f"{pairs} twist pairs on K4 (q=2), {mismatches} mismatches")


def test_criterion_5_cfi_separation_fixed_k(cfi_separations):
    """For q=2 and q=3 there is k <= 4 with classical k-WL accepting a CFI twin
    pair that cohomological k-WL rejects; the minimal such k is recorded."""
    found2, found3 = cfi_separations[2], cfi_separations[3]
    ok = found2 is not None and found3 is not None

    def describe(found):
        if found is None:
            return "none found within budget"
        return f"base={found[0]}, minimal k={found[1]}"

    report_line(5, ok, f"q=2 separation: {describe(found2)}; "
                       f"q=3 separation: {describe(found3)}")


def _planted_chain(rng):
    """Structures A -> B -> C with planted homomorphisms."""
    nc, nb, na = (rng.randint(1, 4) for _ in range(3))
    c = random_structure(rng, nc, density=0.4)
    g = [rng.randrange(nc) for _ in range(nb)]
    b_tuples = [t for t in itertools.product(range(nb), repeat=2)
                if (g[t[0]], g[t[1]]) in c.relations["E"] and rng.random() < 0.7]
    b = Structure.make(BIN_SIG, nb, {"E": b_tuples})
    f = [rng.randrange(nb) for _ in range(na)]
    a_tuples = [t for t in itertools.product(range(na), repeat=2)
                if (f[t[0]], f[t[1]]) in b.relations["E"] and rng.random() < 0.7]
    a = Structure.make(BIN_SIG, na, {"E": a_tuples})
    return a, b, c


def test_criterion_6_transitivity():
    """200 random triples with universes <= 4: no counterexample to
    transitivity of cohomological k-consistency, k in {2, 3}."""
    rng = random.Random(606)
    counterexamples = 0
    applicable = 0
    for trial in range(200):
        k = 2 + trial % 2
        if trial % 2 == 0:
            a, b, c = _planted_chain(rng)
        else:
            a = random_structure(rng, rng.randint(1, 4))
            b = random_structure(rng, rng.randint(1, 4))
            c = random_structure(rng, rng.randint(1, 4))
        if not run_decision(a, b, k, "cohomological", "csp")[-1].accepted:
            continue
        if not run_decision(b, c, k, "cohomological", "csp")[-1].accepted:
            continue
        applicable += 1
        if not run_decision(a, c, k, "cohomological", "csp")[-1].accepted:
            counterexamples += 1
    ok = counterexamples == 0 and applicable > 20
    report_line(6, ok, f"200 triples, {applicable} with both hops accepted, "
                       f"{counterexamples} transitivity violations")


def test_criterion_7_integer_linear_oracle_equivalence():
    """1000 random systems <= 6x6 solved by the engine's SparseEchelon: status
    vs bounded brute force and vs the exact dense HNF solver, exact
    re-verification, and HNF round-trips with unimodular transforms."""
    rng = random.Random(707)
    box_bound = {1: 50, 2: 50, 3: 10, 4: 8, 5: 5, 6: 5}
    bad = 0
    for _ in range(1000):
        m_rows = rng.randint(1, 6)
        n_cols = rng.randint(1, 6)
        m = IntMatrix.from_rows([[rng.randint(-5, 5) for _ in range(n_cols)]
                                 for _ in range(m_rows)])
        b = [rng.randint(-8, 8) for _ in range(m_rows)]
        res = hermite_normal_form(m)
        if res.U.matmul(m) != res.H or abs(det_bareiss(res.U)) != 1:
            bad += 1
            continue
        rows = [{j: v for j, v in enumerate(r) if v} for r in m.to_rows()]
        x = SparseEchelon(n_cols, rows).solve(
            {i: v for i, v in enumerate(b) if v})
        if (x is None) != (hnf_solve(m, b) is None):
            bad += 1  # disagrees with the exact dense solver
        elif x is not None:
            if m.matvec(x) != b:
                bad += 1
        else:
            if box_solve(m, b, box_bound[n_cols]) is not None:
                bad += 1  # false infeasible
    ok = bad == 0
    report_line(7, ok, f"1000 systems, {bad} violations "
                       f"(round-trip, re-verification, no false infeasibles, "
                       f"SparseEchelon status equals HNF status)")


def test_criterion_8_refinement_invariants(affine_pool, tseitin_records,
                                           cfi_separations):
    """accept(cohomological) implies accept(classical) on every instance
    touched in criteria 1-5, read from the compare reports."""
    docs = [r["doc"] for q in MODULI for r in affine_pool[q]]
    docs += [r["doc"] for r in tseitin_records]
    docs += [d["doc"] for d in cfi_separations["docs"]]
    violations = [d for d in docs if not d["refinement_ok"]]
    ok = not violations and len(docs) >= 300
    report_line(8, ok, f"{len(docs)} compare reports audited, "
                       f"{len(violations)} refinement violations")
