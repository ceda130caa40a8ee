import itertools

import pytest

from cohomcsp import (LocalSection, Signature, Structure, StructureFormatError,
                      brute_force_hom, brute_force_iso, is_partial_hom,
                      is_partial_iso, structure_from_json, structure_to_json,
                      validate_structure)
from conftest import (BIN_SIG, MALFORMED_DOCS, complete_structure,
                      cycle_structure, graph_structure, random_structure)


def test_signature_rejects_duplicates_and_bad_arity():
    with pytest.raises(StructureFormatError):
        Signature((("E", 2), ("E", 3)))
    with pytest.raises(StructureFormatError):
        Signature((("E", 0),))


def test_validate_empty_structure_ok():
    s = Structure.make(BIN_SIG, 0, {"E": []})
    assert validate_structure(s) == []


def test_validate_out_of_range_entry():
    s = Structure(BIN_SIG, 3, {"E": frozenset({(0, 5)})})
    problems = validate_structure(s)
    assert any("entry out of range" in p for p in problems)


def test_validate_arity_mismatch():
    sig = Signature((("R", 3),))
    s = Structure(sig, 3, {"R": frozenset({(0, 1)})})
    problems = validate_structure(s)
    assert any("arity mismatch" in p for p in problems)


def test_local_section_invariants():
    with pytest.raises(ValueError):
        LocalSection((1, 0), (0, 1))        # unsorted domain
    with pytest.raises(ValueError):
        LocalSection((0, 1), (0,))          # length mismatch
    with pytest.raises(ValueError):
        LocalSection((0, 1), (2, 2), "isom")  # repeated value


def test_is_partial_hom_edge_cases():
    a = graph_structure(2, [(0, 1)], directed=True)
    b = graph_structure(2, [(0, 1)], directed=True)
    b_empty = graph_structure(2, [], directed=True)
    assert is_partial_hom(LocalSection((0, 1), (0, 1)), a, b)
    assert not is_partial_hom(LocalSection((0, 1), (0, 1)), a, b_empty)
    # no A-tuple inside a singleton domain: vacuous preservation
    assert is_partial_hom(LocalSection((0,), (0,)), a, b_empty)
    with pytest.raises(ValueError):
        is_partial_hom(LocalSection((5,), (0,)), a, b)


def test_is_partial_iso_reflection_and_injectivity():
    edge = graph_structure(2, [(0, 1)], directed=True)
    empty = graph_structure(2, [], directed=True)
    assert is_partial_iso(LocalSection((0, 1), (0, 1), "isom"), edge, edge)
    # fails reflection: image carries an edge the source lacks
    assert not is_partial_iso(LocalSection((0, 1), (0, 1), "isom"), empty, edge)
    assert not is_partial_iso(LocalSection((0, 1), (0, 0)), edge, edge)


def test_brute_force_hom_examples():
    k2 = complete_structure(2)
    assert brute_force_hom(cycle_structure(4), k2).status == "found"
    assert brute_force_hom(cycle_structure(3), k2).status == "none"
    res = brute_force_hom(complete_structure(4), complete_structure(3), budget=3)
    assert res.status == "budget_exceeded"


def test_brute_force_hom_found_maps_are_homs(rng):
    for _ in range(30):
        a = random_structure(rng, rng.randint(1, 4))
        b = random_structure(rng, rng.randint(1, 3))
        res = brute_force_hom(a, b)
        if res.status == "found":
            full = LocalSection(tuple(range(a.size)), res.mapping)
            assert is_partial_hom(full, a, b)


def test_brute_force_iso_examples():
    c4 = cycle_structure(4)
    assert brute_force_iso(c4, c4).status == "found"
    assert brute_force_iso(cycle_structure(3), cycle_structure(4)).status == "none"
    # same size, different edge count
    assert brute_force_iso(c4, complete_structure(4)).status == "none"


def test_full_domain_partial_hom_agrees_with_total(rng):
    """is_partial_hom on full domains == brute-force notion of homomorphism."""
    for _ in range(20):
        a = random_structure(rng, rng.randint(1, 3))
        b = random_structure(rng, rng.randint(1, 3))
        total_maps = itertools.product(range(b.size), repeat=a.size)
        any_hom = any(
            is_partial_hom(LocalSection(tuple(range(a.size)), m), a, b)
            for m in total_maps)
        assert any_hom == (brute_force_hom(a, b).status == "found")


def test_partial_iso_inverse_symmetry(rng):
    for _ in range(40):
        a = random_structure(rng, 3)
        b = random_structure(rng, 3)
        for dom in itertools.combinations(range(3), 2):
            for vals in itertools.permutations(range(3), 2):
                s = LocalSection(dom, vals, "isom")
                if is_partial_iso(s, a, b):
                    assert is_partial_iso(s.inverse(), b, a)


def test_restriction_of_partial_hom_is_partial_hom(rng):
    from reference import restrict
    for _ in range(40):
        a = random_structure(rng, 4)
        b = random_structure(rng, 3)
        dom = (0, 1, 2)
        for vals in itertools.product(range(3), repeat=3):
            s = LocalSection(dom, vals)
            if is_partial_hom(s, a, b):
                for sub in [(0,), (1, 2), (0, 2), ()]:
                    assert is_partial_hom(restrict(s, sub), a, b)
                break


def test_json_round_trip():
    s = graph_structure(4, [(0, 1), (2, 3)])
    text = structure_to_json(s)
    back = structure_from_json(text)
    assert back == s


def test_json_diagnostics():
    bad = '{"signature":[{"name":"E","arity":2}],"size":3,"relations":{"E":[[0,5]]}}'
    with pytest.raises(StructureFormatError, match="out of range"):
        structure_from_json(bad)
    with pytest.raises(StructureFormatError, match="not declared"):
        structure_from_json(
            '{"signature":[{"name":"E","arity":2}],"size":3,"relations":{"F":[]}}')
    with pytest.raises(StructureFormatError, match="invalid JSON"):
        structure_from_json("{nope")


@pytest.mark.parametrize("name", sorted(MALFORMED_DOCS))
def test_json_refuses_coercion(name):
    """Only JSON integers (not floats, not booleans) are sizes, arities and
    tuple entries; nothing is truncated or converted."""
    with pytest.raises(StructureFormatError):
        structure_from_json(MALFORMED_DOCS[name])
