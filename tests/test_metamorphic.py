"""Metamorphic tests: relations between reports that hold on every input.

The deciders work on the structures only up to isomorphism, so every report
of all four methods -- verdict, per-iteration removals, system sizes and
survivors per context size, `ms` aside -- must be the same after A's and B's
universes are permuted.  Three more properties relate runs to each other:
swapping A and B keeps both k-WL verdicts (the iso presheaf of (B, A) is the
inverse of that of (A, B)); a method that accepts at k+1 accepts at k (more
pebbles only refine); and the cohomological run keeps a subset of the
classical fixpoint, so it accepts only where the classical one does and has
no more survivors at any context size.

Instances are random graphs with a unary colour (B mostly of A's size, so the
iso problem is not decided by the size check alone) and overdetermined affine
systems over Z_2 / Z_3 on 3-4 variables, where Zext removals are common.
The explicit example adds a digraph pair whose Zext sweep removes sections
with no symmetry among B's values, so a sweep whose outcome depends on B's
element names changes its report there.
"""

from hypothesis import example, given, settings, strategies as st

from cohomcsp import (AffineSystem, Signature, Structure, affine_to_instance,
                      run_decision)

SIG = Signature((("E", 2), ("U", 1)))


def _relabel(s: Structure, perm) -> Structure:
    return Structure.make(s.signature, s.size,
                          {name: [tuple(perm[e] for e in t) for t in ts]
                           for name, ts in s.relations.items()})


def _graph(draw, n: int) -> Structure:
    elems = st.integers(0, n - 1)
    rels = {"E": draw(st.sets(st.tuples(elems, elems), max_size=8)),
            "U": draw(st.sets(st.tuples(elems), max_size=n))}
    return Structure.make(SIG, n, rels)


@st.composite
def _graph_pairs(draw):
    na = draw(st.integers(1, 4))
    nb = draw(st.one_of(st.just(na), st.integers(1, 4)))
    return _graph(draw, na), _graph(draw, nb)


@st.composite
def _affine_pairs(draw):
    q = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(3, 4))
    equation = st.lists(st.integers(0, n - 1), min_size=2, max_size=3,
                        unique=True).flatmap(lambda idx: st.tuples(
                            st.tuples(*[st.integers(1, q - 1)] * len(idx)),
                            st.just(tuple(idx)), st.integers(0, q - 1)))
    eqs = draw(st.lists(equation, min_size=3, max_size=5))
    return affine_to_instance(AffineSystem(q, n, tuple(eqs)))


@st.composite
def _relabelled(draw):
    a, b = draw(st.one_of(_graph_pairs(), _affine_pairs()))
    return (a, b, draw(st.permutations(range(a.size))),
            draw(st.permutations(range(b.size))))


def _reports(a, b, k, problem):
    out = []
    for rep in run_decision(a, b, k, "cohomological", problem):
        doc = rep.to_dict()
        del doc["ms"]
        out.append(doc)
    return out


# the sweep removes 22 of its 49 sections at k=2
ZEXT_PAIR = (
    Structure.make(SIG, 4, {"E": [(0, 1), (1, 0), (3, 0), (3, 1), (3, 2)]}),
    Structure.make(SIG, 3, {"E": [(0, 2), (1, 0), (1, 1), (2, 0), (2, 1)]}))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(inst=_relabelled(), k=st.sampled_from((2, 3, 1)))
@example(inst=ZEXT_PAIR + ((2, 0, 3, 1), (1, 2, 0)), k=2)
def test_reports_invariant_under_relabelling(inst, k):
    a, b, pa, pb = inst
    ra, rb = _relabel(a, pa), _relabel(b, pb)
    for problem in ("csp", "iso"):
        assert _reports(ra, rb, k, problem) == _reports(a, b, k, problem)


@st.composite
def _instances(draw):
    """A structure pair and a problem: graph pairs as CSP or iso, affine
    systems as CSP (their A and B differ in size, so iso is settled by it)."""
    return draw(st.one_of(
        st.tuples(_graph_pairs(), st.sampled_from(("csp", "iso"))),
        st.tuples(_affine_pairs(), st.just("csp"))))


def _verdicts(a, b, k, problem):
    return [rep.verdict for rep in run_decision(a, b, k, "cohomological", problem)]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(pair=_graph_pairs(), k=st.sampled_from((1, 2, 3)))
def test_iso_verdicts_symmetric(pair, k):
    a, b = pair
    assert _verdicts(a, b, k, "iso") == _verdicts(b, a, k, "iso")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(inst=_instances(), k=st.sampled_from((1, 2)))
def test_accept_at_k_plus_one_implies_accept_at_k(inst, k):
    (a, b), problem = inst
    for below, above in zip(_verdicts(a, b, k, problem),
                            _verdicts(a, b, k + 1, problem)):
        assert below == "accept" or above == "reject"


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(inst=_instances(), k=st.sampled_from((1, 2, 3)))
def test_cohomological_refines_classical(inst, k):
    (a, b), problem = inst
    classical, cohom = run_decision(a, b, k, "cohomological", problem)
    assert classical.accepted or not cohom.accepted
    for size, count in cohom.sections_per_size.items():
        assert count <= classical.sections_per_size.get(size, 0)
