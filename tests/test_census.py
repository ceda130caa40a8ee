"""A census of small structures as the engine's differential net.

Every binary relation on 1-3 unlabelled points (2 + 10 + 104 structures,
OEIS A000595) is decided against every structure on at most 2 points (csp),
and every equal-size pair on at most 2 points is decided as iso, at k=2 and
k=3, with both methods as `--compare` reports them.  The verdicts are checked
against the brute-force oracles, and one sha256 over all reports with `ms`
stripped pins them, so a refactor that changes any report shows here.
"""

import hashlib
import itertools
import json

from cohomcsp import Structure, brute_force_hom, brute_force_iso
from cohomcsp.cli import _compare_doc
from conftest import BIN_SIG

# sha256 over the census reports, one JSON line per decision, `ms` stripped
CENSUS_DIGEST = "a309f9f2f5e93e8cfd763c9448b6c04fb45864b6719958188a065009279f97e1"


def _relations(n):
    """One structure per isomorphism class of binary relations on n points,
    as its lexicographically least edge list, in that order."""
    pairs = list(itertools.product(range(n), repeat=2))
    classes = set()
    for mask in range(2 ** len(pairs)):
        edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
        classes.add(min(tuple(sorted((perm[u], perm[v]) for u, v in edges))
                        for perm in itertools.permutations(range(n))))
    return [Structure.make(BIN_SIG, n, {"E": edges}) for edges in sorted(classes)]


def test_census_of_small_binary_relations():
    by_size = {n: _relations(n) for n in (1, 2, 3)}
    assert [len(by_size[n]) for n in (1, 2, 3)] == [2, 10, 104]
    pairs = [("csp", a, b) for n in (1, 2, 3) for a in by_size[n]
             for m in (1, 2) for b in by_size[m]]
    pairs += [("iso", a, b) for n in (1, 2) for a in by_size[n] for b in by_size[n]]
    digest = hashlib.sha256()
    for problem, a, b in pairs:
        oracle = brute_force_hom if problem == "csp" else brute_force_iso
        found = oracle(a, b).status == "found"
        for k in (2, 3):
            doc = _compare_doc(a, b, k, problem)
            verdicts = [doc[m]["verdict"] == "accept"
                        for m in ("classical", "cohomological")]
            case = (problem, a.relations, b.relations, k)
            assert doc["refinement_ok"], case
            if found:
                assert all(verdicts), case
            if k >= a.size:
                assert verdicts == [found, found], case
            for m in ("classical", "cohomological"):
                del doc[m]["ms"]
            digest.update(json.dumps(doc, sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == CENSUS_DIGEST
