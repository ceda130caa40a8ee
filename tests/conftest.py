import itertools
import random

import pytest

from cohomcsp import Signature, Structure


BIN_SIG = Signature((("E", 2),))


def graph_structure(n, edges, directed=False):
    """Structure with one binary relation; undirected edges get both orientations."""
    tuples = set()
    for u, v in edges:
        tuples.add((u, v))
        if not directed:
            tuples.add((v, u))
    return Structure.make(BIN_SIG, n, {"E": tuples})


def cycle_structure(n):
    return graph_structure(n, [(i, (i + 1) % n) for i in range(n)])


def complete_structure(n):
    return graph_structure(n, itertools.combinations(range(n), 2))


def random_structure(rng: random.Random, size: int, signature=BIN_SIG,
                     density: float = 0.3) -> Structure:
    relations = {}
    for name, arity in signature.symbols:
        tuples = [t for t in itertools.product(range(size), repeat=arity)
                  if rng.random() < density]
        relations[name] = tuples
    return Structure.make(signature, size, relations)


# structure documents the loader must refuse, by defect
MALFORMED_DOCS = {
    "relations not an object":
        '{"signature":[{"name":"E","arity":2}],"size":3,"relations":[[0,1]]}',
    "float size":
        '{"signature":[{"name":"E","arity":2}],"size":2.9,"relations":{"E":[]}}',
    "float entry":
        '{"signature":[{"name":"E","arity":2}],"size":3,"relations":{"E":[[0,1.7]]}}',
    "bool entry":
        '{"signature":[{"name":"E","arity":2}],"size":3,"relations":{"E":[[0,true]]}}',
    "bool size":
        '{"signature":[{"name":"E","arity":2}],"size":true,"relations":{"E":[]}}',
    "float arity":
        '{"signature":[{"name":"E","arity":2.0}],"size":3,"relations":{"E":[]}}',
}


@pytest.fixture
def rng():
    return random.Random(20240811)
