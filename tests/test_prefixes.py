"""Agreement in the hull algorithm's regime: minors with most facets missing.

The paper decides completeness to drive a convex-hull algorithm, which
asks about every facet list it holds on the way, most of them missing
most facets.  Here each base's facets are put in an order a hull
algorithm could meet them in, each one adjacent (``oracle.facet_adjacency``)
to one before it, and every prefix of that order is decided, certified
and verified.  Only the full list is complete.

On the prefixes of the random polytopes' prisms and pyramids, whose big
facets make the collapse fire, both forced sides must also give the
numbers of the direct reduction.
"""

import random

import pytest

from polycomplete.crosscut import decide
from polycomplete.fixtures import crosspolytope_incidence, cube_km, cyclic_incidence, prism
from polycomplete.incidence import IncidenceMinor

from oracle import facet_adjacency, pyramid
from test_crosscut import assert_collapse_exact
from test_random_polytopes import CASES, assert_agree, random_polytope

FIXTURES = [
    ("cyclic-4-12", cyclic_incidence(4, 12)),
    ("cyclic-5-11", cyclic_incidence(5, 11)),
    ("cyclic-3-16", cyclic_incidence(3, 16)),
    ("crosspolytope-5", crosspolytope_incidence(5)),
    ("prism-prism-cube-km", prism(prism(cube_km()))),
    ("prism-cyclic-3-10", prism(cyclic_incidence(3, 10))),
]

# the direct reduction builds every face on both sides: past this many rows or
# vertices in a row, its cost grows to seconds over the whole corpus
EXACT_MAX = 8


def grown_order(J, rng):
    """The rows in a seeded order in which each row is adjacent to an earlier one."""
    adjacent = facet_adjacency(J)
    order = [rng.randrange(J.m)]
    frontier = set(adjacent[order[0]])
    while frontier:
        row = rng.choice(sorted(frontier))
        order.append(row)
        frontier = (frontier | adjacent[row]) - set(order)
    assert sorted(order) == list(range(J.m)), "the facets are not connected by adjacency"
    return order


def prefixes(J, seed):
    """The prefixes of two seeded grown orders, shortest first."""
    for rng in (random.Random(seed), random.Random(seed + 1)):
        order = grown_order(J, rng)
        for k in range(1, J.m + 1):
            yield k, IncidenceMinor(J.d, J.n, tuple(J.row_masks[i] for i in order[:k]))


def assert_prefixes_agree(J, seed, exact=False):
    for k, M in prefixes(J, seed):
        assert decide(J.d, M) is (k == J.m), k
        assert_agree(J.d, M)
        if exact and max(M.m, *map(int.bit_count, M.row_masks)) <= EXACT_MAX:
            assert_collapse_exact(J.d, M, k)


@pytest.mark.parametrize("name, J", FIXTURES, ids=[name for name, _ in FIXTURES])
def test_fixture_prefixes(name, J):
    assert_prefixes_agree(J, 10)


@pytest.mark.parametrize("d, i", CASES, ids=[f"d{d}-{i}" for d, i in CASES])
def test_random_polytope_prefixes(d, i):
    J = random_polytope(d, i)
    assert_prefixes_agree(J, 1000 * d + i)
    for P in (pyramid(J), prism(J)):
        assert_prefixes_agree(P, 1000 * d + i, exact=True)
