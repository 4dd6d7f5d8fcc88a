"""Agreement in the hull algorithm's regime: minors with most facets missing.

The paper decides completeness to drive a convex-hull algorithm, which
asks about every facet list it holds on the way, most of them missing
most facets.  Here each base's facets are put in an order a hull
algorithm could meet them in, each one adjacent (``oracle.facet_adjacency``)
to one before it, and every prefix of that order is decided, certified
and verified.  Only the full list is complete.  Each prefix's Betti number
must also equal the one ``oracle.prefix_homology`` reads off a single
reduction of the whole order.

On the prefixes of the random polytopes' prisms and pyramids, whose big
facets make the collapse fire, both forced sides must also give the
numbers of the direct reduction.
"""

import random

import pytest

from polycomplete.crosscut import analyze, decide
from polycomplete.fixtures import crosspolytope_incidence, cube_km, cyclic_incidence, prism
from polycomplete.incidence import IncidenceMinor

from oracle import facet_adjacency, prefix_homology, pyramid
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

# prefix_homology lists every face with d-1..d+1 vertices of every row: the
# 16-vertex rows of prism-prism-cube-km alone take seconds, so it is left out
LISTING_MAX = 12


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


def assert_prefixes_agree(J, seed, exact=False):
    """Every prefix of two seeded grown orders, shortest first, is decided, certified and verified.

    Its Betti number is the one prefix_homology reads off one reduction of
    the whole order, unless a row is too big for that reduction to list.
    """
    listable = max(map(int.bit_count, J.row_masks)) <= LISTING_MAX
    for rng in (random.Random(seed), random.Random(seed + 1)):
        rows = tuple(J.row_masks[i] for i in grown_order(J, rng))
        betti = prefix_homology(J.d, rows) if listable else None
        for k in range(1, J.m + 1):
            M = IncidenceMinor(J.d, J.n, rows[:k])
            assert decide(J.d, M) is (k == J.m), k
            assert_agree(J.d, M)
            if betti is not None:
                assert analyze(J.d, M).homology_dim == betti[k - 1], k
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


@pytest.mark.parametrize(
    "rows, betti",
    [((0b01, 0b10), [0, 1]), ((0b11, 0b1100, 0b110000, 0b0110), [0, 1, 2, 1])],
    ids=["segment", "three-edges-then-a-bridge"],
)
def test_d1_prefixes(rows, betti):
    """At d = 1 the reduction holds the empty face, and each vertex's column is the augmentation row."""
    assert prefix_homology(1, rows) == betti
    for k in range(1, len(rows) + 1):
        assert analyze(1, IncidenceMinor(1, 6, rows[:k])).homology_dim == betti[k - 1]
