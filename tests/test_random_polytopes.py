"""Differential test on random exact polytopes.

The fixture families are highly symmetric.  Here random lattice points
in {0..3}^d, d = 2..4, become exact polytopes through the oracle's
brute-force hull; many are neither simplicial nor simple.  Geometry must
accept each one and extract the oracle's matrix, and the homology
decision must agree with the certificate search on the polytope and on
its row and column deletions.

Read at d + 1 the matrix is a minor of its prism's, so the two must
agree there too.  Read at d - 1 it is no valid input: the homology
decision still says no (reduced H_{d-2} of a (d-1)-sphere is zero), but
the certificate search, sound on valid input only, may find nothing.

Few of these polytopes have a facet with more than d vertices, so the
collapse seldom fires on them.  Their pyramids and prisms, built
combinatorially, have such facets by construction.
"""

import random
from functools import lru_cache

import pytest

from polycomplete.crosscut import decide
from polycomplete.fixtures import delete_minor, prism
from polycomplete.geometry import (
    GeometricInstance,
    Halfspace,
    extract_incidence,
    parse_geometry,
    serialize_geometry,
    validate_instance,
)
from polycomplete.incidence import IncidenceMinor
from polycomplete.pulling import find_certificate, verify_certificate

from oracle import exact_hull, pyramid, rank_over_q
from test_crosscut import assert_collapse_exact

PER_DIMENSION = 30
CASES = [(d, i) for d in (2, 3, 4) for i in range(PER_DIMENSION)]


def random_hull(rng, d):
    """The hull of d+1 to d+5 random points of {0..3}^d, redrawn until full-dimensional."""
    while True:
        points = [tuple(rng.randint(0, 3) for _ in range(d)) for _ in range(rng.randint(d + 1, d + 5))]
        if rank_over_q([(1, *p) for p in points]) == d + 1:
            return exact_hull(points)


@lru_cache(maxsize=None)
def random_polytope(d, i):
    """The incidence matrix of case (d, i), drawn once: the oracle's hull is the slow part."""
    return random_hull(random.Random(1000 * d + i), d).incidence()


def assert_agree(d, J):
    """decide says yes iff find_certificate finds nothing, and a found certificate verifies."""
    cert = find_certificate(d, J)
    assert decide(d, J) is (cert is None)
    if cert is not None:
        assert verify_certificate(d, J, cert) is True


@pytest.mark.parametrize("d, i", CASES, ids=[f"d{d}-{i}" for d, i in CASES])
def test_random_polytope(d, i):
    rng = random.Random(1000 * d + i)
    hull = random_hull(rng, d)
    J = hull.incidence()
    inst = GeometricInstance(d, hull.vertices, tuple(Halfspace(f[:-1], f[-1]) for f in hull.facets))

    report = validate_instance(inst)
    assert report.ok, report.issues
    assert report.incidence == J
    assert extract_incidence(parse_geometry(serialize_geometry(inst))) == J

    assert decide(d, J) is True
    assert_agree(d, J)
    for r in range(1, J.m + 1):
        assert_agree(d, delete_minor(J, rows=[r]))
    for c in range(1, J.n + 1):
        assert_agree(d, delete_minor(J, cols=[c]))
    for _ in range(3):
        rows = rng.sample(range(1, J.m + 1), rng.randint(1, min(3, J.m)))
        cols = rng.sample(range(1, J.n + 1), rng.randint(0, min(2, J.n)))
        assert_agree(d, delete_minor(J, rows=rows, cols=cols))

    above = IncidenceMinor(d + 1, J.n, J.row_masks)
    assert decide(d + 1, above) is False
    assert_agree(d + 1, above)

    below = IncidenceMinor(d - 1, J.n, J.row_masks)
    assert decide(d - 1, below) is False
    cert = find_certificate(d - 1, below)
    if cert is not None:
        assert verify_certificate(d - 1, below, cert) is True


@pytest.mark.parametrize("d, i", CASES, ids=[f"d{d}-{i}" for d, i in CASES])
def test_collapse_exact_on_random_polytope(d, i):
    """The collapsed decision's numbers equal the direct reduction's, at d-1, d and d+1."""
    J = random_polytope(d, i)
    minors = [J]
    minors += [delete_minor(J, rows=[r]) for r in range(1, J.m + 1)]
    minors += [delete_minor(J, cols=[c]) for c in range(1, J.n + 1)]
    for M in minors:
        for dd in (d - 1, d, d + 1):
            assert_collapse_exact(dd, IncidenceMinor(dd, M.n, M.row_masks))


@pytest.mark.parametrize("d, i", CASES, ids=[f"d{d}-{i}" for d, i in CASES])
def test_pyramid_and_prism(d, i):
    """Rows beyond d+1 vertices make the collapse fire: exact numbers on both sides, and the three agree.

    The direct reduction is left out on the 5-polytopes: the apex column of
    a pyramid is a dual row of up to 20 vertices, seconds of reference work
    for each minor.
    """
    J = random_polytope(d, i)
    for P in (pyramid(J), prism(J)):
        assert decide(P.d, P) is True
        minors = [delete_minor(P, rows=[r]) for r in range(1, P.m + 1)]
        minors += [delete_minor(P, cols=[c]) for c in range(1, P.n + 1)]
        if P.d < 5:
            for M in [P, *minors]:
                assert_collapse_exact(P.d, M)
        for M in minors:
            assert_agree(P.d, M)
