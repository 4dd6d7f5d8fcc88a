import random
import time
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycomplete.crosscut import decide
from polycomplete.fixtures import (
    crosspolytope_incidence,
    cube_km,
    cyclic_incidence,
    delete_minor,
    prism,
    simplex_incidence,
)
from polycomplete import pulling
from polycomplete.incidence import IncidenceMinor, bits
from polycomplete.pulling import (
    CertificateFormatError,
    PullingCertificate,
    find_certificate,
    find_pulling_facet,
    is_pulling_facet,
    parse_certificate,
    ridge_cofacet_count,
    serialize_certificate,
    verify_certificate,
)

from oracle import pulling_triangulation_by_flags, vertex_mask

# pulling triangulation of the Klee-Minty cube: two triangles per facet,
# coned from the facet's smallest vertex over its two far edges
KM_PULLING = {
    (1, 2, 3), (1, 3, 4), (1, 2, 7), (1, 7, 8), (1, 4, 5), (1, 5, 8),
    (2, 3, 6), (2, 6, 7), (3, 4, 5), (3, 5, 6), (5, 6, 7), (5, 7, 8),
}


def exhaustive_pulling(d, J):
    return {c for c in combinations(range(1, J.n + 1), d) if is_pulling_facet(d, J, vertex_mask(c))}


class TestIsPullingFacet:
    def test_figure_flag_facet(self, km):
        assert is_pulling_facet(3, km, vertex_mask((1, 7, 8))) is True

    def test_non_facet(self, km):
        assert is_pulling_facet(3, km, vertex_mask((1, 2, 4))) is False

    def test_facet_via_three_rows(self, km):
        assert is_pulling_facet(3, km, vertex_mask((1, 2, 3))) is True

    def test_exhaustive_km(self, km):
        assert exhaustive_pulling(3, km) == KM_PULLING

    def test_size_mismatch(self, km):
        with pytest.raises(ValueError):
            is_pulling_facet(3, km, vertex_mask((1, 7)))

    def test_out_of_range_vertex(self, km):
        with pytest.raises(ValueError):
            is_pulling_facet(3, km, vertex_mask((1, 7, 9)))


class TestFindPullingFacet:
    def test_km_trace(self, km):
        # lowest-row-index tie-breaking walks rows 2367, 3456, 5678
        assert find_pulling_facet(3, km) == vertex_mask((2, 3, 6))

    def test_km_d4_incomplete(self, km):
        assert find_pulling_facet(4, km) is None

    def test_single_row_containing_vertex_one(self, km):
        only_first = delete_minor(km, rows=[2, 3, 4, 5, 6])
        assert find_pulling_facet(3, only_first) is None

    def test_output_never_contains_vertex_one(self):
        for d, J in [(2, cyclic_incidence(2, 6)), (3, crosspolytope_incidence(3)), (4, cyclic_incidence(4, 8))]:
            facet = find_pulling_facet(d, J)
            assert facet is not None and not facet & vertex_mask((1,))

    def test_output_passes_membership(self):
        for d, J in [(2, cyclic_incidence(2, 5)), (3, cube_km()), (3, prism(cyclic_incidence(2, 3)))]:
            facet = find_pulling_facet(d, J)
            assert is_pulling_facet(d, J, facet) is True

    def test_d_below_one_rejected(self, km):
        with pytest.raises(ValueError):
            find_pulling_facet(0, km)


class TestRidgeCofacetCount:
    def test_edge_78(self, km):
        assert ridge_cofacet_count(3, km, vertex_mask((7, 8))) == 2

    def test_edge_12(self, km):
        assert ridge_cofacet_count(3, km, vertex_mask((1, 2))) == 2

    def test_uncovered_ridge(self, km):
        # {1,6} lies in no facet row, so no pulling facet can contain it
        assert ridge_cofacet_count(3, km, vertex_mask((1, 6))) == 0

    def test_size_mismatch(self, km):
        with pytest.raises(ValueError):
            ridge_cofacet_count(3, km, vertex_mask((1, 2, 3)))

    def test_d1_empty_ridge(self):
        segment = simplex_incidence(1)
        assert ridge_cofacet_count(1, segment, 0) == 2
        assert ridge_cofacet_count(1, delete_minor(segment, rows=[2]), 0) == 1


def unfiltered_cofacets(d, J, ridge, memo):
    """_cofacets without the step-1 filter: every vertex of a row holding the ridge is tried."""
    star = 0
    for r in J.row_masks:
        if r & ridge == ridge:
            star |= r
    cofacets = []
    for low in bits(star & ~ridge):
        cand = ridge | low
        if cand not in memo:
            memo[cand] = pulling.is_pulling_facet(d, J, cand)
        if memo[cand]:
            cofacets.append(cand)
    return cofacets


class TestStepOneFilter:
    """_cofacets tries only the vertices that can pass the greedy's first step, and finds the same facets."""

    def test_random_matrices_every_ridge(self):
        rng = random.Random(22)
        for _ in range(300):
            d = rng.randint(1, 5)
            n = rng.randint(d, 9)
            density = rng.random()
            rows = tuple(sum(1 << v for v in range(n) if rng.random() < density) for _ in range(rng.randint(0, 8)))
            J = IncidenceMinor(d, n, rows)
            for ridge in combinations(range(n), d - 1):
                ridge = sum(1 << v for v in ridge)
                assert pulling._cofacets(d, J, ridge, {}) == unfiltered_cofacets(d, J, ridge, {}), (d, rows, ridge)

    @pytest.mark.parametrize(
        "d, J", [(3, cube_km()), (4, cyclic_incidence(4, 10)), (3, delete_minor(cube_km(), rows=[1], cols=[5]))]
    )
    def test_fixture_ridges(self, d, J):
        for ridge in combinations(range(J.n), d - 1):
            ridge = sum(1 << v for v in ridge)
            assert pulling._cofacets(d, J, ridge, {}) == unfiltered_cofacets(d, J, ridge, {})

    def test_membership_tests_in_the_walk(self, monkeypatch):
        """The complete walk of prism(prism(cube-km)) makes 5,144 membership tests; unfiltered it made 6,884."""
        J = prism(prism(cube_km()))
        member = pulling.is_pulling_facet
        calls = []

        def counting(d, J, candidate):
            calls.append(candidate)
            return member(d, J, candidate)

        monkeypatch.setattr(pulling, "is_pulling_facet", counting)
        assert find_certificate(5, J) is None
        assert len(calls) == len(set(calls)) == 5_144
        calls.clear()
        monkeypatch.setattr(pulling, "_cofacets", unfiltered_cofacets)
        assert find_certificate(5, J) is None
        assert len(calls) == 6_884


class TestFindCertificate:
    def test_complete_km_returns_none(self, km):
        assert find_certificate(3, km) is None

    def test_km_d4_empty_complex(self, km):
        cert = find_certificate(4, km)
        assert cert.ridge is None
        assert verify_certificate(4, km, cert) is True

    def test_km_minus_last_row(self, km):
        # every surviving pulling facet contains vertex 1, so the facet
        # search itself already certifies incompleteness
        J = delete_minor(km, rows=[6])
        assert exhaustive_pulling(3, J) == {(1, 2, 3), (1, 3, 4)}
        cert = find_certificate(3, J)
        assert cert.ridge is None
        assert verify_certificate(3, J, cert) is True
        assert decide(3, J) is False

    def test_km_minus_first_row_boundary_ridge(self, km):
        J = delete_minor(km, rows=[1])
        cert = find_certificate(3, J)
        assert cert.ridge == (2, 3)
        assert verify_certificate(3, J, cert) is True
        assert decide(3, J) is False

    def test_km_minus_column_boundary_ridge(self, km):
        J = delete_minor(km, cols=[8])
        cert = find_certificate(3, J)
        assert cert.ridge is not None
        assert verify_certificate(3, J, cert) is True

    def test_deterministic(self, km):
        J = delete_minor(km, cols=[8])
        assert find_certificate(3, J) == find_certificate(3, J)

    @pytest.mark.parametrize(
        "d, J",
        [(3, cube_km()), (4, cyclic_incidence(4, 12)), (3, prism(cyclic_incidence(2, 6)))],
        ids=["cube-km", "cyclic-4-12", "prism-hexagon"],
    )
    def test_complete_walk_visits_each_ridge_once(self, monkeypatch, d, J):
        walked = []
        cofacets = pulling._cofacets

        def counting(d, J, ridge, memo):
            walked.append(ridge)
            return cofacets(d, J, ridge, memo)

        monkeypatch.setattr(pulling, "_cofacets", counting)
        assert find_certificate(d, J) is None
        ridges = {vertex_mask(r) for f in exhaustive_pulling(d, J) for r in combinations(f, d - 1)}
        assert len(walked) == len(ridges)
        assert set(walked) == ridges

    def test_d1(self):
        segment = simplex_incidence(1)
        assert find_certificate(1, segment) is None
        cert = find_certificate(1, delete_minor(segment, rows=[2]))
        assert cert is not None
        assert verify_certificate(1, delete_minor(segment, rows=[2]), cert) is True


class TestVerifyCertificate:
    def test_rejects_interior_ridge(self, km):
        cert = PullingCertificate((7, 8))
        assert verify_certificate(3, km, cert) is False

    def test_rejects_empty_claim_on_complete(self, km):
        cert = PullingCertificate()
        assert verify_certificate(3, km, cert) is False

    def test_malformed_ridge_size(self, km):
        cert = PullingCertificate((7,))
        with pytest.raises(CertificateFormatError):
            verify_certificate(3, km, cert)

    def test_malformed_out_of_range(self, km):
        cert = PullingCertificate((7, 9))
        with pytest.raises(CertificateFormatError):
            verify_certificate(3, km, cert)

    def test_d_below_one_rejected(self, km):
        cert = PullingCertificate()
        with pytest.raises(ValueError, match="at least 1"):
            verify_certificate(0, km, cert)


class TestCertificateText:
    def test_round_trip(self):
        for cert in (
            PullingCertificate(),
            PullingCertificate((2, 3)),
            PullingCertificate(()),
        ):
            assert parse_certificate(serialize_certificate(cert)) == cert

    def test_format(self):
        assert serialize_certificate(PullingCertificate()) == "EMPTY\n"
        assert serialize_certificate(PullingCertificate((2, 3))) == "RIDGE 2 3\n"

    @pytest.mark.parametrize("text", ["", "BOGUS 1 2\n", "RIDGE x\n", "RIDGE 3 2\n", "EMPTY 1\n", "EMPTY\nRIDGE 1\n"])
    def test_parse_rejects(self, text):
        with pytest.raises(CertificateFormatError):
            parse_certificate(text)


COMPLETE_SMALL = [
    (2, cyclic_incidence(2, 3)),
    (2, cyclic_incidence(2, 4)),
    (3, simplex_incidence(3)),
    (3, cube_km()),
    (3, crosspolytope_incidence(3)),
    (3, prism(cyclic_incidence(2, 3))),
    (4, cyclic_incidence(4, 8)),
]


class TestAgainstFlagOracle:
    @pytest.mark.parametrize("d,J", COMPLETE_SMALL)
    def test_membership_matches_flag_enumeration(self, d, J):
        assert exhaustive_pulling(d, J) == set(pulling_triangulation_by_flags(J))

    def test_km_twelve_facets(self, km):
        facets = pulling_triangulation_by_flags(km)
        assert len(facets) == 12
        assert (1, 7, 8) in facets and (1, 2, 3) in facets


class TestClosedSurface:
    @pytest.mark.parametrize("d,J", COMPLETE_SMALL)
    def test_every_ridge_in_exactly_two_facets(self, d, J):
        facets = exhaustive_pulling(d, J)
        assert facets
        for facet in facets:
            for ridge in combinations(facet, d - 1):
                assert ridge_cofacet_count(d, J, vertex_mask(ridge)) == 2
        assert find_certificate(d, J) is None


class TestCofacetCountOnMinors:
    @pytest.mark.parametrize("d,J", COMPLETE_SMALL)
    def test_count_matches_exhaustive_facets(self, d, J):
        # ridge_cofacet_count tries only vertices in a row containing the
        # ridge; the exhaustive facet list tries every d-subset
        minors = [delete_minor(J, rows=[i]) for i in range(1, J.m + 1)]
        minors += [delete_minor(J, cols=[j]) for j in range(1, J.n + 1)]
        for minor in minors:
            facets = exhaustive_pulling(d, minor)
            for facet in facets:
                for ridge in combinations(facet, d - 1):
                    expected = sum(1 for f in facets if set(ridge) <= set(f))
                    assert ridge_cofacet_count(d, minor, vertex_mask(ridge)) == expected


class TestSingleDeletionsCertified:
    @pytest.mark.parametrize(
        "d,J",
        [
            (2, cyclic_incidence(2, 4)),
            (3, simplex_incidence(3)),
            (3, cube_km()),
            (3, crosspolytope_incidence(3)),
            (3, prism(cyclic_incidence(2, 3))),
            (4, cyclic_incidence(4, 8)),
        ],
    )
    def test_every_single_deletion_certified(self, d, J):
        for i in range(1, J.m + 1):
            minor = delete_minor(J, rows=[i])
            cert = find_certificate(d, minor)
            assert cert is not None and verify_certificate(d, minor, cert)
        for j in range(1, J.n + 1):
            minor = delete_minor(J, cols=[j])
            cert = find_certificate(d, minor)
            assert cert is not None and verify_certificate(d, minor, cert)


# certificates of the middle-row and middle-column deleted minors, as the
# lexicographic ridge walk finds them
GOLDEN_CERTIFICATES = [
    pytest.param(cyclic_incidence(4, 20), "RIDGE 4 12 13\n", "RIDGE 1 2 9\n", id="cyclic-4-20"),
    pytest.param(cyclic_incidence(3, 60), "RIDGE 1 58\n", "RIDGE 1 29\n", id="cyclic-3-60"),
    pytest.param(crosspolytope_incidence(7), "RIDGE 1 10 11 12 13 14\n", "RIDGE 2 3 4 5 6 7\n", id="cross-7"),
    pytest.param(prism(prism(cube_km())), "RIDGE 17 25 26 27\n", "RIDGE 1 5 7 15\n", id="prism-prism-cube-km"),
    pytest.param(prism(cyclic_incidence(3, 14)), "RIDGE 1 11 25\n", "RIDGE 1 2 3\n", id="prism-cyclic-3-14"),
]


@pytest.mark.parametrize("J,row_cert,col_cert", GOLDEN_CERTIFICATES)
def test_golden_certificates(J, row_cert, col_cert):
    d = J.d
    assert find_certificate(d, J) is None
    row, col = (J.m + 1) // 2, (J.n + 1) // 2
    for minor, text in ((delete_minor(J, rows=[row]), row_cert), (delete_minor(J, cols=[col]), col_cert)):
        cert = find_certificate(d, minor)
        assert serialize_certificate(cert) == text
        assert verify_certificate(d, minor, cert) is True


AGREEMENT_BASES = [
    cyclic_incidence(4, 12),
    cyclic_incidence(5, 11),
    prism(prism(cube_km())),
    crosspolytope_incidence(5),
]


@st.composite
def deleted_minors(draw):
    J = draw(st.sampled_from(AGREEMENT_BASES))
    rows = draw(st.sets(st.integers(1, J.m), max_size=3))
    cols = draw(st.sets(st.integers(1, J.n), max_size=2))
    return delete_minor(J, rows=rows, cols=cols)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(deleted_minors())
def test_decide_agrees_with_certificate(J):
    cert = find_certificate(J.d, J)
    assert decide(J.d, J) is (cert is None)
    if cert is not None:
        assert verify_certificate(J.d, J, cert) is True


def reorder_columns_kept_first(J, deleted_cols):
    """Relabel so the surviving columns come first, in their old order."""
    kept = [j for j in range(1, J.n + 1) if j not in deleted_cols]
    order = kept + sorted(deleted_cols)
    masks = []
    for mask in J.row_masks:
        masks.append(sum(((mask >> (old - 1)) & 1) << new for new, old in enumerate(order)))
    return IncidenceMinor(J.d, J.n, tuple(masks))


class TestSubcomplexProperty:
    @pytest.mark.parametrize("rows,cols", [((2,), ()), ((1, 6), ()), ((), (8,)), ((), (3, 7)), ((4,), (2,))])
    def test_minor_facets_are_parent_facets(self, km, rows, cols):
        J = delete_minor(km, rows=rows, cols=cols)
        parent = reorder_columns_kept_first(km, set(cols))
        for facet in exhaustive_pulling(3, J):
            assert is_pulling_facet(3, parent, vertex_mask(facet)) is True


def test_membership_cost_grows_roughly_linearly():
    # smoke check only: doubling n+m on polygons should scale far below
    # quadratically; generous slack keeps timing noise out
    def cost(n):
        J = cyclic_incidence(2, n)
        candidate = vertex_mask((2, 3))
        best = float("inf")
        for _ in range(30):
            t0 = time.perf_counter()
            is_pulling_facet(2, J, candidate)
            best = min(best, time.perf_counter() - t0)
        return best

    small, large = cost(100), cost(800)
    assert large < 60 * small + 1e-4
