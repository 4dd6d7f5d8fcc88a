from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polycomplete.fixtures import (
    crosspolytope_incidence,
    cyclic_incidence,
    geometric_crosspolytope,
    geometric_cube_km,
    geometric_cyclic,
    geometric_simplex,
    simplex_incidence,
)
from polycomplete.geometry import (
    CHECK_CONTAINMENT,
    CHECK_DISTINCT,
    CHECK_FACET,
    CHECK_FULL_DIMENSION,
    CHECK_VERTEX,
    GeometricInstance,
    GeometryFormatError,
    Halfspace,
    extract_incidence,
    parse_geometry,
    serialize_geometry,
    validate_instance,
)

from oracle import permutation_equivalent


def drop_halfspace(inst, k):
    return GeometricInstance(
        inst.d, inst.points, tuple(h for i, h in enumerate(inst.halfspaces, start=1) if i != k)
    )


class TestExtract:
    def test_cube_reproduces_km_exactly(self, km):
        assert extract_incidence(geometric_cube_km()) == km

    def test_cube_permutation_equivalent(self, km):
        assert permutation_equivalent(extract_incidence(geometric_cube_km()), km)

    def test_simplex_complement_of_identity(self):
        J = extract_incidence(geometric_simplex(3))
        assert (J.d, J.m, J.n) == (3, 4, 4)
        assert all(len(sup) == 3 for sup in J.supports())
        assert permutation_equivalent(J, simplex_incidence(3))

    def test_crosspolytope(self):
        J = extract_incidence(geometric_crosspolytope(3))
        assert (J.m, J.n) == (8, 6)
        assert permutation_equivalent(J, crosspolytope_incidence(3))

    def test_interior_point_gives_zero_column(self):
        base = geometric_cube_km()
        center = tuple(Fraction(1, 2) for _ in range(3))
        inst = GeometricInstance(3, base.points + (center,), base.halfspaces)
        J = extract_incidence(inst)
        assert all(J.entry(i, 9) == 0 for i in range(1, J.m + 1))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            GeometricInstance(3, ((Fraction(0), Fraction(0)),), ())
        with pytest.raises(ValueError):
            GeometricInstance(2, (), (Halfspace((Fraction(1),), Fraction(0)),))


class TestValidate:
    @pytest.mark.parametrize(
        "inst",
        [geometric_cube_km(), geometric_simplex(2), geometric_simplex(4), geometric_crosspolytope(3)],
    )
    def test_fixtures_pass(self, inst):
        assert validate_instance(inst).ok

    def test_cyclic_moment_curve_passes(self):
        for d, n in [(2, 5), (3, 6), (4, 8)]:
            inst = geometric_cyclic(d, n)
            assert validate_instance(inst).ok
            assert extract_incidence(inst) == cyclic_incidence(d, n)

    def test_missing_facet_fails_vertex_check(self):
        # dropping z <= 1 leaves vertices 5..8 on only two tight planes
        report = validate_instance(drop_halfspace(geometric_cube_km(), 6))
        assert not report.ok
        assert {i.subject for i in report.failures(CHECK_VERTEX)} == {
            "point 5",
            "point 6",
            "point 7",
            "point 8",
        }
        assert report.failed_checks() == (CHECK_VERTEX,)

    def test_translated_halfspace_fails_facet_check(self):
        base = geometric_cube_km()
        moved = base.halfspaces[:5] + (Halfspace((0, 0, 1), 2),)
        report = validate_instance(GeometricInstance(3, base.points, moved))
        assert {i.subject for i in report.failures(CHECK_FACET)} == {"halfspace 6"}
        # the four top vertices also lose their third tight plane
        assert len(report.failures(CHECK_VERTEX)) == 4

    def test_outside_point_fails_containment(self):
        base = geometric_cube_km()
        inst = GeometricInstance(3, base.points + ((2, 0, 0),), base.halfspaces)
        report = validate_instance(inst)
        assert any(i.subject == "point 9" for i in report.failures(CHECK_CONTAINMENT))

    def test_flat_points_fail_full_dimension(self):
        # all eight points squashed onto z = 0
        points = tuple((p[0], p[1], Fraction(0)) for p in geometric_cube_km().points)
        report = validate_instance(GeometricInstance(3, points, geometric_cube_km().halfspaces))
        assert report.failures(CHECK_DISTINCT)
        assert report.failures(CHECK_FULL_DIMENSION)

    def test_duplicate_points_rejected(self):
        base = geometric_cube_km()
        inst = GeometricInstance(3, base.points + (base.points[0],), base.halfspaces)
        report = validate_instance(inst)
        assert [i.subject for i in report.failures(CHECK_DISTINCT)] == ["point 9"]

    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError):
            Halfspace((Fraction(0), Fraction(0)), Fraction(1))

    @pytest.mark.parametrize("inst", [geometric_simplex(3), geometric_crosspolytope(3)])
    def test_deleted_vertex_fails_facet_check_on_simplicial_fixtures(self, inst):
        reduced = GeometricInstance(inst.d, inst.points[1:], inst.halfspaces)
        report = validate_instance(reduced)
        assert report.failures(CHECK_FACET)

    def test_deleted_cube_vertex_is_a_valid_incomplete_instance(self, km):
        # cube facets keep 3 affinely spanning tight points, so validation
        # passes; the extraction is then an honest incomplete minor
        from polycomplete.crosscut import decide

        base = geometric_cube_km()
        reduced = GeometricInstance(3, base.points[1:], base.halfspaces)
        assert validate_instance(reduced).ok
        assert decide(3, extract_incidence(reduced)) is False


def _two_outside_points():
    # (2,0,0) violates x <= 1 only; (0,1/2,-1) violates -z <= 0 only
    base = geometric_cube_km()
    return GeometricInstance(3, base.points + ((2, 0, 0), (0, Fraction(1, 2), -1)), base.halfspaces)


def _flat_cube():
    points = tuple((p[0], p[1], Fraction(0)) for p in geometric_cube_km().points)
    return GeometricInstance(3, points, geometric_cube_km().halfspaces)


TIGHT_EVERYWHERE = "tight on every point, so the bodies cannot both be full-dimensional"
FACET_SPAN = "tight points affinely span dimension {}, expected 2"


class TestGoldenIssues:
    """Pinned, in order, every (check, subject, detail) of two failing instances."""

    @pytest.mark.parametrize(
        "make, expected",
        [
            (
                _two_outside_points,
                [
                    (CHECK_CONTAINMENT, "point 9", "violates halfspace 4 (2 > 1)"),
                    (CHECK_CONTAINMENT, "point 10", "violates halfspace 1 (1 > 0)"),
                    (CHECK_VERTEX, "point 9", "tight halfspace normals span dimension 2, expected 3"),
                    (CHECK_VERTEX, "point 10", "tight halfspace normals span dimension 1, expected 3"),
                ],
            ),
            (
                _flat_cube,
                [
                    (CHECK_DISTINCT, "point 5", "duplicates point 4"),
                    (CHECK_DISTINCT, "point 6", "duplicates point 3"),
                    (CHECK_DISTINCT, "point 7", "duplicates point 2"),
                    (CHECK_DISTINCT, "point 8", "duplicates point 1"),
                    (CHECK_FULL_DIMENSION, "points", "affine hull has dimension 2, expected 3"),
                    (CHECK_FULL_DIMENSION, "halfspace 1", TIGHT_EVERYWHERE),
                    (CHECK_FACET, "halfspace 2", FACET_SPAN.format(1)),
                    (CHECK_FACET, "halfspace 3", FACET_SPAN.format(1)),
                    (CHECK_FACET, "halfspace 4", FACET_SPAN.format(1)),
                    (CHECK_FACET, "halfspace 5", FACET_SPAN.format(1)),
                    (CHECK_FACET, "halfspace 6", FACET_SPAN.format(-1)),
                ],
            ),
        ],
    )
    def test_issue_list(self, make, expected):
        issues = validate_instance(make()).issues
        assert [(i.check, i.subject, i.detail) for i in issues] == expected


class TestScalingInvariance:
    @given(st.fractions(min_value=Fraction(1, 7), max_value=Fraction(9)))
    def test_extraction_invariant(self, lam):
        base = geometric_cube_km()
        scaled = GeometricInstance(
            3,
            tuple(tuple(lam * x for x in p) for p in base.points),
            tuple(Halfspace(h.normal, lam * h.offset) for h in base.halfspaces),
        )
        assert extract_incidence(scaled) == extract_incidence(base)


GEOM_TEXT = """\
# unit square
2 4 4
0 0
1 0
1 1
0 1
-1 0 0
0 -1 0
1 0 1
0 1 1
"""


class TestTextFormat:
    def test_parse(self):
        inst = parse_geometry(GEOM_TEXT)
        assert inst.d == 2
        assert len(inst.points) == 4
        assert len(inst.halfspaces) == 4
        assert validate_instance(inst).ok

    def test_round_trip(self):
        inst = geometric_cube_km()
        assert parse_geometry(serialize_geometry(inst)) == inst

    def test_fraction_coordinates(self):
        inst = parse_geometry("1 2 2\n-1/2\n3/2\n-1 1/2\n1 3/2\n")
        assert inst.points == ((Fraction(-1, 2),), (Fraction(3, 2),))
        assert parse_geometry(serialize_geometry(inst)) == inst

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "2 4\n",
            "2 1 1\n0 0\n",
            "2 1 1\n0 x\n-1 0 0\n",
            "2 1 1\n0 0\n0 0 0\n",  # zero normal
            "1 1 1\n1/0\n1 1\n",
        ],
    )
    def test_parse_rejects(self, text):
        with pytest.raises(GeometryFormatError):
            parse_geometry(text)
