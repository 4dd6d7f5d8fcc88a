import hashlib
import random
import time
import tracemalloc
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polycomplete import geometry
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
from polycomplete.incidence import serialize_incidence

from oracle import permutation_equivalent, rank_over_q, supports, tight_masks_and_violations


def failures(report, check):
    """The report's issues under one check, in report order."""
    return [i for i in report.issues if i.check == check]


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
        assert all(len(sup) == 3 for sup in supports(J))
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
        assert all(mask >> 8 & 1 == 0 for mask in J.row_masks)

    def test_negative_dimension_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            GeometricInstance(-1, (), ())

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
        assert {i.subject for i in failures(report, CHECK_VERTEX)} == {
            "point 5",
            "point 6",
            "point 7",
            "point 8",
        }
        assert {i.check for i in report.issues} == {CHECK_VERTEX}

    def test_translated_halfspace_fails_facet_check(self):
        base = geometric_cube_km()
        moved = base.halfspaces[:5] + (Halfspace((0, 0, 1), 2),)
        report = validate_instance(GeometricInstance(3, base.points, moved))
        assert {i.subject for i in failures(report, CHECK_FACET)} == {"halfspace 6"}
        # the four top vertices also lose their third tight plane
        assert len(failures(report, CHECK_VERTEX)) == 4

    def test_outside_point_fails_containment(self):
        base = geometric_cube_km()
        inst = GeometricInstance(3, base.points + ((2, 0, 0),), base.halfspaces)
        report = validate_instance(inst)
        assert any(i.subject == "point 9" for i in failures(report, CHECK_CONTAINMENT))

    def test_flat_points_fail_full_dimension(self):
        # all eight points squashed onto z = 0
        points = tuple((p[0], p[1], Fraction(0)) for p in geometric_cube_km().points)
        report = validate_instance(GeometricInstance(3, points, geometric_cube_km().halfspaces))
        assert failures(report, CHECK_DISTINCT)
        assert failures(report, CHECK_FULL_DIMENSION)

    def test_duplicate_points_rejected(self):
        base = geometric_cube_km()
        inst = GeometricInstance(3, base.points + (base.points[0],), base.halfspaces)
        report = validate_instance(inst)
        assert [i.subject for i in failures(report, CHECK_DISTINCT)] == ["point 9"]

    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError):
            Halfspace((Fraction(0), Fraction(0)), Fraction(1))

    @pytest.mark.parametrize("inst", [geometric_simplex(3), geometric_crosspolytope(3)])
    def test_deleted_vertex_fails_facet_check_on_simplicial_fixtures(self, inst):
        reduced = GeometricInstance(inst.d, inst.points[1:], inst.halfspaces)
        report = validate_instance(reduced)
        assert failures(report, CHECK_FACET)
        assert report.incidence == extract_incidence(reduced)

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


def _bare_triangle():
    # no halfspaces: each vertex check ranks an empty row list
    return GeometricInstance(2, ((0, 0), (1, 0), (0, 1)), ())


def _triangle_loose_halfspace():
    # x + y <= 5 is tight on no point: the facet check ranks no rows
    return GeometricInstance(2, ((0, 0), (1, 0), (0, 1)), (Halfspace((1, 1), 5),))


TIGHT_EVERYWHERE = "tight on every point, so the bodies cannot both be full-dimensional"
FACET_SPAN = "tight points affinely span dimension {}, expected 2"
FACET_SPAN_2D = "tight points affinely span dimension {}, expected 1"
NO_NORMALS_2D = "tight halfspace normals span dimension 0, expected 2"


class TestGoldenIssues:
    """Pinned, in order, every (check, subject, detail) of four failing instances."""

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
            (_bare_triangle, [(CHECK_VERTEX, f"point {i}", NO_NORMALS_2D) for i in (1, 2, 3)]),
            (
                _triangle_loose_halfspace,
                [
                    *[(CHECK_VERTEX, f"point {i}", NO_NORMALS_2D) for i in (1, 2, 3)],
                    (CHECK_FACET, "halfspace 1", FACET_SPAN_2D.format(-1)),
                ],
            ),
        ],
    )
    def test_issue_list(self, make, expected):
        inst = make()
        report = validate_instance(inst)
        assert [(i.check, i.subject, i.detail) for i in report.issues] == expected
        assert report.incidence == extract_incidence(inst)


P = (1 << 61) - 1  # a prime: modulo P the triangle below loses rank


def _p_triangle(points=((0, 0), (P, 0), (0, 1))):
    """The triangle (0,0), (P,0), (0,1): modulo P its points (0,0) and (P,0)
    coincide, and the hypotenuse x + P*y <= P has normal (1, 0)."""
    halfspaces = (Halfspace((0, -1), 0), Halfspace((-1, 0), 0), Halfspace((1, P), P))
    return GeometricInstance(2, points, halfspaces)


class TestModularRankFallback:
    """Coordinates of 2^61 and more, on which a rank taken modulo P falls
    short of the rank over Q in three checks; the ranks must be exact."""

    def test_valid_triangle_passes(self):
        report = validate_instance(_p_triangle())
        assert report.ok
        assert [bin(mask) for mask in report.incidence.row_masks] == ["0b11", "0b101", "0b110"]

    def test_invalid_variant_reports_the_exact_rank(self):
        report = validate_instance(_p_triangle(((0, 0), (P, 0))))
        assert [(i.check, i.subject, i.detail) for i in report.issues] == [
            (CHECK_FULL_DIMENSION, "points", "affine hull has dimension 1, expected 2"),
            (CHECK_FULL_DIMENSION, "halfspace 1", TIGHT_EVERYWHERE),
            (CHECK_FACET, "halfspace 2", FACET_SPAN_2D.format(0)),
            (CHECK_FACET, "halfspace 3", FACET_SPAN_2D.format(0)),
        ]


def _random_integer_matrices(count, seed):
    """Seeded (rows, bound) cases: planted dependencies, zero rows, entries
    up to 10^40, bounds below and above the rank, empty and zero-width."""
    rng = random.Random(seed)
    yield [], 0
    yield [], 3
    yield [()], 1
    yield [(), ()], 2
    for _ in range(count):
        ncols = rng.randint(1, 6)
        size = 10 ** rng.choice((1, 2, 5, 20, 40))
        rows = []
        for _ in range(rng.randint(0, 8)):
            kind = rng.random()
            if kind < 0.15:
                rows.append((0,) * ncols)
            elif kind < 0.5 and rows:
                # an integer combination of up to three earlier rows
                picks = [rng.choice(rows) for _ in range(rng.randint(1, 3))]
                coeffs = [rng.randint(-size, size) for _ in picks]
                rows.append(tuple(sum(c * r[j] for c, r in zip(coeffs, picks)) for j in range(ncols)))
            else:
                rows.append(tuple(rng.randint(-size, size) for _ in range(ncols)))
        yield rows, rng.randint(0, ncols + 1)


def test_rank_matches_the_fraction_reference():
    for rows, bound in _random_integer_matrices(2000, seed=9):
        assert geometry.rational_rank(rows, bound) == min(rank_over_q(rows), bound), (rows, bound)


def _damaged_instances(count, seed):
    """Seeded instances, each a small fixture with one or two kinds of damage."""
    rng = random.Random(seed)
    bases = [
        geometric_cube_km(),
        geometric_simplex(3),
        geometric_crosspolytope(3),
        geometric_crosspolytope(4),
        geometric_cyclic(2, 6),
        geometric_cyclic(3, 7),
        geometric_cyclic(4, 8),
    ]
    small = [Fraction(n, d) for n in range(-3, 4) for d in (1, 2, 3) if n]

    def drop_point(inst):
        i = rng.randrange(len(inst.points))
        return GeometricInstance(inst.d, inst.points[:i] + inst.points[i + 1 :], inst.halfspaces)

    def drop_halfspace(inst):
        k = rng.randrange(len(inst.halfspaces))
        return GeometricInstance(inst.d, inst.points, inst.halfspaces[:k] + inst.halfspaces[k + 1 :])

    def shift_offset(inst):
        k = rng.randrange(len(inst.halfspaces))
        h = inst.halfspaces[k]
        moved = Halfspace(h.normal, h.offset + rng.choice(small))
        return GeometricInstance(inst.d, inst.points, inst.halfspaces[:k] + (moved,) + inst.halfspaces[k + 1 :])

    def point_outside(inst):
        p = rng.choice(inst.points)
        far = tuple(x * rng.choice((2, 3, Fraction(3, 2))) + rng.choice(small) for x in p)
        return GeometricInstance(inst.d, inst.points + (far,), inst.halfspaces)

    def duplicate_point(inst):
        return GeometricInstance(inst.d, inst.points + (rng.choice(inst.points),), inst.halfspaces)

    def flatten(inst):
        axis = rng.randrange(inst.d)
        flat = tuple(p[:axis] + (Fraction(0),) + p[axis + 1 :] if rng.random() < 0.5 else p for p in inst.points)
        return GeometricInstance(inst.d, flat, inst.halfspaces)

    def rescale_halfspace(inst):
        k = rng.randrange(len(inst.halfspaces))
        h, lam = inst.halfspaces[k], rng.choice(small)
        scaled = Halfspace(tuple(lam * a for a in h.normal), lam * h.offset)
        return GeometricInstance(inst.d, inst.points, inst.halfspaces[:k] + (scaled,) + inst.halfspaces[k + 1 :])

    kinds = [drop_point, drop_halfspace, shift_offset, point_outside, duplicate_point, flatten, rescale_halfspace]
    for _ in range(count):
        inst = rng.choice(bases)
        for damage in rng.sample(kinds, rng.randint(1, 2)):
            inst = damage(inst)
        yield inst


class TestGoldenDamaged:
    """Issue lists and extracted matrices over seeded damaged instances, pinned
    by the SHA-256 of their text: any change to a check, its order, its
    message or the matrix it reads changes the digest."""

    def test_digest(self):
        digest, failing = hashlib.sha256(), 0
        for inst in _damaged_instances(400, 20260101):
            report = validate_instance(inst)
            failing += not report.ok
            for issue in report.issues:
                digest.update(f"{issue.check}\t{issue.subject}\t{issue.detail}\n".encode())
            digest.update(serialize_incidence(report.incidence).encode())
        assert failing == 351
        assert digest.hexdigest() == "eeb1e56a8fd37ceaa63c495634488f17c4f19fa4d43aa27c5f0d5a7e49673b30"


def _containment_pairs(report):
    """The (point, halfspace) pair each containment issue names, in report order."""
    return [(int(i.subject.split()[1]), int(i.detail.split()[2])) for i in failures(report, CHECK_CONTAINMENT)]


@pytest.mark.parametrize(
    "instances",
    [
        lambda: _damaged_instances(400, 20260101),
        lambda: [geometric_cube_km(), geometric_simplex(3), geometric_crosspolytope(4), geometric_cyclic(4, 8)],
        lambda: [make() for make in (_two_outside_points, _flat_cube, _bare_triangle, _triangle_loose_halfspace)]
        + [_p_triangle(), _p_triangle(((0, 0), (P, 0)))],
    ],
    ids=["damaged", "fixtures", "hand-built"],
)
def test_sweeps_match_the_fraction_reference(instances):
    """Both pair sweeps of validate_instance against Fractions: the tight
    masks its report carries, and the strict violations its containment
    issues name, in order."""
    for inst in instances():
        report = validate_instance(inst)
        tight, violations = tight_masks_and_violations(inst)
        assert report.incidence.row_masks == tight
        assert _containment_pairs(report) == violations


def _random_wide_instances(count, seed):
    """Seeded instances whose coordinates and coefficients are zero or
    signed rationals from 1 to 10^30 in size, over denominators up to 10^6.
    Each offset is the largest value of its normal on a few of the points,
    sometimes moved by a little, so a halfspace is tight on some points and
    violated by others."""
    rng = random.Random(seed)

    def rational():
        if rng.random() < 0.2:
            return Fraction(0)
        den = rng.choice((1, 1, 2, 3, 7, 10**6))
        return Fraction(rng.choice((-1, 1)) * rng.randint(den, 10 ** rng.randint(0, 30) * den), den)

    for _ in range(count):
        d = rng.randint(1, 4)
        points = [tuple(rational() for _ in range(d)) for _ in range(rng.randint(1, 9))]
        halfspaces = []
        for _ in range(rng.randint(0, 6)):
            normal = tuple(rational() for _ in range(d))
            if not any(normal):
                normal = (Fraction(1), *normal[1:])
            top = max(sum(a * x for a, x in zip(normal, p)) for p in rng.sample(points, rng.randint(1, len(points))))
            halfspaces.append(Halfspace(normal, top + rng.choice((0, 0, 1, -1, Fraction(-1, 10**30)))))
        yield GeometricInstance(d, tuple(points), tuple(halfspaces))


def _exact_bound_instances():
    """Slacks of exactly +B and -B, B = sum_j N_j M_j the lane rule's
    bound, for B of every bit length up to 80: the points are packed while
    the form is under 64 bits, and the form after; the point coordinates
    stay small, so B alone sets the lane width.  A lone point at -B is the
    case a narrow lane gets wrong: its lane wraps to a set top bit, and no
    other lane shows the violation."""
    for t in range(1, 81):
        for a in (2**t - 1, 2 ** (t - 1)):
            for points in (((1,),), ((-1,),), ((1,), (-1,))):
                yield GeometricInstance(1, points, (Halfspace((a,), 0),))  # slack -a at 1, +a at -1
            for points in (((1, 2),), ((1, 2), (-1, -2))):
                yield GeometricInstance(2, points, (Halfspace((a, 1), 0),))  # slacks -(a + 2), +(a + 2)
            # the offset's term reaches its bound too: slack -(2a + 2) = -B at (1, 2)
            yield GeometricInstance(2, ((1, 2),), (Halfspace((a, 1), -a),))


def _edge_instances():
    big = 10**40
    yield GeometricInstance(2, ((0, 0), (1, 0), (0, 1)), ())  # no halfspaces
    yield GeometricInstance(3, ((1, 2, 3),), (Halfspace((1, 0, 0), 0), Halfspace((0, 1, 0), 2)))  # one point
    yield GeometricInstance(3, ((1, 2, 3),), (Halfspace((1, 0, 0), 1),))  # one point, inside
    # d = 1: an interval and a point on each side of it
    yield GeometricInstance(1, ((0,), (1,), (-1,), (2,)), (Halfspace((-1,), 0), Halfspace((1,), 1)))
    # x <= 1 has a zero entry beside y, which is far larger than its B = 3
    yield GeometricInstance(2, ((0, big), (2, -big), (1, 0)), (Halfspace((1, 0), 1),))
    yield GeometricInstance(2, ((Fraction(1, 3), big), (Fraction(4, 3), -big)), (Halfspace((3, 0), 1),))
    # the mirror case, with the form packed: x is 0 on every point, beside a
    # coefficient of x far larger than B = 3
    yield GeometricInstance(2, ((0, 1), (0, -1), (0, 2)), (Halfspace((big, 1), 1),))
    # a point and a form of 4,000 digits, each in a width class of its own
    huge = 10**4000
    points = ((0, 0), (huge, 1), (1, 1), (-huge, 2))
    yield GeometricInstance(2, points, (Halfspace((1, 0), 1), Halfspace((0, 1), 1), Halfspace((huge, 1), huge)))


@pytest.mark.parametrize(
    "instances",
    [lambda: _random_wide_instances(300, 20261020), _exact_bound_instances, _edge_instances],
    ids=["random-wide", "exact-bound", "edge"],
)
def test_containment_matches_the_fraction_reference(instances):
    """The packed containment test against Fractions: the containment issues
    name exactly the strictly violated pairs, point-major."""
    for inst in instances():
        report = validate_instance(inst)
        tight, violations = tight_masks_and_violations(inst)
        assert _containment_pairs(report) == violations, inst
        assert report.incidence.row_masks == tight


def _small_points(rng, n):
    return [(rng.randint(1, 10**3), *(rng.randint(-(10**9), 10**9) for _ in range(3))) for _ in range(n)]


def _timed(f, *args):
    t0 = time.perf_counter()
    f(*args)
    return time.perf_counter() - t0


def _kernel_cost(forms, points):
    return min(_timed(geometry._violated_forms, forms, points) for _ in range(5))


def test_containment_cost_grows_roughly_linearly():
    # smoke check only: sixteen times the points should cost about sixteen
    # to twenty times as much (the packed integers outgrow the caches), far
    # below the 256 of a packing that is quadratic in them; generous slack
    # keeps timing noise out
    rng = random.Random(7)
    forms = [tuple(rng.randint(-(10**6), 10**6) for _ in range(4)) for _ in range(6)]
    small, large = _kernel_cost(forms, _small_points(rng, 2500)), _kernel_cost(forms, _small_points(rng, 40000))
    assert large < 60 * small + 1e-3


def test_one_wide_point_widens_no_other_lane():
    # a point of 4,000 digits among 5,000 small ones is packed in a width
    # class of its own and costs about one point more; lanes that wide for
    # every point would cost about seventy times as much
    rng = random.Random(11)
    forms = [tuple(rng.randint(-(10**6), 10**6) for _ in range(4)) for _ in range(6)]
    points = _small_points(rng, 5000)
    wide = points + [(1, 10**4000, -(10**4000), 10**3999)]
    assert _kernel_cost(forms, wide) < 4 * _kernel_cost(forms, points) + 1e-3


def _wide_rows(rng, n):
    return [tuple(rng.choice((-1, 1)) * rng.randint(10**3999, 10**4000) for _ in range(4)) for _ in range(n)]


def _per_pair_violated_forms(forms, points):
    """The per-pair sweep the packed test replaces: every slack on its own."""
    return [k for k, form in enumerate(forms) if min(sum(map(mul, form, p)) for p in points) < 0]


@pytest.mark.parametrize("case", ["wide form", "wide points", "wide forms"])
def test_wide_values_cost_about_what_the_per_pair_sweep_costs(case):
    # the wider side of a pair of width classes is packed and the narrower
    # multiplies it; packing the narrower side too, or one class for every
    # width, costs 10 to 30 times the per-pair sweep on one of these cases,
    # the packed test 1 to 3 times
    rng = random.Random(17)
    small_forms = [tuple(rng.randint(-(10**6), 10**6) for _ in range(4)) for _ in range(6)]
    forms, points = {
        "wide form": (small_forms[:5] + [(10**4000, 1, -1, 1)], _small_points(rng, 5000)),
        "wide points": (small_forms, _wide_rows(rng, 200)),
        "wide forms": (_wide_rows(rng, 200), _small_points(rng, 6)),
    }[case]
    assert geometry._violated_forms(forms, points) == _per_pair_violated_forms(forms, points)
    per_pair = min(_timed(_per_pair_violated_forms, forms, points) for _ in range(5))
    assert _kernel_cost(forms, points) < 8 * per_pair + 1e-3


def test_one_wide_form_keeps_the_packed_integers_small():
    # an entry of 4,000 digits makes the lanes of its class pair that wide;
    # the form is packed and the narrower points multiply it, where packing
    # the 5,000 points in lanes that wide would take 8 MB a coordinate
    rng = random.Random(13)
    forms = [tuple(rng.randint(-(10**6), 10**6) for _ in range(4)) for _ in range(5)]
    forms.append((10**4000, 1, -1, 1))
    points = _small_points(rng, 5000)
    tracemalloc.start()
    try:
        geometry._violated_forms(forms, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


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

    def test_round_trip_d0(self):
        """A point in dimension 0 has no coordinates: its line is empty, as a width-zero incidence row is."""
        inst = GeometricInstance(0, ((),), ())
        assert validate_instance(inst).ok
        assert serialize_geometry(inst) == "0 1 0\n\n"
        assert parse_geometry(serialize_geometry(inst)) == inst
        assert parse_geometry("# one point\n0 1 0\n\n\n\n") == inst

    def test_integer_and_fraction_tokens_build_no_fraction(self, monkeypatch):
        text = serialize_geometry(geometric_cyclic(4, 9))  # the text of gen cyclic 4 9 --geometry
        assert "/" in text and "." not in text
        calls = []

        def counting_fraction(*args):
            calls.append(args)
            return Fraction(*args)

        monkeypatch.setattr(geometry, "Fraction", counting_fraction)
        assert validate_instance(parse_geometry(text)).ok
        assert calls == []

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
            "1 2 2\n0\n1e3000000\n-1 0\n1 1\n",  # exponents: a 3-million-digit integer
            "1 1 1\n0\n1E2 1\n",
            "1 1 1\n2.5e-1\n1 1\n",
        ],
    )
    def test_parse_rejects(self, text):
        with pytest.raises(GeometryFormatError):
            parse_geometry(text)

    def test_exponent_named_in_message(self):
        with pytest.raises(GeometryFormatError, match=r"^line 3: bad rational '1e3000000'$"):
            parse_geometry("1 2 2\n0\n1e3000000\n-1 0\n1 1\n")

    def test_decimals_still_read(self):
        inst = parse_geometry("1 2 2\n-0.5\n1.5\n-1 0.5\n1 1.5\n")
        assert inst.points == ((Fraction(-1, 2),), (Fraction(3, 2),))
