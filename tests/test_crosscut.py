import random
import weakref

import pytest

from polycomplete import crosscut
from polycomplete.crosscut import (
    SIDE_AUTO,
    SIDE_DUAL,
    SIDE_PRIMAL,
    analyze,
    boundary_matrix,
    collapse,
    decide,
    enumerate_faces,
)
from polycomplete.fixtures import (
    crosspolytope_incidence,
    cube_km,
    cyclic_incidence,
    delete_minor,
    prism,
    simplex_incidence,
)
from polycomplete.incidence import IncidenceMinor, transpose

from oracle import collapse_by_listing, homology_all_ranks, supports


class TestEnumerateFaces:
    def test_km_top_layer_one_face_per_row(self, km):
        layer = enumerate_faces(km, 3)
        assert len(layer) == 6
        assert layer.faces == tuple(sorted(km.row_masks))

    def test_single_row_pairs(self):
        J = IncidenceMinor.from_rows(2, 3, [(1, 2, 3)])
        assert enumerate_faces(J, 1).faces == (0b011, 0b101, 0b110)

    def test_union_deduplicates(self):
        J = IncidenceMinor.from_rows(2, 4, [(1, 2, 3), (2, 3, 4)])
        # {1,2} {1,3} {2,3} {2,4} {3,4}, ascending as masks
        assert enumerate_faces(J, 1).faces == (0b0011, 0b0101, 0b0110, 0b1010, 0b1100)

    def test_empty_face_layer(self):
        J = IncidenceMinor.from_rows(2, 3, [(1, 2)])
        assert enumerate_faces(J, -1).faces == (0,)
        void = IncidenceMinor(0, 0, ())
        assert enumerate_faces(void, -1).faces == ()
        no_rows = IncidenceMinor(1, 3, ())  # columns but no row: still the void complex
        assert enumerate_faces(no_rows, -1).faces == ()

    def test_beyond_top_dimension_is_empty(self):
        J = IncidenceMinor.from_rows(2, 3, [(1, 2)])
        assert enumerate_faces(J, 5).faces == ()
        with pytest.raises(ValueError):
            enumerate_faces(J, -2)

    def test_km_face_counts(self, km):
        # 8 vertices, 24 edges, 24 triangles, 6 tetrahedra: reduced Euler
        # characteristic -1+8-24+24-6 = 1 matches a single 2-sphere class
        assert [len(enumerate_faces(km, k)) for k in range(4)] == [8, 24, 24, 6]


class TestBoundaryMatrix:
    def test_triangle_boundary_column(self):
        J = IncidenceMinor.from_rows(2, 3, [(1, 2, 3)])
        upper = enumerate_faces(J, 2)
        lower = enumerate_faces(J, 1)
        bd = boundary_matrix(upper, lower)
        assert (bd.nrows, bd.ncols) == (3, 1)
        assert bd.cols == [0b111]

    def test_empty_upper_layer(self, km):
        bd = boundary_matrix(enumerate_faces(km, 4), enumerate_faces(km, 3))
        assert (bd.nrows, bd.ncols) == (6, 0)
        assert bd.rank() == 0

    def test_km_top_boundary_injective(self, km):
        # no 3-subset lies in two rows (facet intersections have size <= 2),
        # so the 24x6 matrix has disjoint column supports
        bd = boundary_matrix(enumerate_faces(km, 3), enumerate_faces(km, 2))
        assert (bd.nrows, bd.ncols) == (24, 6)
        assert bd.rank() == 6

    def test_augmentation_row(self):
        J = IncidenceMinor.from_rows(1, 3, [(1,), (3,)])
        bd = boundary_matrix(enumerate_faces(J, 0), enumerate_faces(J, -1))
        assert (bd.nrows, bd.ncols) == (1, 2)
        assert bd.cols == [1, 1]


class TestCompleteness:
    def test_km_yes_at_3(self, km):
        assert analyze(3, km, side=SIDE_PRIMAL).complete is True

    def test_km_no_at_4(self, km):
        assert analyze(4, km, side=SIDE_PRIMAL).complete is False

    def test_punctured_triangle(self):
        J = IncidenceMinor.from_rows(2, 3, [(1, 2), (2, 3)])
        assert analyze(2, J, side=SIDE_PRIMAL).complete is False

    def test_negative_dimension_rejected(self, km):
        with pytest.raises(ValueError):
            decide(-1, km)

    def test_d0_convention(self):
        assert decide(0, IncidenceMinor(0, 1, ())) is True
        assert decide(0, IncidenceMinor(0, 2, ())) is False

    def test_empty_facet_set(self):
        assert decide(2, IncidenceMinor(2, 3, ())) is False

    def test_segment_d1(self):
        segment = simplex_incidence(1)
        assert decide(1, segment) is True
        assert decide(1, delete_minor(segment, rows=[1])) is False


class TestDecideSides:
    def test_km_auto_picks_dual(self, km):
        report = analyze(3, km)
        assert report.side == SIDE_DUAL
        assert report.complete is True
        # the dual complex is the octahedron boundary: 6 vertices, 12
        # edges, 8 triangles, nothing above
        assert report.boundary_d_shape == (8, 0)
        assert report.boundary_d1_shape == (12, 8)
        assert report.boundary_d1_kernel == 1

    def test_transposed_km_picks_primal(self, km):
        report = analyze(3, transpose(km))
        assert report.side == SIDE_PRIMAL
        assert report.complete is True

    def test_tie_breaks_primal(self):
        triangle = cyclic_incidence(2, 3)
        assert analyze(2, triangle).side == SIDE_PRIMAL

    def test_forced_sides_agree(self, km):
        assert decide(3, km, side=SIDE_PRIMAL) is True
        assert decide(3, km, side=SIDE_DUAL) is True
        assert decide(4, km, side=SIDE_PRIMAL) is False
        assert decide(4, km, side=SIDE_DUAL) is False

    def test_unknown_side_rejected(self, km):
        with pytest.raises(ValueError):
            decide(3, km, side="sideways")


class TestOneBoundaryAtATime:
    def test_d_layer_released_before_second_boundary(self, monkeypatch):
        """The d-layer is gone by the time the boundary out of the (d-1)-layer is built."""
        uppers = []
        alive = []

        def spy(upper, lower):
            alive.append([ref() is not None for ref in uppers])
            uppers.append(weakref.ref(upper))
            return boundary_matrix(upper, lower)

        monkeypatch.setattr(crosscut, "boundary_matrix", spy)
        assert analyze(4, prism(cyclic_incidence(3, 8))).complete is True
        assert alive == [[], [False]]


def direct_numbers(d, M):
    """Shapes, rank and kernel of M's crosscut complex, every face built and no column cleared."""
    upper, middle, lower = (enumerate_faces(M, k) for k in (d, d - 1, d - 2))
    kernel = len(middle) - boundary_matrix(middle, lower).rank()
    return (len(middle), len(upper)), boundary_matrix(upper, middle).rank(), (len(lower), len(middle)), kernel


def report_numbers(report):
    return report.boundary_d_shape, report.boundary_d_rank, report.boundary_d1_shape, report.boundary_d1_kernel


class TestClearing:
    @pytest.mark.parametrize(
        "d,J",
        [(4, prism(cyclic_incidence(3, 8))), (3, cube_km()), (4, delete_minor(prism(cube_km()), rows=[3]))],
    )
    def test_second_boundary_gets_only_uncleared_columns(self, monkeypatch, d, J):
        built = []

        def spy(upper, lower):
            matrix = boundary_matrix(upper, lower)
            built.append(matrix.ncols)
            return matrix

        monkeypatch.setattr(crosscut, "boundary_matrix", spy)
        report = analyze(d, J, side=SIDE_PRIMAL)
        (middle, _), rank_d, _, _ = direct_numbers(d, J)
        # the columns built are those of the collapsed complex, the one reduced
        K = collapse(d, J)[0]
        (middle_K, upper_K), rank_K, _, _ = direct_numbers(d, K)
        assert built == [upper_K, middle_K - rank_K]
        assert report.boundary_d_rank == rank_d > 0
        assert report.boundary_d1_shape[1] == middle

    def test_kernel_matches_reduction_without_clearing(self, corpus):
        """All the numbers, shapes and rank too, match the reduction with neither collapse nor clearing."""
        for name, J in corpus:
            if J.m == 0 or J.n == 0:
                continue
            for side, M in ((SIDE_PRIMAL, J), (SIDE_DUAL, transpose(J)), (SIDE_AUTO, None)):
                if M is not None and max(map(int.bit_count, M.row_masks)) > 10:
                    continue  # cyclic-5-8 read dual: its 11-vertex rows make the reference slow
                for d in range(max(J.d - 1, 1), J.d + 2):  # d = 0 has no homology to clear
                    report = analyze(d, J, side=side)
                    analyzed = J if report.side == SIDE_PRIMAL else transpose(J)
                    assert report_numbers(report) == direct_numbers(d, analyzed), (name, d, side)


def assert_collapse_exact(d, J, label=None):
    """analyze's numbers on J, forced primal and forced dual, equal the direct reduction."""
    for side, M in ((SIDE_PRIMAL, J), (SIDE_DUAL, transpose(J))):
        assert report_numbers(analyze(d, J, side=side)) == direct_numbers(d, M), (label, d, side)


class TestCollapse:
    @pytest.mark.parametrize(
        "d, rows",
        [
            (2, (0b1111, 0b11110000)),  # two components: C is only the empty face
            (1, (0b111, 0b111000)),
            (2, (0b1111, 0b11110000, 0b1100000000)),
            (1, (0b111111, 0b111)),  # the first cone is the second row: one generator left
            (4, (0b1111111111,)),  # a row alone: C is only the empty face, the cone a vertex
            (8, (0b1111111111,)),
            (2, (0b111111100, 0b111111100, 0b111111100)),  # one distinct row, repeated
            (1, (0b111, 0b1)),  # the apex lies in the other row: no cone, the triangle becomes vertex 1
            (1, (0b11111, 0b11100)),  # a big row inside another big row
        ],
    )
    def test_small_cases(self, d, rows):
        assert_collapse_exact(d, IncidenceMinor(d, 10, rows))

    def test_random_set_systems(self):
        """Arbitrary rows, not only polytopes': nested, repeated, disjoint and empty ones."""
        rng = random.Random(14)
        for _ in range(400):
            density = rng.random()
            rows = tuple(sum(1 << v for v in range(8) if rng.random() < density) for _ in range(rng.randint(1, 6)))
            d = rng.randint(1, 4)
            assert_collapse_exact(d, IncidenceMinor(d, 8, rows), rows)

    def test_repeated_full_row_in_closed_form(self):
        """24 copies of a 24-vertex row at d = 9: the numbers of the full 23-simplex."""
        report = analyze(9, IncidenceMinor(9, 24, ((1 << 24) - 1,) * 24))
        assert report.side == SIDE_PRIMAL
        assert report.boundary_d_shape == (1307504, 1961256)  # C(24,9) x C(24,10)
        assert report.boundary_d_rank == 817190  # C(23,9)
        assert report.boundary_d1_shape == (735471, 1307504)  # C(24,8) x C(24,9)
        assert report.boundary_d1_kernel == 817190

    def test_polar_prism_collapses_to_a_few_faces(self):
        """No cone through a top of C that holds the apex: such a cone is F & S, and listing it keeps S whole."""
        M = transpose(prism(cyclic_incidence(3, 18)))
        K = collapse(4, M)[0]
        assert len(enumerate_faces(K, 4)) <= 28 and len(enumerate_faces(K, 3)) <= 190

    def test_collapse_fires_on_prism(self, monkeypatch):
        built = []

        def spy(upper, lower):
            built.append(len(upper))
            return boundary_matrix(upper, lower)

        monkeypatch.setattr(crosscut, "boundary_matrix", spy)
        report = analyze(4, prism(cyclic_incidence(3, 8)), side=SIDE_PRIMAL)
        assert built[0] < report.boundary_d_shape[1]
        assert built[1] < report.boundary_d1_shape[1]


def maximal_faces(faces):
    return {f for f in faces if not any(f < g for g in faces)}


def assert_counts_by_listing(d, M, label=None):
    """collapse's pair counts and complex equal those of the same pass with C listed face by face."""
    K, q = collapse(d, M)
    gens, q_listed = collapse_by_listing(d, M.row_masks)
    assert q == q_listed, label
    # a row inside another generator may stay in one and be dropped in the other: compare complexes
    assert maximal_faces(set(map(frozenset, supports(K)))) == maximal_faces(gens), label


class TestCollapseCounts:
    """The pair counts, counted from C's maximal faces, against C listed face by face."""

    def test_random_set_systems(self):
        rng = random.Random(17)
        for _ in range(500):
            d = rng.randint(1, 6)
            n = rng.randint(d + 2, 12)
            rows = []
            for _ in range(rng.randint(1, 8)):
                size = rng.randint(d + 2, n) if rng.random() < 0.6 else rng.randint(0, d + 1)
                rows.append(sum(1 << v for v in rng.sample(range(n), size)))
            assert_counts_by_listing(d, IncidenceMinor(d, n, tuple(rows)), rows)

    @pytest.mark.parametrize(
        "name, J",
        [
            ("prism-cyclic-3-14", prism(cyclic_incidence(3, 14))),
            ("prism-cyclic-3-14-r26", delete_minor(prism(cyclic_incidence(3, 14)), rows=[26])),
            ("prism-cyclic-3-18", prism(cyclic_incidence(3, 18))),
            ("prism-cyclic-3-18-r19", delete_minor(prism(cyclic_incidence(3, 18)), rows=[19])),
            ("prism-cyclic-4-16", prism(cyclic_incidence(4, 16))),
            ("prism-cyclic-4-16-r88", delete_minor(prism(cyclic_incidence(4, 16)), rows=[88])),
            ("prism-cyclic-3-18-polar", transpose(prism(cyclic_incidence(3, 18)))),
        ],
    )
    def test_ladder_prism_rungs(self, name, J):
        """The benchmark's prism rungs and their seed-1 minors, on the side the decision picks."""
        M = J if analyze(J.d, J).side == SIDE_PRIMAL else transpose(J)
        assert_counts_by_listing(J.d, M, name)

    def test_forced_dual_cyclic_4_40(self):
        """40 rows of 74 vertices, where listing the faces of C takes tens of seconds."""
        q = collapse(4, transpose(cyclic_incidence(4, 40)))[1]
        assert q == [48_863, 1_867_185, 38_228_962, 565_241_523]


SPHERES = (
    [(d, simplex_incidence(d)) for d in range(1, 6)]
    + [(2, cyclic_incidence(2, 4)), (3, cube_km()), (4, prism(cube_km()))]
    + [(d, crosspolytope_incidence(d)) for d in (2, 3, 4)]
    + [
        (3, cyclic_incidence(3, 6)),
        (3, cyclic_incidence(3, 9)),
        (4, cyclic_incidence(4, 8)),
        (5, cyclic_incidence(5, 9)),
    ]
)


class TestSphereChecks:
    @pytest.mark.parametrize("d,J", SPHERES)
    def test_complete_matrices_have_one_homology_class(self, d, J):
        report = analyze(d, J)
        assert report.complete is True
        assert report.boundary_d1_kernel - report.boundary_d_rank == 1

    @pytest.mark.parametrize("d,J", SPHERES)
    def test_single_deletions_flip_to_no(self, d, J):
        for i in range(1, J.m + 1):
            assert decide(d, delete_minor(J, rows=[i])) is False
        for j in range(1, J.n + 1):
            assert decide(d, delete_minor(J, cols=[j])) is False


class TestOracleEquivalence:
    @pytest.mark.parametrize(
        "J",
        [
            cube_km(),
            cyclic_incidence(2, 5),
            cyclic_incidence(3, 6),
            crosspolytope_incidence(3),
            simplex_incidence(3),
            delete_minor(cube_km(), rows=[2], cols=[5]),
            prism(cyclic_incidence(2, 3)),
        ],
    )
    def test_all_degrees_match_oracle(self, J):
        profile = homology_all_ranks(J)
        top = max((len(s) for s in supports(J)), default=0) - 1
        for k in range(0, top + 1):
            upper = enumerate_faces(J, k + 1)
            this = enumerate_faces(J, k)
            lower = enumerate_faces(J, k - 1)
            kernel = len(this) - boundary_matrix(this, lower).rank()
            rank_up = boundary_matrix(upper, this).rank()
            assert kernel - rank_up == profile.betti(k), f"degree {k}"
