import random
import weakref

import pytest

from polycomplete import crosscut
from polycomplete.crosscut import (
    SIDE_AUTO,
    SIDE_DUAL,
    SIDE_PRIMAL,
    FaceLayer,
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

from oracle import boundary_columns, collapse_by_listing, gf2_rank, homology_all_ranks, supports, vertex_mask


class TestEnumerateFaces:
    def test_km_top_layer_one_face_per_row(self, km):
        layer = enumerate_faces(km, 3)
        assert len(layer) == 6
        assert layer.faces == tuple(sorted(km.row_masks))

    def test_single_row_pairs(self):
        J = IncidenceMinor(2, 3, tuple(map(vertex_mask, [(1, 2, 3)])))
        assert enumerate_faces(J, 1).faces == (0b011, 0b101, 0b110)

    def test_union_deduplicates(self):
        J = IncidenceMinor(2, 4, tuple(map(vertex_mask, [(1, 2, 3), (2, 3, 4)])))
        # {1,2} {1,3} {2,3} {2,4} {3,4}, ascending as masks
        assert enumerate_faces(J, 1).faces == (0b0011, 0b0101, 0b0110, 0b1010, 0b1100)

    def test_empty_face_layer(self):
        J = IncidenceMinor(2, 3, tuple(map(vertex_mask, [(1, 2)])))
        assert enumerate_faces(J, -1).faces == (0,)
        void = IncidenceMinor(0, 0, ())
        assert enumerate_faces(void, -1).faces == ()
        no_rows = IncidenceMinor(1, 3, ())  # columns but no row: still the void complex
        assert enumerate_faces(no_rows, -1).faces == ()

    def test_beyond_top_dimension_is_empty(self):
        J = IncidenceMinor(2, 3, tuple(map(vertex_mask, [(1, 2)])))
        assert enumerate_faces(J, 5).faces == ()
        with pytest.raises(ValueError):
            enumerate_faces(J, -2)

    def test_km_face_counts(self, km):
        # 8 vertices, 24 edges, 24 triangles, 6 tetrahedra: reduced Euler
        # characteristic -1+8-24+24-6 = 1 matches a single 2-sphere class
        assert [len(enumerate_faces(km, k)) for k in range(4)] == [8, 24, 24, 6]


class TestBoundaryMatrix:
    def test_triangle_boundary_column(self):
        J = IncidenceMinor(2, 3, tuple(map(vertex_mask, [(1, 2, 3)])))
        bd, lower = boundary_matrix(enumerate_faces(J, 2), J)
        assert (bd.nrows, bd.ncols) == (3, 1)
        assert bd.cols == [0b111]
        assert (lower.k, set(lower.faces)) == (1, set(enumerate_faces(J, 1).faces))

    def test_empty_upper_layer(self, km):
        # no 4-faces: the 3-faces are the six rows, appended after the pass
        bd, lower = boundary_matrix(enumerate_faces(km, 4), km)
        assert (bd.nrows, bd.ncols) == (6, 0)
        assert bd.rank() == 0
        assert lower.faces == km.row_masks

    def test_km_top_boundary_injective(self, km):
        # no 3-subset lies in two rows (facet intersections have size <= 2),
        # so the 24x6 matrix has disjoint column supports
        bd, lower = boundary_matrix(enumerate_faces(km, 3), km)
        assert (bd.nrows, bd.ncols) == (24, 6)
        assert bd.rank() == 6
        assert set(lower.faces) == set(enumerate_faces(km, 2).faces)

    def test_augmentation_row(self):
        J = IncidenceMinor(1, 3, tuple(map(vertex_mask, [(1,), (3,)])))
        bd, lower = boundary_matrix(enumerate_faces(J, 0), J)
        assert (bd.nrows, bd.ncols) == (1, 2)
        assert bd.cols == [1, 1]
        assert lower.faces == (0,)

    def test_columns_match_explicit_layers(self, km):
        """Each column, read back through the found layer, is the face's facets."""
        upper = enumerate_faces(km, 3)
        bd, lower = boundary_matrix(upper, km)
        assert bd.cols == boundary_columns(upper.faces, lower.faces)


def layers_from_above(d, J):
    """The (d-1)- and (d-2)-layers as boundary_matrix finds them, starting from the enumerated d-layer."""
    _, middle = boundary_matrix(enumerate_faces(J, d), J)
    _, lower = boundary_matrix(middle, J)
    return middle, lower


class TestLayersFromAbove:
    """The layers found as facets of the layer above equal the enumerated ones, as sets."""

    def assert_layers(self, d, J, label=None):
        middle, lower = layers_from_above(d, J)
        assert len(middle) == len(set(middle.faces)) and len(lower) == len(set(lower.faces)), label
        assert set(middle.faces) == set(enumerate_faces(J, d - 1).faces), label
        assert set(lower.faces) == set(enumerate_faces(J, d - 2).faces), label

    def test_random_set_systems(self):
        rng = random.Random(20)
        for _ in range(600):
            d = rng.randint(1, 6)
            n = rng.randint(1, 10)
            density = rng.random()
            rows = tuple(sum(1 << v for v in range(n) if rng.random() < density) for _ in range(rng.randint(1, 7)))
            self.assert_layers(d, IncidenceMinor(d, n, rows), (d, rows))

    @pytest.mark.parametrize(
        "d, rows",
        [
            (1, (0,)),  # only an empty row: the empty face and nothing above it
            (1, (0, 0b1)),
            (1, (0, 0b110)),
            (3, (0b111, 0b11100000)),  # rows of exactly d vertices in no larger row
            (3, (0b11, 0b1111000)),  # a row of exactly d-1 vertices in no larger row
            (3, (0b11, 0b111000, 0b11110000000)),
            (2, (0b1, 0b110, 0b11000)),  # rows of d-1 and d vertices only: no d-faces at all
        ],
    )
    def test_rows_in_no_larger_row(self, d, rows):
        self.assert_layers(d, IncidenceMinor(d, 12, rows))

    def test_forced_sides_of_collapsed_complexes(self, corpus):
        """On each side the decision can pick, the complex K' it reduces."""
        for name, J in corpus:
            if J.m == 0 or J.n == 0:
                continue
            for M in (J, transpose(J)):
                for d in range(max(J.d - 1, 1), J.d + 2):
                    self.assert_layers(d, collapse(d, M)[0], (name, d))

    def test_kept_faces_cover_the_layer_below(self):
        """The (d-2)-layer found from the (d-1)-faces that clearing keeps is the whole layer."""
        rng = random.Random(21)
        cleared_any = 0
        for _ in range(400):
            d = rng.randint(1, 6)
            n = rng.randint(d + 1, 10)
            rows = tuple(sum(1 << v for v in rng.sample(range(n), rng.randint(0, n))) for _ in range(rng.randint(1, 6)))
            J = IncidenceMinor(d, n, rows)
            bd, middle = boundary_matrix(enumerate_faces(J, d), J)
            bd.rank()
            kept = tuple(f for i, f in enumerate(middle.faces, 1) if i not in bd.pivots)
            cleared_any += len(kept) < len(middle)
            _, lower = boundary_matrix(FaceLayer(d - 1, kept), J)
            assert set(lower.faces) == set(enumerate_faces(J, d - 2).faces), (d, rows)
        assert cleared_any > 100


class TestCompleteness:
    def test_km_yes_at_3(self, km):
        assert analyze(3, km, side=SIDE_PRIMAL).complete is True

    def test_km_no_at_4(self, km):
        assert analyze(4, km, side=SIDE_PRIMAL).complete is False

    def test_punctured_triangle(self):
        J = IncidenceMinor(2, 3, tuple(map(vertex_mask, [(1, 2), (2, 3)])))
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

        def spy(upper, J):
            alive.append([ref() is not None for ref in uppers])
            uppers.append(weakref.ref(upper))
            return boundary_matrix(upper, J)

        monkeypatch.setattr(crosscut, "boundary_matrix", spy)
        assert analyze(4, prism(cyclic_incidence(3, 8))).complete is True
        assert alive == [[], [False]]


def direct_numbers(d, M):
    """Shapes, rank and kernel of M's crosscut complex, every face built and no column cleared.

    Each layer is enumerated from the rows, and each boundary is built and
    reduced by the test oracle between two explicitly given layers.
    """
    upper, middle, lower = (enumerate_faces(M, k).faces for k in (d, d - 1, d - 2))
    kernel = len(middle) - gf2_rank(boundary_columns(middle, lower))
    rank = gf2_rank(boundary_columns(upper, middle))
    return (len(middle), len(upper)), rank, (len(lower), len(middle)), kernel


def report_numbers(report):
    return report.boundary_d_shape, report.boundary_d_rank, report.boundary_d1_shape, report.boundary_d1_kernel


@pytest.fixture
def built(monkeypatch):
    """The column count of each boundary matrix that analyze builds, in order."""
    built = []

    def spy(upper, K):
        matrix, lower = boundary_matrix(upper, K)
        built.append(matrix.ncols)
        return matrix, lower

    monkeypatch.setattr(crosscut, "boundary_matrix", spy)
    return built


class TestClearing:
    @pytest.mark.parametrize(
        "d,J",
        [(4, prism(cyclic_incidence(3, 8))), (3, cube_km()), (4, delete_minor(prism(cube_km()), rows=[3]))],
    )
    def test_second_boundary_gets_only_uncleared_columns(self, built, d, J):
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


def regime_minors(rng, J):
    """J and a seeded sample of its single-row and single-column minors."""
    yield J
    for r in rng.sample(range(1, J.m + 1), min(J.m, 8)):
        yield delete_minor(J, rows=[r])
    for c in rng.sample(range(1, J.n + 1), min(J.n, 8)):
        yield delete_minor(J, cols=[c])


class TestPolynomialRegime:
    """On simplicial and simple input the decision builds at most (d+1) max(m, n) columns.

    Counts, not times.  The side chosen has rows of at most d vertices, so
    it has no d-face, and the second boundary gets at most one column per
    row.  The polar reads the same complex from the other side.
    """

    @pytest.mark.parametrize("d, n", [(d, n) for d in (3, 4, 5) for n in (d + 3, 20, 30)])
    def test_cyclic_and_polar_and_minors(self, built, d, n):
        rng = random.Random(100 * d + n)
        J = cyclic_incidence(d, n)
        for M in (*regime_minors(rng, J), *regime_minors(rng, transpose(J))):
            built.clear()
            analyze(d, M)
            assert len(built) == 2 and sum(built) <= (d + 1) * max(M.m, M.n), (d, n, M.m, M.n, built)


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

        def spy(upper, K):
            built.append(len(upper))
            return boundary_matrix(upper, K)

        monkeypatch.setattr(crosscut, "boundary_matrix", spy)
        report = analyze(4, prism(cyclic_incidence(3, 8)), side=SIDE_PRIMAL)
        assert built[0] < report.boundary_d_shape[1]
        assert built[1] < report.boundary_d1_shape[1]


LADDER_PRISM_RUNGS = [
    ("prism-cyclic-3-14", prism(cyclic_incidence(3, 14))),
    ("prism-cyclic-3-14-r26", delete_minor(prism(cyclic_incidence(3, 14)), rows=[26])),
    ("prism-cyclic-3-18", prism(cyclic_incidence(3, 18))),
    ("prism-cyclic-3-18-r19", delete_minor(prism(cyclic_incidence(3, 18)), rows=[19])),
    ("prism-cyclic-4-16", prism(cyclic_incidence(4, 16))),
    ("prism-cyclic-4-16-r88", delete_minor(prism(cyclic_incidence(4, 16)), rows=[88])),
    ("prism-cyclic-3-18-polar", transpose(prism(cyclic_incidence(3, 18)))),
]


def maximal_faces(faces):
    return {f for f in faces if not any(f < g for g in faces)}


def assert_counts_by_listing(d, M, label=None):
    """collapse's pair count and complex equal those of the same pass with C listed face by face."""
    K, q = collapse(d, M)
    gens, q_listed = collapse_by_listing(d, M.row_masks)
    assert q == q_listed[2], label  # the pairs (t, t + a) with |t| = d
    # a row inside another generator may stay in one and be dropped in the other: compare complexes
    assert maximal_faces(set(map(frozenset, supports(K)))) == maximal_faces(gens), label


class TestCollapseCounts:
    """The pair count, counted from C's maximal faces, against C listed face by face."""

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

    @pytest.mark.parametrize("name, J", LADDER_PRISM_RUNGS)
    def test_ladder_prism_rungs(self, name, J):
        """The benchmark's prism rungs and their seed-1 minors, on the side the decision picks."""
        M = J if analyze(J.d, J).side == SIDE_PRIMAL else transpose(J)
        assert_counts_by_listing(J.d, M, name)

    def test_forced_dual_cyclic_4_40(self):
        """40 rows of 74 vertices, where listing the faces of C takes tens of seconds.

        The faces of K with 3, 4 and 5 vertices are those of K' plus the
        pairs with |t| = 2..5 that took them (48,863, 1,867,185, q and
        565,241,523), each pair one face from each of two adjacent sizes.
        """
        M = transpose(cyclic_incidence(4, 40))
        K, q = collapse(4, M)
        assert q == 38_228_962
        faces = crosscut._count_subsets(M.row_masks, range(3, 6))
        assert faces == [2_252_680, 43_071_740, 624_272_880]
        pairs = [48_863, 1_867_185, q, 565_241_523]
        collapsed = crosscut._count_subsets(K.row_masks, range(3, 6))
        assert [n + pairs[i] + pairs[i + 1] for i, n in enumerate(collapsed)] == faces


class TestCollapseReturnsM:
    """Nothing to replace, nothing to count: collapse hands back the matrix itself."""

    @pytest.mark.parametrize("d, M", [(4, cyclic_incidence(4, 40)), (9, crosspolytope_incidence(9))])
    def test_simplicial_primal(self, d, M):
        K, q = collapse(d, M)
        assert K is M and q == 0

    @pytest.mark.parametrize("name, J", LADDER_PRISM_RUNGS)
    def test_prism_rungs_collapse(self, name, J):
        M = J if analyze(J.d, J).side == SIDE_PRIMAL else transpose(J)
        assert collapse(J.d, M)[0] is not M, name


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
            this = enumerate_faces(J, k)
            bd_this, lower = boundary_matrix(this, J)
            bd_up, found = boundary_matrix(enumerate_faces(J, k + 1), J)
            assert set(found.faces) == set(this.faces), f"degree {k}"
            assert set(lower.faces) == set(enumerate_faces(J, k - 1).faces), f"degree {k}"
            kernel = len(this) - bd_this.rank()
            rank_up = bd_up.rank()
            assert kernel - rank_up == profile.betti(k), f"degree {k}"
