import pytest

from polycomplete.crosscut import (
    SIDE_DUAL,
    SIDE_PRIMAL,
    analyze,
    boundary_matrix,
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

from oracle import homology_all_ranks


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

    def test_layer_mismatch(self, km):
        with pytest.raises(ValueError):
            boundary_matrix(enumerate_faces(km, 3), enumerate_faces(km, 1))

    def test_missing_lower_face_rejected(self):
        upper = enumerate_faces(IncidenceMinor.from_rows(2, 3, [(1, 2, 3)]), 2)
        lower = enumerate_faces(IncidenceMinor.from_rows(2, 3, [(1, 2), (1, 3)]), 1)
        with pytest.raises(ValueError, match=r"missing face \{2, 3\}"):
            boundary_matrix(upper, lower)


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
        top = max((len(s) for s in J.supports()), default=0) - 1
        for k in range(0, top + 1):
            upper = enumerate_faces(J, k + 1)
            this = enumerate_faces(J, k)
            lower = enumerate_faces(J, k - 1)
            kernel = boundary_matrix(this, lower).nullity()
            rank_up = boundary_matrix(upper, this).rank()
            assert kernel - rank_up == profile.betti(k), f"degree {k}"
