import pytest

from polycomplete.crosscut import enumerate_faces
from polycomplete.fixtures import cube_km, cyclic_incidence, simplex_incidence
from polycomplete.incidence import IncidenceMinor

from oracle import (
    OracleSizeError,
    exact_hull,
    homology_all_ranks,
    hull_facets,
    pulling_triangulation_by_flags,
    pyramid,
    supports,
    vertex_mask,
)


class TestHomologyOracle:
    def test_boundary_of_3_simplex_is_a_2_sphere(self):
        J = IncidenceMinor(3, 4, tuple(map(vertex_mask, [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)])))
        profile = homology_all_ranks(J)
        assert profile.betti(2) == 1
        assert all(profile.betti(k) == 0 for k in range(-1, 3) if k != 2)

    def test_single_facet_contractible(self):
        J = IncidenceMinor(2, 3, tuple(map(vertex_mask, [(1, 2, 3)])))
        profile = homology_all_ranks(J)
        assert all(profile.betti(k) == 0 for k in range(-1, profile.max_dim + 1))

    def test_km_crosscut_is_a_2_sphere(self, km):
        profile = homology_all_ranks(km)
        assert [profile.betti(k) for k in range(-1, 4)] == [0, 0, 0, 1, 0]

    def test_empty_complex(self):
        profile = homology_all_ranks(IncidenceMinor(2, 3, ()))
        assert profile.betti(-1) == 1
        assert profile.betti(0) == 0

    def test_disconnected_pair(self):
        J = IncidenceMinor(1, 2, tuple(map(vertex_mask, [(1,), (2,)])))
        profile = homology_all_ranks(J)
        assert profile.betti(0) == 1

    def test_size_cap(self, km):
        with pytest.raises(OracleSizeError):
            homology_all_ranks(km, max_faces=10)

    @pytest.mark.parametrize(
        "J",
        [
            cube_km(),
            cyclic_incidence(2, 6),
            cyclic_incidence(3, 6),
            simplex_incidence(4),
        ],
    )
    def test_euler_characteristic_consistency(self, J):
        profile = homology_all_ranks(J)
        top = max((len(s) for s in supports(J)), default=0) - 1
        faces_alternating = sum(
            (-1) ** k * len(enumerate_faces(J, k)) for k in range(-1, top + 1)
        )
        betti_alternating = sum(
            (-1) ** k * profile.betti(k) for k in range(-1, profile.max_dim + 1)
        )
        assert faces_alternating == betti_alternating


class TestFlagOracle:
    def test_km_pulling_triangulation(self, km):
        facets = pulling_triangulation_by_flags(km)
        assert len(facets) == 12
        assert (1, 7, 8) in facets
        assert (1, 2, 3) in facets

    def test_polygon_returns_its_edges(self):
        J = cyclic_incidence(2, 3)
        assert pulling_triangulation_by_flags(J) == frozenset({(1, 2), (1, 3), (2, 3)})

    def test_simplex_unchanged(self):
        J = simplex_incidence(3)
        assert pulling_triangulation_by_flags(J) == frozenset(supports(J))

    def test_tuple_cap(self, km):
        with pytest.raises(OracleSizeError):
            pulling_triangulation_by_flags(km, max_tuples=10)


class TestHullOracle:
    def test_unit_square(self):
        pts = [(0, 0), (1, 0), (1, 1), (0, 1)]
        facets = hull_facets(pts)
        assert facets == frozenset(
            {frozenset({1, 2}), frozenset({2, 3}), frozenset({3, 4}), frozenset({1, 4})}
        )

    def test_cube_facets_have_four_vertices(self):
        pts = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
        facets = hull_facets(pts)
        assert len(facets) == 6
        assert all(len(f) == 4 for f in facets)

    def test_interior_point_on_no_facet(self):
        pts = [(0, 0), (4, 0), (0, 4), (1, 1)]
        facets = hull_facets(pts)
        assert all(4 not in f for f in facets)

    def test_subset_cap(self):
        with pytest.raises(OracleSizeError):
            hull_facets([(i, i * i) for i in range(30)], max_subsets=10)

    def test_exact_hull_of_a_square_with_edge_and_interior_points(self):
        hull = exact_hull([(0, 0), (2, 0), (1, 0), (2, 2), (1, 1), (0, 2), (2, 2)])
        assert hull.vertices == ((0, 0), (2, 0), (2, 2), (0, 2))
        assert hull.facets == ((-1, 0, 0), (0, -1, 0), (0, 1, 2), (1, 0, 2))
        assert hull.incidence() == IncidenceMinor(2, 4, (0b1001, 0b0011, 0b1100, 0b0110))

    def test_pyramid_matches_the_hull_of_a_square_pyramid(self):
        square = exact_hull([(0, 0), (2, 0), (2, 2), (0, 2)]).incidence()
        hull = exact_hull([(0, 0, 0), (2, 0, 0), (2, 2, 0), (0, 2, 0), (1, 1, 1)]).incidence()
        P = pyramid(square)
        assert (P.d, P.n) == (3, 5)
        assert sorted(P.row_masks) == sorted(hull.row_masks)
