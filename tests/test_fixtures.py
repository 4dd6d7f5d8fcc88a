from math import comb

import pytest

from polycomplete.crosscut import decide
from polycomplete.fixtures import (
    FAMILY_CUBE_KM,
    FAMILY_CYCLIC,
    FAMILY_PRISM,
    FAMILY_SIMPLEX,
    FixtureSpec,
    crosspolytope_incidence,
    cube_km,
    cyclic_incidence,
    delete_minor,
    gale_even,
    geometric_cyclic,
    geometric_fixture,
    incidence_fixture,
    prism,
    simplex_incidence,
)
from polycomplete.geometry import extract_incidence

from oracle import hull_facets


def cyclic_facet_count(d, n):
    # upper bound theorem count, tight for cyclic polytopes
    k = d // 2
    if d % 2 == 0:
        return comb(n - k, k) * n // (n - k)
    return 2 * comb(n - k - 1, k)


class TestCubeKM:
    def test_rows(self, km):
        assert km.supports() == (
            (1, 2, 3, 4),
            (1, 2, 7, 8),
            (1, 4, 5, 8),
            (2, 3, 6, 7),
            (3, 4, 5, 6),
            (5, 6, 7, 8),
        )

    def test_every_vertex_on_three_facets(self, km):
        counts = [sum(km.entry(i, j) for i in range(1, 7)) for j in range(1, 9)]
        assert counts == [3] * 8


class TestCyclic:
    def test_c48_has_twenty_facets(self):
        assert cyclic_incidence(4, 8).m == 20

    def test_polygon(self):
        for n in (3, 4, 7, 10):
            J = cyclic_incidence(2, n)
            assert J.m == n
            assert (1, n) in J.supports()

    @pytest.mark.parametrize("d,n", [(2, 6), (3, 6), (3, 8), (4, 7), (4, 8), (5, 8), (5, 9), (6, 9)])
    def test_facet_count_formula(self, d, n):
        assert cyclic_incidence(d, n).m == cyclic_facet_count(d, n)

    @pytest.mark.parametrize("d,n", [(2, 5), (3, 6), (4, 7), (4, 8), (5, 8)])
    def test_against_hull_oracle(self, d, n):
        points = [[t**i for i in range(1, d + 1)] for t in range(1, n + 1)]
        oracle = {tuple(sorted(f)) for f in hull_facets(points)}
        assert set(cyclic_incidence(d, n).supports()) == oracle

    def test_km_rows_are_c48_facets(self, km):
        c48 = cyclic_incidence(4, 8)
        assert set(km.supports()) <= set(c48.supports())
        drop = [i for i, sup in enumerate(c48.supports(), start=1) if sup not in set(km.supports())]
        restricted = delete_minor(c48, rows=drop)
        assert restricted.row_masks == km.row_masks
        assert restricted.d == 4

    def test_simplex_case(self):
        assert cyclic_incidence(3, 4).m == 4

    def test_parameter_range(self):
        with pytest.raises(ValueError):
            cyclic_incidence(2, 2)
        with pytest.raises(ValueError):
            cyclic_incidence(1, 5)

    def test_gale_even_examples(self):
        assert gale_even((1, 2, 3, 4), 8)
        assert gale_even((1, 4, 5, 8), 8)
        assert not gale_even((1, 3, 5, 7), 8)


class TestPrism:
    def test_triangle_prism(self):
        J = prism(cyclic_incidence(2, 3))
        assert (J.d, J.m, J.n) == (3, 5, 6)
        assert J.support(1) == (1, 2, 3)
        assert J.support(2) == (4, 5, 6)
        assert (1, 2, 4, 5) in J.supports()

    def test_cube_prism_shape(self, km):
        J = prism(km)
        assert (J.d, J.m, J.n) == (4, 8, 16)

    def test_vertical_bottom_restriction_is_km(self, km):
        J = prism(km)
        restricted = delete_minor(J, rows=[1, 2], cols=range(9, 17))
        assert restricted.row_masks == km.row_masks
        assert restricted.d == 4
        assert decide(4, restricted) is False


class TestDeleteMinor:
    def test_delete_nothing(self, km):
        assert delete_minor(km) == km

    def test_delete_row(self, km):
        J = delete_minor(km, rows=[6])
        assert (J.m, J.n) == (5, 8)
        assert decide(3, J) is False

    def test_delete_all_rows(self, km):
        J = delete_minor(km, rows=range(1, 7))
        assert J.m == 0
        assert decide(3, J) is False

    def test_column_renumbering(self, km):
        J = delete_minor(km, cols=[1])
        assert J.support(1) == (1, 2, 3)  # old (2,3,4) shifted down

    def test_out_of_range(self, km):
        with pytest.raises(IndexError):
            delete_minor(km, rows=[7])
        with pytest.raises(IndexError):
            delete_minor(km, cols=[0])


class TestFixtureSpec:
    def test_dispatch(self):
        assert incidence_fixture(FixtureSpec(FAMILY_CUBE_KM)) == cube_km()
        assert incidence_fixture(FixtureSpec(FAMILY_SIMPLEX, d=4)) == simplex_incidence(4)
        assert incidence_fixture(FixtureSpec(FAMILY_CYCLIC, d=4, n=8)) == cyclic_incidence(4, 8)
        nested = FixtureSpec(FAMILY_PRISM, inner=FixtureSpec(FAMILY_CUBE_KM))
        assert incidence_fixture(nested) == prism(cube_km())

    def test_range_cap(self):
        with pytest.raises(ValueError):
            incidence_fixture(FixtureSpec(FAMILY_SIMPLEX, d=9))
        with pytest.raises(ValueError):
            incidence_fixture(FixtureSpec(FAMILY_CYCLIC, d=4, n=20))

    def test_geometric_dispatch(self, km):
        inst = geometric_fixture(FixtureSpec(FAMILY_CUBE_KM))
        assert extract_incidence(inst) == km
        with pytest.raises(ValueError):
            geometric_fixture(FixtureSpec(FAMILY_PRISM, inner=FixtureSpec(FAMILY_CUBE_KM)))

    def test_missing_parameters(self):
        with pytest.raises(ValueError):
            incidence_fixture(FixtureSpec(FAMILY_SIMPLEX))
        with pytest.raises(ValueError):
            incidence_fixture(FixtureSpec("dodecahedron"))


class TestFixtureGrid:
    def test_simplexes(self):
        for d in range(1, 6):
            J = simplex_incidence(d)
            assert (J.m, J.n) == (d + 1, d + 1)
            assert all(len(sup) == d for sup in J.supports())

    def test_crosspolytopes(self):
        for d in (1, 2, 3, 4):
            J = crosspolytope_incidence(d)
            assert (J.m, J.n) == (2**d, 2 * d)
            assert all(len(sup) == d for sup in J.supports())

    def test_moment_curve_cyclic_consistent(self):
        inst = geometric_cyclic(3, 7)
        assert extract_incidence(inst) == cyclic_incidence(3, 7)
