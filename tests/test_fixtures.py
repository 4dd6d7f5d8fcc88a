import hashlib
import random
from itertools import combinations, product
from math import comb

import pytest

from polycomplete.crosscut import decide
from polycomplete.fixtures import (
    crosspolytope_incidence,
    cube_km,
    cyclic_incidence,
    delete_minor,
    geometric_cyclic,
    prism,
    simplex_incidence,
)
from polycomplete.geometry import extract_incidence, serialize_geometry, validate_instance
from polycomplete.incidence import IncidenceMinor

from oracle import gale_even, hull_facets, supports, vertex_mask


def cyclic_facet_count(d, n):
    # upper bound theorem count, tight for cyclic polytopes
    k = d // 2
    if d % 2 == 0:
        return comb(n - k, k) * n // (n - k)
    return 2 * comb(n - k - 1, k)


class TestCubeKM:
    def test_rows(self, km):
        assert supports(km) == (
            (1, 2, 3, 4),
            (1, 2, 7, 8),
            (1, 4, 5, 8),
            (2, 3, 6, 7),
            (3, 4, 5, 6),
            (5, 6, 7, 8),
        )

    def test_every_vertex_on_three_facets(self, km):
        counts = [sum(mask >> j & 1 for mask in km.row_masks) for j in range(8)]
        assert counts == [3] * 8


class TestCyclic:
    def test_c48_has_twenty_facets(self):
        assert cyclic_incidence(4, 8).m == 20

    def test_polygon(self):
        for n in (3, 4, 7, 10):
            J = cyclic_incidence(2, n)
            assert J.m == n
            assert (1, n) in supports(J)

    @pytest.mark.parametrize("d,n", [(2, 6), (3, 6), (3, 8), (4, 7), (4, 8), (5, 8), (5, 9), (6, 9)])
    def test_facet_count_formula(self, d, n):
        assert cyclic_incidence(d, n).m == cyclic_facet_count(d, n)

    @pytest.mark.parametrize("d,n", [(2, 5), (3, 6), (4, 7), (4, 8), (5, 8)])
    def test_against_hull_oracle(self, d, n):
        points = [[t**i for i in range(1, d + 1)] for t in range(1, n + 1)]
        oracle = {tuple(sorted(f)) for f in hull_facets(points)}
        assert set(supports(cyclic_incidence(d, n))) == oracle

    def test_km_rows_are_c48_facets(self, km):
        c48 = cyclic_incidence(4, 8)
        assert set(supports(km)) <= set(supports(c48))
        drop = [i for i, sup in enumerate(supports(c48), start=1) if sup not in set(supports(km))]
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

    @pytest.mark.parametrize(
        "d,n", [(d, n) for d in range(2, 8) for n in range(d + 1, 22)] + [(4, 40), (3, 60)]
    )
    def test_equals_gale_even_filter(self, d, n):
        rows = [S for S in combinations(range(1, n + 1), d) if gale_even(S, n)]
        assert cyclic_incidence(d, n) == IncidenceMinor(d, n, tuple(map(vertex_mask, rows)))

    def test_gale_even_examples(self):
        assert gale_even((1, 2, 3, 4), 8)
        assert gale_even((1, 4, 5, 8), 8)
        assert not gale_even((1, 3, 5, 7), 8)


class TestPrism:
    def test_triangle_prism(self):
        J = prism(cyclic_incidence(2, 3))
        assert (J.d, J.m, J.n) == (3, 5, 6)
        assert supports(J)[0] == (1, 2, 3)
        assert supports(J)[1] == (4, 5, 6)
        assert (1, 2, 4, 5) in supports(J)

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
        assert supports(J)[0] == (1, 2, 3)  # old (2,3,4) shifted down

    def test_equals_bit_by_bit_renumbering(self):
        rng = random.Random(12)
        bases = [cube_km(), cyclic_incidence(4, 12), prism(prism(cube_km())), crosspolytope_incidence(5)]
        for _ in range(500):
            J = rng.choice(bases)
            rows = rng.sample(range(1, J.m + 1), rng.randint(0, 4))
            cols = rng.sample(range(1, J.n + 1), rng.randint(0, J.n))
            keep = [j - 1 for j in range(1, J.n + 1) if j not in cols]  # old bit of each new column
            masks = tuple(
                sum((r >> old & 1) << new for new, old in enumerate(keep))
                for i, r in enumerate(J.row_masks, start=1)
                if i not in rows
            )
            assert delete_minor(J, rows, cols) == IncidenceMinor(J.d, len(keep), masks)

    def test_out_of_range(self, km):
        with pytest.raises(IndexError):
            delete_minor(km, rows=[7])
        with pytest.raises(IndexError):
            delete_minor(km, cols=[0])


class TestFixtureGrid:
    def test_simplexes(self):
        for d in range(1, 7):
            J = simplex_incidence(d)
            assert (J.d, J.m, J.n) == (d, d + 1, d + 1)
            # row i omits vertex i
            vertices = range(1, d + 2)
            assert supports(J) == tuple(tuple(v for v in vertices if v != i) for i in vertices)

    def test_crosspolytopes(self):
        for d in range(1, 7):
            J = crosspolytope_incidence(d)
            assert (J.d, J.m, J.n) == (d, 2**d, 2 * d)
            # one row per sign vector, in product order: sign s of axis i picks vertex i+1 or d+i+1
            rows = [[i + 1 if s == 0 else d + i + 1 for i, s in enumerate(signs)] for signs in product((0, 1), repeat=d)]
            assert supports(J) == tuple(tuple(sorted(row)) for row in rows)

    def test_moment_curve_cyclic_consistent(self):
        inst = geometric_cyclic(3, 7)
        assert extract_incidence(inst) == cyclic_incidence(3, 7)

    # Pinned SHA-256 of the serialized instances, recorded from an exact
    # elimination solver: the closed-form facets must match it byte for byte.
    @pytest.mark.parametrize(
        "d,n,digest",
        [
            (2, 7, "e9e336d6f898247f9b80230a43a2cc7aa1a5d38057ec7a969c6e3b0aeaa21a78"),
            (3, 8, "55f196b44a4bffba63cf34350cae87ab1a34237f17a1391af87bbccebf408db6"),
            (4, 9, "07ee24e454a9da61ccc35bb101b472ac90f36b56631a70a648ceccbb052c438a"),
            (5, 10, "acd8c034d9859b2a2144882f4acf387e714d8ae9719b1762a029ebc5ccc23826"),
            (6, 12, "8fba662e0967279cf2a3122cc54decdf3b47209cb54bfbbbe09a0c601771e8ff"),
        ],
    )
    def test_moment_curve_cyclic_golden(self, d, n, digest):
        inst = geometric_cyclic(d, n)
        assert hashlib.sha256(serialize_geometry(inst).encode()).hexdigest() == digest
        assert validate_instance(inst).ok
