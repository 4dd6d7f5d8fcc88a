import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polycomplete.incidence import (
    IncidenceFormatError,
    IncidenceMinor,
    bits,
    parse_incidence,
    serialize_incidence,
    size_stats,
    transpose,
    vertices,
)

from oracle import permutation_equivalent, size_stats_by_cells, supports

KM_TEXT = """\
3 6 8
11110000
11000011
10011001
01100110
00111100
00001111
"""

TRIANGLE_TEXT = "2 3 3\n110\n011\n101\n"


def minors(max_m=6, max_n=8):
    @st.composite
    def build(draw):
        d = draw(st.integers(min_value=0, max_value=6))
        m = draw(st.integers(min_value=0, max_value=max_m))
        n = draw(st.integers(min_value=0, max_value=max_n))
        masks = tuple(draw(st.integers(min_value=0, max_value=(1 << n) - 1)) for _ in range(m))
        return IncidenceMinor(d, n, masks)

    return build()


class TestParse:
    def test_km_example(self):
        J = parse_incidence(KM_TEXT)
        assert (J.d, J.m, J.n) == (3, 6, 8)
        assert supports(J)[0] == (1, 2, 3, 4)
        assert supports(J)[1] == (1, 2, 7, 8)
        assert supports(J)[5] == (5, 6, 7, 8)

    def test_single_vertex_no_facets(self):
        J = parse_incidence("0 0 1\n")
        assert (J.d, J.m, J.n) == (0, 0, 1)

    def test_triangle(self):
        J = parse_incidence(TRIANGLE_TEXT)
        assert supports(J) == ((1, 2), (2, 3), (1, 3))

    def test_comments_and_blanks_ignored(self):
        text = "# a comment\n\n2 3 3\n110\n# interior\n011\n\n101\n"
        assert parse_incidence(text) == parse_incidence(TRIANGLE_TEXT)

    def test_width_zero_rows_are_blank_lines(self):
        expected = IncidenceMinor(1, 0, (0, 0))
        assert parse_incidence("1 2 0\n\n\n") == expected
        assert parse_incidence("1 2 0\n\n# c\n\n\n\n") == expected  # surplus trailing blanks dropped

    def test_malformed_header(self):
        with pytest.raises(IncidenceFormatError):
            parse_incidence("2 3\n11\n01\n10\n")
        with pytest.raises(IncidenceFormatError):
            parse_incidence("a b c\n")
        with pytest.raises(IncidenceFormatError):
            parse_incidence("")

    def test_row_count_mismatch(self):
        with pytest.raises(IncidenceFormatError):
            parse_incidence("2 3 3\n110\n011\n")
        with pytest.raises(IncidenceFormatError):
            parse_incidence("2 1 3\n110\n011\n")

    def test_row_length_mismatch(self):
        with pytest.raises(IncidenceFormatError) as err:
            parse_incidence("2 3 3\n110\n0110\n101\n")
        assert err.value.line == 3

    def test_bad_character(self):
        with pytest.raises(IncidenceFormatError) as err:
            parse_incidence("2 3 3\n110\n0x1\n101\n")
        assert "outside {0,1}" in str(err.value)


class TestRoundTrip:
    @given(minors())
    def test_parse_serialize_identity(self, J):
        assert parse_incidence(serialize_incidence(J)) == J

    def test_rows_wider_than_the_decimal_digit_limit(self):
        # rows are read and written in base 2, which has no digit limit
        text = "1 2 5000\n" + "10" * 2500 + "\n" + "0" * 4999 + "1\n"
        J = parse_incidence(text)
        assert J.row_masks[1] == 1 << 4999
        assert serialize_incidence(J) == text

    def test_writer_format_exact(self):
        assert serialize_incidence(parse_incidence(KM_TEXT)) == KM_TEXT
        assert "\r" not in serialize_incidence(parse_incidence(KM_TEXT))


class TestBitWalk:
    def test_bits_and_vertices_on_random_masks(self):
        assert bits(0) == []
        assert vertices(0) == ()
        rng = random.Random(18)
        masks = [1, 1 << 63, 1 << 64, 1 << 200 | 5]
        masks += [rng.getrandbits(rng.choice((8, 64, 65, 130, 300))) for _ in range(300)]
        for mask in masks:
            walk = bits(mask)
            assert all(low.bit_count() == 1 for low in walk)
            assert all(a < b for a, b in zip(walk, walk[1:]))
            assert sum(walk) == mask
            # reference decoder: test every bit position
            assert vertices(mask) == tuple(j + 1 for j in range(mask.bit_length()) if mask >> j & 1)
        assert vertices(1 << 200 | 5) == (1, 3, 201)


class TestTranspose:
    def test_km_shape(self, km):
        t = transpose(km)
        assert (t.d, t.m, t.n) == (3, 8, 6)
        # vertex 1 lies on facets 1, 2, 3
        assert supports(t)[0] == (1, 2, 3)

    def test_empty(self):
        z = IncidenceMinor(0, 0, ())
        assert transpose(z) == z

    @given(minors())
    def test_involution(self, J):
        assert transpose(transpose(J)) == J

    def test_triangle_self_dual_up_to_permutation(self):
        J = parse_incidence(TRIANGLE_TEXT)
        assert permutation_equivalent(J, transpose(J))


class TestSizeStats:
    def test_km(self, km):
        assert size_stats(km) == (4, 3)

    def test_all_zero(self):
        assert size_stats(IncidenceMinor(1, 2, (0, 0))) == (0, 0)

    def test_triangle(self):
        assert size_stats(parse_incidence(TRIANGLE_TEXT)) == (2, 2)

    def test_random_matrices_match_cell_count(self):
        """Densities from empty to full, so column counts reach every bit of the counter."""
        rng = random.Random(3)
        for _ in range(500):
            m, n = rng.randint(0, 40), rng.randint(0, 70)
            density = rng.random()
            J = IncidenceMinor(1, n, tuple(sum(1 << j for j in range(n) if rng.random() < density) for _ in range(m)))
            assert size_stats(J) == size_stats_by_cells(J), J

    @pytest.mark.parametrize(
        "J, expected",
        [
            (IncidenceMinor(2, 5, ()), (0, 0)),  # m = 0
            (IncidenceMinor(2, 0, (0, 0, 0)), (0, 0)),  # n = 0
            (IncidenceMinor(2, 9, ((1 << 9) - 1,)), (9, 1)),  # one all-ones row
            (IncidenceMinor(2, 7, ((1 << 7) - 1,) * 64), (7, 64)),  # every count a power of two at once
            (IncidenceMinor(3, 10**20, ()), (0, 0)),  # a width no mask of all columns could hold
        ],
    )
    def test_edge_shapes(self, J, expected):
        assert size_stats(J) == expected == size_stats_by_cells(J)

    @given(minors())
    def test_transpose_swaps_stats(self, J):
        assert size_stats(transpose(J)) == size_stats(J)[::-1]


class TestRowsWith:
    ROWS = (0b011, 0b110, 0, 0b011, 0b010)

    def test_rows_in_order_with_duplicates(self):
        J = IncidenceMinor(2, 4, self.ROWS)
        assert J.rows_with(0b001) == (0b011, 0b011)
        assert J.rows_with(0b010) == (0b011, 0b110, 0b011, 0b010)
        assert J.rows_with(0b100) == (0b110,)

    def test_vertex_in_no_row(self):
        assert IncidenceMinor(2, 4, self.ROWS).rows_with(0b1000) == ()

    def test_repeat_call_returns_the_same_object(self):
        J = IncidenceMinor(2, 4, self.ROWS)
        assert J.rows_with(0b010) is J.rows_with(0b010)

    def test_random_matrices_match_supports(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(1, 12)
            J = IncidenceMinor(1, n, tuple(rng.getrandbits(n) for _ in range(rng.randint(0, 10))))
            for v in range(1, n + 1):
                assert J.rows_with(1 << (v - 1)) == tuple(r for r, sup in zip(J.row_masks, supports(J)) if v in sup)

    def test_warm_cache_is_invisible(self, km):
        warm, fresh = IncidenceMinor(km.d, km.n, km.row_masks), IncidenceMinor(km.d, km.n, km.row_masks)
        for v in range(warm.n):
            warm.rows_with(1 << v)
        assert warm == fresh
        assert hash(warm) == hash(fresh)
        assert repr(warm) == repr(fresh)


class TestValidation:
    def test_rejects_out_of_range_bits(self):
        with pytest.raises(ValueError):
            IncidenceMinor(2, 2, (5,))

    def test_out_of_range_bits_name_their_row(self):
        with pytest.raises(ValueError) as err:
            IncidenceMinor(2, 3, (0b011, 0b1001, 0b110))  # row 2 has a bit in column 4
        assert str(err.value) == "row 2: bits outside columns 1..3"
        with pytest.raises(ValueError) as err:
            IncidenceMinor(2, 3, (0b011, -1))  # a negative mask has bits everywhere
        assert str(err.value) == "row 2: bits outside columns 1..3"

    def test_rejects_negative_dimension(self):
        with pytest.raises(ValueError):
            IncidenceMinor(-1, 2, (1,))

    def test_rejects_negative_column_count(self):
        with pytest.raises(ValueError, match="column count"):
            IncidenceMinor(2, -1, ())


class TestPermutationEquivalence:
    def test_permuted_km(self, km):
        shuffled = IncidenceMinor(3, 8, tuple(reversed(km.row_masks)))
        assert permutation_equivalent(km, shuffled)

    def test_inequivalent(self, km):
        other = IncidenceMinor(3, 8, km.row_masks[:-1] + ((1 << 8) - 1,))
        assert not permutation_equivalent(km, other)

    def test_size_cap(self):
        big = IncidenceMinor(2, 12, (3,))
        with pytest.raises(ValueError):
            permutation_equivalent(big, big)
