import pytest
from hypothesis import given
from hypothesis import strategies as st

from polycomplete.incidence import (
    IncidenceFormatError,
    IncidenceMinor,
    parse_incidence,
    serialize_incidence,
    size_stats,
    transpose,
)

from oracle import permutation_equivalent

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
        assert J.support(1) == (1, 2, 3, 4)
        assert J.support(2) == (1, 2, 7, 8)
        assert J.support(6) == (5, 6, 7, 8)

    def test_single_vertex_no_facets(self):
        J = parse_incidence("0 0 1\n")
        assert (J.d, J.m, J.n) == (0, 0, 1)

    def test_triangle(self):
        J = parse_incidence(TRIANGLE_TEXT)
        assert J.supports() == ((1, 2), (2, 3), (1, 3))

    def test_comments_and_blanks_ignored(self):
        text = "# a comment\n\n2 3 3\n110\n# interior\n011\n\n101\n"
        assert parse_incidence(text) == parse_incidence(TRIANGLE_TEXT)

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
        assert "0,1,#" in str(err.value)


class TestRoundTrip:
    @given(minors())
    def test_parse_serialize_identity(self, J):
        assert parse_incidence(serialize_incidence(J)) == J

    def test_writer_format_exact(self):
        assert serialize_incidence(parse_incidence(KM_TEXT)) == KM_TEXT
        assert "\r" not in serialize_incidence(parse_incidence(KM_TEXT))


class TestTranspose:
    def test_km_shape(self, km):
        t = transpose(km)
        assert (t.d, t.m, t.n) == (3, 8, 6)
        # vertex 1 lies on facets 1, 2, 3
        assert t.support(1) == (1, 2, 3)

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
        stats = size_stats(km)
        assert (stats.s, stats.s_col) == (4, 3)

    def test_all_zero(self):
        stats = size_stats(IncidenceMinor(1, 2, (0, 0)))
        assert (stats.s, stats.s_col) == (0, 0)

    def test_triangle(self):
        stats = size_stats(parse_incidence(TRIANGLE_TEXT))
        assert (stats.s, stats.s_col) == (2, 2)

    @given(minors())
    def test_transpose_swaps_stats(self, J):
        a, b = size_stats(J), size_stats(transpose(J))
        assert (a.s, a.s_col) == (b.s_col, b.s)


class TestValidation:
    def test_rejects_out_of_range_bits(self):
        with pytest.raises(ValueError):
            IncidenceMinor(2, 2, (5,))

    def test_rejects_negative_dimension(self):
        with pytest.raises(ValueError):
            IncidenceMinor(-1, 2, (1,))

    def test_from_rows_rejects_bad_label(self):
        with pytest.raises(ValueError):
            IncidenceMinor.from_rows(2, 3, [(1, 4)])


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
