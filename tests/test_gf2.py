import random
from functools import reduce
from operator import xor

from hypothesis import given
from hypothesis import strategies as st

from polycomplete.gf2 import Gf2Matrix


def matrices(max_rows=7, max_cols=7):
    @st.composite
    def build(draw):
        r = draw(st.integers(min_value=0, max_value=max_rows))
        c = draw(st.integers(min_value=0, max_value=max_cols))
        cols = [draw(st.integers(min_value=0, max_value=(1 << r) - 1)) for _ in range(c)]
        return Gf2Matrix(r, cols)

    return build()


def from_rows(bits):
    """Matrix from a list of 0/1 rows (bit i of column j is bits[i][j])."""
    nrows = len(bits)
    ncols = max((len(row) for row in bits), default=0)
    cols = [sum(row[j] << i for i, row in enumerate(bits) if j < len(row)) for j in range(ncols)]
    return Gf2Matrix(nrows, cols)


def transpose(m):
    rows = [sum(((c >> i) & 1) << j for j, c in enumerate(m.cols)) for i in range(m.nrows)]
    return Gf2Matrix(m.ncols, rows)


class TestRank:
    def test_identity(self):
        assert from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]]).rank() == 3

    def test_zero(self):
        assert Gf2Matrix(4, [0] * 5).rank() == 0
        assert Gf2Matrix(0, [0] * 5).rank() == 0
        assert Gf2Matrix(4, []).rank() == 0

    def test_dependent_rows(self):
        # third row is the XOR of the first two
        m = from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        assert m.rank() == 2

    def test_input_not_mutated(self):
        m = from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        before = list(m.cols)
        m.rank()
        assert m.cols == before

    @given(matrices())
    def test_rank_equals_transpose_rank(self, m):
        assert m.rank() == transpose(m).rank()

    @given(matrices())
    def test_rank_bounded(self, m):
        assert 0 <= m.rank() <= min(m.nrows, m.ncols)

    @given(matrices(), st.randoms(use_true_random=False))
    def test_invariant_under_row_ops(self, m, rnd):
        order = list(range(m.nrows))
        rnd.shuffle(order)
        cols = [sum(((c >> src) & 1) << dst for dst, src in enumerate(order)) for c in m.cols]
        if m.nrows >= 2:
            i, j = rnd.sample(range(m.nrows), 2)
            # add row i to row j
            cols = [c ^ (((c >> i) & 1) << j) for c in cols]
        assert Gf2Matrix(m.nrows, cols).rank() == m.rank()

    @given(matrices(), st.randoms(use_true_random=False))
    def test_invariant_under_column_ops(self, m, rnd):
        cols = list(m.cols)
        rnd.shuffle(cols)
        if len(cols) >= 2:
            i, j = rnd.sample(range(len(cols)), 2)
            cols[i] ^= cols[j]
        assert Gf2Matrix(m.nrows, cols).rank() == m.rank()


def kernel_size(m):
    """How many column subsets XOR to zero, by trying them all: 2**nullity."""
    return sum(
        not reduce(xor, (c for j, c in enumerate(m.cols) if pick >> j & 1), 0) for pick in range(1 << m.ncols)
    )


class TestNullity:
    def test_identity(self):
        m = from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert m.ncols - m.rank() == 0

    def test_empty_map_full_kernel(self):
        m = Gf2Matrix(0, [0] * 5)
        assert m.ncols - m.rank() == 5

    def test_dependent_rows(self):
        m = from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        assert m.ncols - m.rank() == 1

    @given(matrices())
    def test_rank_nullity(self, m):
        assert 1 << (m.ncols - m.rank()) == kernel_size(m)


class TestPivots:
    @given(matrices())
    def test_one_pivot_per_rank_at_its_top_bit(self, m):
        rank = m.rank()
        assert len(m.pivots) == rank
        assert all(top == col.bit_length() for top, col in m.pivots.items())
        # the reduced columns span the column space
        reduced = list(m.pivots.values())
        assert Gf2Matrix(m.nrows, reduced).rank() == rank
        assert Gf2Matrix(m.nrows, reduced + m.cols).rank() == rank

    def test_each_rank_call_starts_afresh(self):
        m = from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        assert m.pivots == {}
        m.rank()
        first = dict(m.pivots)
        m.rank()
        assert m.pivots == first == {3: 0b101, 2: 0b011}


def naive_rank(bits):
    mat = [row[:] for row in bits]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][c]:
                mat[i] = [a ^ b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def test_agrees_with_naive_elimination_on_random_matrices():
    rng = random.Random(7)
    # square, tall (more rows than columns) and wide shapes
    for max_rows, max_cols in ((8, 8), (40, 5), (5, 40)):
        for _ in range(200):
            r = rng.randint(0, max_rows)
            c = rng.randint(0, max_cols)
            bits = [[rng.randint(0, 1) for _ in range(c)] for _ in range(r)]
            assert from_rows(bits).rank() == naive_rank(bits)
