"""GF(2) rank with columns packed into Python integers.

Each column of a matrix is one arbitrary-precision integer; bit i is the
entry in row i (0-based here -- this is an internal algebra kernel).
Column operations are single XORs, so elimination runs at machine word
speed regardless of height.  The rank and the pivots of the reduction
are all the homology decision needs; no Smith normal form, no other fields.
"""

from __future__ import annotations

from typing import Sequence


class Gf2Matrix:
    """An nrows x ncols matrix over GF(2), columns packed as integers."""

    __slots__ = ("nrows", "ncols", "cols", "pivots")

    def __init__(self, nrows: int, ncols: int, cols: Sequence[int]):
        if nrows < 0 or ncols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        cols = list(cols)
        if len(cols) != ncols:
            raise ValueError(f"expected {ncols} columns, got {len(cols)}")
        limit = 1 << nrows
        for j, c in enumerate(cols):
            if not 0 <= c < limit:
                raise ValueError(f"column {j}: bits set beyond row {nrows - 1}")
        self.nrows = nrows
        self.ncols = ncols
        self.cols = cols
        self.pivots: dict[int, int] = {}

    def rank(self) -> int:
        """GF(2) rank by column reduction; ``cols`` is never mutated.

        Each column is reduced against the earlier pivots until its
        highest set bit is new (it becomes a pivot) or it vanishes.
        ``pivots`` keeps them: highest bit (a 1-based row) -> reduced column.
        """
        pivots = self.pivots = {}
        for col in self.cols:
            while col:
                top = col.bit_length()
                other = pivots.get(top)
                if other is None:
                    pivots[top] = col
                    break
                col ^= other
        return len(pivots)
