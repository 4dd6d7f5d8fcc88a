"""GF(2) rank with columns packed into Python integers.

Each column of a matrix is one arbitrary-precision integer; bit i is the
entry in row i (0-based here -- this is an internal algebra kernel).
Column operations are single XORs, so elimination runs at machine word
speed regardless of height.  The rank and the pivots of the reduction
are all the homology decision needs; no Smith normal form, no other fields.
"""

from __future__ import annotations


class Gf2Matrix:
    """An nrows x len(cols) matrix over GF(2), columns packed as integers."""

    # perfbench/tracer.py wraps rank and reads nrows and ncols, so they stay
    __slots__ = ("nrows", "ncols", "cols", "pivots")

    def __init__(self, nrows: int, cols: list[int]):
        self.nrows = nrows
        self.ncols = len(cols)
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
