"""Vertex-facet incidence matrix minors: representation, statistics, text I/O.

The central object is a 0/1 matrix together with a claimed polytope
dimension d.  Rows are indexed by (known) facets, columns by (known)
vertices; entry 1 means the vertex lies on the facet.  Each row is read as
a subset of the 1-based vertex set {1..n}; duplicate rows are allowed and
retained.

Whether such a matrix really is a minor of the incidence matrix of some
d-polytope is *not* verified here -- no polynomial combinatorial test is
known, so the library trusts the caller on this point.  The geometry
module provides the checkable entry path from coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional


class IncidenceFormatError(ValueError):
    """Malformed incidence text.  Carries the 1-based offending line."""

    def __init__(self, message: str, line: Optional[int] = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class SizeStats:
    """Maximal row support s and maximal column support s_col."""

    s: int
    s_col: int


@dataclass(frozen=True)
class IncidenceMinor:
    """An m x n 0/1 matrix with claimed dimension d.

    Rows are stored as integer bitmasks; bit j-1 of ``row_masks[i]`` is the
    entry in row i+1, column j.  Values are immutable after construction;
    all operations on them are pure.
    """

    d: int
    n: int
    row_masks: tuple[int, ...]

    def __post_init__(self):
        if self.d < 0:
            raise ValueError("dimension d must be nonnegative")
        if self.n < 0:
            raise ValueError("column count n must be nonnegative")
        for i, mask in enumerate(self.row_masks):
            if mask < 0 or mask >> self.n:
                raise ValueError(f"row {i + 1}: bits outside columns 1..{self.n}")

    @property
    def m(self) -> int:
        return len(self.row_masks)

    @classmethod
    def from_rows(cls, d: int, n: int, rows: Iterable[Iterable[int]]) -> "IncidenceMinor":
        """Build from an iterable of vertex-label subsets of {1..n}."""
        masks = []
        for row in rows:
            mask = 0
            for v in row:
                if not 1 <= v <= n:
                    raise ValueError(f"vertex label {v} outside 1..{n}")
                mask |= 1 << (v - 1)
            masks.append(mask)
        return cls(d, n, tuple(masks))


def transpose(J: IncidenceMinor) -> IncidenceMinor:
    """The n x m transpose with the same d; an involution."""
    masks = [0] * J.n
    for i, mask in enumerate(J.row_masks):
        while mask:
            low = mask & -mask
            masks[low.bit_length() - 1] |= 1 << i
            mask ^= low
    return IncidenceMinor(J.d, J.m, tuple(masks))


def size_stats(J: IncidenceMinor) -> SizeStats:
    """Max row support and max column support."""
    s = max((mask.bit_count() for mask in J.row_masks), default=0)
    col_counts: dict[int, int] = {}  # keyed by the column's bit
    for mask in J.row_masks:
        while mask:
            low = mask & -mask
            col_counts[low] = col_counts.get(low, 0) + 1
            mask ^= low
    s_col = max(col_counts.values(), default=0)
    return SizeStats(s=s, s_col=s_col)


def parse_incidence(text: str) -> IncidenceMinor:
    """Parse the plain-text incidence format.

    Format: a header line ``d m n`` of decimal integers, then m lines of n
    characters from {0,1}.  Lines starting with '#' are comments.  Blank
    lines are ignored, except that when n = 0 each data row is an empty
    line.
    """
    header = None
    data: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("#"):
            continue
        if header is None:
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise IncidenceFormatError("header must be three integers 'd m n'", lineno)
            try:
                d, m, n = (int(p) for p in parts)
            except ValueError:
                raise IncidenceFormatError("header must be three integers 'd m n'", lineno) from None
            if d < 0 or m < 0 or n < 0:
                raise IncidenceFormatError("header values must be nonnegative", lineno)
            header = (d, m, n)
            continue
        if not line and header[2] > 0:
            continue
        data.append((lineno, raw.rstrip("\r\n")))
    if header is None:
        raise IncidenceFormatError("missing header line 'd m n'")
    d, m, n = header
    if n == 0:
        # width-zero rows serialize as empty lines; trailing blanks beyond m
        # would be ambiguous, so drop surplus empties from the end only
        while len(data) > m and data[-1][1].strip() == "":
            data.pop()
    if len(data) != m:
        raise IncidenceFormatError(f"expected {m} rows, found {len(data)}")
    masks = []
    for lineno, row in data:
        row = row.strip()
        if len(row) != n:
            raise IncidenceFormatError(f"row has {len(row)} characters, expected {n}", lineno)
        mask = 0
        for j, ch in enumerate(row):
            if ch == "1":
                mask |= 1 << j
            elif ch != "0":
                raise IncidenceFormatError(f"character {ch!r} outside {{0,1,#}}", lineno)
        masks.append(mask)
    return IncidenceMinor(d, n, tuple(masks))


def serialize_incidence(J: IncidenceMinor) -> str:
    """Emit the text format: LF line endings, no trailing spaces."""
    lines = [f"{J.d} {J.m} {J.n}"]
    for mask in J.row_masks:
        lines.append("".join("1" if (mask >> j) & 1 else "0" for j in range(J.n)))
    return "\n".join(lines) + "\n"
