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

from dataclasses import dataclass, field
from typing import Iterator, Optional

Face = int  # vertex bitmask: bit v-1 stands for vertex v


def bits(face: Face) -> list[Face]:
    """The one-bit masks of a face's vertices, lowest first."""
    out = []
    while face:
        low = face & -face
        out.append(low)
        face ^= low
    return out


def vertices(face: Face) -> tuple[int, ...]:
    """The increasing 1-based vertex labels of a face mask."""
    return tuple(low.bit_length() for low in bits(face))


class FormatError(ValueError):
    """Malformed input text.  Carries the 1-based offending line, if any."""

    def __init__(self, message: str, line: Optional[int] = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class IncidenceFormatError(FormatError):
    """Malformed incidence text."""


def text_lines(text: str) -> Iterator[tuple[int, str]]:
    """The 1-based numbered, stripped lines of text that are not '#' comments."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line.startswith("#"):
            yield lineno, line


def decimal_int(token: str) -> int:
    """The integer an ASCII decimal token '-?[0-9]+' writes; ValueError otherwise.

    int() alone would also take a '+', '_' separators and non-ASCII digits.
    """
    if not (token.isascii() and token.removeprefix("-").isdigit()):
        raise ValueError(f"not a decimal integer: {token!r}")
    return int(token)


def read_header(lines: Iterator[tuple[int, str]], names: str, error: type[FormatError]) -> tuple[int, int, int]:
    """The header, three nonnegative integers on the first nonblank line.

    names ('d m n') names them in the messages; lines is left just past
    the header.
    """
    for lineno, line in lines:
        if line:
            break
    else:
        raise error(f"missing header line '{names}'")
    try:
        a, b, c = map(decimal_int, line.split())
    except ValueError:
        raise error(f"header must be three integers '{names}'", lineno) from None
    if a < 0 or b < 0 or c < 0:
        raise error("header values must be nonnegative", lineno)
    return a, b, c


def body_lines(lines: Iterator[tuple[int, str]], count: int, width_zero: bool) -> list[tuple[int, str]]:
    """The data lines after the header: the nonblank ones, or all when width_zero.

    Width-zero records serialize as empty lines, so then blank lines are
    kept; surplus empties beyond count would be ambiguous, so they are
    dropped from the end only.
    """
    body = [(lineno, line) for lineno, line in lines if line or width_zero]
    if width_zero:
        while len(body) > count and not body[-1][1]:
            body.pop()
    return body


@dataclass(frozen=True)
class IncidenceMinor:
    """An m x n 0/1 matrix with claimed dimension d.

    Rows are stored as integer bitmasks; bit j-1 of ``row_masks[i]`` is the
    entry in row i+1, column j.  Values are immutable after construction;
    all operations on them are pure.  ``rows_with`` caches each vertex's
    rows on the instance, outside ``==``, ``hash`` and ``repr``.
    """

    d: int
    n: int
    row_masks: tuple[int, ...]
    _rows_with: dict[Face, tuple[int, ...]] = field(default_factory=dict, init=False, repr=False, compare=False)

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

    def rows_with(self, vertex: Face) -> tuple[int, ...]:
        """The rows that hold a vertex, given as a one-bit mask, in row order; built once per vertex."""
        rows = self._rows_with.get(vertex)
        if rows is None:
            rows = self._rows_with[vertex] = tuple([r for r in self.row_masks if r & vertex])
        return rows


def transpose(J: IncidenceMinor) -> IncidenceMinor:
    """The n x m transpose with the same d; an involution."""
    masks = [0] * J.n
    for i, mask in enumerate(J.row_masks):
        for low in bits(mask):
            masks[low.bit_length() - 1] |= 1 << i
    return IncidenceMinor(J.d, J.m, tuple(masks))


def size_stats(J: IncidenceMinor) -> tuple[int, int]:
    """(s, s_col): the max row support and the max column support.

    Column supports are counted bit-sliced: the rows are added into a
    vertical binary counter, plane b holding bit b of every column's count,
    and the largest count is read from the top plane down.
    """
    planes: list[int] = []
    for carry in J.row_masks:
        b = 0
        while carry:
            if b == len(planes):
                planes.append(0)
            planes[b], carry = planes[b] ^ carry, planes[b] & carry
            b += 1
    cols, s_col = -1, 0  # -1: every column, without building an n-bit mask
    for b in reversed(range(len(planes))):
        if cols & planes[b]:
            cols &= planes[b]
            s_col |= 1 << b
    return max(map(int.bit_count, J.row_masks), default=0), s_col


def parse_incidence(text: str) -> IncidenceMinor:
    """Parse the plain-text incidence format.

    Format: a header line ``d m n`` of decimal integers, then m lines of n
    characters from {0,1}.  Lines starting with '#' are comments.  Blank
    lines are ignored, except that when n = 0 each data row is an empty
    line.
    """
    lines = text_lines(text)
    d, m, n = read_header(lines, "d m n", IncidenceFormatError)
    data = body_lines(lines, m, n == 0)
    if len(data) != m:
        raise IncidenceFormatError(f"expected {m} rows, found {len(data)}")
    masks = []
    for lineno, row in data:
        if len(row) != n:
            raise IncidenceFormatError(f"row has {len(row)} characters, expected {n}", lineno)
        # int(..., 2) would also take '_', a sign, a 0b prefix and non-ASCII digits
        rest = row.lstrip("01")
        if rest:
            raise IncidenceFormatError(f"character {rest[0]!r} outside {{0,1}}", lineno)
        masks.append(int(row[::-1] or "0", 2))
    return IncidenceMinor(d, n, tuple(masks))


def serialize_incidence(J: IncidenceMinor) -> str:
    """Emit the text format: LF line endings, no trailing spaces."""
    # bin() of the mask with a marker bit n ends in column 1; reversed, the
    # digits after the marker are columns 1..n
    rows = (bin(mask | 1 << J.n)[:2:-1] for mask in J.row_masks)
    return "\n".join([f"{J.d} {J.m} {J.n}", *rows]) + "\n"
