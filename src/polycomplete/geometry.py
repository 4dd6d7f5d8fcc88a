"""Exact-rational geometric front end.

Incidence of a vertex with a facet is the equality a.v = b, so this
module works entirely in exact rational arithmetic: the equality test
would be meaningless in floating point, and the trustworthiness of the
extracted incidence matrix is the whole reason to start from coordinates
rather than from a combinatorial matrix one has to take on faith.

The validation here covers exactly the Gaussian-elimination-expressible
preconditions of the geometric completeness problem: containment, full
dimension, every point a vertex of the outer body, every halfspace a
facet of the inner hull.  No linear programming is done.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .incidence import IncidenceMinor

RationalPoint = tuple[Fraction, ...]

CHECK_DISTINCT = "distinct"
CHECK_CONTAINMENT = "containment"
CHECK_FULL_DIMENSION = "full-dimension"
CHECK_VERTEX = "vertex"
CHECK_FACET = "facet"


class GeometryFormatError(ValueError):
    """Malformed geometry text.  Carries the 1-based offending line."""

    def __init__(self, message: str, line: Optional[int] = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def _to_fractions(values: Iterable) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in values)


@dataclass(frozen=True)
class Halfspace:
    """Closed halfspace normal . x <= offset with rational coefficients."""

    normal: tuple[Fraction, ...]
    offset: Fraction

    def __post_init__(self):
        object.__setattr__(self, "normal", _to_fractions(self.normal))
        object.__setattr__(self, "offset", Fraction(self.offset))
        if all(a == 0 for a in self.normal):
            raise ValueError("halfspace normal must not be identically zero")

    def contains(self, point: Sequence[Fraction]) -> bool:
        return self.evaluate(point) <= self.offset

    def is_tight(self, point: Sequence[Fraction]) -> bool:
        return self.evaluate(point) == self.offset

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        return sum((a * x for a, x in zip(self.normal, point)), Fraction(0))


@dataclass(frozen=True)
class GeometricInstance:
    """Points and halfspaces in dimension d, all coordinates rational."""

    d: int
    points: tuple[RationalPoint, ...]
    halfspaces: tuple[Halfspace, ...]

    def __post_init__(self):
        if self.d < 0:
            raise ValueError("dimension d must be nonnegative")
        object.__setattr__(self, "points", tuple(_to_fractions(p) for p in self.points))
        object.__setattr__(self, "halfspaces", tuple(self.halfspaces))
        for i, p in enumerate(self.points, start=1):
            if len(p) != self.d:
                raise ValueError(f"point {i} has {len(p)} coordinates, expected {self.d}")
        for k, h in enumerate(self.halfspaces, start=1):
            if len(h.normal) != self.d:
                raise ValueError(f"halfspace {k} has {len(h.normal)} coefficients, expected {self.d}")


@dataclass(frozen=True)
class ValidationIssue:
    check: str
    subject: str
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    issues: tuple[ValidationIssue, ...]

    @property
    def ok(self) -> bool:
        return not self.issues

    def failures(self, check: str) -> tuple[ValidationIssue, ...]:
        return tuple(issue for issue in self.issues if issue.check == check)

    def failed_checks(self) -> tuple[str, ...]:
        seen = []
        for issue in self.issues:
            if issue.check not in seen:
                seen.append(issue.check)
        return tuple(seen)


def _echelon(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Exact forward elimination: the echelon rows and their pivot columns.

    The i-th returned row is zero left of pivot column i and nonzero at it.
    """
    mat = [list(row) for row in rows if any(x != 0 for x in row)]
    ncols = len(mat[0]) if mat else 0
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        piv = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        pivot_row = mat[rank]
        inv = pivot_row[col]
        for i in range(rank + 1, len(mat)):
            factor = mat[i][col] / inv
            if factor:
                mat[i] = [x - factor * y for x, y in zip(mat[i], pivot_row)]
        pivots.append(col)
    return mat[: len(pivots)], pivots


def rational_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank of a rational matrix by exact Gaussian elimination."""
    return len(_echelon(rows)[0])


def affine_rank(points: Sequence[RationalPoint]) -> int:
    """Dimension of the affine hull (0 for a single point, -1 for none)."""
    if not points:
        return -1
    base = points[0]
    return rational_rank([[x - b for x, b in zip(p, base)] for p in points[1:]])


def validate_instance(inst: GeometricInstance) -> ValidationReport:
    """Check the preconditions of the geometric completeness problem.

    Four named checks, each failure naming the offending point or
    halfspace: (a) containment of every point in every halfspace, (b)
    full dimension of the point set (plus no halfspace tight on all
    points), (c) every point on at least d tight halfspaces with normals
    spanning dimension d, (d) every halfspace tight on points that
    affinely span dimension d-1.  Duplicate points are rejected up front.
    Tightness is evaluated once, by extract_incidence; checks (b) to (d)
    read its row masks.
    """
    issues: list[ValidationIssue] = []
    seen: dict[RationalPoint, int] = {}
    for i, p in enumerate(inst.points, start=1):
        if p in seen:
            issues.append(
                ValidationIssue(CHECK_DISTINCT, f"point {i}", f"duplicates point {seen[p]}")
            )
        else:
            seen[p] = i

    for i, p in enumerate(inst.points, start=1):
        for k, h in enumerate(inst.halfspaces, start=1):
            if not h.contains(p):
                issues.append(
                    ValidationIssue(
                        CHECK_CONTAINMENT,
                        f"point {i}",
                        f"violates halfspace {k} ({h.evaluate(p)} > {h.offset})",
                    )
                )

    rank = affine_rank(inst.points)
    if rank != inst.d:
        issues.append(
            ValidationIssue(
                CHECK_FULL_DIMENSION,
                "points",
                f"affine hull has dimension {rank}, expected {inst.d}",
            )
        )
    tight = extract_incidence(inst).row_masks
    every_point = (1 << len(inst.points)) - 1
    for k, mask in enumerate(tight, start=1):
        if inst.points and mask == every_point:
            issues.append(
                ValidationIssue(
                    CHECK_FULL_DIMENSION,
                    f"halfspace {k}",
                    "tight on every point, so the bodies cannot both be full-dimensional",
                )
            )

    for i in range(len(inst.points)):
        normals = [h.normal for h, mask in zip(inst.halfspaces, tight) if mask >> i & 1]
        span = rational_rank(normals)
        if span != inst.d:
            issues.append(
                ValidationIssue(
                    CHECK_VERTEX,
                    f"point {i + 1}",
                    f"tight halfspace normals span dimension {span}, expected {inst.d}",
                )
            )

    for k, mask in enumerate(tight, start=1):
        rank = affine_rank([p for j, p in enumerate(inst.points) if mask >> j & 1])
        if rank != inst.d - 1:
            issues.append(
                ValidationIssue(
                    CHECK_FACET,
                    f"halfspace {k}",
                    f"tight points affinely span dimension {rank}, expected {inst.d - 1}",
                )
            )

    return ValidationReport(tuple(issues))


def extract_incidence(inst: GeometricInstance) -> IncidenceMinor:
    """Incidence matrix of the instance: entry 1 iff normal . point = offset.

    Exact equality in rational arithmetic, no tolerance.  Rows follow the
    halfspace order, columns the point order, d is copied over.
    """
    masks = []
    for h in inst.halfspaces:
        mask = 0
        for j, p in enumerate(inst.points):
            if h.is_tight(p):
                mask |= 1 << j
        masks.append(mask)
    return IncidenceMinor(inst.d, len(inst.points), tuple(masks))


def _parse_rationals(line: str, expected: int, lineno: int) -> tuple[Fraction, ...]:
    parts = line.split()
    if len(parts) != expected:
        raise GeometryFormatError(f"expected {expected} rationals, found {len(parts)}", lineno)
    values = []
    for part in parts:
        try:
            values.append(Fraction(part))
        except (ValueError, ZeroDivisionError):
            raise GeometryFormatError(f"bad rational {part!r}", lineno) from None
    return tuple(values)


def parse_geometry(text: str) -> GeometricInstance:
    """Parse the plain-text geometry format.

    Header "d p h", then p lines of d rationals (points), then h lines of
    d+1 rationals (halfspace normal, then offset).  Rationals are written
    as "num/den" or plain integers; '#' lines are comments.
    """
    lines = [
        (no, ln.strip())
        for no, ln in enumerate(text.splitlines(), start=1)
        if ln.strip() and not ln.strip().startswith("#")
    ]
    if not lines:
        raise GeometryFormatError("missing header line 'd p h'")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 3:
        raise GeometryFormatError("header must be three integers 'd p h'", lineno)
    try:
        d, p, h = (int(x) for x in parts)
    except ValueError:
        raise GeometryFormatError("header must be three integers 'd p h'", lineno) from None
    if d < 0 or p < 0 or h < 0:
        raise GeometryFormatError("header values must be nonnegative", lineno)
    body = lines[1:]
    if len(body) != p + h:
        raise GeometryFormatError(f"expected {p} point and {h} halfspace lines, found {len(body)}")
    points = [_parse_rationals(ln, d, no) for no, ln in body[:p]]
    halfspaces = []
    for no, ln in body[p:]:
        values = _parse_rationals(ln, d + 1, no)
        try:
            halfspaces.append(Halfspace(values[:-1], values[-1]))
        except ValueError as exc:
            raise GeometryFormatError(str(exc), no) from None
    return GeometricInstance(d, tuple(points), tuple(halfspaces))


def _format_rational(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def serialize_geometry(inst: GeometricInstance) -> str:
    lines = [f"{inst.d} {len(inst.points)} {len(inst.halfspaces)}"]
    for p in inst.points:
        lines.append(" ".join(_format_rational(x) for x in p))
    for h in inst.halfspaces:
        lines.append(" ".join(_format_rational(x) for x in (*h.normal, h.offset)))
    return "\n".join(lines) + "\n"
