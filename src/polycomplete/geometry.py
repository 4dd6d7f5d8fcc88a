"""Exact geometric front end.

Incidence of a vertex with a facet is the equality a.v = b, so nothing
here is rounded: the equality test would be meaningless in floating
point, and the trustworthiness of the extracted incidence matrix is the
whole reason to start from coordinates rather than from a combinatorial
matrix one has to take on faith.

Rationals are scaled to integers once per object: a halfspace a.x <= b
as L(b, -a) and a point x as (D, Dx), L and D > 0 the lcms of their
denominators, so that their dot product is the integer slack LD(b - a.x).
Validation sweeps the pairs twice, as tightness stays with the one builder
of the incidence matrix, extract_incidence (perfbench counts its calls to
Halfspace.is_tight), while containment reads each slack's sign inline.
The other checks read the tight masks and take their rank rows from the
set bits.  Ranks are taken by one exact fraction-free elimination; an
affine rank is the rank of the points' homogeneous forms, minus one.

The validation here covers exactly the Gaussian-elimination-expressible
preconditions of the geometric completeness problem: containment, full
dimension, every point a vertex of the outer body, every halfspace a
facet of the inner hull.  No linear programming is done.  The validation
report carries the incidence matrix its checks read, so a caller that
extracts after validating writes exactly the matrix that was checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .incidence import FormatError, IncidenceMinor, bits, body_lines, decimal_int, read_header, text_lines

RationalPoint = tuple[Fraction, ...]

CHECK_DISTINCT = "distinct"
CHECK_CONTAINMENT = "containment"
CHECK_FULL_DIMENSION = "full-dimension"
CHECK_VERTEX = "vertex"
CHECK_FACET = "facet"


class GeometryFormatError(FormatError):
    """Malformed geometry text."""


def _to_fractions(values: Iterable) -> tuple[Fraction, ...]:
    """The values as Fractions; an exact Fraction passes through as it is."""
    return tuple(v if type(v) is Fraction else Fraction(v) for v in values)


def _homogeneous(values: Sequence[Fraction]) -> tuple[int, ...]:
    """(D, D*v) in integers, D > 0 the lcm of the denominators."""
    D = lcm(*(v.denominator for v in values))
    return (D, *(v.numerator * (D // v.denominator) for v in values))


@dataclass(frozen=True)
class Halfspace:
    """Closed halfspace normal . x <= offset with rational coefficients."""

    normal: tuple[Fraction, ...]
    offset: Fraction

    def __post_init__(self):
        object.__setattr__(self, "normal", _to_fractions(self.normal))
        object.__setattr__(self, "offset", *_to_fractions([self.offset]))
        if all(a == 0 for a in self.normal):
            raise ValueError("halfspace normal must not be identically zero")

    @cached_property
    def integer_form(self) -> tuple[int, ...]:
        """L*(offset, -normal) in integers, L > 0 the lcm of the denominators."""
        _, b, *a = _homogeneous((self.offset, *self.normal))
        return (b, *(-x for x in a))

    def is_tight(self, point: Sequence[int]) -> bool:
        """Whether a point in homogeneous form (D, D*x) lies on the hyperplane."""
        return sum(map(mul, self.integer_form, point)) == 0

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

    @cached_property
    def homogeneous_points(self) -> tuple[tuple[int, ...], ...]:
        """Each point x as integers (D, D*x), D > 0 the lcm of its denominators."""
        return tuple(map(_homogeneous, self.points))


@dataclass(frozen=True)
class ValidationIssue:
    check: str
    subject: str
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    """The failed checks, in order, and the incidence matrix they read."""

    issues: tuple[ValidationIssue, ...]
    incidence: IncidenceMinor

    @property
    def ok(self) -> bool:
        return not self.issues


def rational_rank(rows: Sequence[Sequence[int]], bound: int) -> int:
    """Rank over Q of integer rows, or bound if the rank reaches it first.

    Fraction-free elimination: each row is reduced against the basis by
    the integer combinations row*b[col] - row[col]*b, col the pivot of b,
    and a row that survives is divided by the gcd of its entries before it
    joins the basis.  The k-th basis row spans the one line in the span of
    k input rows that vanishes on the k-1 earlier pivots, and it is that
    line's primitive vector, so its entries are bounded by k x k minors of
    the input, and each reduction step adds to a row at most the bit size
    of one basis entry plus one.  Every integer stays polynomial in the
    bit size of the input.
    """
    basis: list[tuple[int, int, Sequence[int]]] = []  # (pivot column, pivot, primitive row)
    for row in rows:
        if len(basis) == bound:
            break
        for col, p, b in basis:
            f = row[col]
            if f:
                row = [x * p - f * y for x, y in zip(row, b)]
        for col, x in enumerate(row):
            if x:
                g = gcd(*row)
                if g != 1:
                    row = [y // g for y in row]
                basis.append((col, row[col], row))
                break
    return len(basis)


def validate_instance(inst: GeometricInstance) -> ValidationReport:
    """Check the preconditions of the geometric completeness problem.

    Four named checks, each failure naming the offending point or
    halfspace: (a) containment of every point in every halfspace, (b)
    full dimension of the point set (plus no halfspace tight on all
    points), (c) every point on at least d tight halfspaces with normals
    spanning dimension d, (d) every halfspace tight on points that
    affinely span dimension d-1.  Duplicate points are rejected up front.
    """
    issues: list[ValidationIssue] = []
    seen: dict[RationalPoint, int] = {}
    for i, p in enumerate(inst.points, start=1):
        first = seen.setdefault(p, i)
        if first != i:
            issues.append(ValidationIssue(CHECK_DISTINCT, f"point {i}", f"duplicates point {first}"))

    homogeneous = inst.homogeneous_points
    forms = [h.integer_form for h in inst.halfspaces]
    for i, (p, hp) in enumerate(zip(inst.points, homogeneous), start=1):
        for k, form in enumerate(forms, start=1):
            if sum(map(mul, form, hp)) < 0:  # the integer slack of the pair
                h = inst.halfspaces[k - 1]
                try:
                    values = f" ({h.evaluate(p)} > {h.offset})"
                except ValueError:  # an integer past sys.get_int_max_str_digits()
                    values = " (values too long to print)"
                issues.append(ValidationIssue(CHECK_CONTAINMENT, f"point {i}", f"violates halfspace {k}{values}"))

    rank = rational_rank(homogeneous, inst.d + 1) - 1
    if rank != inst.d:
        issues.append(
            ValidationIssue(
                CHECK_FULL_DIMENSION,
                "points",
                f"affine hull has dimension {rank}, expected {inst.d}",
            )
        )
    incidence = extract_incidence(inst)
    tight = incidence.row_masks
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

    normals: list[list[tuple[int, ...]]] = [[] for _ in inst.points]  # each point's tight normals
    for normal, mask in zip((form[1:] for form in forms), tight):
        for low in bits(mask):
            normals[low.bit_length() - 1].append(normal)
    for i, rows in enumerate(normals, start=1):
        span = rational_rank(rows, inst.d)
        if span != inst.d:
            issues.append(
                ValidationIssue(
                    CHECK_VERTEX,
                    f"point {i}",
                    f"tight halfspace normals span dimension {span}, expected {inst.d}",
                )
            )

    for k, mask in enumerate(tight, start=1):
        # the tight points lie in the halfspace's hyperplane: rank at most d
        rank = rational_rank([homogeneous[low.bit_length() - 1] for low in bits(mask)], inst.d) - 1
        if rank != inst.d - 1:
            issues.append(
                ValidationIssue(
                    CHECK_FACET,
                    f"halfspace {k}",
                    f"tight points affinely span dimension {rank}, expected {inst.d - 1}",
                )
            )

    return ValidationReport(tuple(issues), incidence)


def extract_incidence(inst: GeometricInstance) -> IncidenceMinor:
    """Incidence matrix of the instance: entry 1 iff normal . point = offset.

    Exact equality, no tolerance: the integer slack of the pair is zero.
    Rows follow the halfspace order, columns the point order, d is copied
    over.
    """
    points = inst.homogeneous_points
    masks = (sum(1 << j for j, p in enumerate(points) if h.is_tight(p)) for h in inst.halfspaces)
    return IncidenceMinor(inst.d, len(points), tuple(masks))


def _parse_rationals(line: str, expected: int, lineno: int) -> tuple[Fraction, ...]:
    parts = line.split()
    if len(parts) != expected:
        raise GeometryFormatError(f"expected {expected} rationals, found {len(parts)}", lineno)
    values = []
    for part in parts:
        num, slash, den = part.partition("/")
        try:
            if "." in part:
                # Fraction also reads exponents (1e9999999 has ten million
                # digits), '_' separators and non-ASCII digits
                if "e" in part or "E" in part or "_" in part or not part.isascii():
                    raise ValueError(part)
                values.append(Fraction(part))
            elif num.startswith("+-") or den.startswith("-"):
                raise ValueError(part)
            else:
                # integers and num/den skip Fraction's regular expression
                value = decimal_int(num.removeprefix("+"))
                values.append(Fraction(value, decimal_int(den)) if slash else Fraction(value))
        except (ValueError, ZeroDivisionError):
            raise GeometryFormatError(f"bad rational {part!r}", lineno) from None
    return tuple(values)


def parse_geometry(text: str) -> GeometricInstance:
    """Parse the plain-text geometry format.

    Header "d p h", then p lines of d rationals (points), then h lines of
    d+1 rationals (halfspace normal, then offset).  Rationals are
    integers, "num/den" or decimals ("0.5", ".5", "5."), each with an
    optional leading sign, and no exponents; '#' lines are comments.
    Blank lines are ignored, except that when d = 0 each point is an
    empty line.
    """
    lines = text_lines(text)
    d, p, h = read_header(lines, "d p h", GeometryFormatError)
    body = body_lines(lines, p + h, d == 0)  # points are empty lines when d = 0
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


def serialize_geometry(inst: GeometricInstance) -> str:
    lines = [f"{inst.d} {len(inst.points)} {len(inst.halfspaces)}"]
    for p in inst.points:
        lines.append(" ".join(map(str, p)))
    for h in inst.halfspaces:
        lines.append(" ".join(map(str, (*h.normal, h.offset))))
    return "\n".join(lines) + "\n"
