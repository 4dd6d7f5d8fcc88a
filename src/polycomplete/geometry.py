"""Exact geometric front end.

Incidence of a vertex with a facet is the equality a.v = b, so nothing
here is rounded: the equality test would be meaningless in floating
point, and the trustworthiness of the extracted incidence matrix is the
whole reason to start from coordinates rather than from a combinatorial
matrix one has to take on faith.

Every check reads integers: a point x as (D, Dx) and a halfspace
a.x <= b as L(b, -a), D and L > 0 the lcms of their reduced denominators,
so that their dot product is the integer slack LD(b - a.x).  The parser
reads each line straight into this form, and derives rationals only to
print them.
Containment reads many slacks at once, from integer products over
coordinates packed into lanes (points and halfspaces in classes by bit
width; of each pair of classes the wider is packed and the narrower
multiplies it), and reads single pairs only to word the messages of the
halfspaces it fails.  Tightness stays a sweep of the pairs in the one
builder of the incidence matrix, extract_incidence (perfbench counts its
calls to Halfspace.is_tight).
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

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .incidence import FormatError, IncidenceMinor, bits, body_lines, read_header, text_lines

RationalPoint = tuple[Fraction, ...]

CHECK_DISTINCT = "distinct"
CHECK_CONTAINMENT = "containment"
CHECK_FULL_DIMENSION = "full-dimension"
CHECK_VERTEX = "vertex"
CHECK_FACET = "facet"
_ZERO_NORMAL = "halfspace normal must not be identically zero"

# the one rational grammar; int() alone would also read '_' and non-ASCII
# digits, and Fraction() exponents (1e9999999 has ten million digits).  A
# denominator has a nonzero digit, so the reader never divides by zero.
_RATIONAL = re.compile(r"[+-]?(?:[0-9]+(?:/0*[1-9][0-9]*)?|[0-9]+\.[0-9]*|\.[0-9]+)")


class GeometryFormatError(FormatError):
    """Malformed geometry text."""


def _to_fractions(values: Iterable) -> tuple[Fraction, ...]:
    """The values as Fractions; an exact Fraction passes through as it is."""
    return tuple(v if type(v) is Fraction else Fraction(v) for v in values)


def _homogeneous(values: Sequence[Fraction]) -> tuple[int, ...]:
    """(D, D*v) in integers, D > 0 the lcm of the denominators."""
    D = lcm(*(v.denominator for v in values))
    return (D, *(v.numerator * (D // v.denominator) for v in values))


class _Value:
    """Immutable, equal and hashed by _key(): the one representation that
    both ways of building the value derive alike."""

    @classmethod
    def _holding(cls, **attributes):
        """An instance holding the attributes, built without __init__."""
        value = cls.__new__(cls)
        value.__dict__.update(attributes)
        return value

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Halfspace(_Value):
    """Closed halfspace normal . x <= offset with rational coefficients,
    held as given or, when parsed, as the homogeneous form (L, L*normal,
    L*offset) of its line, each derived from the other on use."""

    def __init__(self, normal: Iterable, offset):
        normal = _to_fractions(normal)
        if not any(normal):
            raise ValueError(_ZERO_NORMAL)
        self.__dict__.update(normal=normal, offset=offset if type(offset) is Fraction else Fraction(offset))

    @cached_property
    def _form(self) -> tuple[int, ...]:
        return _homogeneous((*self.normal, self.offset))

    @cached_property
    def normal(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self._form[0]) for x in self._form[1:-1])

    @cached_property
    def offset(self) -> Fraction:
        return Fraction(self._form[-1], self._form[0])

    @cached_property
    def integer_form(self) -> tuple[int, ...]:
        """L*(offset, -normal) in integers, L > 0 the lcm of the denominators."""
        _, *a, b = self._form
        return (b, *(-x for x in a))

    def is_tight(self, point: Sequence[int]) -> bool:
        """Whether a point in homogeneous form (D, D*x) lies on the hyperplane."""
        return sum(map(mul, self.integer_form, point)) == 0

    def _key(self):
        return self._form


class GeometricInstance(_Value):
    """Points and halfspaces in dimension d, all coordinates rational: the
    points held as the rationals given or, when parsed, as their
    homogeneous forms, each derived from the other on use."""

    def __init__(self, d: int, points: Iterable[Iterable], halfspaces: Iterable[Halfspace]):
        if d < 0:
            raise ValueError("dimension d must be nonnegative")
        self.__dict__.update(d=d, points=tuple(map(_to_fractions, points)), halfspaces=tuple(halfspaces))
        for i, p in enumerate(self.points, start=1):
            if len(p) != d:
                raise ValueError(f"point {i} has {len(p)} coordinates, expected {d}")
        for k, h in enumerate(self.halfspaces, start=1):
            if len(h.normal) != d:
                raise ValueError(f"halfspace {k} has {len(h.normal)} coefficients, expected {d}")

    @cached_property
    def points(self) -> tuple[RationalPoint, ...]:
        return tuple(tuple(Fraction(x, D) for x in v) for D, *v in self.homogeneous_points)

    @cached_property
    def homogeneous_points(self) -> tuple[tuple[int, ...], ...]:
        """Each point x as integers (D, D*x), D > 0 the lcm of its denominators."""
        return tuple(map(_homogeneous, self.points))

    def _key(self):
        return self.d, self.homogeneous_points, self.halfspaces


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


def _width_classes(rows: Sequence[Sequence[int]]) -> list[tuple[int, list[int]]]:
    """The rows' indices grouped by the bit length of each row's widest
    entry, as (class, indices): class 0 below 64 bits, then one per doubling."""
    keys = [(max(map(int.bit_length, row)) >> 6).bit_length() for row in rows]
    return [(key, [i for i, k in enumerate(keys) if k == key]) for key in set(keys)]


def _violated_forms(forms: Sequence[Sequence[int]], points: Sequence[Sequence[int]]) -> list[int]:
    """The indices of the forms on which some point has a negative slack.

    Forms and points are taken one pair of width classes at a time, and
    the wider side of a pair is packed while the narrower one multiplies
    it.  A wide point or form then widens the lanes of its own class only:
    a lane is at most about four times as wide as the widest entry of
    each row packed in it, or about 128 bits, so the packed integers stay
    within a constant factor of the input in size, and a product costs
    about what the per-pair products it replaces cost.
    """
    point_classes = [(key, [points[i] for i in c]) for key, c in _width_classes(points)]
    violated: set[int] = set()
    for form_key, ks in _width_classes(forms):
        rows = [forms[k] for k in ks]
        for point_key, group in point_classes:
            if form_key > point_key:
                violated.update(ks[k] for k in _negative_products(rows, group)[0])
            else:
                violated.update(ks[k] for k in _negative_products(group, rows)[1])
    return sorted(violated)


def _negative_products(
    rows: Sequence[Sequence[int]], multipliers: Sequence[Sequence[int]]
) -> tuple[set[int], set[int]]:
    """The indices of the rows, and of the multipliers, that have a negative
    dot product with some multiplier, or row: one packed product per
    multiplier.

    Coordinate j of the rows is packed into S_j = sum_i x_ij 2^(w i), an
    integer of w-bit lanes: the bytes of the biased x_ij + M_j
    (M_j = max_i |x_ij|, so each lies in [0, 2 M_j]), less M_j in every
    lane.  Then H + sum_j y_j S_j, y a multiplier and H holding 2^(w-1) in
    every lane, holds y.x_i + 2^(w-1) in lane i, and no lane carries while
    2^(w-1) > B = sum_j N_j M_j, N_j = max_y |y_j|; a lane's top bit is
    clear iff its product is negative.  2^(w-1) > M_j lets every biased
    coordinate fill its lane too, which B alone does not ensure when the
    multipliers are all zero in a coordinate.  Packing by int.from_bytes
    is linear in the packed size, and so is writing a value into every
    lane by repeating its bytes, where multiplying by 1 in every lane
    would cost a product of two wide integers.
    """
    columns = list(zip(*rows))
    bias = [max(map(abs, col)) for col in columns]
    bound = sum(max(map(abs, col)) * m for col, m in zip(zip(*multipliers), bias))
    size = (max(bound, *bias).bit_length() + 8) // 8  # lane bytes: 2^(w-1) > bound and every M_j
    packed = [
        int.from_bytes(b"".join((x + m).to_bytes(size, "little") for x in col), "little")
        - int.from_bytes(m.to_bytes(size, "little") * len(rows), "little")
        for col, m in zip(columns, bias)
    ]
    high = int.from_bytes((1 << 8 * size - 1).to_bytes(size, "little") * len(rows), "little")
    negative_multipliers: set[int] = set()
    hit = 0
    for k, y in enumerate(multipliers):
        negative = high & ~(high + sum(map(mul, y, packed)))  # the top bits of the negative lanes
        if negative:
            negative_multipliers.add(k)
            hit |= negative
    tops = hit.to_bytes(len(rows) * size, "little")[size - 1 :: size]  # a byte a lane, nonzero if negative
    return set(compress(range(len(rows)), tops)), negative_multipliers


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
    homogeneous = inst.homogeneous_points
    seen: dict[tuple[int, ...], int] = {}
    for i, hp in enumerate(homogeneous, start=1):
        first = seen.setdefault(hp, i)
        if first != i:
            issues.append(ValidationIssue(CHECK_DISTINCT, f"point {i}", f"duplicates point {first}"))

    forms = [h.integer_form for h in inst.halfspaces]
    violated = [(k + 1, forms[k]) for k in _violated_forms(forms, homogeneous)]
    for i, hp in enumerate(homogeneous, start=1):
        for k, form in violated:  # only the failed halfspaces' pairs, to word the messages
            if sum(map(mul, form, hp)) < 0:  # the integer slack of the pair
                h = inst.halfspaces[k - 1]
                try:
                    values = f" ({sum(map(mul, h.normal, inst.points[i - 1]))} > {h.offset})"
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
    every_point = (1 << len(homogeneous)) - 1
    for k, mask in enumerate(tight, start=1):
        if homogeneous and mask == every_point:
            issues.append(
                ValidationIssue(
                    CHECK_FULL_DIMENSION,
                    f"halfspace {k}",
                    "tight on every point, so the bodies cannot both be full-dimensional",
                )
            )

    normals: list[list[tuple[int, ...]]] = [[] for _ in homogeneous]  # each point's tight normals
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


def _read_line(line: str, expected: int, lineno: int) -> tuple[int, ...]:
    """The line's rationals v as integers (D, D*v), D > 0 the lcm of their
    reduced denominators, as _homogeneous has them.  The tokens num/den
    (den = 10^k for k decimals) are not reduced: their common denominator
    gives a multiple of (D, D*v), which is primitive (D*v_i is prime to p
    for the v_i with the most factors p in its denominator)."""
    parts = line.split()
    if len(parts) != expected:
        raise GeometryFormatError(f"expected {expected} rationals, found {len(parts)}", lineno)
    nums, dens = [], []
    try:
        for part in parts:
            if not _RATIONAL.fullmatch(part):
                raise ValueError(part)
            num, _, den = part.partition("/")
            whole, _, fraction = num.partition(".")
            nums.append(int(whole + fraction))
            dens.append(int(den) if den else 10 ** len(fraction))
    except ValueError:  # also an integer past sys.get_int_max_str_digits()
        raise GeometryFormatError(f"bad rational {part!r}", lineno) from None
    D = lcm(*dens)
    form = (D, *(x * (D // q) for x, q in zip(nums, dens)))
    g = gcd(*form)
    return form if g == 1 else tuple(x // g for x in form)


def parse_geometry(text: str) -> GeometricInstance:
    r"""Parse the plain-text geometry format.

    Header "d p h" (integers, -?[0-9]+), then p lines of d rationals
    (points), then h lines of d+1 rationals (halfspace normal, then
    offset), each matching [+-]?(?:[0-9]+(?:/0*[1-9][0-9]*)?|[0-9]+\.[0-9]*|\.[0-9]+).
    '#' lines are comments.  Blank lines are ignored, except that when
    d = 0 each point is an empty line.
    """
    lines = text_lines(text)
    d, p, h = read_header(lines, "d p h", GeometryFormatError)
    body = body_lines(lines, p + h, d == 0)  # points are empty lines when d = 0
    if len(body) != p + h:
        raise GeometryFormatError(f"expected {p} point and {h} halfspace lines, found {len(body)}")
    points = tuple(_read_line(ln, d, no) for no, ln in body[:p])
    halfspaces = []
    for no, ln in body[p:]:
        form = _read_line(ln, d + 1, no)
        if not any(form[1:-1]):
            raise GeometryFormatError(_ZERO_NORMAL, no)
        halfspaces.append(Halfspace._holding(_form=form))
    return GeometricInstance._holding(d=d, homogeneous_points=points, halfspaces=tuple(halfspaces))


def serialize_geometry(inst: GeometricInstance) -> str:
    lines = [f"{inst.d} {len(inst.points)} {len(inst.halfspaces)}"]
    for p in inst.points:
        lines.append(" ".join(map(str, p)))
    for h in inst.halfspaces:
        lines.append(" ".join(map(str, (*h.normal, h.offset))))
    return "\n".join(lines) + "\n"
