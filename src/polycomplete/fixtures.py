"""Deterministic generators of complete incidence matrices and geometric
instances for canonical polytopes, plus minor deletion for no-instances.

The vertex numbering of the 3-cube is pinned to the Klee-Minty labeling
(facet supports 1234, 1278, 1458, 2367, 3456, 5678) so that the cube,
its pulling triangulation, and the cyclic-polytope reinterpretation of
the same matrix can serve as golden tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Iterable, Optional

from .geometry import GeometricInstance, Halfspace, _echelon
from .incidence import IncidenceMinor

FAMILY_SIMPLEX = "simplex"
FAMILY_CUBE_KM = "cube-km"
FAMILY_CROSSPOLYTOPE = "crosspolytope"
FAMILY_CYCLIC = "cyclic"
FAMILY_PRISM = "prism"

# FixtureSpec-driven generation stays at desk scale; direct calls to
# cyclic_incidence may go larger (timing smoke tests use big polygons).
MAX_SPEC_D = 6
MAX_SPEC_N = 12

KM_FACETS = (
    (1, 2, 3, 4),
    (1, 2, 7, 8),
    (1, 4, 5, 8),
    (2, 3, 6, 7),
    (3, 4, 5, 6),
    (5, 6, 7, 8),
)


@dataclass(frozen=True)
class FixtureSpec:
    """A named fixture family with its parameters.

    family is one of simplex, cube-km, crosspolytope, cyclic, prism;
    prism wraps an inner spec.  Parameters are kept to small documented
    ranges (d <= 6, n <= 12).
    """

    family: str
    d: Optional[int] = None
    n: Optional[int] = None
    inner: Optional["FixtureSpec"] = None


def cube_km() -> IncidenceMinor:
    """The 6x8 incidence matrix of the 3-cube in Klee-Minty numbering."""
    return IncidenceMinor.from_rows(3, 8, KM_FACETS)


def gale_even(subset: Iterable[int], n: int) -> bool:
    """Gale's evenness criterion on a subset of {1..n}.

    Every maximal run of consecutive elements that contains neither 1
    nor n must have even length.
    """
    runs: list[list[int]] = []
    for x in sorted(subset):
        if runs and x == runs[-1][-1] + 1:
            runs[-1].append(x)
        else:
            runs.append([x])
    return all(run[0] == 1 or run[-1] == n or len(run) % 2 == 0 for run in runs)


def cyclic_incidence(d: int, n: int) -> IncidenceMinor:
    """Facets of the cyclic polytope C_d(n) by Gale's evenness criterion.

    Vertices are numbered along the moment curve; rows are the qualifying
    d-subsets in lexicographic order.
    """
    if not n > d >= 2:
        raise ValueError("cyclic polytope needs n > d >= 2")
    rows = [S for S in combinations(range(1, n + 1), d) if gale_even(S, n)]
    return IncidenceMinor.from_rows(d, n, rows)


def simplex_incidence(d: int) -> IncidenceMinor:
    """The d-simplex on d+1 vertices: row i omits exactly vertex i."""
    if d < 1:
        raise ValueError("simplex dimension must be at least 1")
    n = d + 1
    rows = [[v for v in range(1, n + 1) if v != i] for i in range(1, n + 1)]
    return IncidenceMinor.from_rows(d, n, rows)


def crosspolytope_incidence(d: int) -> IncidenceMinor:
    """The d-cross-polytope: vertices i and d+i are the +/- poles of axis i,
    one facet per sign vector."""
    if d < 1:
        raise ValueError("cross-polytope dimension must be at least 1")
    rows = []
    for signs in product((0, 1), repeat=d):
        rows.append([i + 1 if s == 0 else d + i + 1 for i, s in enumerate(signs)])
    return IncidenceMinor.from_rows(d, 2 * d, rows)


def prism(J: IncidenceMinor) -> IncidenceMinor:
    """The prism over the polytope behind J (assumed complete by caller).

    Vertices are duplicated: bottom copy 1..n, top copy n+1..2n.  Rows:
    the bottom facet, the top facet, then one vertical facet F + (F+n)
    per row F of J.  Dimension goes up by one.
    """
    n = J.n
    bottom = list(range(1, n + 1))
    top = list(range(n + 1, 2 * n + 1))
    rows = [bottom, top]
    for sup in J.supports():
        rows.append(list(sup) + [v + n for v in sup])
    return IncidenceMinor.from_rows(J.d + 1, 2 * n, rows)


def delete_minor(J: IncidenceMinor, rows: Iterable[int] = (), cols: Iterable[int] = ()) -> IncidenceMinor:
    """Remove the named 1-based rows and columns; d is unchanged.

    Remaining columns are renumbered 1.. in their original order; labels
    of the kept rows and columns survive.
    """
    drop_rows = set(rows)
    drop_cols = set(cols)
    for i in drop_rows:
        if not 1 <= i <= J.m:
            raise IndexError(f"row {i} outside 1..{J.m}")
    for j in drop_cols:
        if not 1 <= j <= J.n:
            raise IndexError(f"column {j} outside 1..{J.n}")
    keep_cols = [j for j in range(1, J.n + 1) if j not in drop_cols]
    masks = []
    kept_rows = []
    for i in range(1, J.m + 1):
        if i in drop_rows:
            continue
        kept_rows.append(i)
        mask = 0
        for new_j, old_j in enumerate(keep_cols):
            mask |= J.entry(i, old_j) << new_j
        masks.append(mask)
    row_labels = tuple(J.row_label(i) for i in kept_rows) if J.row_labels else None
    col_labels = tuple(J.col_label(j) for j in keep_cols) if J.col_labels else None
    return IncidenceMinor(J.d, len(keep_cols), tuple(masks), row_labels, col_labels)


def incidence_fixture(spec: FixtureSpec) -> IncidenceMinor:
    """Dispatch a FixtureSpec to its incidence matrix generator."""
    _check_spec_ranges(spec)
    if spec.family == FAMILY_SIMPLEX:
        return simplex_incidence(_need(spec.d, "simplex needs d"))
    if spec.family == FAMILY_CUBE_KM:
        return cube_km()
    if spec.family == FAMILY_CROSSPOLYTOPE:
        return crosspolytope_incidence(_need(spec.d, "crosspolytope needs d"))
    if spec.family == FAMILY_CYCLIC:
        return cyclic_incidence(_need(spec.d, "cyclic needs d"), _need(spec.n, "cyclic needs n"))
    if spec.family == FAMILY_PRISM:
        if spec.inner is None:
            raise ValueError("prism needs an inner fixture")
        return prism(incidence_fixture(spec.inner))
    raise ValueError(f"unknown fixture family {spec.family!r}")


def _need(value, message):
    if value is None:
        raise ValueError(message)
    return value


def _check_spec_ranges(spec: FixtureSpec):
    if spec.d is not None and not 0 <= spec.d <= MAX_SPEC_D:
        raise ValueError(f"fixture d={spec.d} outside 0..{MAX_SPEC_D}")
    if spec.n is not None and not 0 <= spec.n <= MAX_SPEC_N:
        raise ValueError(f"fixture n={spec.n} outside 0..{MAX_SPEC_N}")


# --- geometric instances -------------------------------------------------

F0 = Fraction(0)
F1 = Fraction(1)


def _unit(d: int, i: int, value: Fraction = F1) -> tuple[Fraction, ...]:
    return tuple(value if j == i else F0 for j in range(d))


def geometric_simplex(d: int) -> GeometricInstance:
    """Origin plus the unit vectors; facets x_i >= 0 and sum x_i <= 1."""
    if d < 1:
        raise ValueError("simplex dimension must be at least 1")
    points = [tuple([F0] * d)] + [_unit(d, i) for i in range(d)]
    halfspaces = [Halfspace(_unit(d, i, Fraction(-1)), F0) for i in range(d)]
    halfspaces.append(Halfspace(tuple([F1] * d), F1))
    return GeometricInstance(d, tuple(points), tuple(halfspaces))


def geometric_cube_km() -> GeometricInstance:
    """The 0/1-cube with vertices in Klee-Minty label order.

    Facet rows come out in exactly the order of the combinatorial
    cube_km(), so extraction reproduces that matrix verbatim.
    """
    coords = {
        1: (0, 0, 0),
        2: (1, 0, 0),
        3: (1, 1, 0),
        4: (0, 1, 0),
        5: (0, 1, 1),
        6: (1, 1, 1),
        7: (1, 0, 1),
        8: (0, 0, 1),
    }
    points = tuple(tuple(Fraction(c) for c in coords[v]) for v in range(1, 9))
    halfspaces = (
        Halfspace((F0, F0, Fraction(-1)), F0),  # z >= 0 -> 1234
        Halfspace((F0, Fraction(-1), F0), F0),  # y >= 0 -> 1278
        Halfspace((Fraction(-1), F0, F0), F0),  # x >= 0 -> 1458
        Halfspace((F1, F0, F0), F1),            # x <= 1 -> 2367
        Halfspace((F0, F1, F0), F1),            # y <= 1 -> 3456
        Halfspace((F0, F0, F1), F1),            # z <= 1 -> 5678
    )
    return GeometricInstance(3, points, halfspaces)


def geometric_crosspolytope(d: int) -> GeometricInstance:
    """Vertices +/- e_i (labels i and d+i); facets sign . x <= 1."""
    if d < 1:
        raise ValueError("cross-polytope dimension must be at least 1")
    points = [_unit(d, i) for i in range(d)] + [_unit(d, i, Fraction(-1)) for i in range(d)]
    halfspaces = []
    for signs in product((0, 1), repeat=d):
        normal = tuple(F1 if s == 0 else Fraction(-1) for s in signs)
        halfspaces.append(Halfspace(normal, F1))
    return GeometricInstance(d, tuple(points), tuple(halfspaces))


def _kernel_vector(rows: list[list[Fraction]], ncols: int) -> Optional[tuple[list[Fraction], int]]:
    """One kernel vector of a rational matrix plus the kernel dimension.

    Returns None for a trivial kernel.  The vector sets the first free
    variable to 1 and the other free variables to 0, and back-substitutes
    through the echelon rows for the pivot variables.
    """
    echelon, pivots = _echelon(rows)
    free = [c for c in range(ncols) if c not in pivots]
    if not free:
        return None
    vec = [F0] * ncols
    vec[free[0]] = F1
    for row, col in zip(reversed(echelon), reversed(pivots)):
        vec[col] = -sum((x * v for x, v in zip(row[col + 1 :], vec[col + 1 :])), F0) / row[col]
    return vec, len(free)


def _hyperplane_through(points: list[tuple[Fraction, ...]]) -> Optional[tuple[tuple[Fraction, ...], Fraction]]:
    """The unique hyperplane a.x = b through the points, or None."""
    if not points:
        return None
    d = len(points[0])
    rows = [[*p, Fraction(-1)] for p in points]
    kernel = _kernel_vector(rows, d + 1)
    if kernel is None:
        return None
    vec, dim = kernel
    if dim != 1 or all(x == 0 for x in vec[:d]):
        return None
    return tuple(vec[:d]), vec[d]


def geometric_cyclic(d: int, n: int) -> GeometricInstance:
    """Moment-curve coordinates for C_d(n) with facet halfspaces solved
    exactly from the Gale facets."""
    combinatorial = cyclic_incidence(d, n)
    points = [tuple(Fraction(t) ** (i + 1) for i in range(d)) for t in range(1, n + 1)]
    halfspaces = []
    for sup in combinatorial.supports():
        plane = _hyperplane_through([points[v - 1] for v in sup])
        if plane is None:
            raise ValueError(f"degenerate facet {sup} on the moment curve")
        normal, offset = plane
        outside = next(p for j, p in enumerate(points, start=1) if j not in sup)
        if sum((a * x for a, x in zip(normal, outside)), F0) > offset:
            normal = tuple(-a for a in normal)
            offset = -offset
        halfspaces.append(Halfspace(normal, offset))
    return GeometricInstance(d, tuple(points), tuple(halfspaces))


def geometric_fixture(spec: FixtureSpec) -> GeometricInstance:
    """Dispatch a FixtureSpec to rational coordinates and halfspaces."""
    _check_spec_ranges(spec)
    if spec.family == FAMILY_SIMPLEX:
        return geometric_simplex(_need(spec.d, "simplex needs d"))
    if spec.family == FAMILY_CUBE_KM:
        return geometric_cube_km()
    if spec.family == FAMILY_CROSSPOLYTOPE:
        return geometric_crosspolytope(_need(spec.d, "crosspolytope needs d"))
    if spec.family == FAMILY_CYCLIC:
        return geometric_cyclic(_need(spec.d, "cyclic needs d"), _need(spec.n, "cyclic needs n"))
    raise ValueError(f"no geometric coordinates for fixture family {spec.family!r}")
