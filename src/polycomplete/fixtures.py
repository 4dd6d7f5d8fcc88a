"""Deterministic generators of complete incidence matrices (as row masks)
and exact-rational geometric instances of canonical polytopes, the prism
over a matrix, and minor deletion for no-instances.  This module holds
generators only; the `gen` command's grammar and size caps live in `cli`.

The vertex numbering of the 3-cube is pinned to the Klee-Minty labeling
(facet supports 1234, 1278, 1458, 2367, 3456, 5678) so that the cube,
its pulling triangulation, and the cyclic-polytope reinterpretation of
the same matrix can serve as golden tests.

The geometric cube, cross-polytope and cyclic polytope read their facet
rows from the generators above, so each polytope is written once.  The
geometric simplex keeps its own order (x_i >= 0, then sum x_i <= 1, not
simplex_incidence's rows), which `gen simplex D --geometry` pins.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Iterable

from .geometry import GeometricInstance, Halfspace
from .incidence import IncidenceMinor, vertices

KM_FACETS = (
    (1, 2, 3, 4),
    (1, 2, 7, 8),
    (1, 4, 5, 8),
    (2, 3, 6, 7),
    (3, 4, 5, 6),
    (5, 6, 7, 8),
)


def cube_km() -> IncidenceMinor:
    """The 6x8 incidence matrix of the 3-cube in Klee-Minty numbering."""
    return IncidenceMinor(3, 8, tuple(sum(1 << v - 1 for v in facet) for facet in KM_FACETS))


def cyclic_incidence(d: int, n: int) -> IncidenceMinor:
    """Facets of the cyclic polytope C_d(n) by Gale's evenness criterion.

    Vertices are numbered along the moment curve; rows are the Gale-even
    d-subsets in lexicographic order, grown depth first: a run of
    consecutive vertices is left behind only if it holds 1 or is even.
    """
    if not n > d >= 2:
        raise ValueError("cyclic polytope needs n > d >= 2")
    rows = []
    # (row mask, highest vertex, vertices still to add, length of the run ending there or 0 if it holds 1)
    stack = [(0, 0, d, 0)]
    while stack:
        mask, last, k, run = stack.pop()
        if k == 0:
            if run % 2 == 0 or last == n:
                rows.append(mask)
            continue
        if run % 2 == 0:  # the run may close: the next vertex comes after a gap
            starts = range(n - k + 1, last + 1 if last else 0, -1)
            stack.extend((mask | 1 << v - 1, v, k - 1, int(v > 1)) for v in starts)
        if last and last + k <= n:  # extending the run comes first in lexicographic order
            stack.append((mask | 1 << last, last + 1, k - 1, run and run + 1))
    return IncidenceMinor(d, n, tuple(rows))


def simplex_incidence(d: int) -> IncidenceMinor:
    """The d-simplex on d+1 vertices: row i omits exactly vertex i."""
    if d < 1:
        raise ValueError("simplex dimension must be at least 1")
    full = (1 << d + 1) - 1
    return IncidenceMinor(d, d + 1, tuple(full ^ 1 << i for i in range(d + 1)))


def crosspolytope_incidence(d: int) -> IncidenceMinor:
    """The d-cross-polytope: vertices i and d+i are the +/- poles of axis i,
    one facet per sign vector."""
    if d < 1:
        raise ValueError("cross-polytope dimension must be at least 1")
    rows = (sum(1 << i + d * s for i, s in enumerate(signs)) for signs in product((0, 1), repeat=d))
    return IncidenceMinor(d, 2 * d, tuple(rows))


def prism(J: IncidenceMinor) -> IncidenceMinor:
    """The prism over the polytope behind J (assumed complete by caller).

    Vertices are duplicated: bottom copy 1..n, top copy n+1..2n.  Rows:
    the bottom facet, the top facet, then one vertical facet F + (F+n)
    per row F of J.  Dimension goes up by one.
    """
    n = J.n
    full = (1 << n) - 1
    return IncidenceMinor(J.d + 1, 2 * n, (full, full << n, *(r | r << n for r in J.row_masks)))


def delete_minor(J: IncidenceMinor, rows: Iterable[int] = (), cols: Iterable[int] = ()) -> IncidenceMinor:
    """Remove the named 1-based rows and columns; d is unchanged.

    Remaining columns are renumbered 1.. in their original order.
    """
    drop_rows = set(rows)
    drop_cols = set(cols)
    for i in drop_rows:
        if not 1 <= i <= J.m:
            raise IndexError(f"row {i} outside 1..{J.m}")
    for j in drop_cols:
        if not 1 <= j <= J.n:
            raise IndexError(f"column {j} outside 1..{J.n}")
    masks = [r for i, r in enumerate(J.row_masks, start=1) if i not in drop_rows]
    for j in sorted(drop_cols, reverse=True):  # bit j-1 goes, the bits above it shift down
        low = (1 << j - 1) - 1
        masks = [r & low | r >> j << j - 1 for r in masks]
    return IncidenceMinor(J.d, J.n - len(drop_cols), tuple(masks))


# --- geometric instances -------------------------------------------------


def _unit(d: int, i: int, value: int = 1) -> tuple[int, ...]:
    return tuple(value if j == i else 0 for j in range(d))


def geometric_simplex(d: int) -> GeometricInstance:
    """Origin plus the unit vectors; facets x_i >= 0 and sum x_i <= 1."""
    if d < 1:
        raise ValueError("simplex dimension must be at least 1")
    points = [(0,) * d] + [_unit(d, i) for i in range(d)]
    halfspaces = [Halfspace(_unit(d, i, -1), 0) for i in range(d)]
    halfspaces.append(Halfspace((1,) * d, 1))
    return GeometricInstance(d, tuple(points), tuple(halfspaces))


def geometric_cube_km() -> GeometricInstance:
    """The 0/1-cube read from KM_FACETS, whose rows are z, y, x = 0, then
    x, y, z = 1: vertex v has coordinate 1 on the axis of each of the last
    three rows that hold it, so extraction reproduces cube_km() verbatim.
    """
    points = tuple(tuple(int(v in facet) for facet in KM_FACETS[3:]) for v in range(1, 9))
    halfspaces = [Halfspace(_unit(3, i, -1), 0) for i in (2, 1, 0)]  # z, y, x >= 0
    halfspaces += [Halfspace(_unit(3, i), 1) for i in range(3)]  # x, y, z <= 1
    return GeometricInstance(3, points, tuple(halfspaces))


def geometric_crosspolytope(d: int) -> GeometricInstance:
    """Vertices +/- e_i (labels i and d+i); one facet sign . x <= 1 per row
    of crosspolytope_incidence(d), sign_i = +1 where the row holds vertex i."""
    rows = crosspolytope_incidence(d).row_masks
    points = [_unit(d, i) for i in range(d)] + [_unit(d, i, -1) for i in range(d)]
    halfspaces = (Halfspace(tuple(1 if r >> i & 1 else -1 for i in range(d)), 1) for r in rows)
    return GeometricInstance(d, tuple(points), tuple(halfspaces))


def geometric_cyclic(d: int, n: int) -> GeometricInstance:
    """Moment-curve coordinates p(t) = (t, t^2, ..., t^d), t = 1..n, for
    C_d(n), with one halfspace per Gale facet in closed form.

    A hyperplane a.x = b contains p(t) exactly when t is a root of the
    polynomial a_1 t + ... + a_d t^d - b.  For a facet with vertices
    t_1..t_d that polynomial is a multiple of the monic prod (t - t_i) =
    t^d + c_{d-1} t^{d-1} + ... + c_0, so the facet hyperplane is unique:
    normal (c_1, ..., c_{d-1}, 1) and offset -c_0, which is nonzero since
    every t_i >= 1.  It is scaled to offset 1, then negated if the lowest
    vertex off the facet violates it.  Because the hyperplane is unique,
    this equals what solving the d point equations for (a, b) by
    elimination gives under the same scaling and orientation.
    """
    points = tuple(tuple(t ** (i + 1) for i in range(d)) for t in range(1, n + 1))
    halfspaces = []
    for mask in cyclic_incidence(d, n).row_masks:
        coeffs = [1]  # of prod (t - t_i), constant term first
        for t in vertices(mask):
            coeffs = [a - t * b for a, b in zip([0, *coeffs], [*coeffs, 0])]
        offset = -coeffs[0]
        normal = tuple(Fraction(c, offset) for c in coeffs[1:])
        outside = points[((mask + 1) & ~mask).bit_length() - 1]  # lowest vertex off the facet
        if sum(a * x for a, x in zip(normal, outside)) > 1:
            halfspaces.append(Halfspace(tuple(-a for a in normal), -1))
        else:
            halfspaces.append(Halfspace(normal, 1))
    return GeometricInstance(d, points, tuple(halfspaces))
