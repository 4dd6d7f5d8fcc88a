"""Independent brute-force references, for tests only.

Everything here is deliberately naive -- unpacked 0/1 lists, full
elimination, exhaustive tuple loops -- and shares no code with the
bit-packed production path, so a bug there cannot be mirrored here.
Inputs are capped at fixture scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations, permutations, product
from math import comb, gcd, lcm
from typing import Iterable, Sequence

from polycomplete.incidence import IncidenceMinor


def vertex_mask(labels: Iterable[int]) -> int:
    """The bitmask of 1-based vertex labels: bit v-1 stands for vertex v."""
    return sum(1 << (v - 1) for v in labels)


def supports(J: IncidenceMinor) -> tuple[tuple[int, ...], ...]:
    """The sorted 1-based vertex labels of each row, read bit by bit."""
    return tuple(tuple(j + 1 for j in range(J.n) if mask >> j & 1) for mask in J.row_masks)


def pyramid(J: IncidenceMinor) -> IncidenceMinor:
    """The pyramid over the polytope behind J: one apex, vertex n+1.

    Each facet gains the apex, and the base, every old vertex, becomes a
    facet.  Dimension goes up by one.
    """
    apex = 1 << J.n
    return IncidenceMinor(J.d + 1, J.n + 1, (*(row | apex for row in J.row_masks), apex - 1))


def facet_adjacency(J: IncidenceMinor) -> list[set[int]]:
    """For each row (0-based), the other rows it meets in an inclusion-maximal meet.

    Row i is adjacent to row j when the vertex set they share lies in no
    larger one that row i shares with a third row.  On a polytope's
    facets these are the pairs that share a ridge.
    """
    rows = [frozenset(s) for s in supports(J)]
    adjacent = []
    for i, F in enumerate(rows):
        meets = {j: F & G for j, G in enumerate(rows) if j != i}
        adjacent.append({j for j, c in meets.items() if not any(c < other for other in meets.values())})
    return adjacent


def size_stats_by_cells(J: IncidenceMinor) -> tuple[int, int]:
    """Max row support and max column support, counted one cell at a time.

    Reads only the bits rows actually have, so a huge n with no rows is
    cheap.
    """
    width = max((mask.bit_length() for mask in J.row_masks), default=0)
    rows = [sum(mask >> j & 1 for j in range(width)) for mask in J.row_masks]
    cols = [sum(mask >> j & 1 for mask in J.row_masks) for j in range(width)]
    return max(rows, default=0), max(cols, default=0)


def collapse_by_listing(d: int, rows: Iterable[int]) -> tuple[frozenset[frozenset[int]], list[int]]:
    """The generators and the pair counts q of crosscut.collapse, with C listed face by face.

    The same pass on explicit vertex sets: rows with more than d+1
    vertices in turn, smallest first (ties by mask).  C is every subset of
    every meet F & S with another generator S, the empty set included.
    F in C lies inside another generator and is dropped, with no pairs.
    Else the apex a is the lowest vertex of F with F - a not in C.  F is
    replaced with the cones a + c over the maximal faces c of C without
    a when their count of faces of dimension d-2..d is below F's.  q[i]
    counts the (d-2+i)-subsets t of F - a with t not in C, each listed.
    """

    def bound(face: frozenset[int]) -> int:
        return sum(comb(len(face), k + 1) for k in range(d - 2, d + 1) if k >= -1)

    gens = {frozenset(j + 1 for j in range(row.bit_length()) if row >> j & 1) for row in rows}
    q = [0, 0, 0, 0]
    for F in sorted((F for F in gens if len(F) > d + 1), key=lambda F: (len(F), vertex_mask(F))):
        gens.remove(F)
        meets = {F & S for S in gens} | {frozenset()}
        C = {frozenset(t) for c in meets for size in range(len(c) + 1) for t in combinations(sorted(c), size)}
        if F in C:
            continue
        apex = next((a for a in sorted(F) if F - {a} not in C), None)
        tops = [c for c in meets if not any(c < other for other in meets)]
        cones = {c | {apex} for c in tops if apex not in c}
        if apex is None or sum(map(bound, cones)) >= bound(F):
            gens.add(F)
            continue
        gens |= cones
        for i, j in enumerate(range(d - 2, d + 2)):
            if j >= 0:
                q[i] += sum(frozenset(t) not in C for t in combinations(sorted(F - {apex}), j))
    return frozenset(gens), q


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


class OracleSizeError(ValueError):
    """The instance is past the fixture-scale cap of a brute-force oracle."""


@dataclass(frozen=True)
class BettiProfile:
    """Reduced Z2 Betti numbers, indexed from k = -1 upward."""

    reduced: tuple[int, ...]

    def betti(self, k: int) -> int:
        idx = k + 1
        if 0 <= idx < len(self.reduced):
            return self.reduced[idx]
        return 0

    @property
    def max_dim(self) -> int:
        return len(self.reduced) - 2


def _rank_unpacked(mat: list[list[int]]) -> int:
    """Plain full-reduction Gaussian elimination over Z2 on 0/1 lists."""
    if not mat or not mat[0]:
        return 0
    mat = [row[:] for row in mat]
    nrows, ncols = len(mat), len(mat[0])
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, nrows) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for i in range(nrows):
            if i != rank and mat[i][col]:
                mat[i] = [a ^ b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def boundary_columns(upper: Sequence[int], lower: Sequence[int]) -> list[int]:
    """The Z2 boundary between two explicitly given layers of vertex masks.

    One integer per upper face; bit i is set iff lower[i] is that face
    with one vertex removed.  Only the two given layers are read, so the
    matrix does not depend on how the production code finds a layer.
    """
    index = {f: i for i, f in enumerate(lower)}
    return [sum(1 << index[face & ~(1 << v)] for v in range(face.bit_length()) if face >> v & 1) for face in upper]


def gf2_rank(cols: Iterable[int]) -> int:
    """Rank over Z2 of columns packed as integers, by keeping a basis keyed on the lowest bit."""
    basis: dict[int, int] = {}
    for col in cols:
        while col:
            low = col & -col
            if low not in basis:
                basis[low] = col
                break
            col ^= basis[low]
    return len(basis)


def homology_all_ranks(J: IncidenceMinor, max_faces: int = 10_000) -> BettiProfile:
    """All reduced Z2 Betti numbers of the crosscut complex of J.

    Enumerates every face layer (the empty face included), builds every
    augmented boundary matrix as an unpacked 0/1 list matrix, and reads
    off b~_k = dim ker(boundary_k) - rank(boundary_{k+1}).
    """
    faces: set[frozenset[int]] = set()
    for sup in supports(J):
        sup = list(sup)
        for size in range(len(sup) + 1):
            for combo in combinations(sup, size):
                faces.add(frozenset(combo))
                if len(faces) > max_faces:
                    raise OracleSizeError(f"more than {max_faces} faces")
    if J.m > 0 or J.n > 0:
        faces.add(frozenset())
    if not faces:
        return BettiProfile(())

    top = max(len(f) for f in faces) - 1
    layers: list[list[frozenset[int]]] = []
    for k in range(-1, top + 1):
        layer = sorted((f for f in faces if len(f) == k + 1), key=sorted)
        layers.append(layer)

    def boundary(k: int) -> list[list[int]]:
        # matrix of boundary_k : C_k -> C_{k-1}; layers[k+1] holds the k-faces
        upper = layers[k + 1]
        lower = layers[k]
        idx = {f: i for i, f in enumerate(lower)}
        mat = [[0] * len(upper) for _ in lower]
        for j, face in enumerate(upper):
            for v in face:
                mat[idx[face - {v}]][j] = 1
        return mat

    reduced = []
    for k in range(-1, top + 1):
        dim_k = len(layers[k + 1])
        rank_k = _rank_unpacked(boundary(k)) if k >= 0 else 0
        kernel = dim_k - rank_k
        rank_up = _rank_unpacked(boundary(k + 1)) if k + 1 <= top else 0
        reduced.append(kernel - rank_up)
    return BettiProfile(tuple(reduced))


def prefix_homology(d: int, rows: Sequence[int]) -> list[int]:
    """The reduced (d-1)-st Z2 Betti number of the crosscut complex of every prefix of the rows.

    One column reduction over the whole filtration, d >= 1.  Each face with
    d-1, d or d+1 vertices (masks) enters with the first row that holds it,
    and the faces are ordered by (entry row, size, mask), so a face comes
    after its own faces and the faces of every prefix come first.  The
    faces with d or d+1 vertices get their boundary over all of them as a
    column (boundary_columns); at d = 1 a vertex's boundary is the empty
    face, the augmentation row.  Columns are reduced left to right on their
    highest bit.  A d-vertex face whose column vanishes opens a cycle class
    with its entry row, and a (d+1)-vertex face whose reduced column tops
    at that face closes it with its own.  Entry k-1 of the result counts
    the classes open after row k.
    """
    entry: dict[int, int] = {}
    for r, row in enumerate(rows):
        verts = [1 << v for v in range(row.bit_length()) if row >> v & 1]
        for size in (d - 1, d, d + 1):
            for combo in combinations(verts, size):
                entry.setdefault(sum(combo), r)
    faces = sorted(entry, key=lambda f: (entry[f], f.bit_count(), f))
    upper = [f for f in faces if f.bit_count() > d - 1]
    change = [0] * len(rows)  # per row, the classes it opens minus those it closes
    pivots: dict[int, int] = {}
    for face, col in zip(upper, boundary_columns(upper, faces)):
        while col and col.bit_length() in pivots:
            col ^= pivots[col.bit_length()]
        if col:
            pivots[col.bit_length()] = col
            if face.bit_count() == d + 1:
                change[entry[face]] -= 1
        elif face.bit_count() == d:
            change[entry[face]] += 1
    return list(accumulate(change))


def pulling_member_by_scan(J: IncidenceMinor, labels: Sequence[int]) -> bool:
    """Membership of the increasing vertex labels v1 < ... < vd in the pulling
    complex of J, by the greedy over every row.

    For i = 1..d takes the first row, in row order, that holds {vi, ..., vd}
    and whose meet with the rows taken before has least vertex vi; fails
    when no row does.
    """
    rows = [set(sup) for sup in supports(J)]
    meet = set(range(1, J.n + 1))
    for i, v in enumerate(labels):
        for row in rows:
            if set(labels[i:]) <= row and min(meet & row) == v:
                meet &= row
                break
        else:
            return False
    return True


def pulling_triangulation_by_flags(I: IncidenceMinor, max_tuples: int = 2_000_000) -> frozenset:
    """Facets of the pulling triangulation of a complete matrix, by brute
    force over all d-tuples of rows.

    For each tuple (F1, ..., Fd) collects {v1, ..., vd} with
    vi = min(F1 & ... & Fi) whenever all the minima are defined and
    distinct.
    """
    d = I.d
    rows = [frozenset(sup) for sup in supports(I)]
    if len(rows) ** d > max_tuples:
        raise OracleSizeError(f"{len(rows)}^{d} tuples exceed the cap {max_tuples}")
    found = set()
    for flags in product(rows, repeat=d):
        inter = flags[0]
        mins = []
        ok = True
        for i, row in enumerate(flags):
            if i > 0:
                inter = inter & row
            if not inter:
                ok = False
                break
            mins.append(min(inter))
        if ok and len(set(mins)) == d:
            found.add(tuple(sorted(mins)))
    return frozenset(found)


def rank_over_q(rows: Sequence[Sequence[int]]) -> int:
    """Rank of a rational (or integer) matrix by Gaussian elimination on Fractions."""
    mat = [list(row) for row in rows if any(row)]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        pivot_row = mat[rank]
        for i in range(rank + 1, len(mat)):
            factor = Fraction(mat[i][col], pivot_row[col])
            if factor:
                mat[i] = [x - factor * y for x, y in zip(mat[i], pivot_row)]
        rank += 1
    return rank


def tight_masks_and_violations(inst) -> tuple[tuple[int, ...], list[tuple[int, int]]]:
    """Each halfspace's tight-point mask and the strictly violated pairs.

    Every (point, halfspace) pair is read once in Fractions, normal . point
    against offset, never through the integer forms.  A mask has bit j for
    point j+1; the violations are 1-based (point, halfspace), point-major.
    """
    tight = [0] * len(inst.halfspaces)
    violations = []
    for i, p in enumerate(inst.points):
        for k, h in enumerate(inst.halfspaces):
            value = sum(a * x for a, x in zip(h.normal, p))
            if value == h.offset:
                tight[k] |= 1 << i
            elif value > h.offset:
                violations.append((i + 1, k + 1))
    return tuple(tight), violations


def _solve_hyperplane(points: Sequence[Sequence[Fraction]]):
    """Unique hyperplane a.x = b through the points, or None (own solver)."""
    if not points:
        return None
    dim = len(points[0])
    mat = [[Fraction(x) for x in p] + [Fraction(-1)] for p in points]
    ncols = dim + 1
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        lead = mat[r][col]
        mat[r] = [x / lead for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
    free = [c for c in range(ncols) if c not in pivots]
    if len(free) != 1:
        return None
    vec = [Fraction(0)] * ncols
    vec[free[0]] = Fraction(1)
    for row_idx, col in enumerate(pivots):
        vec[col] = -mat[row_idx][free[0]]
    normal, offset = tuple(vec[:dim]), vec[dim]
    if all(a == 0 for a in normal):
        return None
    return normal, offset


def _supporting_hyperplanes(points: list[tuple[Fraction, ...]], max_subsets: int):
    """(normal, offset, values) of each e-subset's hyperplane with every
    point weakly on one side; values[i] is normal . points[i] - offset."""
    e = len(points[0])
    total = 1
    for i in range(e):
        total = total * (len(points) - i) // (i + 1)
    if total > max_subsets:
        raise OracleSizeError(f"{total} subsets exceed the cap {max_subsets}")
    for combo in combinations(range(len(points)), e):
        plane = _solve_hyperplane([points[i] for i in combo])
        if plane is None:
            continue
        normal, offset = plane
        values = [sum(a * x for a, x in zip(normal, p)) - offset for p in points]
        if all(v <= 0 for v in values) or all(v >= 0 for v in values):
            yield normal, offset, values


def hull_facets(points: Sequence[Sequence[Fraction]], max_subsets: int = 500_000) -> frozenset:
    """Facet vertex sets of the convex hull of full-dimensional points.

    Exhaustive: every e-subset of the points spanning a hyperplane with
    all points weakly on one side contributes its full tight set.
    Returns a frozenset of frozensets of 1-based point indices.
    """
    points = [tuple(Fraction(x) for x in p) for p in points]
    if not points:
        return frozenset()
    return frozenset(
        frozenset(i + 1 for i, v in enumerate(values) if v == 0)
        for _, _, values in _supporting_hyperplanes(points, max_subsets)
    )


def _on_facet(facet: tuple[int, ...], point: Sequence[Fraction]) -> bool:
    *normal, offset = facet
    return sum(a * x for a, x in zip(normal, point)) == offset


@dataclass(frozen=True)
class ExactHull:
    """Vertices and facet inequalities normal . x <= offset of a polytope.

    Each facet is the tuple (*normal, offset) of coprime integers.
    """

    d: int
    vertices: tuple[tuple[Fraction, ...], ...]
    facets: tuple[tuple[int, ...], ...]

    def incidence(self) -> IncidenceMinor:
        """Facet-by-vertex incidence: bit j of row k iff vertex j+1 is on facet k+1."""
        masks = tuple(
            sum(1 << j for j, v in enumerate(self.vertices) if _on_facet(f, v)) for f in self.facets
        )
        return IncidenceMinor(self.d, len(self.vertices), masks)


def exact_hull(points: Sequence[Sequence[Fraction]], max_subsets: int = 500_000) -> ExactHull:
    """The convex hull of full-dimensional rational points, by brute force.

    Every e-subset's hyperplane with all points weakly on one side is a
    facet.  It is scaled to coprime integers with every point on its <=
    side, so the same facet found from several subsets is kept once; the
    facets are sorted.  The vertices are the distinct points whose tight
    facet normals span dimension e, in input order.
    """
    points = list(dict.fromkeys(tuple(Fraction(x) for x in p) for p in points))
    facets = set()
    for normal, offset, values in _supporting_hyperplanes(points, max_subsets):
        sign = -1 if any(v > 0 for v in values) else 1
        coeffs = [sign * c for c in (*normal, offset)]
        scale = lcm(*(c.denominator for c in coeffs))
        ints = [int(c * scale) for c in coeffs]
        g = gcd(*ints)
        facets.add(tuple(x // g for x in ints))
    e = len(points[0])
    vertices = tuple(p for p in points if rank_over_q([f[:-1] for f in facets if _on_facet(f, p)]) == e)
    return ExactHull(e, vertices, tuple(sorted(facets)))


def permutation_equivalent(a: IncidenceMinor, b: IncidenceMinor, max_cols: int = 9) -> bool:
    """Whether a equals b up to a row and a column permutation.

    Brute force over column permutations (grouped by column degree), so it
    is limited to small matrices; raises for n > max_cols.  Not an
    isomorphism algorithm.
    """
    if (a.m, a.n) != (b.m, b.n):
        return False
    if a.n > max_cols:
        raise ValueError(f"permutation check limited to n <= {max_cols}")
    if sorted(m.bit_count() for m in a.row_masks) != sorted(m.bit_count() for m in b.row_masks):
        return False

    def col_degrees(J):
        degs = [0] * J.n
        for mask in J.row_masks:
            for j in range(J.n):
                if (mask >> j) & 1:
                    degs[j] += 1
        return degs

    deg_a, deg_b = col_degrees(a), col_degrees(b)
    if sorted(deg_a) != sorted(deg_b):
        return False
    target = sorted(a.row_masks)
    for perm in permutations(range(b.n)):
        # perm[j] = source column of b mapped onto column j of a
        if any(deg_a[j] != deg_b[perm[j]] for j in range(b.n)):
            continue
        remapped = sorted(
            sum(((mask >> perm[j]) & 1) << j for j in range(b.n)) for mask in b.row_masks
        )
        if remapped == target:
            return True
    return False
