"""Crosscut complex and the homology completeness decision.

The crosscut complex of an incidence minor has one rule: a face is a
subset of some facet row, the empty face included.  A minor of a
d-polytope's incidence matrix is complete exactly when the reduced
(d-1)-st Z2 homology of this complex K is nonzero, which reduces to one
rank and one kernel computation on two boundary matrices.

Those matrices are built on a smaller complex K' that K collapses onto:
``collapse`` replaces the full simplex of a big row with a cone over C,
where it meets the other rows.  C always holds the empty face, so a row
alone becomes a single vertex.  Collapsing keeps the homology, and the
rank and kernel of K follow from those of K' and one count of pairs; the
shapes of K are its faces, counted from its rows without listing them.
Only K''s top layer is listed from its rows; ``boundary_matrix`` finds
each layer below as the facets of the one above.

Reduced homology is used uniformly: the boundary from the vertex layer to
the empty-face layer is the all-ones augmentation row.  That makes the
criterion literally correct down to d = 1, where the complete crosscut
complex is a two-point sphere.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterable

from .gf2 import Gf2Matrix
from .incidence import Face, IncidenceMinor, bits, size_stats, transpose

SIDE_AUTO = "auto"
SIDE_PRIMAL = "primal"
SIDE_DUAL = "dual"


@dataclass(frozen=True)
class FaceLayer:
    """All k-dimensional faces ((k+1)-subsets) of a crosscut complex.

    Faces are vertex bitmasks without repeats, in a fixed order: sorted
    ascending when enumerated from the rows, first met when found as
    facets of the layer above.  Rank and kernel do not depend on the
    order, and a fixed one keeps the matrices reproducible bit for bit.
    """

    k: int
    faces: tuple[Face, ...]

    def __len__(self) -> int:
        return len(self.faces)


def enumerate_faces(J: IncidenceMinor, k: int) -> FaceLayer:
    """Every (k+1)-subset of {1..n} contained in at least one row of J.

    A face is a subset of some row, so k = -1 holds the empty face 0
    exactly when J has a row (no rows: the void complex), and k beyond the
    largest row yields an empty layer; callers can ask for the layers any
    d requires without guarding degenerate minors.
    """
    if k < -1:
        raise ValueError("face dimension k must be >= -1")
    faces: set[Face] = set()
    for row in J.row_masks:
        if row.bit_count() > k:
            faces.update(map(sum, combinations(bits(row), k + 1)))
    return FaceLayer(k, tuple(sorted(faces)))


def boundary_matrix(upper: FaceLayer, J: IncidenceMinor) -> tuple[Gf2Matrix, FaceLayer]:
    """Z2 boundary matrix out of upper, and the layer below it found in the same pass.

    One column per upper face, one row per lower face; entry 1 iff the
    lower face is the upper face with one bit cleared.  Each column is
    built as a mask over the lower layer's indices, the orientation
    Gf2Matrix reduces.  A lower face is numbered the first time it is met
    as a facet of an upper face; after the pass the rows of J with
    exactly upper.k vertices are appended if not yet met.  With upper.k =
    0 the lower layer is the empty face and the matrix the augmentation
    row of all ones.

    That is J's whole (k-1)-layer when upper covers it: every (k-1)-face
    of J that lies in a larger face is a facet of some face in upper.
    The full k-layer covers it, since every k-subset of a row with more
    than k vertices is a facet of one of its (k+1)-subsets, and a face in
    no larger one is itself a row.  So does the part of it that clearing
    keeps (see ``analyze``).
    """
    index: dict[Face, int] = {}
    cols = []
    for face in upper.faces:
        col = 0
        rest = face
        while rest:  # inline, not bits(): a list per face measured slower in check
            low = rest & -rest
            rest ^= low
            col |= 1 << index.setdefault(face ^ low, len(index))
        cols.append(col)
    for row in J.row_masks:
        if row.bit_count() == upper.k and row not in index:
            index[row] = len(index)
    return Gf2Matrix(len(index), cols), FaceLayer(upper.k - 1, tuple(index))


def collapse(d: int, M: IncidenceMinor) -> tuple[IncidenceMinor, int]:
    """Rows of a complex K' that M's crosscut complex K collapses onto, and the pair count q.

    One pass over the distinct rows, smallest first (ties by mask): a
    replaced row adds its cones to the generators every later row scans,
    and the biggest rows add the most.  A row F with more than d+1
    vertices meets the other generators in C, the union of the empty face
    and the simplices on F & S.  Its simplex is replaced with the cone
    over C from the lowest vertex a of F with F - a not in C, if that
    lowers the face bound sum_{k=d-2..d} C(|g|, k+1).  The cone is listed
    as a + c for the maximal faces c of C without a and with at least d-2
    vertices, the only ones that add a face the decision reads: one with
    a is some F & S and already lies in S, and a smaller one adds no face
    with d-1..d+1 vertices.  A row alone has C = {empty face} and becomes
    the vertex a, or nothing when d > 2.  The apex test reads the meets,
    not C, so a row inside another generator S can find an apex; its only
    top is then F & S = F, and the row is dropped with no pairs.  K
    collapses onto K' through the pairs (t, t + a), t a subset of F - a
    not in C; a pair with |t| = d lowers the rank of the boundary out of
    the d-faces by one and leaves the rank out of the (d-1)-faces as it
    was.  q counts those pairs: C(|F|-1, d) minus the d-subsets of F - a
    in C, which are counted from the maximal faces of C
    (``_count_subsets``).  M itself is returned when no row is replaced.
    """
    gens = set(M.row_masks)
    q = 0
    replaced = False
    big = sorted((F for F in gens if F.bit_count() > d + 1), key=lambda F: (F.bit_count(), F))
    bound = [_face_bound(d, size) for size in range(big[-1].bit_count() + 1)] if big else []
    for F in big:
        size = F.bit_count()
        gens.remove(F)
        meets = {0, *map(F.__and__, gens)}
        apex = next((bit for bit in bits(F) if F ^ bit not in meets), 0)
        tops = _maximal(c for c in meets if c.bit_count() >= d - 2)
        cones = {apex | c for c in tops if not c & apex}
        if not apex or sum(bound[c.bit_count()] for c in cones) >= bound[size]:
            gens.add(F)
            continue
        gens |= cones
        (inside,) = _count_subsets({c & ~apex for c in tops}, range(d, d + 1))
        q += comb(size - 1, d) - inside
        replaced = True
    return (IncidenceMinor(M.d, M.n, tuple(gens)) if replaced else M), q


def _maximal(faces: Iterable[Face]) -> list[Face]:
    """The inclusion-maximal members of a set of faces, largest first."""
    tops: list[Face] = []
    for c in sorted(faces, key=int.bit_count, reverse=True):
        for t in tops:
            if c & t == c:
                break
        else:
            tops.append(c)
    return tops


def _count_subsets(faces: Iterable[Face], sizes: range) -> list[int]:
    """For each j in sizes, the j-sets that lie inside at least one of faces.

    Counted without listing them, by recursion over the maximal faces
    c_1..c_k: the count for c_1..c_k is the count for c_1..c_(k-1), plus
    C(|c_k|, j), minus the count for the meets c_k & c_i (i < k), the sets
    inside c_k that an earlier face already holds.  Faces with fewer than
    min(sizes) vertices hold no such set and are dropped.
    """
    lo = sizes.start
    tops = _maximal(f for f in faces if f.bit_count() >= lo)
    counts = [0] * len(sizes)
    for k, c in enumerate(tops):
        meets = [m for m in map(c.__and__, tops[:k]) if m.bit_count() >= lo]
        inner = _count_subsets(meets, sizes) if meets else [0] * len(sizes)
        size = c.bit_count()
        for i, j in enumerate(sizes):
            counts[i] += comb(size, j) - inner[i]
    return counts


def _face_bound(d: int, size: int) -> int:
    """Faces of dimension d-2..d in the simplex on size vertices."""
    return sum(comb(size, k + 1) for k in range(d - 2, d + 1))


@dataclass(frozen=True)
class CompletenessReport:
    """What the decision computed: side, matrix shapes, rank, kernel.

    ``boundary_d_*`` describe the boundary matrix out of the d-faces,
    ``boundary_d1_*`` the one out of the (d-1)-faces, both for the
    crosscut complex of the matrix actually analyzed (the transpose when
    side is dual).  ``homology_dim`` is the dimension of the reduced
    (d-1)-st Z2 homology group of that complex.
    """

    d: int
    side: str
    stats: tuple[int, int]  # size_stats: (max row support, max column support)
    boundary_d_shape: tuple[int, int] = (0, 0)
    boundary_d_rank: int = 0
    boundary_d1_shape: tuple[int, int] = (0, 0)
    boundary_d1_kernel: int = 0
    complete: bool = False

    @property
    def homology_dim(self) -> int:
        return self.boundary_d1_kernel - self.boundary_d_rank


def analyze(d: int, J: IncidenceMinor, side: str = SIDE_AUTO) -> CompletenessReport:
    """Run the completeness decision and report the numbers behind it.

    side selects which matrix the homology is computed on: "primal" is J
    itself, "dual" its transpose (same answer either way), "auto" picks
    the smaller problem by comparing max row and column support, ties
    toward primal.  The homology is computed on the collapsed complex K'
    of that side, and the report gives the numbers of the original
    complex K.  A pair of ``collapse`` with |t| = j takes a face from
    the layers j-1 and j and lowers rank j by one, so only the q pairs
    with |t| = d move rank d and kernel d-1, each by one, and the answer
    does not read q.  The shapes are K's face counts: the layer lengths
    when nothing collapsed, else counted from M's rows.

    One boundary matrix is alive at a time: the d-layer and its boundary
    are released before the second boundary is built, and that one gets
    only the (d-1)-faces that clearing keeps.  They still cover the
    (d-2)-layer.  Suppose every (d-1)-face through a (d-2)-face g were
    cleared, and let f be the one numbered lowest.  f tops a reduced
    column of the first boundary.  That column is a sum of boundaries, so
    a cycle, and holds g in an even number of its faces: in a second one,
    numbered below its top f, a contradiction.
    """
    if d < 0:
        raise ValueError("dimension d must be nonnegative")
    if side not in (SIDE_AUTO, SIDE_PRIMAL, SIDE_DUAL):
        raise ValueError(f"unknown side {side!r}")
    stats = size_stats(J)
    if d == 0:
        # not covered by the homology criterion: a point is complete iff
        # exactly its one vertex is listed (extrapolated convention)
        return CompletenessReport(d, SIDE_PRIMAL, stats, complete=J.n == 1)
    if J.m == 0 or J.n == 0:
        return CompletenessReport(d, SIDE_DUAL if side == SIDE_DUAL else SIDE_PRIMAL, stats)
    if side == SIDE_AUTO:
        side = SIDE_PRIMAL if stats[0] <= stats[1] else SIDE_DUAL
    M = J if side == SIDE_PRIMAL else transpose(J)
    K, q = collapse(d, M)
    upper = enumerate_faces(K, d)
    boundary_d, middle = boundary_matrix(upper, K)
    n_middle, n_upper = len(middle), len(upper)
    rank_d = boundary_d.rank() + q
    # clearing: the top face of a reduced column of boundary_d tops a cycle,
    # so its own boundary column is a sum of earlier ones and is not built
    cleared = boundary_d.pivots
    kept = FaceLayer(d - 1, tuple(f for i, f in enumerate(middle.faces, 1) if i not in cleared))
    del upper, middle, boundary_d, cleared
    boundary_d1, lower = boundary_matrix(kept, K)
    kernel_d1 = n_middle - boundary_d1.rank() + q
    n_lower = len(lower)
    if K is not M:  # K's faces with d-1, d and d+1 vertices
        n_lower, n_middle, n_upper = _count_subsets(M.row_masks, range(d - 1, d + 2))
    return CompletenessReport(
        d=d,
        side=side,
        stats=stats,
        boundary_d_shape=(n_middle, n_upper),
        boundary_d_rank=rank_d,
        boundary_d1_shape=(n_lower, n_middle),
        boundary_d1_kernel=kernel_d1,
        complete=kernel_d1 > rank_d,
    )


def decide(d: int, J: IncidenceMinor) -> bool:
    """Is J a complete incidence matrix minor of a d-polytope?

    The side is picked as by ``analyze`` with side "auto" (a minor is
    complete iff its transpose is); a forced side goes through ``analyze``.
    """
    return analyze(d, J).complete
