"""Crosscut complex and the homology completeness decision.

The crosscut complex of an incidence minor is the simplicial complex of
all vertex subsets contained in at least one facet row.  A minor of a
d-polytope's incidence matrix is complete exactly when the reduced
(d-1)-st Z2 homology of this complex is nonzero, which reduces to one
rank and one kernel computation on two boundary matrices.

Reduced homology is used uniformly: the boundary from the vertex layer to
the empty-face layer is the all-ones augmentation row.  That makes the
criterion literally correct down to d = 1, where the complete crosscut
complex is a two-point sphere.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .gf2 import Gf2Matrix
from .incidence import Face, IncidenceMinor, SizeStats, size_stats, transpose, vertices

SIDE_AUTO = "auto"
SIDE_PRIMAL = "primal"
SIDE_DUAL = "dual"


@dataclass(frozen=True)
class FaceLayer:
    """All k-dimensional faces ((k+1)-subsets) of a crosscut complex.

    Faces are vertex bitmasks, deduplicated across rows and sorted
    ascending, so downstream matrices are reproducible bit for bit.
    k = -1 holds the single empty face 0.
    """

    k: int
    faces: tuple[Face, ...]

    def __len__(self) -> int:
        return len(self.faces)


def enumerate_faces(J: IncidenceMinor, k: int) -> FaceLayer:
    """Every (k+1)-subset of {1..n} contained in at least one row of J.

    k = -1 yields the single empty face whenever the matrix is nonempty
    (m > 0 or n > 0).  k beyond n-1 yields an empty layer, so callers can
    ask for the layers any d requires without guarding degenerate minors.
    """
    if k < -1:
        raise ValueError("face dimension k must be >= -1")
    if k == -1:
        present = J.m > 0 or J.n > 0
        return FaceLayer(-1, (0,) if present else ())
    seen: set[Face] = set()
    for row in J.row_masks:
        if row.bit_count() >= k + 1:
            bits = []
            while row:
                low = row & -row
                bits.append(low)
                row ^= low
            seen.update(map(sum, combinations(bits, k + 1)))
    return FaceLayer(k, tuple(sorted(seen)))


def boundary_matrix(upper: FaceLayer, lower: FaceLayer) -> Gf2Matrix:
    """Z2 boundary matrix from the upper layer to the lower one.

    One column per upper face, one row per lower face; entry 1 iff the
    lower face is a codimension-1 subset of the upper face, that is the
    upper face with one bit cleared.  Each column is built as a mask over
    the lower layer's indices, the orientation Gf2Matrix reduces.  With
    lower.k = -1 this is the augmentation row of all ones.
    """
    if upper.k != lower.k + 1:
        raise ValueError(f"layer mismatch: upper k={upper.k}, lower k={lower.k}")
    index = {f: i for i, f in enumerate(lower.faces)}
    cols = []
    for face in upper.faces:
        col = 0
        rest = face
        while rest:
            low = rest & -rest
            rest ^= low
            facet = face ^ low
            try:
                col |= 1 << index[facet]
            except KeyError:
                labels = ", ".join(map(str, vertices(facet)))
                raise ValueError(f"lower layer is missing face {{{labels}}}") from None
        cols.append(col)
    return Gf2Matrix(len(lower), len(upper), cols)


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
    stats: SizeStats
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
    toward primal.  One boundary matrix is alive at a time: the d-layer
    and its boundary are released before the (d-2)-layer is built, and
    the second boundary gets only the columns that clearing keeps.
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
        side = SIDE_PRIMAL if stats.s <= stats.s_col else SIDE_DUAL
    M = J if side == SIDE_PRIMAL else transpose(J)
    upper = enumerate_faces(M, d)
    middle = enumerate_faces(M, d - 1)
    shape_d = (len(middle), len(upper))
    boundary_d = boundary_matrix(upper, middle)
    rank_d = boundary_d.rank()
    # clearing: the top face of a reduced column of boundary_d tops a cycle,
    # so its own boundary column is a sum of earlier ones and is not built
    cleared = boundary_d.pivots
    kept = FaceLayer(d - 1, tuple(f for i, f in enumerate(middle.faces, 1) if i not in cleared))
    n_middle = len(middle)
    del upper, middle, boundary_d, cleared
    lower = enumerate_faces(M, d - 2)
    kernel_d1 = n_middle - boundary_matrix(kept, lower).rank()
    return CompletenessReport(
        d=d,
        side=side,
        stats=stats,
        boundary_d_shape=shape_d,
        boundary_d_rank=rank_d,
        boundary_d1_shape=(len(lower), n_middle),
        boundary_d1_kernel=kernel_d1,
        complete=kernel_d1 > rank_d,
    )


def decide(d: int, J: IncidenceMinor, side: str = SIDE_AUTO) -> bool:
    """Is J a complete incidence matrix minor of a d-polytope?

    With side "auto" the homology runs on the primal matrix when its max
    row support does not exceed its max column support, and on the
    transpose otherwise; a minor is complete iff its transpose is.
    """
    return analyze(d, J, side=side).complete
