"""Pulling complex membership and incompleteness certificates.

A d-subset {v1 < ... < vd} of the vertex set belongs to the pulling
complex of (d, J) when there are rows F1, ..., Fd with
vi = min(F1 & ... & Fi) for every i.  For a complete matrix this complex
is the pulling triangulation of the polytope boundary (a closed
pseudomanifold: every ridge lies in exactly two facets), so an
incomplete matrix betrays itself in one of two checkable ways: the
complex has no facet avoiding vertex 1 at all, or it has a boundary
ridge -- a (d-1)-set lying in exactly one facet.

Everything here is sound relative to *valid* input (a genuine minor of a
d-polytope's incidence matrix); on arbitrary 0/1 matrices the answers
are deterministic but carry no geometric meaning.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional

from .incidence import Face, FormatError, IncidenceMinor, bits, decimal_int, text_lines, vertices


class CertificateFormatError(FormatError):
    """Malformed certificate text or a ridge of the wrong size."""


@dataclass(frozen=True)
class PullingCertificate:
    """Witness of incompleteness: a boundary ridge, or none for an empty
    pulling complex.

    The ridge is a strictly increasing (d-1)-subset of the vertex set
    claimed to lie in exactly one pulling facet; verification recounts its
    cofacets.  Without one, verification reruns the facet search.
    """

    ridge: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        if self.ridge is not None and any(a >= b for a, b in zip(self.ridge, self.ridge[1:])):
            raise ValueError(f"vertices {self.ridge} are not strictly increasing")


def _check_face(size: int, J: IncidenceMinor, face: Face, what: str) -> None:
    if face.bit_count() != size:
        raise ValueError(f"{what} has {face.bit_count()} vertices, expected {size}")
    if face < 0 or face >> J.n:
        raise ValueError(f"{what} has vertices outside 1..{J.n}")


def is_pulling_facet(d: int, J: IncidenceMinor, candidate: Face) -> bool:
    """Membership of a d-subset, given as a mask, in the pulling complex of (d, J).

    Mirrors the greedy check: for i = 1..d pick the first row F (by row
    index) that contains {vi, ..., vd} and has vi = min(F1 & ... &
    F_{i-1} & F).  Runs in O(dm) operations on the n-bit row masks.
    """
    _check_face(d, J, candidate, "candidate")
    need = candidate  # {v_i, .., v_d}
    current = -1  # every vertex
    while need:
        bit = need & -need
        for r in J.row_masks:
            if r & need == need:
                meet = current & r
                if meet & -meet == bit:
                    current = meet
                    break
        else:
            return False
        need ^= bit
    return True


def find_pulling_facet(d: int, J: IncidenceMinor) -> Optional[Face]:
    """Greedily find a facet of the pulling complex avoiding vertex 1.

    Repeats d times: among rows that miss min(S) but meet S, take the one
    with the largest |F & S| (lowest row index on ties), shrink S to the
    intersection and record its new minimum.  Returns the d-set as a
    mask, or None when some step has no admissible row -- which, for
    valid input, certifies that J is incomplete (a complete matrix always
    has a pulling facet avoiding vertex 1).
    """
    if d < 1:
        raise ValueError("dimension d must be at least 1")
    live = -1  # every vertex
    facet = 0
    for _ in range(d):
        low = live & -live
        best = None
        best_size = 0
        for r in J.row_masks:
            if r & low:
                continue
            size = (live & r).bit_count()
            if size > best_size:
                best, best_size = r, size
        if best is None:
            return None
        live &= best
        facet |= live & -live
    return facet


def _cofacets(d: int, J: IncidenceMinor, ridge: Face, memo: dict[Face, bool]) -> list[Face]:
    """The pulling facets containing the (d-1)-set ridge; memo caches membership.

    A candidate ridge + w passes the greedy's first step iff some row
    contains it and starts at its lowest vertex.  So only those w are
    tried: every vertex of a row that contains the ridge and starts where
    the ridge does, and the lowest vertex of a row that contains the ridge
    and starts below it.  Any other w fails ``is_pulling_facet`` at step 1.
    """
    first = ridge & -ridge
    star = 0
    for r in J.row_masks:
        if r & ridge == ridge:
            start = r & -r
            star |= r if start == first else start
    cofacets = []
    for low in bits(star & ~ridge):
        cand = ridge | low
        if cand not in memo:
            memo[cand] = is_pulling_facet(d, J, cand)
        if memo[cand]:
            cofacets.append(cand)
    return cofacets


def ridge_cofacet_count(d: int, J: IncidenceMinor, ridge: Face) -> int:
    """How many pulling facets contain the (d-1)-set given as a mask.

    Tries only the extensions by a vertex outside the ridge that can pass
    the greedy's first step (see ``_cofacets``), so at most n-d+1; for
    d = 1 the ridge is the empty set and this counts the singleton facets.
    """
    _check_face(d - 1, J, ridge, "ridge")
    return len(_cofacets(d, J, ridge, {}))


def find_certificate(d: int, J: IncidenceMinor) -> Optional[PullingCertificate]:
    """Search for an incompleteness certificate; None is consistent with
    completeness.

    If no pulling facet avoiding vertex 1 exists, that is already a
    certificate, one without a ridge.  Otherwise walk the facets through
    shared ridges, exploring lexicographically smallest facets first; the
    first ridge found with exactly one cofacet is the certificate's
    ridge.  None means no ridge the walk reached has exactly one
    cofacet; a ridge with three or more is walked through, not reported.
    """
    start = find_pulling_facet(d, J)
    if start is None:
        return PullingCertificate()
    memo: dict[Face, bool] = {}
    seen = {start}
    done: set[Face] = set()  # ridges already walked from their other facet
    heap = [(vertices(start), start)]  # lexicographic on the vertex tuples
    while heap:
        labels, facet = heapq.heappop(heap)
        for v in reversed(labels):  # highest bit first: lexicographic ridge order
            ridge = facet ^ (1 << (v - 1))
            if ridge in done:
                continue
            done.add(ridge)
            cofacets = _cofacets(d, J, ridge, memo)
            if len(cofacets) == 1:
                return PullingCertificate(vertices(ridge))
            for nb in cofacets:
                if nb not in seen:
                    seen.add(nb)
                    heapq.heappush(heap, (vertices(nb), nb))
    return None


def verify_certificate(d: int, J: IncidenceMinor, cert: PullingCertificate) -> bool:
    """Accept or reject a certificate of incompleteness.

    A certificate without a ridge is accepted iff the facet search comes
    up empty; one with a ridge iff the ridge has exactly one cofacet.  A
    ridge of the wrong size or with out-of-range vertices is malformed and
    raises CertificateFormatError.
    """
    if d < 1:
        raise ValueError("dimension d must be at least 1")
    ridge = cert.ridge
    if ridge is None:
        return find_pulling_facet(d, J) is None
    if len(ridge) != d - 1:
        raise CertificateFormatError(f"ridge has {len(ridge)} vertices, expected {d - 1}")
    if ridge and not (1 <= ridge[0] and ridge[-1] <= J.n):
        raise CertificateFormatError(f"ridge {ridge} has vertices outside 1..{J.n}")
    if ridge and ridge[-1] > max(J.row_masks, default=0).bit_length():
        return False  # its last vertex is in no row, so in no facet; the mask could be too wide
    return ridge_cofacet_count(d, J, sum(1 << (v - 1) for v in ridge)) == 1


def serialize_certificate(cert: PullingCertificate) -> str:
    """One line: "EMPTY", or "RIDGE v1 v2 ... v(d-1)"."""
    if cert.ridge is None:
        return "EMPTY\n"
    return " ".join(["RIDGE", *map(str, cert.ridge)]) + "\n"


def parse_certificate(text: str) -> PullingCertificate:
    lines = [(lineno, ln) for lineno, ln in text_lines(text) if ln]
    if len(lines) != 1:
        raise CertificateFormatError("certificate must be a single line")
    [(lineno, line)] = lines
    tokens = line.split()
    if tokens[0] == "EMPTY" and len(tokens) == 1:
        return PullingCertificate()
    if tokens[0] == "RIDGE":
        try:
            ridge = tuple(map(decimal_int, tokens[1:]))
        except ValueError:
            raise CertificateFormatError("ridge vertices must be integers", lineno) from None
        try:
            return PullingCertificate(ridge)
        except ValueError as exc:
            raise CertificateFormatError(str(exc), lineno) from None
    raise CertificateFormatError(f"unknown certificate {line!r}", lineno)
