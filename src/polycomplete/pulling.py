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
from enum import Enum
from itertools import combinations
from typing import Optional

from .incidence import FormatError, IncidenceMinor, decimal_int, text_lines

Simplex = tuple[int, ...]


class CertificateFormatError(FormatError):
    """Malformed certificate text or a ridge of the wrong size."""


class CertificateKind(Enum):
    EMPTY_PULLING_COMPLEX = "EMPTY"
    BOUNDARY_RIDGE = "RIDGE"


@dataclass(frozen=True)
class PullingCertificate:
    """Witness of incompleteness.

    EMPTY_PULLING_COMPLEX carries no data; verification reruns the facet
    search.  BOUNDARY_RIDGE carries a strictly increasing (d-1)-subset of
    the vertex set; verification recounts its cofacets.
    """

    kind: CertificateKind
    ridge: Optional[Simplex] = None

    def __post_init__(self):
        if self.kind is CertificateKind.BOUNDARY_RIDGE:
            if self.ridge is None:
                raise ValueError("boundary-ridge certificate needs a ridge")
            _check_increasing(self.ridge)
        elif self.ridge is not None:
            raise ValueError("empty-complex certificate carries no ridge")


def _check_increasing(vertices: Simplex):
    if any(a >= b for a, b in zip(vertices, vertices[1:])):
        raise ValueError(f"vertices {vertices} are not strictly increasing")


def _validate_simplex(size: int, J: IncidenceMinor, vertices, what: str) -> Simplex:
    vertices = tuple(vertices)
    if len(vertices) != size:
        raise ValueError(f"{what} has {len(vertices)} vertices, expected {size}")
    _check_increasing(vertices)
    if vertices and not (1 <= vertices[0] and vertices[-1] <= J.n):
        raise ValueError(f"{what} {vertices} has vertices outside 1..{J.n}")
    return vertices


def is_pulling_facet(d: int, J: IncidenceMinor, candidate) -> bool:
    """Membership of a d-subset in the pulling complex of (d, J).

    Mirrors the greedy check: for i = 1..d pick the first row F (by row
    index) that contains {vi, ..., vd} and has vi = min(F1 & ... &
    F_{i-1} & F).  Runs in O(dm) operations on the n-bit row masks.
    """
    candidate = _validate_simplex(d, J, candidate, "candidate")
    need = sum(1 << (v - 1) for v in candidate)  # {v_i, .., v_d}
    current = -1  # every vertex
    for v in candidate:
        bit = 1 << (v - 1)
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


def find_pulling_facet(d: int, J: IncidenceMinor) -> Optional[Simplex]:
    """Greedily find a facet of the pulling complex avoiding vertex 1.

    Repeats d times: among rows that miss min(S) but meet S, take the one
    with the largest |F & S| (lowest row index on ties), shrink S to the
    intersection and record its new minimum.  Returns the strictly
    increasing d-set, or None when some step has no admissible row --
    which, for valid input, certifies that J is incomplete (a complete
    matrix always has a pulling facet avoiding vertex 1).
    """
    if d < 1:
        raise ValueError("dimension d must be at least 1")
    live = -1  # every vertex
    chosen: list[int] = []
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
        chosen.append((live & -live).bit_length())
    return tuple(chosen)


def _cofacets(d: int, J: IncidenceMinor, ridge: Simplex, memo: dict[Simplex, bool]) -> list[Simplex]:
    """The pulling facets containing the (d-1)-set ridge; memo caches membership.

    Only vertices in a row containing the ridge are tried: a pulling
    facet lies inside its first row F1, so F1 contains the ridge.
    """
    need = sum(1 << (v - 1) for v in ridge)
    star = 0
    for r in J.row_masks:
        if r & need == need:
            star |= r
    cofacets = []
    rest = star & ~need
    while rest:
        low = rest & -rest
        rest ^= low
        cand = tuple(sorted(ridge + (low.bit_length(),)))
        if cand not in memo:
            memo[cand] = is_pulling_facet(d, J, cand)
        if memo[cand]:
            cofacets.append(cand)
    return cofacets


def ridge_cofacet_count(d: int, J: IncidenceMinor, ridge) -> int:
    """How many pulling facets contain the given (d-1)-set.

    Tries the extensions by a vertex outside the ridge that lies in some
    row containing it, so at most n-d+1; for d = 1 the ridge is the empty
    set and this counts the singleton facets.
    """
    ridge = _validate_simplex(d - 1, J, ridge, "ridge")
    return len(_cofacets(d, J, ridge, {}))


def find_certificate(d: int, J: IncidenceMinor) -> Optional[PullingCertificate]:
    """Search for an incompleteness certificate; None is consistent with
    completeness.

    If no pulling facet avoiding vertex 1 exists, that is already the
    EMPTY_PULLING_COMPLEX certificate.  Otherwise walk the facets through
    shared ridges, exploring lexicographically smallest facets first; the
    first ridge found with exactly one cofacet is the BOUNDARY_RIDGE
    certificate.  If the walk closes with every ridge in two facets, the
    complex looks like a closed pseudomanifold and None is returned.
    """
    start = find_pulling_facet(d, J)
    if start is None:
        return PullingCertificate(CertificateKind.EMPTY_PULLING_COMPLEX)
    memo: dict[Simplex, bool] = {}
    seen = {start}
    done: set[Simplex] = set()  # ridges already walked from their other facet
    heap = [start]
    while heap:
        facet = heapq.heappop(heap)
        for ridge in combinations(facet, d - 1):
            if ridge in done:
                continue
            done.add(ridge)
            cofacets = _cofacets(d, J, ridge, memo)
            if len(cofacets) == 1:
                return PullingCertificate(CertificateKind.BOUNDARY_RIDGE, ridge)
            for nb in cofacets:
                if nb not in seen:
                    seen.add(nb)
                    heapq.heappush(heap, nb)
    return None


def verify_certificate(d: int, J: IncidenceMinor, cert: PullingCertificate) -> bool:
    """Accept or reject a certificate of incompleteness.

    EMPTY_PULLING_COMPLEX is accepted iff the facet search comes up
    empty; BOUNDARY_RIDGE iff the ridge has exactly one cofacet.  A ridge
    of the wrong size or with out-of-range vertices is malformed and
    raises CertificateFormatError.
    """
    if d < 1:
        raise ValueError("dimension d must be at least 1")
    if cert.kind is CertificateKind.EMPTY_PULLING_COMPLEX:
        return find_pulling_facet(d, J) is None
    try:
        return ridge_cofacet_count(d, J, cert.ridge) == 1
    except ValueError as exc:
        raise CertificateFormatError(str(exc)) from None


def serialize_certificate(cert: PullingCertificate) -> str:
    """One line: "EMPTY", or "RIDGE v1 v2 ... v(d-1)"."""
    if cert.kind is CertificateKind.EMPTY_PULLING_COMPLEX:
        return "EMPTY\n"
    return " ".join(["RIDGE", *map(str, cert.ridge)]) + "\n"


def parse_certificate(text: str) -> PullingCertificate:
    lines = [(lineno, ln) for lineno, ln in text_lines(text) if ln]
    if len(lines) != 1:
        raise CertificateFormatError("certificate must be a single line")
    [(lineno, line)] = lines
    tokens = line.split()
    if tokens[0] == "EMPTY" and len(tokens) == 1:
        return PullingCertificate(CertificateKind.EMPTY_PULLING_COMPLEX)
    if tokens[0] == "RIDGE":
        try:
            vertices = tuple(map(decimal_int, tokens[1:]))
        except ValueError:
            raise CertificateFormatError("ridge vertices must be integers", lineno) from None
        try:
            return PullingCertificate(CertificateKind.BOUNDARY_RIDGE, vertices)
        except ValueError as exc:
            raise CertificateFormatError(str(exc), lineno) from None
    raise CertificateFormatError(f"unknown certificate {line!r}", lineno)
