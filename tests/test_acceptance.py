"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line once its assertions hold (run with
-s to see them); a pytest failure is the FAIL signal and names the
criterion in the test id.
"""

import time
from contextlib import contextmanager
from itertools import combinations
from math import comb

from polycomplete.crosscut import analyze, decide
from polycomplete.fixtures import (
    cyclic_incidence,
    delete_minor,
    geometric_cube_km,
    prism,
)
from polycomplete.geometry import (
    CHECK_VERTEX,
    GeometricInstance,
    extract_incidence,
    validate_instance,
)
from polycomplete.incidence import IncidenceMinor, transpose
from polycomplete.pulling import find_certificate, is_pulling_facet, verify_certificate

from oracle import homology_all_ranks, permutation_equivalent, pulling_triangulation_by_flags, supports, vertex_mask


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number} PASS: {description}")


def test_criterion_1_klee_minty_dichotomy(km):
    with criterion(1, "decide(3, J_KM) = yes and decide(4, J_KM) = no, each < 1 s"):
        t0 = time.perf_counter()
        yes = decide(3, km)
        t1 = time.perf_counter()
        no = decide(4, IncidenceMinor(4, km.n, km.row_masks))
        t2 = time.perf_counter()
        assert yes is True
        assert no is False
        assert t1 - t0 < 1.0 and t2 - t1 < 1.0


def test_criterion_2_cyclic_polytope(km):
    with criterion(2, "C_4(8) has 20 facets; full matrix complete, J_KM rows alone not"):
        c48 = cyclic_incidence(4, 8)
        assert c48.m == 20
        assert decide(4, c48) is True
        km_rows = set(supports(km))
        drop = [i for i, sup in enumerate(supports(c48), start=1) if sup not in km_rows]
        minor = delete_minor(c48, rows=drop)
        assert minor.row_masks == km.row_masks
        assert decide(4, minor) is False


def test_criterion_3_prism_dichotomy(km):
    with criterion(3, "prism dichotomy for triangle, square, 3-cube"):
        for base in (cyclic_incidence(2, 3), cyclic_incidence(2, 4), km):
            d = base.d
            assert decide(d, base) is True
            as_minor_of_prism = IncidenceMinor(d + 1, base.n, base.row_masks)
            assert decide(d + 1, as_minor_of_prism) is False
            assert decide(d + 1, prism(base)) is True


def test_criterion_4_oracle_equivalence(corpus):
    with criterion(4, "decide agrees with the brute-force homology oracle on every minor"):
        assert len(corpus) >= 200
        for name, J in corpus:
            expected = homology_all_ranks(J).betti(J.d - 1) > 0
            assert decide(J.d, J) is expected, name


def test_criterion_5_certificates(corpus):
    with criterion(5, "every no-instance gets an accepted certificate; yes-instances get none"):
        for name, J in corpus:
            cert = find_certificate(J.d, J)
            if decide(J.d, J):
                assert cert is None, name
            else:
                assert cert is not None, name
                assert verify_certificate(J.d, J, cert) is True, name


def test_criterion_6_pulling_facet_membership(km):
    with criterion(6, "{1,7,8} is a pulling facet; membership matches the 12 flag facets"):
        assert is_pulling_facet(3, km, vertex_mask((1, 7, 8))) is True
        exhaustive = {
            c for c in combinations(range(1, km.n + 1), 3) if is_pulling_facet(3, km, vertex_mask(c))
        }
        flags = pulling_triangulation_by_flags(km)
        assert len(flags) == 12
        assert exhaustive == set(flags)


def test_criterion_7_transpose_duality(corpus):
    with criterion(7, "decide(d, J) = decide(d, transpose(J)) on the whole corpus"):
        for name, J in corpus:
            assert decide(J.d, J) is decide(J.d, transpose(J)), name


def test_criterion_8_simplicial_polynomiality_smoke():
    with criterion(8, "cyclic fixtures decide fast; doubling polygon size scales < 10x"):
        for d in (3, 4, 5):
            for n in range(d + 1, 10):
                t0 = time.perf_counter()
                assert decide(d, cyclic_incidence(d, n)) is True
                assert time.perf_counter() - t0 < 1.0

        def best_time(n, repeats=9):
            J = cyclic_incidence(2, n)
            best = float("inf")
            for _ in range(repeats):
                t0 = time.perf_counter()
                assert decide(2, J) is True
                best = min(best, time.perf_counter() - t0)
            return best

        small, large = best_time(128), best_time(256)
        assert large < 10 * small + 1e-4, (small, large)


def test_criterion_9_geometric_round_trip(km):
    with criterion(9, "cube geometry extracts to J_KM; a dropped facet fails its 4 vertices"):
        inst = geometric_cube_km()
        assert validate_instance(inst).ok
        extracted = extract_incidence(inst)
        assert permutation_equivalent(extracted, km)
        for k in range(1, 7):
            reduced = GeometricInstance(
                3,
                inst.points,
                tuple(h for i, h in enumerate(inst.halfspaces, start=1) if i != k),
            )
            report = validate_instance(reduced)
            missing_facet = {f"point {v}" for v in supports(km)[k - 1]}
            assert {i.subject for i in report.issues if i.check == CHECK_VERTEX} == missing_facet
            assert {i.check for i in report.issues} == {CHECK_VERTEX}


def test_criterion_10_boundary_size_bound(corpus):
    with criterion(10, "boundary matrix shapes within binom(s,k)m bounds on the corpus"):
        for name, J in corpus:
            report = analyze(J.d, J)
            M = J if report.side == "primal" else transpose(J)
            s = max((mask.bit_count() for mask in M.row_masks), default=0)
            m, d = M.m, report.d
            rows_d, cols_d = report.boundary_d_shape
            rows_d1, cols_d1 = report.boundary_d1_shape
            assert cols_d <= comb(s, d + 1) * m and rows_d <= comb(s, d) * m, name
            assert cols_d1 <= comb(s, d) * m and rows_d1 <= comb(s, d - 1) * m, name
