"""Golden `check` output on the check-ladder inputs of the benchmark at seed 1.

The benchmark checks only the first line of `check`.  This pins all four
lines of the plain output, the `--machine` line and the exit code of each
of its 14 jobs: the six bases, the one row-deleted minor of each (the row
the benchmark draws at seed 1) and the polars of `cyclic(4,40)` and
`prism(cyclic(3,18))`.  The inputs are rebuilt from `fixtures`.

DEGENERATE pins the same three things on small inputs whose output is
still to be decided: two inputs with the same crosscut complex {∅} at
d = 1 print different shapes, and a forced dual side is printed as asked
for a matrix with no rows but not at d = 0.
"""

import pytest

from polycomplete import fixtures as fx
from polycomplete.cli import main
from polycomplete.crosscut import SIDE_DUAL, SIDE_PRIMAL, analyze
from polycomplete.incidence import serialize_incidence, transpose

BASES = {
    "cyclic-4-40": lambda: fx.cyclic_incidence(4, 40),
    "cyclic-3-60": lambda: fx.cyclic_incidence(3, 60),
    "cross-9": lambda: fx.crosspolytope_incidence(9),
    "prism-cyclic-3-14": lambda: fx.prism(fx.cyclic_incidence(3, 14)),
    "prism-cyclic-3-18": lambda: fx.prism(fx.cyclic_incidence(3, 18)),
    "prism-cyclic-4-16": lambda: fx.prism(fx.cyclic_incidence(4, 16)),
}

# (base, how the input is made from it, exit code, plain stdout, --machine line)
GOLDEN = [
    ("cyclic-4-40", "base", 0,
     "yes\nside: primal (max row 4, max column 74)\n"
     "boundary matrix d: 740x0, rank 0\nboundary matrix d-1: 1480x740, kernel dimension 1\n",
     "answer=yes d=4 side=primal boundary_d=740x0 rank_d=0 boundary_d1=1480x740 kernel_d1=1 homology=1\n"),
    ("cyclic-4-40", "r527", 1,
     "no\nside: primal (max row 4, max column 74)\n"
     "boundary matrix d: 739x0, rank 0\nboundary matrix d-1: 1480x739, kernel dimension 0\n",
     "answer=no d=4 side=primal boundary_d=739x0 rank_d=0 boundary_d1=1480x739 kernel_d1=0 homology=0\n"),
    ("cyclic-3-60", "base", 0,
     "yes\nside: primal (max row 3, max column 59)\n"
     "boundary matrix d: 116x0, rank 0\nboundary matrix d-1: 174x116, kernel dimension 1\n",
     "answer=yes d=3 side=primal boundary_d=116x0 rank_d=0 boundary_d1=174x116 kernel_d1=1 homology=1\n"),
    ("cyclic-3-60", "r101", 1,
     "no\nside: primal (max row 3, max column 59)\n"
     "boundary matrix d: 115x0, rank 0\nboundary matrix d-1: 174x115, kernel dimension 0\n",
     "answer=no d=3 side=primal boundary_d=115x0 rank_d=0 boundary_d1=174x115 kernel_d1=0 homology=0\n"),
    ("cross-9", "base", 0,
     "yes\nside: primal (max row 9, max column 256)\n"
     "boundary matrix d: 512x0, rank 0\nboundary matrix d-1: 2304x512, kernel dimension 1\n",
     "answer=yes d=9 side=primal boundary_d=512x0 rank_d=0 boundary_d1=2304x512 kernel_d1=1 homology=1\n"),
    ("cross-9", "r150", 1,
     "no\nside: primal (max row 9, max column 256)\n"
     "boundary matrix d: 511x0, rank 0\nboundary matrix d-1: 2304x511, kernel dimension 0\n",
     "answer=no d=9 side=primal boundary_d=511x0 rank_d=0 boundary_d1=2304x511 kernel_d1=0 homology=0\n"),
    ("prism-cyclic-3-14", "base", 0,
     "yes\nside: primal (max row 14, max column 14)\n"
     "boundary matrix d: 2326x4148, rank 1550\nboundary matrix d-1: 1016x2326, kernel dimension 1551\n",
     "answer=yes d=4 side=primal boundary_d=2326x4148 rank_d=1550 "
     "boundary_d1=1016x2326 kernel_d1=1551 homology=1\n"),
    ("prism-cyclic-3-14", "r26", 1,
     "no\nside: primal (max row 14, max column 14)\n"
     "boundary matrix d: 2314x4142, rank 1545\nboundary matrix d-1: 1010x2314, kernel dimension 1545\n",
     "answer=no d=4 side=primal boundary_d=2314x4142 rank_d=1545 "
     "boundary_d1=1010x2314 kernel_d1=1545 homology=0\n"),
    ("prism-cyclic-3-18", "base", 0,
     "yes\nside: primal (max row 18, max column 18)\n"
     "boundary matrix d: 6552x17328, rank 4920\nboundary matrix d-1: 2016x6552, kernel dimension 4921\n",
     "answer=yes d=4 side=primal boundary_d=6552x17328 rank_d=4920 "
     "boundary_d1=2016x6552 kernel_d1=4921 homology=1\n"),
    ("prism-cyclic-3-18", "r19", 1,
     "no\nside: dual (max row 18, max column 17)\n"
     "boundary matrix d: 6008x16044, rank 4578\nboundary matrix d-1: 1743x6008, kernel dimension 4578\n",
     "answer=no d=4 side=dual boundary_d=6008x16044 rank_d=4578 "
     "boundary_d1=1743x6008 kernel_d1=4578 homology=0\n"),
    ("prism-cyclic-4-16", "base", 0,
     "yes\nside: primal (max row 16, max column 27)\n"
     "boundary matrix d: 13312x18720, rank 7982\nboundary matrix d-1: 7712x13312, kernel dimension 7983\n",
     "answer=yes d=5 side=primal boundary_d=13312x18720 rank_d=7982 "
     "boundary_d1=7712x13312 kernel_d1=7983 homology=1\n"),
    ("prism-cyclic-4-16", "r88", 1,
     "no\nside: primal (max row 16, max column 27)\n"
     "boundary matrix d: 13280x18696, rank 7965\nboundary matrix d-1: 7698x13280, kernel dimension 7965\n",
     "answer=no d=5 side=primal boundary_d=13280x18696 rank_d=7965 "
     "boundary_d1=7698x13280 kernel_d1=7965 homology=0\n"),
    ("cyclic-4-40", "polar", 0,
     "yes\nside: dual (max row 74, max column 4)\n"
     "boundary matrix d: 740x0, rank 0\nboundary matrix d-1: 1480x740, kernel dimension 1\n",
     "answer=yes d=4 side=dual boundary_d=740x0 rank_d=0 boundary_d1=1480x740 kernel_d1=1 homology=1\n"),
    ("prism-cyclic-3-18", "polar", 0,
     "yes\nside: primal (max row 18, max column 18)\n"
     "boundary matrix d: 7610x21924, rank 5908\nboundary matrix d-1: 2046x7610, kernel dimension 5909\n",
     "answer=yes d=4 side=primal boundary_d=7610x21924 rank_d=5908 "
     "boundary_d1=2046x7610 kernel_d1=5909 homology=1\n"),
]


def ladder_input(base: str, how: str):
    J = BASES[base]()
    if how == "base":
        return J
    if how == "polar":
        return transpose(J)
    return fx.delete_minor(J, rows=[int(how[1:])])


@pytest.mark.parametrize("base, how, code, plain, machine", GOLDEN, ids=[f"{b}-{h}" for b, h, *_ in GOLDEN])
def test_check_output_is_golden(tmp_path, capsys, base, how, code, plain, machine):
    path = tmp_path / f"{base}-{how}.inc"
    path.write_text(serialize_incidence(ladder_input(base, how)))
    assert main(["check", str(path)]) == code
    assert capsys.readouterr() == (plain, "")
    assert main(["check", "--machine", str(path)]) == code
    assert capsys.readouterr() == (machine, "")


PRISM_RUNGS = [("prism-cyclic-3-14", "base"), ("prism-cyclic-3-14", "r26"), ("prism-cyclic-3-18", "base"),
               ("prism-cyclic-3-18", "r19"), ("prism-cyclic-3-18", "polar")]


@pytest.mark.parametrize("base, how", PRISM_RUNGS, ids=[f"{b}-{h}" for b, h in PRISM_RUNGS])
def test_forced_sides_agree(base, how):
    """A matrix and its transpose have the same homology: a differential at scale that needs no oracle."""
    J = ladder_input(base, how)
    primal, dual = (analyze(J.d, J, side=side) for side in (SIDE_PRIMAL, SIDE_DUAL))
    complete = how[0] != "r"  # the bases and the polar are complete, the row-deleted minors are not
    assert primal.complete is dual.complete is complete
    assert primal.homology_dim == dual.homology_dim == int(complete)


# (text, forced side or None, exit code, plain stdout, --machine line)
DEGENERATE = [
    pytest.param("1 2 0\n\n\n", None, 1,
                 "no\nside: primal (max row 0, max column 0)\n"
                 "boundary matrix d: 0x0, rank 0\nboundary matrix d-1: 0x0, kernel dimension 0\n",
                 "answer=no d=1 side=primal boundary_d=0x0 rank_d=0 boundary_d1=0x0 kernel_d1=0 homology=0\n",
                 id="d1-two-rows-no-columns"),
    pytest.param("1 2 3\n000\n000\n", None, 1,
                 "no\nside: primal (max row 0, max column 0)\n"
                 "boundary matrix d: 0x0, rank 0\nboundary matrix d-1: 1x0, kernel dimension 0\n",
                 "answer=no d=1 side=primal boundary_d=0x0 rank_d=0 boundary_d1=1x0 kernel_d1=0 homology=0\n",
                 id="d1-two-zero-rows"),
    pytest.param("0 1 1\n1\n", "dual", 0,
                 "yes\nside: primal (max row 1, max column 1)\n"
                 "boundary matrix d: 0x0, rank 0\nboundary matrix d-1: 0x0, kernel dimension 0\n",
                 "answer=yes d=0 side=primal boundary_d=0x0 rank_d=0 boundary_d1=0x0 kernel_d1=0 homology=0\n",
                 id="d0-forced-dual"),
    pytest.param("2 0 3\n", "dual", 1,
                 "no\nside: dual (max row 0, max column 0)\n"
                 "boundary matrix d: 0x0, rank 0\nboundary matrix d-1: 0x0, kernel dimension 0\n",
                 "answer=no d=2 side=dual boundary_d=0x0 rank_d=0 boundary_d1=0x0 kernel_d1=0 homology=0\n",
                 id="no-rows-forced-dual"),
]


@pytest.mark.parametrize("text, side, code, plain, machine", DEGENERATE)
def test_degenerate_output_is_pinned(tmp_path, capsys, text, side, code, plain, machine):
    path = tmp_path / "degenerate.inc"
    path.write_text(text)
    forced = ["--side", side] if side else []
    assert main(["check", *forced, str(path)]) == code
    assert capsys.readouterr() == (plain, "")
    assert main(["check", "--machine", *forced, str(path)]) == code
    assert capsys.readouterr() == (machine, "")
