"""Mutation check: each listed fault must make its tier-1 subset fail.

Run from the repository root (stdlib only; pytest need not collect it):

    PYTHONPATH=src python tests/mutants.py

Each mutant is one exact text substitution in one module of src/, and its
original text occurs there exactly once.  The mutants run one at a time,
each in a fresh temporary copy of src/ and tests/, against its named test
files in one pytest subprocess with -x.  Each subset first runs once on
the unmutated copy, where it must pass.

A mutant is killed only when pytest reports a failed test.  The count is
read from pytest's summary, not from its exit code alone: a
DeprecationWarning raised as an error while pytest reports a failure can
turn exit 1 into an INTERNALERROR with exit 3.  A mutant that survives is
printed on a FOUND: line and the exit status is 1; any other outcome (a
control that fails, no summary at all) is an error, exit 2.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    module: str  # under src/polycomplete/
    original: str
    mutated: str
    tests: tuple[str, ...]  # under tests/


CROSSCUT = ("test_crosscut.py",)
PULLING = ("test_pulling.py",)

MUTANTS = (
    Mutant(
        "collapse meets without the empty face",
        "crosscut.py",
        "meets = {0, *map(F.__and__, gens)}",
        "meets = {*map(F.__and__, gens)}",
        CROSSCUT,
    ),
    Mutant("clearing off by one", "crosscut.py", "i not in cleared", "i + 1 not in cleared", CROSSCUT),
    Mutant(
        "collapse drops the meets of d-2 vertices",
        "crosscut.py",
        "c.bit_count() >= d - 2",
        "c.bit_count() >= d - 1",
        CROSSCUT,
    ),
    Mutant("face bound of the row read one size low", "crosscut.py", ">= bound[size]", ">= bound[size - 1]", CROSSCUT),
    Mutant(
        "subset count drops the meets of min(sizes) vertices",
        "crosscut.py",
        "m.bit_count() >= lo",
        "m.bit_count() > lo",
        CROSSCUT,
    ),
    Mutant(
        "boundary appends rows of size upper.k + 1",
        "crosscut.py",
        "row.bit_count() == upper.k and",
        "row.bit_count() == upper.k + 1 and",
        CROSSCUT,
    ),
    Mutant("_cofacets without below", "pulling.py", "(above & off | below) & ~ridge", "(above & off) & ~ridge", PULLING),
    Mutant("step-2 filter on ridge, not rest", "pulling.py", "if r & rest == rest:", "if r & ridge == ridge:", PULLING),
    Mutant("d = 1 slip in the step-2 test", "pulling.py", "if r & first != first:", "if not r & first:", PULLING),
    Mutant(
        "membership scans the rows through the lowest vertex",
        "pulling.py",
        "J.rows_with(1 << candidate.bit_length() >> 1)",
        "J.rows_with(candidate & -candidate)",
        PULLING,
    ),
    Mutant(
        "_cofacets scans the rows through u, missing off",
        "pulling.py",
        "J.rows_with(1 << rest.bit_length() >> 1)",
        "J.rows_with(first)",
        PULLING,
    ),
    Mutant(
        "pivot on the lowest bit",
        "gf2.py",
        "top = col.bit_length()",
        "top = (col & -col).bit_length()",
        ("test_gf2.py", "test_crosscut.py"),
    ),
    Mutant(
        "containment sign flipped",
        "geometry.py",
        "sum(map(mul, form, hp)) < 0",
        "sum(map(mul, form, hp)) > 0",
        ("test_geometry.py",),
    ),
    Mutant(
        "lane one bit narrower than the width rule",
        "geometry.py",
        "bit_length() + 8) // 8",
        "bit_length() + 7) // 8",
        ("test_geometry.py",),
    ),
    Mutant("guard-bit test inverted", "geometry.py", "high & ~(high", "high & (high", ("test_geometry.py",)),
    Mutant(
        "rational digits as \\d",
        "geometry.py",
        r'r"[+-]?(?:[0-9]+(?:/0*[1-9][0-9]*)?|[0-9]+\.[0-9]*|\.[0-9]+)"',
        r'r"[+-]?(?:\d+(?:/0*[1-9]\d*)?|\d+\.\d*|\.\d+)"',
        ("test_formats.py",),
    ),
    Mutant(
        "parser leaves num/den unreduced",
        "geometry.py",
        "return form if g == 1 else tuple(x // g for x in form)",
        "return form",
        ("test_formats.py",),
    ),
    Mutant(
        "parser drops the zero-denominator check",
        "geometry.py",
        'r"[+-]?(?:[0-9]+(?:/0*[1-9][0-9]*)?',
        'r"[+-]?(?:[0-9]+(?:/[0-9]+)?',
        ("test_formats.py",),
    ),
)


class ScriptError(Exception):
    """An outcome that is neither a kill nor a survival."""


def run_subset(tests: tuple[str, ...], mutant: Mutant | None = None) -> tuple[int, int]:
    """(failed, passed) of pytest -x on the test files, in a fresh copy with the mutant applied."""
    with tempfile.TemporaryDirectory(prefix="polycomplete-mutant-") as tmp:
        work = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", "*.egg-info", ".pytest_cache", ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", work)
        if mutant is not None:
            path = work / "src" / "polycomplete" / mutant.module
            text = path.read_text()
            if text.count(mutant.original) != 1:
                raise ScriptError(f"{mutant.name}: {mutant.original!r} occurs {text.count(mutant.original)} times")
            path.write_text(text.replace(mutant.original, mutant.mutated))
        # no bytecode: a same-size edit within the second would pass the .pyc check
        env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        args = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *(f"tests/{t}" for t in tests)]
        proc = subprocess.run(args, cwd=work, env=env, capture_output=True, text=True)
    output = proc.stdout + proc.stderr
    summaries = re.findall(r"^\W*(\d+ (?:failed|passed)\b.*) in [\d.]+s\b", output, re.MULTILINE)
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (failed|passed)\b", summaries[-1] if summaries else "")}
    failed, passed = counts.get("failed", 0), counts.get("passed", 0)
    if failed or (passed and proc.returncode == 0):
        return failed, passed
    raise ScriptError(f"{mutant.name if mutant else 'control'}: exit {proc.returncode}, no test result\n{output[-2000:]}")


def main() -> int:
    try:
        for tests in dict.fromkeys(m.tests for m in MUTANTS):
            failed, passed = run_subset(tests)
            if failed:
                raise ScriptError(f"control {' '.join(tests)}: {failed} failed before any mutation")
            print(f"control  {' '.join(tests)}: {passed} passed")
        survivors = []
        for mutant in MUTANTS:
            failed, _ = run_subset(mutant.tests, mutant)
            print(f"{'killed' if failed else 'SURVIVED':8} {mutant.module}: {mutant.name}")
            if not failed:
                survivors.append(mutant)
    except ScriptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for m in survivors:
        print(f"FOUND: mutant {m.name!r} in {m.module} ({m.original!r} -> {m.mutated!r}) passes {' '.join(m.tests)}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
