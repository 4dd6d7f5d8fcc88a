"""The four benchmark workloads: their input files and the expected answer of every job.

A workload is built from ``polycomplete.fixtures`` and a seed.  Building
returns a ``Corpus``: the files to write (each marked as fixed or drawn
from the seed) and the CLI jobs of one pass, in order.  Every job names
the outcome a correct program must produce; ``child.py`` checks it.

Expectation kinds:

* ``yes`` / ``no``: ``check`` exits 0 / 1 and its first line says so.
* ``complete``: ``certify`` prints ``COMPLETE`` and exits 0.
* ``cert``: ``certify`` exits 1 with one certificate line, which the
  harness stores for the ``verify`` job that follows.
* ``accept``: ``verify`` of that stored certificate prints ``accept``.
* ``extract``: ``extract`` exits 0 and its output is byte-identical to
  the expected incidence file.
* ``invalid``: ``extract`` exits 2, prints nothing, and reports
  ``validation:`` lines on stderr.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

from polycomplete import fixtures as fx
from polycomplete.geometry import GeometricInstance, serialize_geometry
from polycomplete.incidence import IncidenceMinor, serialize_incidence, transpose

@dataclass
class Corpus:
    files: dict[str, str] = field(default_factory=dict)
    seeded: set[str] = field(default_factory=set)
    jobs: list[dict] = field(default_factory=list)

    def add(self, path: str, text: str, seeded: bool = False) -> str:
        self.files[path] = text
        if seeded:
            self.seeded.add(path)
        return path

    def job(self, expect: str, *argv: str, **extra) -> None:
        self.jobs.append({"argv": list(argv), "expect": expect, **extra})

    def certify_and_verify(self, path: str) -> None:
        cert = "certs/" + path.replace("/", "_") + ".cert"
        self.job("cert", "certify", path, cert=cert)
        self.job("accept", "verify", path, cert)


def _modal_rows(J: IncidenceMinor) -> list[int]:
    """1-based rows whose support size is the most common one.

    Deleting such a row changes the face count of a prism by a few faces,
    where deleting its top or bottom facet would halve it; drawing the
    deleted row from these keeps the load of a pass nearly seed-free.
    """
    sizes = [mask.bit_count() for mask in J.row_masks]
    modal = Counter(sizes).most_common(1)[0][0]
    return [i for i, size in enumerate(sizes, start=1) if size == modal]


def check_ladder(rng: random.Random) -> Corpus:
    corpus = Corpus()
    bases = {
        "cyclic-4-40": fx.cyclic_incidence(4, 40),
        "cyclic-3-60": fx.cyclic_incidence(3, 60),
        "cross-9": fx.crosspolytope_incidence(9),
        "prism-cyclic-3-14": fx.prism(fx.cyclic_incidence(3, 14)),
        "prism-cyclic-3-18": fx.prism(fx.cyclic_incidence(3, 18)),
        "prism-cyclic-4-16": fx.prism(fx.cyclic_incidence(4, 16)),
    }
    for name, J in bases.items():
        corpus.job("yes", "check", corpus.add(f"bases/{name}.inc", serialize_incidence(J)))
        row = rng.choice(_modal_rows(J))
        minor = fx.delete_minor(J, rows=[row])
        corpus.job("no", "check", corpus.add(f"minors/{name}-r{row}.inc", serialize_incidence(minor), seeded=True))
    # auto picks dual on the first polar and ties (18 = 18) toward primal on the second
    for name in ("cyclic-4-40", "prism-cyclic-3-18"):
        polar = transpose(bases[name])
        corpus.job("yes", "check", corpus.add(f"polars/{name}.inc", serialize_incidence(polar)))
    return corpus


def certify_walk(rng: random.Random) -> Corpus:
    """Seed-free: the same inputs for every seed (see the minors below)."""
    corpus = Corpus()
    bases = {
        "cyclic-4-20": fx.cyclic_incidence(4, 20),
        "cyclic-3-60": fx.cyclic_incidence(3, 60),
        "cross-7": fx.crosspolytope_incidence(7),
        "prism-prism-cube-km": fx.prism(fx.prism(fx.cube_km())),
        "prism-cyclic-3-14": fx.prism(fx.cyclic_incidence(3, 14)),
    }
    for name, J in bases.items():
        corpus.job("complete", "certify", corpus.add(f"bases/{name}.inc", serialize_incidence(J)))
        # The middle row and column, not seed-drawn ones: where the hole sits
        # sets how far the walk runs, so a drawn row or column made one
        # seed's pass up to 25% longer than another's and moved the median
        # job by more than 2x.
        row, col = (J.m + 1) // 2, (J.n + 1) // 2
        for tag, minor in ((f"r{row}", fx.delete_minor(J, rows=[row])), (f"c{col}", fx.delete_minor(J, cols=[col]))):
            corpus.certify_and_verify(corpus.add(f"minors/{name}-{tag}.inc", serialize_incidence(minor)))
    return corpus


def extract_geometry(rng: random.Random) -> Corpus:
    corpus = Corpus()
    instances: dict[str, tuple[GeometricInstance, IncidenceMinor]] = {
        "cyclic-4-30": (fx.geometric_cyclic(4, 30), fx.cyclic_incidence(4, 30)),
        "cyclic-3-40": (fx.geometric_cyclic(3, 40), fx.cyclic_incidence(3, 40)),
        "cyclic-5-16": (fx.geometric_cyclic(5, 16), fx.cyclic_incidence(5, 16)),
        "cross-8": (fx.geometric_crosspolytope(8), fx.crosspolytope_incidence(8)),
        "cube-km": (fx.geometric_cube_km(), fx.cube_km()),
        "cross-3": (fx.geometric_crosspolytope(3), fx.crosspolytope_incidence(3)),
        "cyclic-3-8": (fx.geometric_cyclic(3, 8), fx.cyclic_incidence(3, 8)),
        "cyclic-4-9": (fx.geometric_cyclic(4, 9), fx.cyclic_incidence(4, 9)),
    }
    for name, (geom, J) in instances.items():
        path = corpus.add(f"geometry/{name}.geo", serialize_geometry(geom))
        corpus.job("extract", "extract", path, expected=corpus.add(f"expected/{name}.inc", serialize_incidence(J)))

    geom, J = fx.geometric_cyclic(4, 20), fx.cyclic_incidence(4, 20)
    # One facet halfspace missing: still a valid (incomplete) instance, so the
    # accept path extracts exactly the row-deleted minor.
    k = rng.randint(1, len(geom.halfspaces))
    short = GeometricInstance(geom.d, geom.points, geom.halfspaces[: k - 1] + geom.halfspaces[k:])
    path = corpus.add(f"geometry/cyclic-4-20-h{k}.geo", serialize_geometry(short), seeded=True)
    expected = serialize_incidence(fx.delete_minor(J, rows=[k]))
    corpus.job("extract", "extract", path, expected=corpus.add(f"expected/cyclic-4-20-h{k}.inc", expected, seeded=True))
    # One vertex missing: the facets through it keep only d-1 tight points,
    # so validation rejects the instance (exit 2).
    p = rng.randint(1, len(geom.points))
    holed = GeometricInstance(geom.d, geom.points[: p - 1] + geom.points[p:], geom.halfspaces)
    corpus.job("invalid", "extract", corpus.add(f"geometry/cyclic-4-20-p{p}.geo", serialize_geometry(holed), seeded=True))
    return corpus


# The tail of this stream is certify walks whose length depends on which rows
# and columns the seed deletes; with 200 minors job_ms.p90 spread by 15-20%
# (quartile distance over median) across seeds.
MINOR_STREAM_SIZE = 400


def minor_stream(rng: random.Random) -> Corpus:
    corpus = Corpus()
    bases = [
        ("cyclic-4-12", fx.cyclic_incidence(4, 12)),
        ("cyclic-5-11", fx.cyclic_incidence(5, 11)),
        ("prism-prism-cube-km", fx.prism(fx.prism(fx.cube_km()))),
        ("cross-5", fx.crosspolytope_incidence(5)),
    ]
    for name, J in bases:
        corpus.add(f"bases/{name}.inc", serialize_incidence(J))
    for t in range(MINOR_STREAM_SIZE):
        name, J = bases[t % len(bases)]
        rows = sorted(rng.sample(range(1, J.m + 1), rng.randint(0, 3)))
        cols = sorted(rng.sample(range(1, J.n + 1), rng.randint(0, 2)))
        if not rows and not cols:
            rows = [rng.randint(1, J.m)]
        path = corpus.add(f"minors/{t:03d}-{name}.inc", serialize_incidence(fx.delete_minor(J, rows, cols)), seeded=True)
        corpus.job("no", "check", path)
        corpus.certify_and_verify(path)
    return corpus


BUILDERS = {
    "check-ladder": check_ladder,
    "certify-walk": certify_walk,
    "extract-geometry": extract_geometry,
    "minor-stream": minor_stream,
}


def build(workload: str, seed: int) -> Corpus:
    return BUILDERS[workload](random.Random(f"{workload}/{seed}"))
