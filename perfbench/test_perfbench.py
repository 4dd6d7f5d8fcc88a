"""Tests of the benchmark harness itself: ``python -m pytest perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import polycomplete.cli as cli  # noqa: E402
import polycomplete.crosscut as crosscut  # noqa: E402
import polycomplete.incidence as incidence  # noqa: E402
import tracer  # noqa: E402
from polycomplete.fixtures import cube_km  # noqa: E402
from run import WORKLOADS  # noqa: E402
from workloads import BUILDERS, MINOR_STREAM_SIZE, build  # noqa: E402


def _check_cube(tmp_path, tr: tracer.Tracer, side: str = "dual"):
    path = tmp_path / "km.inc"
    path.write_text(incidence.serialize_incidence(cube_km()))
    tr.install()
    try:
        assert cli.main(["check", str(path), "--side", side]) == 0
    finally:
        tr.uninstall()
    return tr.take()


def test_tracer_wraps_every_binding_and_restores(tmp_path, capsys):
    originals = (cli.parse_incidence, crosscut.transpose, incidence.transpose)
    metrics, spans = _check_cube(tmp_path, tracer.Tracer())
    # cli and crosscut call their own imported bindings; both were traced
    assert metrics["incidence.parse_bytes"] == len(incidence.serialize_incidence(cube_km()))
    assert metrics["incidence.side_ms"] > 0
    assert metrics["crosscut.dual_jobs"] == 1
    assert metrics["gf2.rank_calls"] == 2
    assert metrics["cli.self_ms"] > 0
    assert set(metrics) == set(tracer.METRICS)
    assert spans and all(end >= start for _, start, end, _ in spans)
    assert (cli.parse_incidence, crosscut.transpose, incidence.transpose) == originals


def test_tracer_survives_a_missing_target(tmp_path, monkeypatch, capsys):
    targets = tuple(
        (key, module, "Gf2Matrix.no_such_method" if key == "gf2.rank" else attr, counter)
        for key, module, attr, counter in tracer.TARGETS
    )
    monkeypatch.setattr(tracer, "TARGETS", targets)
    metrics, _ = _check_cube(tmp_path, tracer.Tracer(), side="primal")
    assert metrics["gf2.rank_calls"] == 0 and metrics["gf2.rank_ms"] == 0
    assert metrics["crosscut.faces"] > 0


def test_every_workload_has_a_builder():
    assert tuple(BUILDERS) == WORKLOADS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_are_a_function_of_the_seed(workload):
    a, b, c = build(workload, 1), build(workload, 1), build(workload, 2)
    assert a.files == b.files and a.jobs == b.jobs
    assert {p: t for p, t in a.files.items() if p not in a.seeded} == {
        p: t for p, t in c.files.items() if p not in c.seeded
    }


def test_minor_stream_minors_are_proper():
    corpus = build("minor-stream", 1)
    assert len(corpus.jobs) == 3 * MINOR_STREAM_SIZE
    bases = {text for path, text in corpus.files.items() if path.startswith("bases/")}
    assert len(corpus.seeded) == MINOR_STREAM_SIZE
    assert not bases & {corpus.files[path] for path in corpus.seeded}


def test_smoke_runs_every_workload_correctly():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--smoke"], cwd=ROOT, capture_output=True, text=True, timeout=900
    )
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert sorted((line["workload"], line["trace"]) for line in lines) == sorted(
        (w, t) for w in WORKLOADS for t in (False, True)
    )
    # each layer metric is nonzero on the workload it is meant to move
    meant = {
        "check-ladder": ["crosscut.faces", "crosscut.boundary_nnz", "crosscut.dual_jobs", "gf2.rank_cells",
                         "gf2.rank_sum", "incidence.side_ms"],
        "certify-walk": ["pulling.member_calls", "pulling.member_hit_ratio", "pulling.walk_self_ms",
                         "pulling.facet_search_ms", "pulling.ridge_count_ms"],
        "extract-geometry": ["geometry.parse_ms", "geometry.validate_self_ms", "geometry.rank_calls",
                             "geometry.tight_calls", "geometry.extract_ms", "incidence.serialize_ms"],
        "minor-stream": ["cli.self_ms", "incidence.parse_ms", "incidence.parse_bytes", "pulling.ridge_count_ms"],
    }
    for line in lines:
        assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0, line
        kind = "per_layer" if line["trace"] else "end_to_end"
        assert set(line["metrics"]) == {m["name"] for m in spec[kind]}
        for m in spec[kind]:
            assert line["metrics"][m["name"]]["unit"] == m["unit"]
        if line["trace"]:
            assert line["metrics"]["tracing.overhead"]["value"] > 0
            for name in meant[line["workload"]]:
                assert line["metrics"][name]["value"] > 0, (line["workload"], name)
        else:
            assert all(m["value"] > 0 for m in line["metrics"].values())


def test_bare_benchmark_directory_fails(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "minor-stream", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0 and proc.stdout == ""
