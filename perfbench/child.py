"""The two child stages of one benchmark run; ``run.py`` starts them.

``setup``: import ``polycomplete.cli`` and write a workload's inputs,
timing both, then hash the files (untimed).  One process per set-up, so
every set-up pays the import.

``measure``: run passes over the job list in-process through
``polycomplete.cli.main`` (closed loop, one client), check every job's
exit code and output, and report timings.  With ``--trace 1`` untraced
and traced passes alternate, and only traced passes have the tracer
installed.

Both stages print one JSON object on stdout, with the times of a speed
probe taken alongside (see ``probe_ms``).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import random
import re
import resource
import shutil
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
CERT_LINE = re.compile(r"(EMPTY|RIDGE( [0-9]+)*)\n")
# Reported times are rescaled to the machine speed at which the probe takes this long.
PROBE_REF_MS = 10.0
PROBE_EVERY_S = 0.25


def probe_ms() -> float:
    """Wall ms of a fixed pure-Python kernel shaped like the program's inner loops.

    GF(2) elimination on integer rows plus tuple-keyed dict inserts, with
    no polycomplete code in it and the cyclic collector off, so what the
    program keeps alive does not change it.  On a shared machine its time
    tracks the speed the machine gives this process: on a 2-core VM both
    it and the program swung by 20-45% within minutes while the program's
    time relative to it stayed within 2%.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        rng = random.Random(5)
        pivots: dict[int, int] = {}
        for _ in range(250):
            row = rng.getrandbits(250)
            while row:
                low = row & -row
                other = pivots.get(low)
                if other is None:
                    pivots[low] = row
                    break
                row ^= other
        {(i >> 3, i & 7): i for i in range(15000)}
        return (time.perf_counter() - start) * 1e3
    finally:
        if collecting:
            gc.enable()


def _import_cli():
    import polycomplete.cli as cli

    if SRC_DIR not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"polycomplete was imported from {cli.__file__}, not from {SRC_DIR}")
    return cli


def digest(files: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for path in sorted(files):
        h.update(path.encode() + b"\0" + hashlib.sha256(files[path]).digest())
    return h.hexdigest()


def setup(workload: str, seed: int, out: Path) -> dict:
    start = time.perf_counter()
    _import_cli()
    import workloads

    corpus = workloads.build(workload, seed)
    for path, text in corpus.files.items():
        target = out / path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8", newline="\n")
    (out / "certs").mkdir(exist_ok=True)
    (out / "jobs.json").write_text(json.dumps(corpus.jobs))
    seconds = time.perf_counter() - start
    probe = statistics.median(probe_ms() for _ in range(5))
    data = {path: text.encode() for path, text in corpus.files.items()}
    fixed = {path: blob for path, blob in data.items() if path not in corpus.seeded}
    return {
        "setup_s": seconds,
        "probe_ms": probe,
        "fixed_sha256": digest(fixed),
        "all_sha256": digest(data),
        "files": len(data),
    }


def _ok(job: dict, code, out: str, err: str, inputs: Path, expected: dict[str, str]) -> bool:
    kind = job["expect"]
    if kind == "yes":
        return code == 0 and out.startswith("yes\n")
    if kind == "no":
        return code == 1 and out.startswith("no\n")
    if kind == "complete":
        return code == 0 and out == "COMPLETE\n"
    if kind == "cert":
        if code == 1 and CERT_LINE.fullmatch(out):
            (inputs / job["cert"]).write_text(out)
            return True
        return False
    if kind == "accept":
        return code == 0 and out == "accept\n"
    if kind == "extract":
        return code == 0 and out == expected[job["expected"]]
    if kind == "invalid":
        return code == 2 and out == "" and "validation: check=" in err
    raise ValueError(f"unknown expectation {kind!r}")


def run_pass(cli, jobs: list[dict], inputs: Path, expected: dict[str, str]) -> dict:
    """One pass over the jobs: per-job ms, per-command seconds, failures, probe ms.

    The probe runs before the pass, between jobs every PROBE_EVERY_S and
    after the pass; its time is not part of the pass.
    """
    job_ms, command_s, failures = [], {}, []
    probes = [probe_ms()]
    start = last_probe = time.perf_counter()
    for job in jobs:
        if time.perf_counter() - last_probe > PROBE_EVERY_S:
            probes.append(probe_ms())
            last_probe = time.perf_counter()
        argv = [job["argv"][0], *(str(inputs / arg) for arg in job["argv"][1:])]
        if "cert" in job:
            (inputs / job["cert"]).unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            t0 = time.perf_counter_ns()
            try:
                code = cli.main(argv)
            except (Exception, SystemExit) as exc:  # a crash is a failed job, not a failed run
                code = repr(exc)
            t1 = time.perf_counter_ns()
        ms = (t1 - t0) / 1e6
        job_ms.append(ms)
        command_s[argv[0]] = command_s.get(argv[0], 0.0) + ms / 1e3
        if not _ok(job, code, out.getvalue(), err.getvalue(), inputs, expected):
            failures.append(f"{' '.join(job['argv'])}: exit {code}, stdout {out.getvalue()[:80]!r}")
    seconds = time.perf_counter() - start - sum(probes[1:]) / 1e3
    probes.append(probe_ms())
    return {
        "seconds": seconds,
        "job_ms": job_ms,
        "command_s": command_s,
        "failures": failures,
        "probe_ms": statistics.median(probes),
    }


def measure(inputs: Path, seconds: float, trace: bool, spans_out: Path) -> dict:
    cli = _import_cli()
    jobs = json.loads((inputs / "jobs.json").read_text())
    expected = {job["expected"]: (inputs / job["expected"]).read_text() for job in jobs if "expected" in job}
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    plain, traced, layers, spans = [], [], [], []
    deadline = time.perf_counter() + seconds
    # no pass starts with less than half a pass left, so a run ends near its deadline
    while not plain or (trace and not traced) or time.perf_counter() + plain[-1]["seconds"] / 2 < deadline:
        if trace and len(traced) < len(plain):
            tracer.install()
            try:
                traced.append(run_pass(cli, jobs, inputs, expected))
            finally:
                tracer.uninstall()
            metrics, spans = tracer.take()
            layers.append(metrics)
        else:
            plain.append(run_pass(cli, jobs, inputs, expected))
    passes = plain + traced
    result = {
        "passes": len(plain),
        "attempted": len(jobs) * len(passes),
        "failures": [f for p in passes for f in p["failures"]],
        "pass_s": [p["seconds"] for p in plain],
        "probe_ms": [p["probe_ms"] for p in plain],
        "pass_ok": [len(jobs) - len(p["failures"]) for p in plain],
        "job_ms": [p["job_ms"] for p in plain],
        "command_s": [p["command_s"] for p in plain],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if trace:
        result["layers"] = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
        result["tracing_overhead"] = statistics.median(p["seconds"] for p in traced) / statistics.median(
            result["pass_s"]
        )
        spans_out.parent.mkdir(parents=True, exist_ok=True)
        spans_out.write_text(json.dumps({"targets": tracer.keys, "spans": spans}))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("stage", choices=["setup", "measure"])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)
    if args.stage == "setup":
        shutil.rmtree(args.inputs, ignore_errors=True)
        args.inputs.mkdir(parents=True)
        result = setup(args.workload, args.seed, args.inputs)
    else:
        result = measure(args.inputs, args.seconds, bool(args.trace), args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
