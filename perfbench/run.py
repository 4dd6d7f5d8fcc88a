"""Benchmark of the polycomplete CLI: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload check-ladder --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a source checkout (the program is imported from
``src/``).  A run sets the workload up ``SETUP_REPS`` times, each in a
fresh process, checks the inputs against ``pins.json``, then measures in
one more child process so that ``peak_rss_mb`` belongs to this workload
alone.  The last line of stdout is the result: end-to-end metrics with
``--trace 0`` (times rescaled by the speed probe in ``child.py``),
per-layer metrics with ``--trace 1``.  The line before it holds details
that are not gated (unscaled times, per-command seconds, sample counts).

``--smoke`` runs every workload once, for a single short pass each,
through the same code path, and exits 1 if any result is wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from child import PROBE_REF_MS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("check-ladder", "certify-walk", "extract-geometry", "minor-stream")
SETUP_REPS = 7
CHILD_TIMEOUT_S = 150
TIME_UNITS = {"jobs_per_s": "1/s", "job_ms.p50": "ms", "job_ms.p90": "ms", "setup_s": "s"}


class BenchError(Exception):
    """The run cannot produce a result."""


def _child(*args: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "child.py"), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"child {args[0]} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def _check_pins(workload: str, seed: int, setup: dict) -> None:
    pins = json.loads((BENCH_DIR / "pins.json").read_text())
    pin = pins["workloads"][workload]
    if setup["fixed_sha256"] != pin["fixed_sha256"]:
        raise BenchError(f"{workload}: fixed inputs changed (sha256 {setup['fixed_sha256']}, pinned {pin['fixed_sha256']})")
    if seed == pins["default_seed"] and setup["all_sha256"] != pin["all_sha256"]:
        raise BenchError(f"{workload}: seed {seed} inputs changed (sha256 {setup['all_sha256']}, pinned {pin['all_sha256']})")


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile (statistics.quantiles, exclusive method)."""
    return statistics.quantiles(values, n=100)[q - 1] if len(values) > 1 else values[0]


def _timings(m: dict, setups: list[dict], pass_scale: list[float], setup_scale: list[float]) -> dict:
    """Time metrics with each pass's and each set-up's times multiplied by its scale."""
    # each job's median over the passes: one slow pass moves no percentile
    job_ms = [statistics.median(ms * k for ms, k in zip(times, pass_scale)) for times in zip(*m["job_ms"])]
    return {
        "jobs_per_s": statistics.median(ok / (s * k) for ok, s, k in zip(m["pass_ok"], m["pass_s"], pass_scale)),
        "job_ms.p50": statistics.median(job_ms),
        "job_ms.p90": _quantile(job_ms, 90),
        "setup_s": statistics.median(s["setup_s"] * k for s, k in zip(setups, setup_scale)),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, setup_reps: int = SETUP_REPS):
    """Set up, check pins, measure; returns (result line, details line)."""
    if not (ROOT / "src" / "polycomplete" / "cli.py").is_file():
        raise BenchError(f"no program source under {ROOT / 'src'}")
    work = BENCH_DIR / "_work" / f"{workload}-{seed}-{os.getpid()}"
    inputs = work / "inputs"
    try:
        setups = [
            _child("setup", "--workload", workload, "--seed", str(seed), "--inputs", str(inputs))
            for _ in range(setup_reps)
        ]
        if len({(s["fixed_sha256"], s["all_sha256"]) for s in setups}) != 1:
            raise BenchError(f"{workload}: set-up is not deterministic for seed {seed}")
        _check_pins(workload, seed, setups[-1])
        spans = BENCH_DIR / "_out" / f"spans-{workload}-{seed}.json"
        m = _child(
            "measure", "--inputs", str(inputs), "--seconds", str(seconds),
            "--trace", str(int(trace)), "--spans", str(spans),
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(m["failures"])
    commands = sorted({c for per_pass in m["command_s"] for c in per_pass})
    details = {
        "workload": workload,
        "seed": seed,
        "passes": m["passes"],
        "jobs_per_pass": len(m["job_ms"][0]),
        "job_samples": len(m["job_ms"][0]) * m["passes"],
        "fail_rate": failed / m["attempted"],
        "failures": m["failures"][:10],
        "input_files": setups[-1]["files"],
        "probe_ms": statistics.median(m["probe_ms"]),
        "raw": _timings(m, setups, [1.0] * m["passes"], [1.0] * len(setups)),
        **{f"{c}_s": statistics.median(p.get(c, 0.0) for p in m["command_s"]) for c in commands},
    }
    if trace:
        from tracer import METRICS

        metrics = {key: {"value": m["layers"][key], "unit": unit} for key, unit in METRICS.items()}
        metrics["tracing.overhead"] = {"value": m["tracing_overhead"], "unit": "ratio"}
    else:
        scaled = _timings(m, setups, [PROBE_REF_MS / p for p in m["probe_ms"]],
                          [PROBE_REF_MS / s["probe_ms"] for s in setups])
        metrics = {name: {"value": value, "unit": TIME_UNITS[name]} for name, value in scaled.items()}
        metrics["peak_rss_mb"] = {"value": m["maxrss_kb"] / 1024, "unit": "MB"}
    result = {"correct": failed == 0, "attempted": m["attempted"], "failed": failed, "metrics": metrics}
    return result, details


def write_pins(seed: int) -> None:
    """Record the input hashes of every workload at the given default seed."""
    pins = {"default_seed": seed, "workloads": {}}
    for workload in WORKLOADS:
        inputs = BENCH_DIR / "_work" / f"pins-{workload}"
        try:
            s = _child("setup", "--workload", workload, "--seed", str(seed), "--inputs", str(inputs))
        finally:
            shutil.rmtree(inputs, ignore_errors=True)
        pins["workloads"][workload] = {"fixed_sha256": s["fixed_sha256"], "all_sha256": s["all_sha256"]}
    (BENCH_DIR / "pins.json").write_text(json.dumps(pins, indent=2) + "\n")


def default_seed() -> int:
    return json.loads((BENCH_DIR / "pins.json").read_text())["default_seed"]


def smoke() -> int:
    bad = 0
    for workload in WORKLOADS:
        for trace in (False, True):
            result, details = run_workload(workload, default_seed(), 0, trace, setup_reps=1)
            print(json.dumps({"trace": trace, **details, **result}))
            bad += not result["correct"]
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="one short pass of every workload")
    parser.add_argument("--write-pins", action="store_true", help="re-record pins.json (at --seed, default 1)")
    args = parser.parse_args(argv)
    try:
        if args.write_pins:
            write_pins(1 if args.seed is None else args.seed)
            return 0
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        seed = default_seed() if args.seed is None else args.seed
        result, details = run_workload(args.workload, seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
