"""Repeat benchmark runs over consecutive seeds and report each metric's spread.

    python3 perfbench/spread.py --workload certify-walk --runs 5
    python3 perfbench/spread.py --runs 10 --out perfbench/baseline.json
    python3 perfbench/spread.py --runs 1 --trace 1 --out perfbench/baseline.json

For every metric it prints the median of the runs, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median.  ``--out``
merges the summary into a JSON file, under ``end_to_end`` or
``per_layer`` by ``--trace``, with the Python version, core count and
``src/`` line count of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
from run import WORKLOADS  # noqa: E402


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "values": values}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "values": values}


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS, help="repeatable; default all")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    summary = {}
    for workload in args.workload or WORKLOADS:
        results, details = [], []
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            *_, detail, result = proc.stdout.splitlines()
            results.append(json.loads(result))
            details.append(json.loads(detail))
            print(f"{workload} seed {seed}: {result}", file=sys.stderr)
        metrics = {
            name: {"unit": results[0]["metrics"][name]["unit"],
                   **summarize([r["metrics"][name]["value"] for r in results])}
            for name in results[0]["metrics"]
        }
        summary[workload] = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics,
            "details": details,
        }
        for name, m in metrics.items():
            spread = f"{m['spread']:.3f}" if "spread" in m else "-"
            print(f"{workload:17} {name:26} median {m['median']:<14.6g} spread {spread}")
    if args.out:
        data = json.loads(args.out.read_text()) if args.out.exists() else {}
        section = data.setdefault("per_layer" if args.trace else "end_to_end", {"workloads": {}})
        section["meta"] = {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "src_lines": src_lines(),
            "seconds": json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"],
            "seeds": seeds,
        }
        section["workloads"].update(summary)
        args.out.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
