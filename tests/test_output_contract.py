"""The CLI's output contract: the bytes every benchmark job and every `gen`
family print stay fixed.

Each workload of ``perfbench/workloads.py`` is built at seeds 1 and 2 and
written to a temporary folder, and its jobs run in order through
``polycomplete.cli.main`` in-process; a certify job's stdout is stored at
its ``cert`` path for the verify job that follows.  One SHA-256 per
(workload, seed) covers every job's argv, exit code, stdout and stderr.
One more per ``gen`` invocation pins the fixture generators.

Stdlib only, so it also runs without pytest:

    PYTHONPATH=src python tests/test_output_contract.py

prints one line per pin and exits 1 if any digest differs.
"""

from __future__ import annotations

import hashlib
import importlib.util
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from polycomplete import cli

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
SEEDS = (1, 2)

# every family at the sizes below, as a matrix and as geometry; prism has no geometry
GEN_FAMILIES = [
    ["cube-km"],
    *(["simplex", str(d)] for d in range(1, 7)),
    *(["crosspolytope", str(d)] for d in range(1, 7)),
    ["cyclic", "3", "7"],
    ["cyclic", "4", "9"],
]
GEN_ARGVS = [
    *(["gen", *family, *flag] for family in GEN_FAMILIES for flag in ([], ["--geometry"])),
    ["gen", "prism", "prism", "cube-km"],
    ["gen", "prism", "crosspolytope", "4"],
]

# sha256 over json.dumps([argv, exit code, stdout, stderr]) of each job, in order
WORKLOAD_PINS = {
    "check-ladder/1": "1f0b59e5f7dc77f0bb69ea7f464b1755216f4e0b15504866834c7d1c768538ad",
    "check-ladder/2": "0734d20874589f9e370e1c2125b418126f14360f8d2c0c0172a1f3a613978cd9",
    "certify-walk/1": "fe9e0ae76afbf4b3c5163dfcaf00a7b8ebba6f125dbbebbe45d8980d2e222cdb",
    "certify-walk/2": "fe9e0ae76afbf4b3c5163dfcaf00a7b8ebba6f125dbbebbe45d8980d2e222cdb",
    "extract-geometry/1": "0c6503e581aa11a5443f00dbbf552f42001da3d0339de8a9c06514bedc2007ae",
    "extract-geometry/2": "a9f6d5b0b5ecdfd4550e3ea24a17ecf1775ac8446b5600d5ae7f95ac8a5b551f",
    "minor-stream/1": "edc99f7c45c206e265217b38bbb101704183defd63fc8393df5ddb82f1e4d26c",
    "minor-stream/2": "67c968e0d5babf50957d2fe9d960d7082a41e8646c95ecb0303cd511254f2194",
}

GEN_PINS = {
    "gen cube-km": "36f8a6bdd66a1c758954aec463cff77070fa6a3f374d9453d447b2b3a5436aaa",
    "gen cube-km --geometry": "6b4b8df27b76d798fdf72868e43e16ad8a59fee8443d67a947595ac5c7ae2d03",
    "gen simplex 1": "a624e7cce827d3ef3d289e3aa91a71bc46f5c8bd0d51eefa7a748639bc215bb4",
    "gen simplex 1 --geometry": "658a43e3b01d28756ea6bc29a1818f64eb4569f32dcb1bc698634cc6d94a8a7e",
    "gen simplex 2": "14c28a6f94dee904dcfc5bb5ce2691e4a94a5fbc50ebf19b6592f09ebc7efac9",
    "gen simplex 2 --geometry": "4ce980a07f4d3b7d7e51a04c1eef8acebcfa82858fe385c139f123077d44285b",
    "gen simplex 3": "014e6e855dff72319714fdff787460cd65de5d5fbada6fde7d13e7afed7cbc95",
    "gen simplex 3 --geometry": "33f14fe1f0d0e9e8222d35febe21ad2762a88492a2f47ce6b3af2004870b7ac4",
    "gen simplex 4": "18659c5d148966cc2e3028839c9d8991f31d67f34c46f8a8dba2e005333a4086",
    "gen simplex 4 --geometry": "d0e4b243b87d51653386c1744329e928c4194ab3f4bc7e7811b41ae04ba10445",
    "gen simplex 5": "8c479a49e9a58a5f26d76b2c7dfcb7eb0e08c8c6cd30c794139365ecf4b0250b",
    "gen simplex 5 --geometry": "590302c1ad875671071dd525fcd651158f2b4e43c44ed6dd461b10641ceb89e4",
    "gen simplex 6": "f0fc470a0bef6b41cea31bc912e0de2e0b64a70b283b7988dc3eba60b0cca87d",
    "gen simplex 6 --geometry": "3ae87d04f1d9a1a1581215f90b8c64e0ffc7f14b874a0a0c6e84923474f9d46b",
    "gen crosspolytope 1": "6414648b2208a20353855a823d31c9e864b0ade0a3ea11a3238731c31159c33d",
    "gen crosspolytope 1 --geometry": "8310215ae699f457391284942ae4349b528e0779df5b5dc962e9ee67524dd1a1",
    "gen crosspolytope 2": "4b05498cd0534b4c7ab189b0f70b33b4e97b36e830aa7d10310b4fe8897a0139",
    "gen crosspolytope 2 --geometry": "92879194d48e791222b4fcd26c351d07091ac41945df241ff06f992dc0ef6a93",
    "gen crosspolytope 3": "1cca3450a9a4d1cf62a2e92a4183e5672663cf0cae245b22fa6b95d63fa7d680",
    "gen crosspolytope 3 --geometry": "d85ce6b5cd842eae577ec73c4da76216d7534169998f173fe1c93e8a67035708",
    "gen crosspolytope 4": "ffb492e632fc10d75b95a2d22c10eb913a375f82ee0693327a861064c0f5d8aa",
    "gen crosspolytope 4 --geometry": "e24f37a1ee76c2e6ef6c6c3f71f8db545364b3024228f66dae4155e48e9a5ea6",
    "gen crosspolytope 5": "9e40d31de6324a1651bfc863e7cc7683d63ccb7e9766d6776a3d0ab56d79c743",
    "gen crosspolytope 5 --geometry": "862008952d6bd184e75de4d485d60297e239f466722908d207c5def6c7f05113",
    "gen crosspolytope 6": "3c24164e1c0db4ab30eb28f3f7b237feac43d3e4f98d5cf394c1872c6f6423ee",
    "gen crosspolytope 6 --geometry": "14c57879f9db464b2020b2cdfbc94fe21a3867ef40557636553dce425b04452d",
    "gen cyclic 3 7": "f0cfdf4b8fd609de089ad227796e4a036482efe57963092214ea1a86890c9bfb",
    "gen cyclic 3 7 --geometry": "d7c371acb1dc04d5ad4bf66556dfae2fd6c39c5b042429c195b87430a1159a60",
    "gen cyclic 4 9": "494fa64bcab51600e31117c13caf54f046d1e6cce0b4a2b7c348d03e4698174f",
    "gen cyclic 4 9 --geometry": "b6c9a82bea7342a06e38e628c3c8c609382f8764c255c160e6031e6ff8d4b895",
    "gen prism prism cube-km": "6b7bbf60583874ab88e0799e50ac96e86a91cd48b3f112e78d5e9643bbf07cd1",
    "gen prism crosspolytope 4": "a104200f0d16e97c70cbb781c3416df07d984b25b3517b5bf79b6fd7c7bd20cb",
}


def load_workloads():
    """perfbench/workloads.py as it is, under a name of its own."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def record(h, argv: list[str], code: int, out: str, err: str) -> None:
    h.update(json.dumps([argv, code, out, err]).encode())


def workload_digest(workloads, name: str, seed: int) -> str:
    corpus = workloads.build(name, seed)
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        inputs = Path(tmp)
        for path, text in corpus.files.items():
            (inputs / path).parent.mkdir(parents=True, exist_ok=True)
            (inputs / path).write_text(text, encoding="utf-8", newline="\n")
        (inputs / "certs").mkdir(exist_ok=True)
        for job in corpus.jobs:
            command, *paths = job["argv"]
            code, out, err = run([command, *(str(inputs / p) for p in paths)])
            if "cert" in job:
                (inputs / job["cert"]).write_text(out, encoding="utf-8", newline="\n")
            record(h, job["argv"], code, out, err)
    return h.hexdigest()


def workload_digests() -> dict[str, str]:
    workloads = load_workloads()
    return {f"{name}/{seed}": workload_digest(workloads, name, seed) for name in workloads.BUILDERS for seed in SEEDS}


def gen_digests() -> dict[str, str]:
    digests = {}
    for argv in GEN_ARGVS:
        h = hashlib.sha256()
        record(h, argv, *run(argv))
        digests[" ".join(argv)] = h.hexdigest()
    return digests


def test_workload_outputs_are_pinned():
    assert workload_digests() == WORKLOAD_PINS


def test_gen_outputs_are_pinned():
    assert gen_digests() == GEN_PINS


def main() -> int:
    failed = 0
    for pins, actual in ((WORKLOAD_PINS, workload_digests()), (GEN_PINS, gen_digests())):
        for key in sorted(pins.keys() | actual.keys()):
            ok = pins.get(key) == actual.get(key)
            failed += not ok
            print(f"{'ok' if ok else 'MISMATCH'} {key} {actual.get(key)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
