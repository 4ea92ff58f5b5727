"""Smoke check of the benchmark itself, at its smallest size (one cycle of program seeds).

For every workload it runs ``run.py`` untraced and traced with ``--seconds 1``
and asserts that the result line has exactly the contract keys, that the run
was correct, and that every metric named in ``BENCHMARK.json`` is emitted
with its declared unit. It then feeds each workload a corrupted reference and
asserts that the output check fails, and runs the benchmark in a directory
holding only ``BENCHMARK.json`` and the benchmark's files, where it must exit
non-zero without printing a result.

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import run
from workloads import ORACLE_PATH, REFERENCE_PATH, WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(args, cwd=run.ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def check_contract(workload: str, trace: int) -> None:
    proc = bench(["--workload", workload, "--seed", "0", "--seconds", "1",
                  "--trace", str(trace)])
    assert proc.returncode == 0, f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"{workload} trace {trace}: metrics differ: {set(got) ^ set(want)}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), (name, m)
    print(f"ok   {workload} trace {trace}: {len(got)} metrics with units")


def corrupted(workload: str, program_seed: int) -> dict:
    """The workload's reference with the entry for one program seed altered."""
    if workload == "pilot":
        oracle = json.loads(ORACLE_PATH.read_text(encoding="utf-8"))
        oracle["accuracies"]["tohan"][str(program_seed)] += 1e-12
        return oracle
    ref = copy.deepcopy(json.loads(REFERENCE_PATH.read_text(encoding="utf-8")))
    entries = ref[workload]
    key = next(k for k in entries if k.split("/")[-1] == str(program_seed))
    entries[key] = "0" * 64
    return ref


def check_corrupted(fha, workload: str) -> None:
    workdir = run.WORK / f"smoke-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        probe = WORKLOADS[workload](fha, 0, workdir)
        s = probe.program_seed(0)
        wl = WORKLOADS[workload](fha, 0, workdir, reference=corrupted(workload, s))
        rnd = wl.run(0)
        wl.cleanup()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    assert rnd.failed > 0 and rnd.problems, f"{workload}: corrupted reference passed"
    print(f"ok   {workload}: corrupted reference fails ({rnd.problems[0]})")


def check_bare_directory() -> None:
    bare = run.WORK / f"bare-{os.getpid()}"
    try:
        bare.mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(run.ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(["--workload", "pilot", "--seed", "0", "--seconds", "1",
                      "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and proc.stdout.strip() == "", proc
    print(f"ok   bare directory: exit {proc.returncode}, no result")


def main() -> int:
    fha = run.import_package()
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_contract(workload, trace)
        check_corrupted(fha, workload)
    check_bare_directory()
    print("smoke check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
