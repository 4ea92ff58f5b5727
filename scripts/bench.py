"""Paired benchmark of this tree against a checkout of its parent commit.

For each workload of ``BENCHMARK.json`` (or those listed) and each pair i,
runs ``perfbench/run.py --trace 0`` once in the parent checkout and once in
this tree, with the seed ``SEED_BASE + i`` on both sides; the parent runs
first in even pairs, the change in odd ones. Only the last line of each
run's output (the benchmark's result object) is read; no other timer is
kept. Writes a JSON file with the environment, both commits, each side's
``src/fha`` code and total line counts (``scripts/line_counts.py``), every
run's end-to-end metrics and, per (workload, metric), each side's median
and quartiles and the number of pairs the change wins in the direction
``BENCHMARK.json`` gives. Exits 1, writing nothing, as soon as a run is not
``correct``.

    python3 scripts/bench.py --parent DIR [--pairs 10] [--seconds 10] \\
        [--workloads pilot,source-prep] --out BENCH_<n>.json

Run it from a quiet machine: both sides share it, one run at a time.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
from line_counts import split

ROOT = Path(__file__).resolve().parent.parent
SEED_BASE = 2541


def commit(tree: Path) -> dict:
    """The tree's directory name, its git commit and whether it has
    uncommitted changes, or None for both outside a repository."""
    def git(*args):
        proc = subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    head = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if head else None
    return {"dir": tree.name, "commit": head, "dirty": None if status is None else bool(status)}


def src_lines(tree: Path) -> dict:
    """The code and total line counts of the tree's ``src/fha`` modules."""
    counts = [split(path.read_text(encoding="utf-8"))
              for path in (tree / "src" / "fha").glob("*.py")]
    return {kind: sum(c[kind] for c in counts) for kind in ("code", "total")}


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result object of one benchmark run in ``tree``; exits on a run
    that is not correct."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {}
    if proc.returncode != 0 or result.get("correct") is not True:
        sys.stderr.write(f"error: {workload} seed {seed} in {tree} is not correct "
                         f"(exit {proc.returncode})\n{proc.stderr[-2000:]}")
        raise SystemExit(1)
    return result


def spread(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(runs, spec) -> dict:
    """Per workload and end-to-end metric: each side's spread and the
    change's wins over its pair's parent run."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        sides = {side: [r for r in runs if r["workload"] == workload and r["side"] == side]
                 for side in ("parent", "change")}
        rows = summary[workload] = {}
        for metric in spec["end_to_end"]:
            name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
            values = {side: [r["metrics"][name] for r in sides[side]] for side in sides}
            wins = sum(sign * (c - p) > 0.0 for p, c in zip(values["parent"], values["change"]))
            rows[name] = {"unit": metric["unit"], "better": metric["better"],
                          "parent": spread(values["parent"]), "change": spread(values["change"]),
                          "change_wins": wins, "pairs": len(values["change"])}
    return summary


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="checkout of the parent commit")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]),
                        help="comma-separated workload names (default: all)")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")
    parent = args.parent.resolve()
    if not (parent / "perfbench" / "run.py").is_file():
        parser.error(f"no perfbench/run.py in {parent}")
    trees = {"parent": parent, "change": ROOT}
    runs = []
    for workload in args.workloads.split(","):
        for pair in range(args.pairs):
            seed = SEED_BASE + pair
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for position, side in enumerate(order):
                result = run_once(trees[side], workload, seed, args.seconds)
                runs.append({"workload": workload, "pair": pair, "seed": seed, "side": side,
                             "position": position, "attempted": result["attempted"],
                             "failed": result["failed"],
                             "metrics": {k: m["value"] for k, m in result["metrics"].items()}})
                print(f"{workload} pair {pair} {side}: "
                      + ", ".join(f"{k} {v:.4g}" for k, v in runs[-1]["metrics"].items()),
                      flush=True)
    doc = {
        "environment": {"platform": platform.platform(), "machine": platform.machine(),
                        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
                        "python": platform.python_version(), "numpy": np.__version__},
        "parent": commit(parent), "change": commit(ROOT),
        "src_lines": {side: src_lines(tree) for side, tree in trees.items()},
        "pairs": args.pairs, "seconds": args.seconds, "seed_base": SEED_BASE,
        "workloads": args.workloads.split(","),
        "summary": summarize(runs, spec), "runs": runs,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
