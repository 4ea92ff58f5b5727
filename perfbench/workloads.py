"""The benchmark's three workloads and the checks on their outputs.

Each workload runs in rounds. A round is the smallest piece of work whose
output can be checked on its own:

* ``pilot``: one seed of the committed pilot oracle, all 7 methods at
  n_t=3, through ``harness.run_experiment`` (no sink). Every line must
  replay ``tests/data/pilot_rot40.json`` bit-exactly.
* ``grid6-cli``: one seed of the CLI's default grid (all methods, shots
  1,3,7) on a 6-class ring task, through in-process ``cli.main`` ``run``
  then ``summarize``. Lines must be error-free, the summary must be
  recomputable from them exactly, and the SHA-256 of the (method, n_t, seed,
  accuracy) tuples must match ``reference.json``.
* ``source-prep``: one seed over the 5 builtin tasks, each through
  ``gen-data``, ``train-source --data`` and ``dump-embed``. The SHA-256 of
  the produced files must match ``reference.json``.

A run goes through whole cycles of a workload's program seeds
(``cycle_seeds``, a subset of the referenced seeds 0..9) in an order drawn
from the workload seed. Every run therefore does the same work, whatever its
seed, and every round of every run is checked against a recorded output.
Rounds run with ``jobs=1`` in the benchmark process.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ORACLE_PATH = ROOT / "tests" / "data" / "pilot_rot40.json"
REFERENCE_PATH = HERE / "reference.json"
PROGRAM_SEEDS = tuple(range(10))
TWO_STEP = ("sfada", "tfada", "stfada")
PREP_TASKS = ("rot40", "rot20", "rot180", "shift", "blobs")
PREP_FILES = ("source.fhd", "target.fhd", "target_test.fhd", "model.json", "embed.csv")


@dataclass
class Round:
    """The checked outcome of one round."""

    program_seed: int
    seconds: float
    attempted: int
    failed: int
    problems: list = field(default_factory=list)
    # wall time in ms of each part of the round: "<method>@<n_t>" per result
    # line and "seed-prep" for the rest of the round, or one entry per task
    parts: dict = field(default_factory=dict)
    accuracies: list = field(default_factory=list)
    # output digest per reference key, as compared against reference.json
    digests: dict = field(default_factory=dict)
    # calibration kernel times (s) sampled during the round, see speed.py
    kernel: list = field(default_factory=list)


def seed_order(workload: str, seed: int, seeds=PROGRAM_SEEDS) -> list[int]:
    """Program seeds in the order a workload seed picks."""
    order = list(seeds)
    random.Random(f"{workload}:{seed}").shuffle(order)
    return order


def tuples_digest(rows) -> str:
    """SHA-256 of the sorted (method, n_t, seed, accuracy) tuples of result rows."""
    lines = sorted(f"{r['method']},{int(r['n_t'])},{int(r['seed'])},{float(r['accuracy'])!r}"
                   for r in rows)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def files_digest(directory: Path) -> str:
    """SHA-256 over the names and bytes of one preparation's files."""
    h = hashlib.sha256()
    for name in PREP_FILES:
        h.update(name.encode() + b"\0")
        h.update((directory / name).read_bytes())
    return h.hexdigest()


def expected_summary_csv(rows, methods) -> str:
    """The summary CSV recomputed from raw rows, in the CLI's aggregation order."""
    groups: dict = {}
    for r in rows:
        groups.setdefault((r["method"], int(r["n_t"])), []).append(float(r["accuracy"]))
    order = {m: i for i, m in enumerate(methods)}
    lines = ["method,n_t,mean_pct,std_pct,seeds"]
    for method, n_t in sorted(groups, key=lambda k: (order[k[0]], k[1])):
        vals = np.asarray(groups[(method, n_t)], dtype=np.float64)
        std = f"{100.0 * float(np.std(vals, ddof=1)):.1f}" if vals.size > 1 else ""
        lines.append(f"{method},{n_t},{100.0 * float(np.mean(vals)):.1f},{std},{vals.size}")
    return "\n".join(lines) + "\n"


def read_lines(path: Path) -> list[dict]:
    """Parse a results file on its own; a missing or unparsable file reads as empty."""
    try:
        return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()
                if line.strip()]
    except (OSError, ValueError):
        return []


class Workload:
    """What the three workloads share: the seed cycle and the round clock."""

    name = ""
    cycle_seeds = PROGRAM_SEEDS
    order: list[int] = []
    # Times rounds; the runner swaps in a clock that leaves out its probe.
    clock = staticmethod(time.perf_counter)

    def program_seed(self, i: int) -> int:
        return self.order[i % len(self.order)]

    def cleanup(self) -> None:
        pass


def _quiet_cli(fha, argv) -> int:
    """Call ``fha.cli.main`` in-process with its stdout and stderr captured."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return fha.cli.main(argv)


class Pilot(Workload):
    """The paper's headline grid, replayed seed by seed against its oracle."""

    name = "pilot"

    def __init__(self, fha, seed: int, workdir: Path, reference: dict | None = None):
        self.fha = fha
        self.oracle = reference if reference is not None else json.loads(
            ORACLE_PATH.read_text(encoding="utf-8"))
        self.task = fha.builtin_task(self.oracle["task"])
        self.n_t = int(self.oracle["n_t"])
        self.cfg = fha.ExperimentConfig()
        self.methods = tuple(fha.trainers.METHODS)
        self.order = [s for s in seed_order(self.name, seed, self.cycle_seeds)
                      if s in self.oracle["seeds"]]

    def run(self, i: int) -> Round:
        s = self.program_seed(i)
        start, wall = self.clock(), time.perf_counter()
        results = self.fha.harness.run_experiment(
            self.task, self.methods, [self.n_t], [s], self.cfg)
        seconds = self.clock() - start
        wall_ms = 1e3 * (time.perf_counter() - wall)
        rnd = Round(s, seconds, attempted=len(self.methods), failed=0)
        seen = set()
        for r in results:
            seen.add(r.method)
            if r.error is not None:
                rnd.failed += 1
                rnd.problems.append(f"{r.method} seed {s}: error {r.error}")
                continue
            want = self.oracle["accuracies"][r.method][str(s)]
            want_wa = self.oracle["wa_accuracy"][str(s)]
            if r.accuracy != want or r.wa_accuracy != want_wa or r.n_t != self.n_t:
                rnd.failed += 1
                rnd.problems.append(f"{r.method} seed {s}: accuracy {r.accuracy!r} "
                                    f"!= oracle {want!r}")
            rnd.accuracies.append(r.accuracy)
            rnd.parts[f"{r.method}@{r.n_t}"] = r.wall_ms
        rnd.parts["seed-prep"] = wall_ms - sum(rnd.parts.values())
        missing = set(self.methods) - seen
        if missing or len(results) != len(self.methods):
            rnd.failed = rnd.attempted
            rnd.problems.append(f"seed {s}: lines for {sorted(missing)} missing")
        return rnd

def ring6_task() -> dict:
    """The 6-class ring task: means on a radius-0.8 circle, scale 0.8/6."""
    means = [[0.8 * math.cos(math.radians(90.0 + 60.0 * k)),
              0.8 * math.sin(math.radians(90.0 + 60.0 * k))] for k in range(6)]
    return {
        "name": "ring6", "num_classes": 6, "dim": 2, "class_means": means,
        "class_scales": [0.8 / 6] * 6, "rotation_deg": 30.0,
        "source_per_class": 100, "target_per_class": 60, "test_per_class": 100,
    }


class Grid6Cli(Workload):
    """The CLI's default grid on a 6-class task, through the results files."""

    name = "grid6-cli"
    # A round takes 15-25 s and program seeds differ in cost, so every run
    # does the same single round, whatever its workload seed.
    cycle_seeds = (1,)

    def __init__(self, fha, seed: int, workdir: Path, reference: dict | None = None):
        self.fha = fha
        self.workdir = workdir
        ref = reference if reference is not None else json.loads(
            REFERENCE_PATH.read_text(encoding="utf-8"))
        self.reference = ref[self.name]
        self.methods = tuple(fha.trainers.METHODS)
        self.shots = (1, 3, 7)
        self.config = workdir / "grid6.json"
        self.config.write_text(json.dumps({"task": ring6_task(), "jobs": 1}),
                               encoding="utf-8")
        self.order = seed_order(self.name, seed, self.cycle_seeds)

    def run(self, i: int) -> Round:
        s = self.program_seed(i)
        out = self.workdir / f"grid6-{s}.jsonl"
        summary = self.workdir / f"grid6-{s}.csv"
        start, wall = self.clock(), time.perf_counter()
        rc_run = _quiet_cli(self.fha, ["run", "--config", str(self.config),
                                       "--seeds", str(s), "--out", str(out)])
        rc_sum = _quiet_cli(self.fha, ["summarize", str(out), "--format", "csv",
                                       "--out", str(summary)])
        seconds = self.clock() - start
        wall_ms = 1e3 * (time.perf_counter() - wall)
        expected = len(self.methods) * len(self.shots)
        rnd = Round(s, seconds, attempted=expected, failed=0)
        rows = read_lines(out)
        bad = [r for r in rows if "error" in r]
        rnd.failed += len(bad)
        rnd.problems += [f"{r['method']} n_t={r['n_t']} seed {s}: error {r['error']}"
                         for r in bad]
        good = [r for r in rows if "error" not in r]
        keys = {(r["method"], int(r["n_t"])) for r in good}
        round_ok = (
            rc_run == 0 and rc_sum == 0 and len(rows) == expected
            and keys == {(m, n) for m in self.methods for n in self.shots}
        )
        if not round_ok:
            rnd.problems.append(f"seed {s}: run rc {rc_run}, summarize rc {rc_sum}, "
                                f"{len(rows)} lines, {len(bad)} errors")
        elif summary.read_text(encoding="utf-8") != expected_summary_csv(good, self.methods):
            round_ok = False
            rnd.problems.append(f"seed {s}: summary does not recompute from the lines")
        else:
            rnd.digests[str(s)] = tuples_digest(good)
        if round_ok and rnd.digests[str(s)] != self.reference.get(str(s)):
            round_ok = False
            rnd.problems.append(f"seed {s}: result digest differs from the reference")
        if not round_ok:
            rnd.failed = expected
        for r in good:
            rnd.accuracies.append(float(r["accuracy"]))
            rnd.parts[f"{r['method']}@{r['n_t']}"] = float(r["wall_ms"])
        rnd.parts["seed-prep"] = wall_ms - sum(rnd.parts.values())
        out.unlink(missing_ok=True)
        summary.unlink(missing_ok=True)
        return rnd

    def cleanup(self) -> None:
        self.config.unlink(missing_ok=True)


class SourcePrep(Workload):
    """Dataset generation, source training and embedding export, via the CLI."""

    name = "source-prep"

    def __init__(self, fha, seed: int, workdir: Path, reference: dict | None = None):
        self.fha = fha
        self.workdir = workdir
        ref = reference if reference is not None else json.loads(
            REFERENCE_PATH.read_text(encoding="utf-8"))
        self.reference = ref[self.name]
        self.order = seed_order(self.name, seed, self.cycle_seeds)

    def prepare(self, task: str, s: int, d: Path) -> tuple[float, list[int]]:
        """One (task, seed) preparation; returns its seconds and exit codes."""
        data = [f"{tag}={d / (tag + '.fhd')}" for tag in ("source", "target", "target_test")]
        start = self.clock()
        rcs = [
            _quiet_cli(self.fha, ["gen-data", "--task", task, "--seed", str(s),
                                  "--out", str(d)]),
            _quiet_cli(self.fha, ["train-source", "--data", str(d / "source.fhd"),
                                  "--seed", str(s), "--out", str(d / "model.json")]),
            _quiet_cli(self.fha, ["dump-embed", "--model", str(d / "model.json"),
                                  *[a for item in data for a in ("--data", item)],
                                  "--out", str(d / "embed.csv")]),
        ]
        return self.clock() - start, rcs

    def run(self, i: int) -> Round:
        s = self.program_seed(i)
        rnd = Round(s, 0.0, attempted=len(PREP_TASKS), failed=0)
        for task in PREP_TASKS:
            d = self.workdir / f"prep-{task}-{s}"
            seconds, rcs = self.prepare(task, s, d)
            rnd.seconds += seconds
            rnd.parts[task] = seconds * 1e3
            try:
                self._check(rnd, f"{task}/{s}", d, rcs)
            finally:
                shutil.rmtree(d, ignore_errors=True)
        return rnd

    def _check(self, rnd: Round, key: str, d: Path, rcs: list[int]) -> None:
        if any(rcs):
            rnd.failed += 1
            rnd.problems.append(f"{key}: exit codes {rcs}")
            return
        rnd.digests[key] = files_digest(d)
        if rnd.digests[key] != self.reference.get(key):
            rnd.failed += 1
            rnd.problems.append(f"{key}: produced files differ from the reference")
            return
        meta = json.loads((d / "model.json").read_text(encoding="utf-8"))["metadata"]
        rnd.accuracies.append(float(meta["test_accuracy"]))


WORKLOADS = {cls.name: cls for cls in (Pilot, Grid6Cli, SourcePrep)}
