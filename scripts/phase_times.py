"""Per-phase wall time of experiment seeds, through the harness.

Runs every method on one task for each seed and shot count, the way
``fha run`` does (``harness._run_seed``), and times the trainer calls the
harness makes: source training, the shared generator runs, the stacked
adaptations, and the ft and shot baselines; "other" is the rest of the
seed (data, few-shot draws, accuracies). Prints the median of each phase
over the seeds, its share of their sum, and the generator blocks one seed
trains. The defaults are the pilot's: rot40, n_t=3.

    PYTHONPATH=src python3 scripts/phase_times.py [--task rot40] [--shots 3] \\
        [--seeds 0,1,2,3,4]

``--task`` is a builtin task name or a JSON file holding a task object, as
in ``fha run --config``. The exit code is 1 when a run failed or a shared
run fell back to the methods' own trainers.

Times are wall clock (time.perf_counter) on whatever machine runs it; read
them next to the machine's own speed, and compare two trees on one machine.
"""

import argparse
import json
import logging
import statistics
import time
from pathlib import Path

from fha import harness, trainers
from fha.cli import _task_from_config
from fha.harness import ExperimentConfig

# phase -> the trainer functions it times
PHASES = {"train_source": ("train_source",), "generate": ("generate",),
          "adapt (stacked)": ("adapt_generated",),
          "train_ft + train_shot": ("train_ft", "train_shot")}


def seed_times(task, shots, seed: int, cfg: ExperimentConfig):
    """Milliseconds of each phase of one seed, the generator blocks it
    trained, and its failed runs and fallback warnings."""
    times = dict.fromkeys([*PHASES, "other"], 0.0)
    blocks, warned = [], []
    originals = {name: getattr(trainers, name) for names in PHASES.values() for name in names}

    def timed(phase, fn):
        def call(*args, **kwargs):
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            times[phase] += (time.perf_counter() - start) * 1e3
            if phase == "generate":
                blocks.append(len(out[0]))
            return out
        return call

    handler = logging.Handler(logging.WARNING)
    handler.emit = warned.append
    harness.log.addHandler(handler)
    for phase, names in PHASES.items():
        for name in names:
            setattr(trainers, name, timed(phase, originals[name]))
    start = time.perf_counter()
    try:
        results = harness._run_seed(task, trainers.METHODS, shots, seed, cfg)
    finally:
        for name, fn in originals.items():
            setattr(trainers, name, fn)
        harness.log.removeHandler(handler)
    times["other"] = (time.perf_counter() - start) * 1e3 - sum(times.values())
    problems = [f"{r.method} n_t={r.n_t}: {r.error}" for r in results if r.error is not None]
    return times, sum(blocks), problems + [record.getMessage() for record in warned]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--task", default="rot40",
                        help="builtin task name or JSON task file (default rot40)")
    parser.add_argument("--shots", default="3", help="comma-separated n_t (default 3)")
    parser.add_argument("--seeds", default="0,1,2,3,4",
                        help="comma-separated seeds (default 0..4)")
    args = parser.parse_args(argv)
    path = Path(args.task)
    task = _task_from_config(json.loads(path.read_text()) if path.suffix == ".json"
                             else args.task)
    shots = [int(s) for s in args.shots.split(",")]
    seeds = [int(s) for s in args.seeds.split(",")]
    runs = [seed_times(task, shots, seed, ExperimentConfig()) for seed in seeds]
    medians = {phase: statistics.median(r[0][phase] for r in runs) for phase in runs[0][0]}
    total = sum(medians.values())
    print(f"{task.name}, shots {shots}, seeds {seeds}: median ms per seed")
    for phase, ms in medians.items():
        print(f"  {phase:<24}{ms:9.1f}  {100.0 * ms / total:5.1f}%")
    print(f"  {'total':<24}{total:9.1f}")
    print(f"generator blocks per seed: {sorted({r[1] for r in runs})}")
    problems = [p for r in runs for p in r[2]]
    for problem in problems:
        print(f"problem: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
