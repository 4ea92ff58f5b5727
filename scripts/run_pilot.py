"""Regenerate the frozen rot40 oracles: the default grid and the ordering pilot.

Runs the full benchmark ladder once on the rot40 task (shots 1, 3 and 7,
seeds 0..9, default configs) and rewrites two files from that one run:

- tests/data/grid_rot40.json: every (method, n_t, seed) accuracy and each
  seed's weight-averaging accuracy;
- tests/data/pilot_rot40.json: the n_t=3 slice of the same run, in the
  pilot's own format.

The acceptance suite replays the same grid and compares against both files
bit for bit, so regenerate them only after an intentional change to the
training pipeline, say in the change why the numbers moved, and re-check the
ordering conditions printed below before committing the new oracles.

    PYTHONPATH=src python scripts/run_pilot.py
"""

import json
import sys
from pathlib import Path

import numpy as np

from fha.data import builtin_task
from fha.harness import ExperimentConfig, run_experiment, summarize
from fha.trainers import METHODS

DATA = Path(__file__).resolve().parent.parent / "tests" / "data"
GRID_OUT = DATA / "grid_rot40.json"
PILOT_OUT = DATA / "pilot_rot40.json"
SHOTS = [1, 3, 7]
PILOT_N_T = 3


def _write(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {path}")


def main() -> int:
    task = builtin_task("rot40")
    seeds = list(range(10))
    results = run_experiment(task, list(METHODS), SHOTS, seeds, ExperimentConfig())
    errors = [r for r in results if r.error is not None]
    if errors:
        for r in errors:
            print(f"error: {r.method} n_t={r.n_t} seed={r.seed}: {r.error}", file=sys.stderr)
        return 1

    def accuracies(n_t: int) -> dict:
        return {m: {str(r.seed): r.accuracy for r in results if r.method == m and r.n_t == n_t}
                for m in METHODS}

    def wa_accuracy(n_t: int) -> dict:
        return {str(r.seed): r.wa_accuracy for r in results if r.method == "wa" and r.n_t == n_t}

    _write(GRID_OUT, {
        "task": task.name,
        "shots": SHOTS,
        "seeds": seeds,
        "accuracies": {m: {str(n_t): accuracies(n_t)[m] for n_t in SHOTS} for m in METHODS},
        "wa_accuracy": wa_accuracy(SHOTS[0]),
    })
    pilot = {
        "task": task.name,
        "n_t": PILOT_N_T,
        "seeds": seeds,
        "accuracies": accuracies(PILOT_N_T),
        "wa_accuracy": wa_accuracy(PILOT_N_T),
    }
    _write(PILOT_OUT, pilot)
    print(summarize(results).render())

    acc = {m: np.array([pilot["accuracies"][m][str(s)] for s in seeds]) for m in METHODS}
    tohan, stf = acc["tohan"], acc["stfada"]
    checks = [
        ("mean tohan > mean wa", tohan.mean() > acc["wa"].mean()),
        ("tohan beats wa in >= 8/10 seeds", int((tohan > acc["wa"]).sum()) >= 8),
        ("mean tohan >= mean stfada", tohan.mean() >= stf.mean()),
        ("tohan beats stfada in >= 6/10 seeds", int((tohan > stf).sum()) >= 6),
        ("mean stfada >= min(mean sfada, mean tfada)",
         stf.mean() >= min(acc["sfada"].mean(), acc["tfada"].mean())),
    ]
    failed = False
    for label, ok in checks:
        print(("PASS " if ok else "FAIL ") + label)
        failed |= not ok
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
