"""Regenerate the frozen rot40 oracles: the default grid and the ordering pilot.

Runs the full benchmark ladder once on the rot40 task (shots 1, 3 and 7,
seeds 0..9, default configs) and rewrites two files from that one run:

- tests/data/grid_rot40.json: every (method, n_t, seed) accuracy and each
  seed's weight-averaging accuracy;
- tests/data/pilot_rot40.json: the n_t=3 slice of the same run, in the
  pilot's own format.

The acceptance suite loads this file, runs the same grid through oracles(),
compares both documents with the committed files and asserts every
ordering_gates() condition. So regenerate them only after an intentional
change to the training pipeline, say in the change why the numbers moved,
and re-check the ordering conditions printed below before committing the new
oracles.

    PYTHONPATH=src python scripts/run_pilot.py
"""

import json
from pathlib import Path

import numpy as np

from fha.data import builtin_task
from fha.harness import ExperimentConfig, run_experiment
from fha.trainers import METHODS

DATA = Path(__file__).resolve().parent.parent / "tests" / "data"
GRID_OUT = DATA / "grid_rot40.json"
PILOT_OUT = DATA / "pilot_rot40.json"
SHOTS = [1, 3, 7]
SEEDS = list(range(10))
PILOT_N_T = 3


def oracles() -> tuple[dict, dict]:
    """Run the default rot40 grid once; return its grid and pilot documents.

    Raises RuntimeError if any line failed, or if a seed's wa_accuracy
    differs between its lines (both documents keep one per seed).
    """
    task = builtin_task("rot40")
    results = run_experiment(task, list(METHODS), SHOTS, SEEDS, ExperimentConfig())
    errors = [f"{r.method} n_t={r.n_t} seed={r.seed}: {r.error}"
              for r in results if r.error is not None]
    if errors:
        raise RuntimeError("grid lines failed:\n" + "\n".join(errors))
    wa_accuracy = {}
    for r in results:
        if wa_accuracy.setdefault(str(r.seed), r.wa_accuracy) != r.wa_accuracy:
            raise RuntimeError(f"seed {r.seed}: wa_accuracy differs between its lines")

    def accuracies(n_t: int) -> dict:
        return {m: {str(r.seed): r.accuracy for r in results if r.method == m and r.n_t == n_t}
                for m in METHODS}

    grid = {
        "task": task.name,
        "shots": SHOTS,
        "seeds": SEEDS,
        "accuracies": {m: {str(n_t): accuracies(n_t)[m] for n_t in SHOTS} for m in METHODS},
        "wa_accuracy": wa_accuracy,
    }
    pilot = {
        "task": task.name,
        "n_t": PILOT_N_T,
        "seeds": SEEDS,
        "accuracies": accuracies(PILOT_N_T),
        "wa_accuracy": wa_accuracy,
    }
    return grid, pilot


def ordering_gates(pilot: dict) -> list[tuple[str, bool]]:
    """The five ordering conditions on the pilot's accuracies, as (label, holds)."""
    acc = {m: np.array([pilot["accuracies"][m][str(s)] for s in pilot["seeds"]])
           for m in METHODS}
    tohan, stf = acc["tohan"], acc["stfada"]
    return [
        ("mean tohan > mean wa", tohan.mean() > acc["wa"].mean()),
        ("tohan beats wa in >= 8/10 seeds", int((tohan > acc["wa"]).sum()) >= 8),
        ("mean tohan >= mean stfada", tohan.mean() >= stf.mean()),
        ("tohan beats stfada in >= 6/10 seeds", int((tohan > stf).sum()) >= 6),
        ("mean stfada >= min(mean sfada, mean tfada)",
         stf.mean() >= min(acc["sfada"].mean(), acc["tfada"].mean())),
    ]


def main() -> int:
    grid, pilot = oracles()
    for path, doc in ((GRID_OUT, grid), (PILOT_OUT, pilot)):
        path.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"wrote {path}")
    failed = False
    for label, ok in ordering_gates(pilot):
        print(("PASS " if ok else "FAIL ") + label)
        failed |= not ok
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
