"""Regenerate the frozen trajectory oracle.

Runs short rot40 adaptations (n_t=3, one experiment seed, a small
TohanConfig) of the generator-based methods and rewrites
tests/data/trajectory_rot40.json with SHA-256 digests of what they compute:
the final encoder and classifier parameters and the full PhaseEvent trace
(epoch, phase, losses, digests) of each method, and the parameter stack and
sample_pool output of a generator bank in each mode. The pilot oracle
compares accuracies only; these digests change when any bit of a generator
gradient, a pool or an adaptation step changes. tests/test_trajectory.py
replays the same runs through ``trajectory()`` and compares, so regenerate
the file only after an intentional change to the numbers the training
pipeline computes.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from fha import nn, trainers
from fha.data import builtin_task, make_synthetic_task, sample_few_shot

OUT = Path(__file__).resolve().parent.parent / "tests" / "data" / "trajectory_rot40.json"

SEED = 0
N_T = 3
METHODS = ("tohan", "sfada", "tfada", "stfada")
POOL_PER_CLASS = 7
TOHAN = dict(total_epochs=40, adapt_epochs=8, disc_pretrain_epochs=4)
SOURCE_EPOCHS = 60


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _trace_sha(trace) -> str:
    events = [{"epoch": ev.epoch, "phase": ev.phase, "losses": ev.losses,
               "digests": ev.digests} for ev in trace]
    return hashlib.sha256(json.dumps(events, sort_keys=True).encode()).hexdigest()


def trajectory() -> dict:
    """Run the recorded experiment and return its digests."""
    data_seed, source_seed, fewshot_seed, method_seed = nn.derive_seeds(SEED, 4)
    task = builtin_task("rot40")
    source, target, _ = make_synthetic_task(replace(task, seed=data_seed))
    hypothesis = trainers.train_source(
        source, trainers.SourceTrainConfig(epochs=SOURCE_EPOCHS, seed=source_seed))
    fewshot = sample_few_shot(target, N_T, fewshot_seed)
    cfg = trainers.TohanConfig(seed=method_seed, **TOHAN)

    runs = {}
    for method in METHODS:
        trace: list = []
        model = trainers.run_generator_methods([method], hypothesis, [fewshot], cfg,
                                               traces=[{method: trace}])[0][method]
        runs[method] = {"enc": _sha(model.enc.params), "cls": _sha(model.cls.params),
                        "trace": _trace_sha(trace), "events": len(trace)}

    banks = {}
    for mode in ("source_only", "target_only", "combined"):
        bank = trainers.train_generator_bank(hypothesis, fewshot, mode, cfg)
        pool = trainers.sample_pool(bank, POOL_PER_CLASS, seed=method_seed)
        banks[mode] = {"params": _sha(bank.params),
                       "pool_features": _sha(pool.features),
                       "pool_labels": _sha(pool.labels)}

    return {
        "task": task.name, "n_t": N_T, "seed": SEED, "source_epochs": SOURCE_EPOCHS,
        "tohan": TOHAN, "pool_per_class": POOL_PER_CLASS,
        "runs": runs, "banks": banks,
    }


def main() -> int:
    OUT.write_text(json.dumps(trajectory(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
