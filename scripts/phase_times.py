"""Per-phase wall time of one pilot seed, by direct trainer calls.

Runs the pilot experiment's phases (rot40, n_t=3, default configs) for each
pilot seed, the way ``harness.run_experiment`` does: source training, the
shared generator run for sfada, tfada, stfada and tohan, their one stacked
adaptation, and the ft and shot baselines. Prints the median of each phase
over the seeds and its share of their sum.

    PYTHONPATH=src python3 scripts/phase_times.py [--seeds 0,1,2,3,4]

Times are wall clock (time.perf_counter) on whatever machine runs it; read
them next to the machine's own speed, and compare two trees on one machine.
"""

import argparse
import statistics
import time
from dataclasses import replace

from fha import nn, trainers
from fha.data import builtin_task, make_synthetic_task, sample_few_shot
from fha.harness import ExperimentConfig

N_T = 3
PHASES = ("train_source", "generate", "adapt (stacked)", "train_ft + train_shot")


def seed_times(seed: int, cfg: ExperimentConfig) -> dict[str, float]:
    """Milliseconds of each phase of one pilot seed."""
    data_seed, source_seed, fewshot_seed, method_seed = nn.derive_seeds(seed, 4)
    source, target, _ = make_synthetic_task(replace(builtin_task("rot40"), seed=data_seed))
    tohan_cfg = replace(cfg.tohan, seed=method_seed)
    times = {}

    def timed(phase, fn):
        start = time.perf_counter()
        out = fn()
        times[phase] = (time.perf_counter() - start) * 1e3
        return out

    hypothesis = timed("train_source", lambda: trainers.train_source(
        source, replace(cfg.source, seed=source_seed)))
    fewshot = sample_few_shot(target, N_T, fewshot_seed)
    run = timed("generate", lambda: trainers.generate(
        hypothesis, fewshot, trainers.GENERATOR_METHODS, tohan_cfg))
    timed("adapt (stacked)", lambda: trainers.adapt_generated(
        trainers.GENERATOR_METHODS, run, hypothesis, fewshot, tohan_cfg))
    timed("train_ft + train_shot", lambda: (
        trainers.train_ft(hypothesis, fewshot, cfg.baseline),
        trainers.train_shot(hypothesis, fewshot, cfg.baseline)))
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0,1,2,3,4",
                        help="comma-separated pilot seeds (default 0..4)")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    cfg = ExperimentConfig()
    runs = [seed_times(seed, cfg) for seed in seeds]
    medians = {phase: statistics.median(r[phase] for r in runs) for phase in PHASES}
    total = sum(medians.values())
    print(f"pilot seeds {seeds}: median ms per seed")
    for phase, ms in medians.items():
        print(f"  {phase:<24}{ms:9.1f}  {100.0 * ms / total:5.1f}%")
    print(f"  {'total':<24}{total:9.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
