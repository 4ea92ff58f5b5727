"""Per-phase wall time of experiment seeds, through the harness.

Runs every method on one task for each seed and shot count, the way
``fha run`` does (``harness._run_seed``), and times the trainer calls the
harness makes: source training (split into its Adam steps and the rest:
the fitting passes, the holdout split and its accuracy gate), the shared
generator runs (split into the objective steps, the Adam steps and the
rest), the stacked adaptations (split into pair draws, every pair of an
adaptation drawn before its first update, discriminator updates, model
updates and the rest), and the ft and shot baselines; "other" is the rest
of the seed (data, few-shot draws, accuracies). A discriminator update
counts its encoder pass (in pretraining, the pool embedding it gathers
from) and its Adam step; a model update its Adam step. Prints the median
of each phase over the seeds, its share of their sum, the median minor
page faults of a seed and of its generator runs alone (resource.getrusage;
a run whose freed memory glibc trims off the heap faults it back in page
by page), and the generator runs one seed makes and the blocks they
train. The defaults are the pilot's: rot40, n_t=3.

    PYTHONPATH=src python3 scripts/phase_times.py [--task rot40] [--shots 3] \\
        [--seeds 0,1,2,3,4]

``--task`` is a builtin task name or a JSON file holding a task object, as
in ``fha run --config``. The exit code is 1 when a run failed, or when a
timed function made no call: the phase map no longer matches the code, and
its phases would read zero.

Times are wall clock (time.perf_counter) on whatever machine runs it; read
them next to the machine's own speed, and compare two trees on one machine.
"""

import argparse
import json
import resource
import statistics
import time
from pathlib import Path

from fha import harness, losses, nn, trainers
from fha.cli import _task_from_config
from fha.harness import ExperimentConfig

SOURCE = ("train_source: passes", "train_source: Adam")
GENERATE = ("generate: objective", "generate: Adam", "generate: other")
ADAPT = ("adapt: pair draws", "adapt: disc updates", "adapt: model updates", "adapt: other")
PHASES = (*SOURCE, *GENERATE, *ADAPT, "train_ft + train_shot", "other")
# (module, function, the phase its self time is charged to); None: the
# phase of the update or run it belongs to, see _phase_of
TIMED = (
    (trainers, "train_source", "train_source: passes"),
    (trainers, "_run_generators", "generate: other"),
    (losses, "generator_objective_and_grad", "generate: objective"),
    (trainers, "run_generator_methods", "adapt: other"),
    (trainers, "sample_pool", "adapt: other"),
    (trainers, "draw_schedule", "adapt: pair draws"),
    (losses, "group_ce_and_disc_grad", "adapt: disc updates"),
    (losses, "adaptation_loss_and_grads", "adapt: model updates"),
    (trainers, "train_ft", "train_ft + train_shot"),
    (trainers, "train_shot", "train_ft + train_shot"),
    (nn, "adam_into", None),
    (nn, "forward", None),
)


def _phase_of(name, caller, last_update):
    """The phase of an Adam step or a forward pass made directly by the timed
    function ``caller`` (a (function, phase) pair): the source fitting's or
    the generators' Adam, the adaptation update it steps or the encoder pass
    a discriminator update reads, or else the caller's own phase."""
    if caller[0] == "train_source" and name == "adam_into":
        return "train_source: Adam"
    if caller[0] == "_run_generators" and name == "adam_into":
        return "generate: Adam"
    if caller[0] == "run_generator_methods":
        return last_update if name == "adam_into" else "adapt: disc updates"
    return caller[1]


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def seed_times(task, shots, seed: int, cfg: ExperimentConfig):
    """Milliseconds of each phase of one seed, its generator runs and the
    blocks they trained, its failed runs, the timed functions it called, and
    its minor page faults and those of its generator runs."""
    times = dict.fromkeys(PHASES, 0.0)
    stack = []  # [function, phase, time of the timed calls inside it]
    last_update = ["adapt: disc updates"]
    blocks, called, gen_faults = [], set(), [0]

    def timed(name, phase, fn):
        def call(*args, **kwargs):
            called.add(name)
            caller = stack[-1][:2] if stack else (None, "other")
            own = phase or _phase_of(name, caller, last_update[0])
            if phase in ADAPT[1:3]:
                last_update[0] = phase
            stack.append([name, own, 0.0])
            faults = _minor_faults() if name == "_run_generators" else 0
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                spent = time.perf_counter() - start
                inner = stack.pop()[2]
                times[own] += (spent - inner) * 1e3
                if stack:
                    stack[-1][2] += spent
            if name == "_run_generators":
                blocks.append(len(out[0]))
                gen_faults[0] += _minor_faults() - faults
            return out
        return call

    originals = [(module, name, getattr(module, name)) for module, name, _ in TIMED]
    for (module, name, phase), (_, _, fn) in zip(TIMED, originals):
        setattr(module, name, timed(name, phase, fn))
    faults = _minor_faults()
    start = time.perf_counter()
    try:
        results = harness._run_seed(task, trainers.METHODS, shots, seed, cfg)
    finally:
        for module, name, fn in originals:
            setattr(module, name, fn)
    times["other"] += (time.perf_counter() - start) * 1e3 - sum(times.values())
    faults = _minor_faults() - faults
    problems = [f"{r.method} n_t={r.n_t}: {r.error}" for r in results if r.error is not None]
    return times, (len(blocks), sum(blocks)), problems, called, (faults, gen_faults[0])


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
    medians = {phase: statistics.median(r[0][phase] for r in runs) for phase in PHASES}
    total = sum(medians.values())
    print(f"{task.name}, shots {shots}, seeds {seeds}: median ms per seed")
    for head, parts in (("train_source", SOURCE), ("generate", GENERATE),
                        ("adapt (stacked)", ADAPT)):
        medians[head] = sum(medians[p] for p in parts)
    for phase in ("train_source", *SOURCE, "generate", *GENERATE, "adapt (stacked)", *ADAPT,
                  "train_ft + train_shot", "other"):
        label = f"  {phase.split(': ')[1]}" if ": " in phase else phase
        print(f"  {label:<24}{medians[phase]:9.1f}  {100.0 * medians[phase] / total:5.1f}%")
    print(f"  {'total':<24}{total:9.1f}")
    print(f"minor page faults per seed: {statistics.median(r[4][0] for r in runs):.0f} "
          f"(generator runs: {statistics.median(r[4][1] for r in runs):.0f})")
    print(f"generator runs per seed: {sorted({r[1][0] for r in runs})}, "
          f"blocks per seed: {sorted({r[1][1] for r in runs})}")
    problems = [p for r in runs for p in r[2]]
    called = set().union(*(r[3] for r in runs))
    problems += [f"{module.__name__}.{name} made no call; the phase map is stale"
                 for module, name, _ in TIMED if name not in called]
    for problem in problems:
        print(f"problem: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
