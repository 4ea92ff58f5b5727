"""Benchmark of the fha package: three workloads, end-to-end metrics, and
per-layer metrics from a separately traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {pilot,grid6-cli,source-prep} \\
        --seed N --seconds S --trace {0,1}

The package is imported from ``src/`` of the checkout. Rounds of the chosen
workload (see ``workloads.py``) run one after another in whole cycles of the
workload's program seeds until ``--seconds`` seconds have passed; the cycle
in progress when time is up still finishes. Every round's output is checked.
Untraced rounds run under a ``speed.SpeedProbe``, and their times are also
scaled to a reference machine speed, as are set-up times (``probe_setup``).
The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0``
the end-to-end metrics, with ``--trace 1`` the per-layer metrics. The line
before it is a full report (all timings with sample counts, failure share,
environment, problems). The exit code is 0 when every output checked out,
1 when one did not, 2 when the package or its oracle cannot be found.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP to one thread before numpy loads; the package runs jobs=1.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["FHA_LOG"] = "error"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import REF_KERNEL_S, SpeedProbe, reference_seconds  # noqa: E402
from tracer import COUNTED, TRACED, Tracer  # noqa: E402
from workloads import TWO_STEP, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 9
# The reference process for set-up times, and its time at the reference
# speed (its time in the fast periods of a 2-vCPU VM).
BARE_PROCESS = [sys.executable, "-c", "import numpy"]
REF_BARE_S = 0.15
# Layers whose self time is nonzero on every workload; pairing and cli are
# idle on some, so their times appear only in the report line.
CONTRACT_LAYERS = ("nn", "losses", "trainers", "data", "harness")
# Functions that run on every workload, so their self time is never zero.
CONTRACT_SELF = ("nn.forward_and_cache", "nn.backward_from_cache", "nn.adam_step",
                 "losses.cross_entropy", "losses.cross_entropy_grad",
                 "trainers.train_source", "data.make_synthetic_task")


def import_package():
    """Import fha from the checkout's ``src``; refuse any other copy."""
    if not (SRC / "fha" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'fha'}")
    sys.path.insert(0, str(SRC))
    fha = importlib.import_module("fha")
    for name in ("cli", "harness", "trainers", "nn", "losses", "pairing", "data"):
        importlib.import_module(f"fha.{name}")
    if Path(fha.__file__).resolve().parent != (SRC / "fha").resolve():
        raise SystemExit(f"error: imported fha from {fha.__file__}, not {SRC}")
    return fha


def environment(np) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": git_commit(),
    }


def git_commit() -> str | None:
    """The checkout's commit read from ``.git``, or None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def percentiles(samples) -> dict:
    """Median and the highest percentile with at least ten samples above it."""
    n = len(samples)
    out = {"n": n, "p50": statistics.median(samples) if samples else None}
    if n >= 100:
        out["p90"] = statistics.quantiles(samples, n=10, method="inclusive")[8]
    elif n >= 20:
        q = int(100 * (n - 10) / n)
        out[f"p{q}"] = statistics.quantiles(samples, n=100, method="inclusive")[q - 1]
    return out


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median time of fresh processes that import fha and build the inputs,
    scaled to the reference speed and unscaled.

    Each set-up process runs between two fresh processes that only start
    Python and import numpy (none of the package), and its time is scaled
    by ``REF_BARE_S`` over the mean of theirs. Process start-up slows down
    in the machine's slow periods by less than the calibration kernel of
    ``speed.py``, but by as much as such a bare process does.
    """
    def timed(cmd) -> float:
        start = time.perf_counter()
        subprocess.run(cmd, check=True, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        return time.perf_counter() - start

    setup = [sys.executable, str(Path(__file__)), "--workload", workload,
             "--seed", str(seed), "--seconds", "1", "--trace", "0", "--setup-only"]
    bare = [timed(BARE_PROCESS)]
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        raw.append(timed(setup))
        bare.append(timed(BARE_PROCESS))
        scaled.append(raw[-1] * 2.0 * REF_BARE_S / (bare[-2] + bare[-1]))
    return statistics.median(scaled), statistics.median(raw)


def run_rounds(wl, seconds: float, tracer=None):
    """Run whole cycles of the workload's program seeds until ``seconds``
    have passed; returns (rounds, traced rounds, untraced seconds of the
    overhead reference round).

    Without a tracer every round runs under a ``SpeedProbe``: the workload
    times its rounds with the probe's clock, which leaves out the probe's
    own time, and each round keeps the kernel samples taken during it.
    """
    cycle = len(wl.order)
    deadline = time.perf_counter() + seconds
    rounds, traced = [], []
    reference_s = None
    i = 0
    probe = SpeedProbe() if tracer is None else None
    if tracer is not None:
        # The first program seed runs once untraced and once traced, which
        # gives the tracing overhead on identical work.
        first = wl.run(0)
        rounds.append(first)
        reference_s = first.seconds
        tracer.install()
    else:
        wl.clock = probe.clock
    try:
        with probe if probe is not None else contextlib.nullcontext():
            while True:
                if tracer is not None:
                    tracer.start_round(i)
                else:
                    probe.take()
                rnd = wl.run(i)
                if probe is not None:
                    rnd.kernel = probe.take()
                rounds.append(rnd)
                if tracer is not None:
                    traced.append(rnd)
                i += 1
                if i % cycle == 0 and time.perf_counter() >= deadline:
                    break
    finally:
        if tracer is not None:
            tracer.uninstall()
    return rounds, traced, reference_s


def timing_group(part: str) -> str | None:
    """The report timing a round part belongs to; light methods have none."""
    method = part.split("@")[0]
    if method == "tohan":
        return "tohan"
    if method in TWO_STEP:
        return "two_step"
    if part == "seed-prep":
        return "seed_prep"
    return None if "@" in part else "prep"


def end_to_end(rounds, cycle: int, setup_s: float) -> tuple[dict, dict]:
    """Contract metrics and the report's timing table.

    ``runs_per_ref_s`` divides all units attempted by all round time scaled
    to the reference speed (see ``speed.py``), so neither the machine's
    speed periods nor a single slow round move it much. ``mean_acc_pct``
    covers the first cycle, which every run completes, so it is the same on
    every run. The report keeps the unscaled ``runs_per_s`` and the measured
    speed next to them.
    """
    groups: dict = {}
    for r in rounds:
        for part, ms in r.parts.items():
            group = timing_group(part)
            if group:
                groups.setdefault(group, []).append(ms)
    timings = {f"{g}_ms": {"unit": "ms", **percentiles(v)} for g, v in groups.items()}
    units = sum(r.attempted for r in rounds)
    work_s = sum(r.seconds for r in rounds)
    timings["runs_per_s"] = {"unit": "1/s", "value": units / work_s}
    accs = [a for r in rounds[:cycle] for a in r.accuracies]
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "mean_acc_pct": (100.0 * statistics.fmean(accs) if accs else 0.0, "%"),
    }
    if any(r.kernel for r in rounds):
        ref_s = reference_seconds([(r.seconds, r.kernel) for r in rounds])
        metrics["runs_per_ref_s"] = (units / sum(ref_s), "1/s")
        timings["speed"] = {"unit": "ratio", "value": work_s and sum(ref_s) / work_s,
                            "kernel_samples": sum(len(r.kernel) for r in rounds),
                            "ref_kernel_ms": 1e3 * REF_KERNEL_S}
    return metrics, timings


def per_layer(tracer, traced, reference_s) -> tuple[dict, dict]:
    """Contract per-layer metrics (per round) and the full per-function table."""
    k = len(traced)
    wall_s = sum(r.seconds for r in traced)
    table = {}
    layer_self: dict = {}
    for layer, names in TRACED.items():
        for fname in names:
            name = f"{layer}.{fname}"
            s = tracer.self_s.get(name, 0.0)
            layer_self[layer] = layer_self.get(layer, 0.0) + s
            table[name] = {"calls": tracer.calls.get(name, 0) / k, "self_ms": 1e3 * s / k}
    for layer, names in COUNTED.items():
        for fname in names:
            table[f"{layer}.{fname}"] = {"calls": tracer.calls.get(f"{layer}.{fname}", 0) / k}
    other_s = wall_s - sum(layer_self.values())
    nn_calls = sum(tracer.calls.get(f"nn.{f}", 0) for f in TRACED["nn"])
    layers = {f"{layer}.self_ms": 1e3 * s / k for layer, s in layer_self.items()}
    layers["other.self_ms"] = 1e3 * other_s / k
    derived = {
        "nn.flops": (tracer.flops / k, "flop"),
        "nn.gflops": (tracer.flops / layer_self["nn"] / 1e9, "GFLOP/s"),
        "nn.us_per_call": (1e6 * layer_self["nn"] / nn_calls, "us"),
        "pairing.pairs": (tracer.pairs / k, "count"),
        "trainers.bank_repeat_frac": (
            tracer.bank_repeats / tracer.bank_calls if tracer.bank_calls else 0.0, "ratio"),
        "data.bytes_written": (tracer.bytes_written / k, "B"),
        "data.bytes_read": (tracer.bytes_read / k, "B"),
        "trace.overhead": (traced[0].seconds / reference_s, "ratio"),
    }
    metrics = {}
    for name, row in table.items():
        metrics[f"{name}.calls"] = (row["calls"], "count")
    for name in CONTRACT_SELF:
        metrics[f"{name}.self_ms"] = (table[name]["self_ms"], "ms")
    for layer in CONTRACT_LAYERS + ("other",):
        metrics[f"{layer}.self_ms"] = (layers[f"{layer}.self_ms"], "ms")
    metrics.update(derived)
    report = {
        "rounds_traced": k,
        "traced_wall_ms": 1e3 * wall_s / k,
        "functions": table,
        "layers": layers,
        "pairing.ns_per_pair": 1e9 * layer_self["pairing"] / tracer.pairs
        if tracer.pairs else None,
        "flops_note": "computed, not measured: 2*B*sum(fan_in*fan_out) per forward, "
                      "twice that per backward; elementwise work not counted",
        "residual_ok": other_s >= 0.0,
    }
    return metrics, report


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import the package, build the inputs and exit (setup probe)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    start = time.perf_counter()
    try:
        fha = import_package()
        import numpy as np

        workdir = WORK / f"{args.workload}-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        wl = WORKLOADS[args.workload](fha, args.seed, workdir)
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot set up the benchmark: {exc}", file=sys.stderr)
        return 2
    own_setup_s = time.perf_counter() - start
    try:
        if args.setup_only:
            return 0
        setup_s, setup_raw_s = probe_setup(args.workload, args.seed)
        tracer = Tracer(fha) if args.trace else None
        rounds, traced, reference_s = run_rounds(wl, args.seconds, tracer)
    finally:
        wl.cleanup()
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    problems = [p for r in rounds for p in r.problems]
    e2e, timings = end_to_end(rounds, len(wl.order), setup_s)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": len(rounds), "program_seeds": [r.program_seed for r in rounds],
        "failed_frac": {"value": failed / attempted, "unit": "ratio"}, "timings": timings,
        "setup_raw_s": setup_raw_s, "own_setup_s": own_setup_s, "env": environment(np),
    }
    if tracer is None:
        metrics = e2e
    else:
        metrics, report["per_layer"] = per_layer(tracer, traced, reference_s)
        tracer.write_spans(WORK / f"trace-{args.workload}.jsonl")
        if not report["per_layer"]["residual_ok"]:
            problems.append("per-layer self times exceed the traced wall time")
    report["problems"] = problems[:20]
    report["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    (WORK / f"report-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n", encoding="utf-8")
    correct = failed == 0 and not problems
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
