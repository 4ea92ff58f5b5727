"""Seeded experiment harness: paired runs, a results stream, summary
tables, and a 2-d embedding export.

The README fixes the results-line schema (File formats) and describes the
one shared run of the generator methods per (seed, n_t), whose failure
costs no method its line (Methods).
"""

from __future__ import annotations

import functools
import json
import logging
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import nn, trainers
from .data import MAX_SHOTS, Dataset, TaskSpec, make_synthetic_task, sample_few_shot
from .errors import ConfigError, FHAError, InsufficientDataError
from .trainers import (
    BaselineConfig,
    SourceTrainConfig,
    TohanConfig,
    METHODS,
)

log = logging.getLogger("fha.harness")

_CSV_BREAKING = frozenset(',"\r\n')  # a method, task or tag holding one would break its CSV row


@dataclass(frozen=True)
class ExperimentConfig:
    """Sub-configs for source fitting, the benchmarks, and adaptation."""

    source: SourceTrainConfig = field(default_factory=SourceTrainConfig)
    baseline: BaselineConfig = field(default_factory=BaselineConfig)
    tohan: TohanConfig = field(default_factory=TohanConfig)


@dataclass(frozen=True)
class RunResult:
    """One (method, task, n_t, seed) outcome."""

    method: str
    task: str
    n_t: int
    seed: int
    accuracy: float | None
    wa_accuracy: float | None
    wall_ms: float
    error: str | None = None


def accuracy(model, test: Dataset) -> float:
    """Fraction of correct argmax predictions; ties pick the lowest index."""
    return trainers.net_accuracy(model.enc, model.cls, test.features, test.labels)


def format_result_line(result: RunResult) -> str:
    """Render one result as a JSON line (17 significant digits)."""
    head = (
        f'{{"method": {json.dumps(result.method)}, "task": {json.dumps(result.task)}, '
        f'"n_t": {result.n_t}, "seed": {result.seed}'
    )
    if result.error is not None:
        return head + f', "error": {json.dumps(result.error)}}}'
    return head + (
        f', "accuracy": {result.accuracy:.17g}'
        f', "wa_accuracy": {result.wa_accuracy:.17g}'
        f', "wall_ms": {result.wall_ms:.3f}}}'
    )


def write_results(path, results) -> None:
    """Append result lines to the file at ``path``, flushing per line."""
    with open(path, "a", encoding="utf-8") as fh:
        for r in results:
            fh.write(format_result_line(r))
            fh.write("\n")
            fh.flush()


def read_results(path):
    """Parse a results file; returns (rows, per-line error messages)."""
    rows, problems = [], []
    with open(path, "rb") as fh:
        for i, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                row = json.loads(line)
                if not isinstance(row, dict):
                    raise ValueError("not a JSON object")
                missing = {"method", "task", "n_t", "seed"} - set(row)
                if missing:
                    raise ValueError(f"missing fields {sorted(missing)}")
                for key in ("method", "task"):
                    if not isinstance(row[key], str):
                        raise ValueError(f"{key} is not a string")
                    if _CSV_BREAKING.intersection(row[key]):
                        raise ValueError(f"{key} holds a comma, quote or line break")
                for key in ("n_t", "seed"):
                    if type(row[key]) is not int:  # bool is rejected too
                        raise ValueError(f"{key} is not an integer")
                if not 1 <= row["n_t"] <= MAX_SHOTS:
                    raise ValueError(f"n_t is not in 1..{MAX_SHOTS}")
                if row["seed"] < 0:
                    raise ValueError("seed is negative")
                if row.get("error") is None:
                    if "accuracy" not in row or "wa_accuracy" not in row:
                        raise ValueError("missing accuracy fields")
                    for key in ("accuracy", "wa_accuracy"):
                        if type(row[key]) not in (int, float) or not 0.0 <= row[key] <= 1.0:
                            raise ValueError(f"{key} is not a number in [0, 1]")
            except UnicodeDecodeError:
                problems.append(f"line {i}: not UTF-8")
                continue
            except (ValueError, RecursionError) as exc:
                problems.append(f"line {i}: {exc}")
                continue
            rows.append(row)
    return rows, problems


# ---------------------------------------------------------------------------
# experiment driver


def _method_model(method: str, hypothesis, fewshot, baseline: BaselineConfig,
                  tohan_cfg: TohanConfig, shared=lambda: None):
    """Train one method. A generator method takes its model from
    ``shared()``, the (seed, n_t)'s shared models, or when that is None
    runs its own trainer."""
    if method == "wa":
        return hypothesis
    if method == "ft":
        return trainers.train_ft(hypothesis, fewshot, baseline)
    if method == "shot":
        return trainers.train_shot(hypothesis, fewshot, baseline)
    models = shared()
    if models is not None:
        return models[method]
    if method == "tohan":
        return trainers.train_tohan(hypothesis, fewshot, tohan_cfg)
    return trainers.run_two_step(method, hypothesis, fewshot, tohan_cfg)


def _shared_run(methods, hypothesis, fewshot, tohan_cfg: TohanConfig, source_bank: dict):
    """A lazy, memoized run of the generator methods among ``methods``: one
    generator run, then one stacked adaptation of them all. Returns their
    models, or None if either step raises; the failure is logged once, an
    exception that is not an FHAError with its traceback. ``source_bank``
    holds the seed's source_only bank, the same for every n_t: a run that
    trains it keeps it there, and a run that finds it there reuses it."""
    gen_methods = [m for m in methods if m in trainers.GENERATOR_METHODS]

    @functools.cache
    def shared():
        try:
            fresh = [m for m in gen_methods if m != "sfada" or not source_bank]
            banks, kept = trainers.generate(hypothesis, fewshot, fresh, tohan_cfg)
            if "source_only" in banks:
                source_bank["source_only"] = banks["source_only"]
            banks.update(source_bank)
            return trainers.adapt_generated(gen_methods, (banks, kept), hypothesis, fewshot,
                                            tohan_cfg)
        except Exception as exc:
            log.warning("shared run failed, methods run alone: %s", exc,
                        exc_info=None if isinstance(exc, FHAError) else exc)
            return None

    return shared


def _failure(exc: Exception, what: str) -> str:
    """Log a failure and return its error message: an FHAError's own message,
    or any other exception's type and message, logged with its traceback."""
    expected = isinstance(exc, FHAError)
    message = str(exc) if expected else f"{type(exc).__name__}: {exc}"
    log.error("%s failed: %s", what, message, exc_info=None if expected else exc)
    return message


def _error_results(task_name, methods, shots, seed, message):
    return [
        RunResult(method=m, task=task_name, n_t=n_t, seed=seed, accuracy=None,
                  wa_accuracy=None, wall_ms=0.0, error=message)
        for n_t in shots for m in methods
    ]


def _run_seed(task: TaskSpec, methods, shots, seed: int,
              cfg: ExperimentConfig) -> list[RunResult]:
    """All (method, n_t) runs of one experiment seed, sharing one source
    hypothesis and one few-shot draw per n_t (the paired design), and one
    generator run and one stacked adaptation per n_t for the generator
    methods. An exception in one run becomes its error record."""
    data_seed, source_seed, fewshot_seed, method_seed = nn.derive_seeds(seed, 4)
    try:
        source, target, target_test = make_synthetic_task(replace(task, seed=data_seed))
        hypothesis = trainers.train_source(source, replace(cfg.source, seed=source_seed))
        wa_acc = accuracy(hypothesis, target_test)
    except Exception as exc:
        return _error_results(task.name, methods, shots, seed,
                              _failure(exc, f"seed {seed} setup"))
    tohan_cfg = replace(cfg.tohan, seed=method_seed)
    results, source_bank = [], {}
    for n_t in shots:
        try:
            fewshot = sample_few_shot(target, n_t, fewshot_seed)
        except Exception as exc:
            message = _failure(exc, f"n_t={n_t}/seed={seed} few-shot draw")
            results.extend(_error_results(task.name, methods, [n_t], seed, message))
            continue
        shared = _shared_run(methods, hypothesis, fewshot, tohan_cfg, source_bank)
        for method in methods:
            start = time.perf_counter()
            acc, error = None, None
            try:
                model = _method_model(method, hypothesis, fewshot, cfg.baseline, tohan_cfg,
                                      shared)
                acc = accuracy(model, target_test)
            except Exception as exc:
                error = _failure(exc, f"run {method}/n_t={n_t}/seed={seed}")
            wall_ms = (time.perf_counter() - start) * 1e3
            results.append(RunResult(
                method=method, task=task.name, n_t=n_t, seed=seed, accuracy=acc,
                wa_accuracy=None if error is not None else wa_acc, wall_ms=wall_ms, error=error,
            ))
            if error is None:
                log.info("%s n_t=%d seed=%d accuracy=%.4f", method, n_t, seed, acc)
    return results


def _check_grid(methods, shots, seeds, jobs):
    """The checked grid of run_experiment: (methods, shots, seeds) as lists,
    shots, seeds and jobs as ints, or a ConfigError."""
    methods = list(methods)
    shots = [nn._as_int(s, "shots") for s in shots]
    seeds = [nn._as_int(s, "seeds") for s in seeds]
    jobs = nn._as_int(jobs, "jobs")
    if not methods or not shots or not seeds:
        raise ConfigError("methods, shots, and seeds must be non-empty")
    unknown = [m for m in methods if m not in METHODS]  # a config may hold unhashable entries
    if unknown:
        raise ConfigError(f"unknown methods {unknown}; known: {list(METHODS)}")
    for name, values in (("methods", methods), ("shots", shots), ("seeds", seeds)):
        if len(set(values)) != len(values):
            raise ConfigError(f"{name} must be distinct")
    if min(seeds) < 0:
        raise ConfigError("seeds must be non-negative")
    if jobs < 1:
        raise ConfigError("jobs must be positive")
    return methods, shots, seeds, jobs


def _run_pool(task: TaskSpec, methods, shots, seeds, cfg: ExperimentConfig, jobs: int,
              finish) -> None:
    """Run the seeds in ``jobs`` worker processes, calling ``finish(seed,
    results)`` as each seed completes.

    A worker that dies breaks its pool and takes every unfinished seed with
    it. Those seeds run again one by one, each in a fresh one-worker pool,
    so only a seed whose own worker dies gets error records. The pool is
    imported here, so a run with one job never loads it.
    """
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    def collect(fut, seed):
        try:
            chunk = fut.result()
        except Exception as exc:  # the worker died, or could not send its results back
            chunk = _error_results(task.name, methods, shots, seed,
                                   _failure(exc, f"seed {seed} worker"))
        finish(seed, chunk)

    cut = []
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        pending = {
            pool.submit(_run_seed, task, methods, shots, seed, cfg): seed
            for seed in seeds
        }
        while pending:
            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            for fut in done:
                seed = pending.pop(fut)
                if isinstance(fut.exception(), BrokenProcessPool):
                    cut.append(seed)
                else:
                    collect(fut, seed)
    if cut:
        cut.sort(key=seeds.index)
        log.warning("a worker died; rerunning seeds %s, each in a fresh worker", cut)
    for seed in cut:
        with ProcessPoolExecutor(max_workers=1) as pool:
            collect(pool.submit(_run_seed, task, methods, shots, seed, cfg), seed)


def run_experiment(task: TaskSpec, methods, shots, seeds, cfg: ExperimentConfig,
                   sink=None, jobs: int = 1) -> list[RunResult]:
    """Run every (method, n_t, seed) combination of one task.

    The source hypothesis and few-shot sets are shared per seed across
    methods, so method comparisons are paired. Run errors become error
    records in the stream instead of aborting the batch. ``sink``, a path,
    receives each seed's result lines as they complete; with ``jobs`` > 1,
    seeds run in worker processes, at most one per seed (results are still
    deterministic, the sink order follows completion).
    """
    methods, shots, seeds, jobs = _check_grid(methods, shots, seeds, jobs)
    jobs = min(jobs, len(seeds))  # a pool starts all its workers at once

    per_seed: dict[int, list[RunResult]] = {}

    def finish(seed, chunk):
        per_seed[seed] = chunk
        if sink is not None:
            write_results(sink, chunk)

    if jobs == 1:
        for seed in seeds:
            finish(seed, _run_seed(task, methods, shots, seed, cfg))
    else:
        _run_pool(task, methods, shots, seeds, cfg, jobs, finish)
    return [r for seed in seeds for r in per_seed[seed]]


# ---------------------------------------------------------------------------
# summaries


@dataclass(frozen=True)
class SummaryRow:
    method: str
    n_t: int
    mean: float
    std: float | None
    count: int


@dataclass(frozen=True)
class SummaryTable:
    """Per-(method, n_t) accuracy means over seeds, as percentages."""

    rows: tuple[SummaryRow, ...]

    def row(self, method: str, n_t: int) -> SummaryRow:
        for r in self.rows:
            if r.method == method and r.n_t == n_t:
                return r
        raise KeyError((method, n_t))

    def cell(self, method: str, n_t: int) -> str:
        r = self.row(method, n_t)
        if r.std is None:
            return f"{100.0 * r.mean:.1f}±n/a"
        return f"{100.0 * r.mean:.1f}±{100.0 * r.std:.1f}"

    def to_csv(self) -> str:
        lines = ["method,n_t,mean_pct,std_pct,seeds"]
        for r in self.rows:
            std = "" if r.std is None else f"{100.0 * r.std:.1f}"
            lines.append(f"{r.method},{r.n_t},{100.0 * r.mean:.1f},{std},{r.count}")
        return "\n".join(lines) + "\n"

    def render(self) -> str:
        shots = sorted({r.n_t for r in self.rows})
        methods = list(dict.fromkeys(r.method for r in self.rows))
        width = max([len("method")] + [len(m) for m in methods]) + 2
        header = "method".ljust(width) + "".join(f"n_t={s}".ljust(12) for s in shots)
        lines = [header]
        for m in methods:
            cells = []
            for s in shots:
                try:
                    cells.append(self.cell(m, s).ljust(12))
                except KeyError:
                    cells.append("-".ljust(12))
            lines.append(m.ljust(width) + "".join(cells))
        return "\n".join(lines) + "\n"


def _method_order(name: str) -> tuple:
    try:
        return (0, METHODS.index(name))
    except ValueError:
        return (1, name)


def summarize(results) -> SummaryTable:
    """Aggregate accuracies into mean/std (sample std, n-1) per method+n_t.

    Accepts RunResult objects or parsed result rows; error records are
    skipped. A single seed leaves std as None (rendered as a marker).
    """
    groups: dict[tuple[str, int], list[float]] = {}
    skipped = 0
    for r in results:
        row = r if isinstance(r, dict) else {
            "method": r.method, "n_t": r.n_t, "accuracy": r.accuracy,
            "error": r.error,
        }
        if row.get("error") is not None or row.get("accuracy") is None:
            skipped += 1
            continue
        groups.setdefault((str(row["method"]), int(row["n_t"])), []).append(
            float(row["accuracy"])
        )
    if not groups:
        raise InsufficientDataError("no successful runs to summarize")
    if skipped:
        log.info("summarize skipped %d error records", skipped)
    rows = []
    for (method, n_t) in sorted(groups, key=lambda k: (_method_order(k[0]), k[1])):
        vals = np.asarray(groups[(method, n_t)], dtype=np.float64)
        std = float(np.std(vals, ddof=1)) if vals.size > 1 else None
        rows.append(SummaryRow(method=method, n_t=n_t, mean=float(np.mean(vals)),
                               std=std, count=int(vals.size)))
    return SummaryTable(rows=tuple(rows))


# ---------------------------------------------------------------------------
# embedding export


@dataclass(frozen=True)
class EmbeddingTable:
    """2-d coordinates per sample with label and domain tags."""

    x: np.ndarray
    y: np.ndarray
    labels: np.ndarray
    domains: tuple[str, ...]
    degenerate: bool

    def to_csv(self) -> str:
        lines = ["x,y,label,domain"] + [
            f"{self.x[i]:.17g},{self.y[i]:.17g},{int(self.labels[i])},{self.domains[i]}"
            for i in range(self.x.size)]
        return "\n".join(lines) + "\n"


def dump_embedding(model, datasets) -> EmbeddingTable:
    """Project encoder outputs of tagged datasets onto their top-2 principal
    directions.

    ``datasets`` is a sequence of (domain_tag, Dataset). Component signs are
    fixed (largest-magnitude loading positive) so output is deterministic.
    A zero-variance or rank-deficient embedding cloud falls back to the
    first two embedding dimensions, flagged via ``degenerate``.
    """
    enc = model if isinstance(model, nn.Net) else model.enc
    if enc.arch.out_width < 2:
        raise ConfigError("embedding export needs an encoder output width of at least 2")
    datasets = list(datasets)
    if not datasets or all(ds.n == 0 for _, ds in datasets):
        raise InsufficientDataError("no samples to embed")
    blocks, labels, domains = [], [], []
    for tag, ds in datasets:
        blocks.append(enc(ds.features.astype(np.float64)))
        labels.append(ds.labels)
        domains.extend([str(tag)] * ds.n)
    emb = np.concatenate(blocks)
    labels = np.concatenate(labels)
    centered = emb - emb.mean(axis=0)
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    degenerate = (
        emb.shape[0] < 2 or svals.size < 2 or svals[0] < 1e-12
        or svals[1] < 1e-12 * svals[0]
    )
    if degenerate:
        coords = emb[:, :2]
    else:
        comps = vt[:2].copy()
        for k in range(2):
            j = int(np.argmax(np.abs(comps[k])))
            if comps[k, j] < 0:
                comps[k] = -comps[k]
        coords = centered @ comps.T
    return EmbeddingTable(
        x=coords[:, 0].copy(), y=coords[:, 1].copy(), labels=labels,
        domains=tuple(domains), degenerate=degenerate,
    )
