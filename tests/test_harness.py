"""Tests for fha.harness: the results stream, the paired experiment driver,
summary tables, and the embedding export.

The summary oracle is hand-computed: accuracies {0.876, 0.877, 0.878} have
mean 0.877 and sample standard deviation 0.001, so the rendered cell must be
"87.7±0.1".
"""

import concurrent.futures
import functools
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fha import cli, harness, nn, trainers
from fha.data import (
    Dataset,
    TaskSpec,
    builtin_task,
    make_synthetic_task,
    sample_few_shot,
)
from fha.errors import ConfigError, InsufficientDataError, NumericalError
from fha.harness import (
    EmbeddingTable,
    ExperimentConfig,
    RunResult,
    dump_embedding,
    format_result_line,
    read_results,
    run_experiment,
    summarize,
    write_results,
)
from fha.pairing import LabeledPool
from fha.trainers import BaselineConfig, SourceTrainConfig, TohanConfig


def _result(**overrides):
    base = dict(method="ft", task="toy", n_t=3, seed=1, accuracy=1 / 3,
                wa_accuracy=0.25, wall_ms=12.3456)
    base.update(overrides)
    return RunResult(**base)


def _tiny_task(separable=True):
    if separable:
        means, scales = ((0.3, 0.3), (0.7, 0.7)), (0.05, 0.05)
    else:
        means, scales = ((0.5, 0.5), (0.5, 0.5)), (0.2, 0.2)
    return TaskSpec(
        name="toy", num_classes=2, dim=2, class_means=means,
        class_scales=scales, rotation_deg=20.0,
        source_per_class=40, target_per_class=20, test_per_class=15, seed=0,
    )


def _tiny_cfg():
    return ExperimentConfig(
        source=SourceTrainConfig(epochs=100, batch_size=32, encoder_width=8),
        baseline=BaselineConfig(epochs=15),
        tohan=TohanConfig(gen_batch=4, per_group=2, z_dim=3,
                          gen_hidden=4, disc_hidden=4, total_epochs=6,
                          disc_pretrain_epochs=2, adapt_epochs=3),
    )


@pytest.fixture(scope="module")
def tiny_results():
    return run_experiment(
        _tiny_task(), trainers.METHODS, [1, 2], [0, 1], _tiny_cfg()
    )


class TestResultLines:
    def test_success_line_layout(self):
        line = format_result_line(_result())
        row = json.loads(line)
        assert list(row) == ["method", "task", "n_t", "seed",
                             "accuracy", "wa_accuracy", "wall_ms"]
        assert row["method"] == "ft" and row["task"] == "toy"
        assert row["n_t"] == 3 and row["seed"] == 1

    def test_accuracy_survives_parsing_exactly(self):
        # 17 significant digits round-trip any 64-bit float
        acc = 1 / 3
        row = json.loads(format_result_line(_result(accuracy=acc)))
        assert row["accuracy"] == acc

    def test_error_line_keeps_ids_and_drops_accuracies(self):
        line = format_result_line(_result(
            accuracy=None, wa_accuracy=None, error="pool too small"
        ))
        row = json.loads(line)
        assert row["error"] == "pool too small"
        assert "accuracy" not in row and "wall_ms" not in row
        assert row["method"] == "ft" and row["seed"] == 1

    def test_wall_ms_millisecond_precision(self):
        row = json.loads(format_result_line(_result(wall_ms=12.34567)))
        assert row["wall_ms"] == 12.346


class TestResultsIO:
    def test_write_appends_to_path(self, tmp_path):
        path = tmp_path / "results.jsonl"
        write_results(path, [_result(seed=0)])
        write_results(path, [_result(seed=1)])
        rows, problems = read_results(path)
        assert problems == []
        assert [r["seed"] for r in rows] == [0, 1]

    def test_write_one_line_per_result(self, tmp_path):
        path = tmp_path / "results.jsonl"
        write_results(path, [_result(), _result(seed=2)])
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        assert json.loads(lines[1])["seed"] == 2

    def test_read_collects_problems_and_keeps_good_rows(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        good = format_result_line(_result())

        def bad(**fields):
            return json.dumps({**json.loads(good), **fields})

        path.write_text(
            "\n".join([
                good,
                "not json at all",
                "[1, 2, 3]",
                '{"method": "ft", "task": "toy"}',
                '{"method": "ft", "task": "toy", "n_t": 1, "seed": 0}',
                "",
                good,
                bad(n_t="x"),
                bad(seed=True),
                bad(accuracy="abc"),
                bad(accuracy=float("nan")),
                bad(wa_accuracy=1.5),
                bad(n_t=-4),
                bad(n_t=0),
                bad(n_t=8),
                bad(seed=-1),
                bad(n_t=7, seed=0),
                bad(method=5),
                bad(method=None),
                bad(task=["toy"]),
            ]) + "\n",
            encoding="utf-8",
        )
        rows, problems = read_results(path)
        assert len(rows) == 3
        assert len(problems) == 16
        assert problems[0].startswith("line 2:")
        assert "missing fields" in problems[2]
        assert "missing accuracy fields" in problems[3]
        assert problems[4] == "line 8: n_t is not an integer"
        assert problems[5] == "line 9: seed is not an integer"
        assert problems[6] == "line 10: accuracy is not a number in [0, 1]"
        assert problems[7] == "line 11: accuracy is not a number in [0, 1]"
        assert problems[8] == "line 12: wa_accuracy is not a number in [0, 1]"
        assert problems[9] == "line 13: n_t is not in 1..7"
        assert problems[10] == "line 14: n_t is not in 1..7"
        assert problems[11] == "line 15: n_t is not in 1..7"
        assert problems[12] == "line 16: seed is negative"
        assert problems[13:] == ["line 18: method is not a string",
                                 "line 19: method is not a string",
                                 "line 20: task is not a string"]
        assert rows[2]["n_t"] == 7

    @pytest.mark.parametrize("key", ["method", "task"])
    def test_csv_breaking_names_are_problems(self, tmp_path, key):
        path = tmp_path / "names.jsonl"
        good = json.loads(format_result_line(_result()))
        names = ("a,b", 'a"b', "a\nb", "a\rb", "a b;c'd")
        path.write_text("".join(json.dumps({**good, key: name}) + "\n" for name in names),
                        encoding="utf-8")
        rows, problems = read_results(path)
        assert [r[key] for r in rows] == ["a b;c'd"]
        assert problems == [f"line {i}: {key} holds a comma, quote or line break"
                            for i in range(1, 5)]

    def test_non_utf8_line_is_a_problem(self, tmp_path):
        path = tmp_path / "bytes.jsonl"
        good = format_result_line(_result()).encode("utf-8")
        path.write_bytes(good + b"\n\xff\xfe\x00bad\n" + good + b"\n")
        rows, problems = read_results(path)
        assert len(rows) == 2
        assert problems == ["line 2: not UTF-8"]

    def test_deeply_nested_line_is_a_problem(self, tmp_path):
        path = tmp_path / "deep.jsonl"
        good = format_result_line(_result())
        path.write_text("\n".join([good, "[" * 100_000 + "]" * 100_000, good]) + "\n",
                        encoding="utf-8")
        rows, problems = read_results(path)
        assert len(rows) == 2
        assert len(problems) == 1 and problems[0].startswith("line 2: maximum recursion depth")

    def test_error_rows_parse_without_accuracies(self, tmp_path):
        path = tmp_path / "err.jsonl"
        write_results(path, [_result(accuracy=None, wa_accuracy=None, error="boom")])
        rows, problems = read_results(path)
        assert problems == []
        assert rows[0]["error"] == "boom"

    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_corrupted_bytes_never_raise(self, tmp_path, data):
        path = tmp_path / "results.jsonl"
        path.unlink(missing_ok=True)  # one tmp_path serves every example
        write_results(path, [_result(seed=0), _result(method="wa", n_t=7, seed=2),
                             _result(accuracy=None, wa_accuracy=None, error="boom")])
        blob = bytearray(path.read_bytes())
        flips = data.draw(st.lists(st.tuples(st.integers(0, len(blob) - 1),
                                             st.integers(1, 255)), max_size=4))
        for pos, mask in flips:
            blob[pos] ^= mask
        path.write_bytes(bytes(blob[:data.draw(st.integers(0, len(blob)))]))
        rows, problems = read_results(path)
        assert all(isinstance(p, str) and p.startswith("line ") for p in problems)
        for row in rows:
            assert type(row["n_t"]) is int and 1 <= row["n_t"] <= 7
            assert type(row["seed"]) is int and row["seed"] >= 0
            if row.get("error") is None:
                assert 0.0 <= row["accuracy"] <= 1.0 and 0.0 <= row["wa_accuracy"] <= 1.0


class TestRunExperimentValidation:
    def test_rejects_empty_dimensions(self):
        task, cfg = _tiny_task(), _tiny_cfg()
        with pytest.raises(ConfigError):
            run_experiment(task, [], [1], [0], cfg)
        with pytest.raises(ConfigError):
            run_experiment(task, ["wa"], [], [0], cfg)
        with pytest.raises(ConfigError):
            run_experiment(task, ["wa"], [1], [], cfg)

    def test_rejects_unknown_method(self):
        with pytest.raises(ConfigError, match="unknown methods"):
            run_experiment(_tiny_task(), ["wa", "nope"], [1], [0], _tiny_cfg())

    def test_rejects_duplicate_seeds(self):
        with pytest.raises(ConfigError, match="distinct"):
            run_experiment(_tiny_task(), ["wa"], [1], [0, 0], _tiny_cfg())

    def test_rejects_duplicate_methods(self):
        # one (wa, 1, 0) run written twice would read as two seeds with std 0
        with pytest.raises(ConfigError, match="^methods must be distinct$"):
            run_experiment(_tiny_task(), ["wa", "ft", "wa"], [1], [0], _tiny_cfg())

    def test_rejects_duplicate_shots(self):
        with pytest.raises(ConfigError, match="^shots must be distinct$"):
            run_experiment(_tiny_task(), ["wa"], [1, 2, np.int64(1)], [0], _tiny_cfg())

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_rejects_negative_seeds(self, jobs):
        with pytest.raises(ConfigError, match="non-negative"):
            run_experiment(_tiny_task(), ["wa"], [1], [-1], _tiny_cfg(), jobs=jobs)
        with pytest.raises(ConfigError, match="non-negative"):
            run_experiment(_tiny_task(), ["wa"], [1], [0, -1], _tiny_cfg(), jobs=jobs)

    @pytest.mark.parametrize("shots,seeds,jobs", [
        ([1.5], [0], 1),
        ([1], [0.0], 1),
        ([1], ["0"], 1),
        ([True], [0], 1),
        ([1], [0], "2"),
        ([1], [0], 2.0),
    ], ids=repr)
    def test_rejects_non_integers(self, shots, seeds, jobs):
        with pytest.raises(ConfigError, match="must be an integer"):
            run_experiment(_tiny_task(), ["wa"], shots, seeds, _tiny_cfg(), jobs=jobs)

    def test_accepts_numpy_integers(self):
        results = run_experiment(_tiny_task(), ["wa"], [np.int64(1)], [np.int32(0)],
                                 _tiny_cfg(), jobs=np.int64(1))
        assert [(r.n_t, r.seed) for r in results] == [(1, 0)]
        assert all(type(v) is int for r in results for v in (r.n_t, r.seed))

    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ConfigError, match="jobs"):
            run_experiment(_tiny_task(), ["wa"], [1], [0], _tiny_cfg(), jobs=0)

    @pytest.mark.parametrize("jobs,seeds,workers", [(64, [0, 1], [2]), (2, [0, 1, 2], [2]),
                                                    (8, [0], [])])
    def test_pool_has_at_most_one_worker_per_seed(self, monkeypatch, jobs, seeds, workers):
        # a recorder stands in for the process pool, so no process is started
        recorded = []

        def executor(max_workers):
            recorded.append(max_workers)
            return concurrent.futures.ThreadPoolExecutor(max_workers=1)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", executor)
        results = run_experiment(_tiny_task(), ["wa"], [1], seeds, _tiny_cfg(), jobs=jobs)
        assert recorded == workers
        assert [r.seed for r in results] == seeds


class TestRunExperiment:
    def test_covers_every_combination(self, tiny_results):
        combos = {(r.method, r.n_t, r.seed) for r in tiny_results}
        assert combos == {
            (m, n_t, s)
            for m in trainers.METHODS for n_t in (1, 2) for s in (0, 1)
        }
        assert all(r.error is None for r in tiny_results)
        assert all(r.task == "toy" for r in tiny_results)
        assert all(r.wall_ms >= 0.0 for r in tiny_results)

    def test_paired_design_shares_source_model(self, tiny_results):
        # one hypothesis per seed: every record of a seed carries the same
        # wa_accuracy, and wa itself reports exactly that number for each n_t
        for seed in (0, 1):
            chunk = [r for r in tiny_results if r.seed == seed]
            assert len({r.wa_accuracy for r in chunk}) == 1
            for r in chunk:
                if r.method == "wa":
                    assert r.accuracy == r.wa_accuracy

    def test_rerun_is_bit_identical(self, tiny_results):
        again = run_experiment(
            _tiny_task(), trainers.METHODS, [1, 2], [0, 1], _tiny_cfg()
        )
        key = lambda r: (r.method, r.n_t, r.seed)
        a = {key(r): r.accuracy for r in tiny_results}
        b = {key(r): r.accuracy for r in again}
        assert a == b

    def test_parallel_jobs_match_serial(self, tiny_results):
        parallel = run_experiment(
            _tiny_task(), trainers.METHODS, [1, 2], [0, 1], _tiny_cfg(), jobs=2
        )
        key = lambda r: (r.method, r.n_t, r.seed)
        assert {key(r): r.accuracy for r in parallel} == {
            key(r): r.accuracy for r in tiny_results
        }
        # the returned list is ordered by the seeds argument regardless of
        # completion order
        assert [r.seed for r in parallel] == sorted(
            [r.seed for r in parallel]
        )

    def test_sink_receives_every_line(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        results = run_experiment(
            _tiny_task(), ["wa", "ft"], [1], [0, 1], _tiny_cfg(), sink=path
        )
        rows, problems = read_results(path)
        assert problems == []
        assert len(rows) == len(results) == 4
        by_key = {(r["method"], r["n_t"], r["seed"]): r for r in rows}
        for res in results:
            row = by_key[(res.method, res.n_t, res.seed)]
            assert row["accuracy"] == res.accuracy

    def test_oversized_shot_budget_becomes_error_records(self):
        results = run_experiment(
            _tiny_task(), ["wa", "ft"], [1, 8], [0], _tiny_cfg()
        )
        good = [r for r in results if r.error is None]
        bad = [r for r in results if r.error is not None]
        assert {r.n_t for r in good} == {1}
        assert {r.n_t for r in bad} == {8}
        assert {r.method for r in bad} == {"wa", "ft"}
        assert all(r.accuracy is None for r in bad)

    def test_setup_failure_marks_whole_seed(self):
        # overlapping classes cannot clear the source quality gate, so every
        # (method, n_t) of the seed becomes an error record
        results = run_experiment(
            _tiny_task(separable=False), ["wa", "ft"], [1], [0], _tiny_cfg()
        )
        assert len(results) == 2
        assert all(r.error is not None for r in results)
        assert all("gate" in r.error for r in results)
        assert all(r.wall_ms == 0.0 for r in results)
        with pytest.raises(InsufficientDataError):
            summarize(results)


def _line(r):
    """A result line without its wall time."""
    return (r.method, r.task, r.n_t, r.seed, r.accuracy, r.wa_accuracy, r.error)


def _ring6_task():
    means = tuple((0.8 * math.cos(math.radians(90.0 + 60.0 * k)),
                   0.8 * math.sin(math.radians(90.0 + 60.0 * k))) for k in range(6))
    return TaskSpec(name="ring6", num_classes=6, dim=2, class_means=means,
                    class_scales=(0.8 / 6,) * 6, rotation_deg=30.0,
                    source_per_class=40, target_per_class=20, test_per_class=10, seed=0)


SHARED_TASKS = {"rot40": lambda: builtin_task("rot40"), "ring6": _ring6_task}
GENERATOR_METHODS = ("sfada", "tfada", "stfada", "tohan")
METHOD_SEED = 13


@functools.lru_cache(maxsize=None)
def _shared_setup(task_name, n_t, tradeoff, adapt_epochs=4, disc_pretrain_epochs=2):
    """A source hypothesis, a few-shot draw, an experiment config, and the
    final parameters of every generator method from a direct trainer call."""
    source, target, _ = make_synthetic_task(SHARED_TASKS[task_name]())
    hyp = trainers.train_source(source, SourceTrainConfig(epochs=10, min_test_accuracy=0.0))
    fewshot = sample_few_shot(target, n_t, 3)
    cfg = ExperimentConfig(
        baseline=BaselineConfig(epochs=5),
        tohan=TohanConfig(tradeoff=tradeoff, gen_batch=6, per_group=3, z_dim=4,
                          gen_hidden=8, disc_hidden=8, total_epochs=12,
                          disc_pretrain_epochs=disc_pretrain_epochs,
                          adapt_epochs=adapt_epochs),
    )
    tohan_cfg = replace(cfg.tohan, seed=METHOD_SEED)
    direct = {m: trainers.run_two_step(m, hyp, fewshot, tohan_cfg)
              for m in trainers.TWO_STEP_MODES}
    direct["tohan"] = trainers.train_tohan(hyp, fewshot, tohan_cfg)
    return hyp, fewshot, cfg, {m: _model_bytes(model) for m, model in direct.items()}


def _model_bytes(model):
    return model.enc.params.tobytes(), model.cls.params.tobytes()


SHARED_GRID = [(task, n_t, tradeoff) for task in SHARED_TASKS
               for n_t in (1, 3) for tradeoff in (0.2, 0.0)]


def _inject(monkeypatch, fails, error=NumericalError):
    """Make every generator run whose modes satisfy ``fails`` raise ``error``;
    returns the modes of every generator run started."""
    run_generators, started = trainers._run_generators, []

    def run(hypothesis, fewshot, modes, *args, **kwargs):
        started.append(modes)
        if fails(modes):
            raise error(f"injected divergence in {'+'.join(modes)}")
        return run_generators(hypothesis, fewshot, modes, *args, **kwargs)

    monkeypatch.setattr(trainers, "_run_generators", run)
    return started


# the generator blocks each method subset reads, in block order
SUBSET_MODES = {("tohan",): ("combined",), ("tfada",): ("target_only",),
                ("sfada", "tohan"): ("source_only", "combined"),
                trainers.METHODS: ("source_only", "target_only", "combined")}


class TestSharedGenerators:
    @pytest.mark.parametrize("methods", list(SUBSET_MODES), ids=",".join)
    @pytest.mark.parametrize("task,n_t,tradeoff", SHARED_GRID)
    def test_methods_match_direct_calls(self, monkeypatch, task, n_t, tradeoff, methods):
        hyp, fewshot, cfg, direct = _shared_setup(task, n_t, tradeoff)
        started = _inject(monkeypatch, lambda modes: False)
        tohan_cfg = replace(cfg.tohan, seed=METHOD_SEED)
        shared = harness._shared_run(methods, hyp, fewshot, tohan_cfg, {})
        for method in methods:
            model = harness._method_model(method, hyp, fewshot, cfg.baseline, tohan_cfg, shared)
            if method in direct:
                assert _model_bytes(model) == direct[method], method
            else:
                unshared = harness._method_model(method, hyp, fewshot, cfg.baseline, tohan_cfg)
                assert _model_bytes(model) == _model_bytes(unshared), method
        # one generator run, with one block per objective the methods read
        assert started == [SUBSET_MODES[methods]]

    @pytest.mark.parametrize("task,n_t,tradeoff", SHARED_GRID)
    def test_blocks_match_one_mode_runs(self, task, n_t, tradeoff):
        hyp, fewshot, cfg, _ = _shared_setup(task, n_t, tradeoff)
        tohan_cfg = cfg.tohan
        modes = ("combined", "source_only", "target_only")
        keep = dict.fromkeys(modes, 3)
        banks, kept = trainers._run_generators(hyp, fewshot, modes, tohan_cfg, 5, 9, keep)
        for mode in modes:
            alone_banks, alone_kept = trainers._run_generators(
                hyp, fewshot, (mode,), tohan_cfg, 5, 9, {mode: 3})
            bank = trainers.train_generator_bank(hyp, fewshot, mode, tohan_cfg,
                                                 seed=5, epochs=9)
            assert banks[mode].params.tobytes() == bank.params.tobytes(), mode
            assert banks[mode].params.tobytes() == alone_banks[mode].params.tobytes()
            assert len(kept[mode]) == len(alone_kept[mode]) == 3
            for got, want in zip(kept[mode], alone_kept[mode]):
                assert got.tobytes() == want.tobytes(), mode

    def test_zero_adapt_epochs_generates_for_tohan_only(self, monkeypatch):
        hyp, fewshot, cfg, _ = _shared_setup("rot40", 1, 0.2)
        cfg = replace(cfg, tohan=replace(cfg.tohan, adapt_epochs=0))
        started = _inject(monkeypatch, lambda modes: False)
        tohan_cfg = replace(cfg.tohan, seed=METHOD_SEED)
        shared = harness._shared_run(trainers.METHODS, hyp, fewshot, tohan_cfg, {})
        for method in GENERATOR_METHODS:
            model = harness._method_model(method, hyp, fewshot, cfg.baseline, tohan_cfg, shared)
            assert model.enc is hyp.enc and model.cls is hyp.cls
        assert started == [("combined",)]


# (tradeoff, adapt_epochs, disc_pretrain_epochs) of the default schedule and its edges
ADAPT_VARIANTS = {"default": (0.2, 4, 2), "tradeoff0": (0.0, 4, 2),
                  "adapt0": (0.2, 0, 2), "pretrain0": (0.2, 4, 0)}


def _spy_adapt(monkeypatch):
    """Record the block count of every _adapt run."""
    adapt, blocks = trainers._adapt, []

    def spy(stack, *args):
        blocks.append(len(stack))
        return adapt(stack, *args)

    monkeypatch.setattr(trainers, "_adapt", spy)
    return blocks


class TestSharedAdaptation:
    @pytest.mark.parametrize("methods", [("tohan",), ("sfada", "tohan"), GENERATOR_METHODS],
                             ids=",".join)
    @pytest.mark.parametrize("variant", list(ADAPT_VARIANTS))
    @pytest.mark.parametrize("task,n_t", [(task, n_t) for task in SHARED_TASKS
                                          for n_t in (1, 7)])
    def test_blocks_equal_single_method_runs(self, monkeypatch, task, n_t, variant, methods):
        hyp, fewshot, cfg, direct = _shared_setup(task, n_t, *ADAPT_VARIANTS[variant])
        tohan_cfg = replace(cfg.tohan, seed=METHOD_SEED)
        gen_log = []
        run = trainers.generate(hyp, fewshot, methods, tohan_cfg, gen_log)
        stacked = {method: [] for method in methods}
        blocks = _spy_adapt(monkeypatch)
        models = trainers.adapt_generated(methods, run, hyp, fewshot, tohan_cfg,
                                          traces=stacked, gen_log=gen_log)
        # one stacked run; a two-step method at adapt_epochs 0 keeps the source nets
        adapting = [m for m in methods if m == "tohan" or tohan_cfg.adapt_epochs > 0]
        assert blocks == [len(adapting)]
        assert list(models) == list(methods)
        for method in methods:
            assert _model_bytes(models[method]) == direct[method], method
            alone = []
            trainers.adapt_generated([method], run, hyp, fewshot, tohan_cfg,
                                     traces={method: alone}, gen_log=gen_log)
            assert stacked[method] == alone, method
            assert bool(alone) == (method == "tohan" or tohan_cfg.adapt_epochs > 0)


def _poison_pools(monkeypatch, mode):
    """Fill every pool sampled from a ``mode`` bank with NaN, so the block
    adapting against it diverges; returns the modes of every generator run."""
    run_generators, sample_pool, started, poisoned = (
        trainers._run_generators, trainers.sample_pool, [], [])

    def run(hypothesis, fewshot, modes, *args, **kwargs):
        started.append(modes)
        banks, kept = run_generators(hypothesis, fewshot, modes, *args, **kwargs)
        poisoned.extend(bank for name, bank in banks.items() if name == mode)
        return banks, kept

    def sample(bank, per_class, seed):
        pool = sample_pool(bank, per_class, seed)
        if any(bank is p for p in poisoned):
            return LabeledPool(np.full_like(pool.features, np.nan), pool.labels)
        return pool

    monkeypatch.setattr(trainers, "_run_generators", run)
    monkeypatch.setattr(trainers, "sample_pool", sample)
    return started


def _fail_stacked_adaptation(monkeypatch):
    """Make every stacked _adapt run (more than one block) raise a
    RuntimeError; returns the modes of every generator run."""
    adapt = trainers._adapt

    def fail_stacked(stack, *args):
        if len(stack) > 1:
            raise RuntimeError("boom")
        return adapt(stack, *args)

    monkeypatch.setattr(trainers, "_adapt", fail_stacked)
    return _inject(monkeypatch, lambda modes: False)


def _spy_trainers(monkeypatch):
    """Record the method of every run_two_step and train_tohan call."""
    run_two_step, train_tohan, called = trainers.run_two_step, trainers.train_tohan, []

    def two_step(method, *args, **kwargs):
        called.append(method)
        return run_two_step(method, *args, **kwargs)

    def tohan(*args, **kwargs):
        called.append("tohan")
        return train_tohan(*args, **kwargs)

    monkeypatch.setattr(trainers, "run_two_step", two_step)
    monkeypatch.setattr(trainers, "train_tohan", tohan)
    return called


def _grid(**kwargs):
    return [_line(r) for r in run_experiment(
        _tiny_task(), trainers.METHODS, [1, 2], [0, 1], _tiny_cfg(), **kwargs)]


# name -> (install the failure and return the modes of every generator run,
#          the method it costs, that method's error, the shared run's
#          exception, whether its warning carries the traceback)
SHARED_FAILURES = {
    "generator-divergence": (
        lambda mp: _inject(mp, lambda modes: "target_only" in modes),
        "tfada", "injected divergence in target_only",
        "injected divergence in source_only+target_only+combined", False),
    "adaptation-divergence": (
        lambda mp: _poison_pools(mp, "target_only"),
        "tfada", "non-finite gradient in adam_step", "non-finite gradient in adam_step", False),
    "generator-exception": (
        lambda mp: _inject(mp, lambda modes: len(modes) > 1, RuntimeError),
        None, None, "injected divergence in source_only+target_only+combined", True),
    "adaptation-exception": (_fail_stacked_adaptation, None, None, "boom", True),
}
# per (seed, n_t): the shared run, then each generator method's own
FALLBACK_MODES = [("source_only", "target_only", "combined"), ("source_only",),
                  ("target_only",), ("combined",), ("combined",)]
# per seed of the (1, 2)-shot grid, by the step that fails: once a shared
# generator run has succeeded, the next n_t's reuses its source_only bank
SEED_FALLBACK_MODES = {
    "generator": FALLBACK_MODES * 2,
    "adaptation": FALLBACK_MODES + [("target_only", "combined"), *FALLBACK_MODES[1:]],
}


class TestSharedRunFallback:
    @pytest.mark.parametrize("failure", list(SHARED_FAILURES))
    def test_failure_costs_only_its_methods_line(self, monkeypatch, caplog, tiny_results,
                                                 failure):
        install, failing, error, shared_error, traceback = SHARED_FAILURES[failure]
        started = install(monkeypatch)
        called = _spy_trainers(monkeypatch)
        with caplog.at_level("WARNING", logger=harness.log.name):
            got = _grid()
        for line, clean in zip(got, tiny_results, strict=True):
            if clean.method == failing:
                assert line == _line(clean)[:4] + (None, None, error)
            else:
                assert line == _line(clean)
        assert started == SEED_FALLBACK_MODES[failure.split("-")[0]] * 2
        assert called == list(GENERATOR_METHODS) * 4
        # one warning per (seed, n_t); only an exception that is not an
        # FHAError comes with its traceback
        warned = [r for r in caplog.records if r.levelname == "WARNING"]
        assert [r.getMessage() for r in warned] == [
            f"shared run failed, methods run alone: {shared_error}"] * 4
        assert [r.exc_info is not None for r in warned] == [traceback] * 4

    @pytest.mark.parametrize("failure", list(SHARED_FAILURES))
    def test_failure_leaves_every_other_model_unchanged(self, monkeypatch, caplog, failure):
        hyp, fewshot, cfg, direct = _shared_setup("rot40", 3, 0.2)
        install, failing, error, shared_error, traceback = SHARED_FAILURES[failure]
        started = install(monkeypatch)
        called = _spy_trainers(monkeypatch)
        tohan_cfg = replace(cfg.tohan, seed=METHOD_SEED)
        shared = harness._shared_run(trainers.METHODS, hyp, fewshot, tohan_cfg, {})
        with caplog.at_level("WARNING", logger=harness.log.name):
            for method in GENERATOR_METHODS:
                if method == failing:
                    with pytest.raises(NumericalError, match=error):
                        harness._method_model(method, hyp, fewshot, cfg.baseline,
                                              tohan_cfg, shared)
                    continue
                model = harness._method_model(method, hyp, fewshot, cfg.baseline,
                                              tohan_cfg, shared)
                assert _model_bytes(model) == direct[method], method
        assert started == FALLBACK_MODES
        assert called == list(GENERATOR_METHODS)
        warned = [r for r in caplog.records if r.levelname == "WARNING"]
        assert [r.getMessage() for r in warned] == [
            f"shared run failed, methods run alone: {shared_error}"]
        assert (warned[0].exc_info is not None) == traceback

    def test_no_shared_run_leaves_every_line_unchanged(self, monkeypatch, tiny_results):
        monkeypatch.setattr(harness, "_shared_run", lambda *args: lambda: None)
        called = _spy_trainers(monkeypatch)
        assert _grid() == [_line(r) for r in tiny_results]
        assert called == list(GENERATOR_METHODS) * 4


SHOTS = (1, 2, 3)
ALL_MODES = ("source_only", "target_only", "combined")


def _shot_grid(shots):
    return [_line(r) for r in run_experiment(
        _tiny_task(), trainers.METHODS, shots, [0, 1], _tiny_cfg())]


def _assert_equal_to_one_shot_grids(lines):
    """Every line of a SHOTS grid equals its line in the grid of its n_t alone."""
    want = {line[:4]: line for n_t in SHOTS for line in _shot_grid([n_t])}
    assert len(lines) == len(want)
    for line in lines:
        assert line == want[line[:4]]


class TestSourceBankReuse:
    def test_source_only_trained_once_per_seed(self, monkeypatch):
        started = _inject(monkeypatch, lambda modes: False)
        lines = _shot_grid(SHOTS)
        assert started == [ALL_MODES, ("target_only", "combined"),
                           ("target_only", "combined")] * 2
        _assert_equal_to_one_shot_grids(lines)

    @pytest.mark.parametrize("failure", list(SHARED_FAILURES))
    def test_failure_lines_equal_one_shot_grids(self, monkeypatch, failure):
        SHARED_FAILURES[failure][0](monkeypatch)
        _assert_equal_to_one_shot_grids(_shot_grid(SHOTS))

    def test_failed_first_few_shot_draw_trains_the_bank_next(self, monkeypatch):
        draw = harness.sample_few_shot

        def fail_first(target, n_t, seed):
            if n_t == SHOTS[0]:
                raise InsufficientDataError("injected draw failure")
            return draw(target, n_t, seed)

        monkeypatch.setattr(harness, "sample_few_shot", fail_first)
        started = _inject(monkeypatch, lambda modes: False)
        lines = _shot_grid(SHOTS)
        assert started == [ALL_MODES, ("target_only", "combined")] * 2
        assert [line[-1] for line in lines if line[2] == SHOTS[0]] == (
            ["injected draw failure"] * len(trainers.METHODS) * 2)
        _assert_equal_to_one_shot_grids(lines)


class TestMethodOrder:
    @pytest.mark.parametrize("adapt_epochs", [None, 0], ids=["default", "zero"])
    def test_lines_do_not_depend_on_method_order(self, tiny_results, adapt_epochs):
        cfg, default = _tiny_cfg(), tiny_results
        if adapt_epochs is not None:
            cfg = replace(cfg, tohan=replace(cfg.tohan, adapt_epochs=adapt_epochs))
            default = run_experiment(_tiny_task(), trainers.METHODS, [1, 2], [0, 1], cfg)
        want = {(r.method, r.n_t, r.seed): _line(r) for r in default}
        got = run_experiment(_tiny_task(), ["tohan", "sfada", "wa"], [1, 2], [0, 1], cfg)
        assert len(got) == 12 and all(r.error is None for r in got)
        assert [_line(r) for r in got] == [want[(r.method, r.n_t, r.seed)] for r in got]


class TestFaultIsolation:
    @staticmethod
    def _boom(*args, **kwargs):
        raise RuntimeError("boom")

    def test_unexpected_exception_becomes_that_runs_error(self, monkeypatch, tiny_results):
        monkeypatch.setattr(trainers, "train_shot", self._boom)
        for line, clean in zip(_grid(), tiny_results):
            if clean.method == "shot":
                assert line[4:] == (None, None, "RuntimeError: boom")
            else:
                assert line == _line(clean)

    def test_unexpected_setup_exception_marks_the_seed(self, monkeypatch):
        monkeypatch.setattr(trainers, "train_source", self._boom)
        results = run_experiment(_tiny_task(), ["wa", "ft"], [1, 2], [0], _tiny_cfg())
        assert [r.error for r in results] == ["RuntimeError: boom"] * 4

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="workers see the patched trainer only when forked")
    def test_parallel_seeds_keep_streaming(self, monkeypatch, tmp_path):
        monkeypatch.setattr(trainers, "train_shot", self._boom)
        sink = tmp_path / "stream.jsonl"
        results = run_experiment(_tiny_task(), ["wa", "shot"], [1], [0, 1], _tiny_cfg(),
                                 sink=sink, jobs=2)
        rows, problems = read_results(sink)
        assert problems == [] and len(rows) == len(results) == 4
        assert {r["method"]: r.get("error") for r in rows} == {
            "wa": None, "shot": "RuntimeError: boom"}

    def test_cli_run_writes_the_other_lines_and_exits_1(self, monkeypatch, tmp_path):
        monkeypatch.setattr(trainers, "train_shot", self._boom)
        out = tmp_path / "r.jsonl"
        assert cli.main(["run", "--task", "rot40", "--methods", "wa,shot", "--shots", "1",
                         "--seeds", "0", "--out", str(out)]) == 1
        rows, _ = read_results(out)
        assert [(r["method"], r.get("error")) for r in rows] == [
            ("wa", None), ("shot", "RuntimeError: boom")]


_RUN_SEED = harness._run_seed


def _dies_on_seed_2(task, methods, shots, seed, cfg):
    """A stand-in for harness._run_seed whose worker process dies on seed 2."""
    if seed == 2 and multiprocessing.parent_process() is not None:
        os._exit(3)
    return _RUN_SEED(task, methods, shots, seed, cfg)


def _sink_lines(path):
    """The set of a results file's lines without their wall times."""
    return {re.sub(r', "wall_ms": [0-9.]+', "", line) for line in path.read_text().splitlines()}


class TestWorkerPool:
    def test_pool_run_equals_one_job_run(self, tmp_path):
        task, cfg, methods = _tiny_task(), _tiny_cfg(), ["wa", "ft", "tohan"]
        one, two = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
        want = run_experiment(task, methods, [1], [0, 1], cfg, sink=one, jobs=1)
        got = run_experiment(task, methods, [1], [0, 1], cfg, sink=two, jobs=2)
        assert [_line(r) for r in got] == [_line(r) for r in want]
        assert all(r.error is None for r in got)
        assert len(_sink_lines(two)) == len(got) and _sink_lines(two) == _sink_lines(one)

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="workers see the patched _run_seed only when forked")
    def test_dying_worker_costs_only_its_own_seed(self, monkeypatch, tmp_path):
        task, cfg, seeds = _tiny_task(), _tiny_cfg(), [0, 1, 2, 3]
        want = run_experiment(task, ["wa"], [1], seeds, cfg)
        monkeypatch.setattr(harness, "_run_seed", _dies_on_seed_2)
        sink = tmp_path / "r.jsonl"
        got = run_experiment(task, ["wa"], [1], seeds, cfg, sink=sink, jobs=2)
        assert [r.seed for r in got] == seeds
        assert [(r.seed, r.error.split(":")[0]) for r in got if r.error is not None] == [
            (2, "BrokenProcessPool")]
        assert [_line(r) for r in got if r.seed != 2] == [_line(r) for r in want if r.seed != 2]
        rows, problems = read_results(sink)
        assert problems == [] and sorted(r["seed"] for r in rows) == seeds
        assert [r["seed"] for r in rows if "error" in r] == [2]

    def test_one_job_run_imports_no_pool(self):
        code = (
            "import sys\n"
            "import fha, fha.cli\n"
            "from fha.data import TaskSpec\n"
            "from fha.harness import ExperimentConfig, run_experiment\n"
            "from fha.trainers import BaselineConfig, SourceTrainConfig, TohanConfig\n"
            f"results = run_experiment({_tiny_task()!r}, ['wa', 'tohan'], [1], [0],\n"
            f"                         {_tiny_cfg()!r}, jobs=1)\n"
            "assert [r.error for r in results] == [None, None], results\n"
            "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))\n"
        )
        src = str(Path(harness.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=path), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


class TestSummarize:
    def _rows(self, method, n_t, values):
        return [
            {"method": method, "n_t": n_t, "seed": i, "accuracy": v}
            for i, v in enumerate(values)
        ]

    def test_mean_std_oracle(self):
        table = summarize(self._rows("ft", 3, [0.876, 0.877, 0.878]))
        row = table.row("ft", 3)
        assert row.mean == pytest.approx(0.877)
        assert row.std == pytest.approx(0.001)
        assert row.count == 3
        assert table.cell("ft", 3) == "87.7±0.1"

    def test_sample_std_uses_n_minus_one(self):
        table = summarize(self._rows("ft", 1, [0.8, 0.9]))
        assert table.row("ft", 1).std == pytest.approx(
            math.sqrt(((0.05) ** 2 + (0.05) ** 2) / 1)
        )

    def test_single_seed_has_no_std(self):
        table = summarize(self._rows("wa", 1, [0.877]))
        assert table.row("wa", 1).std is None
        assert table.cell("wa", 1) == "87.7±n/a"
        assert ",87.7,,1" in table.to_csv()

    def test_method_rows_follow_benchmark_order(self):
        rows = (self._rows("tohan", 1, [0.9]) + self._rows("wa", 1, [0.5])
                + self._rows("zzz", 1, [0.1]) + self._rows("ft", 1, [0.7]))
        table = summarize(rows)
        assert [r.method for r in table.rows] == ["wa", "ft", "tohan", "zzz"]

    def test_error_rows_skipped(self):
        rows = self._rows("ft", 1, [0.8, 0.9])
        rows.append({"method": "ft", "n_t": 1, "seed": 9, "error": "boom"})
        assert summarize(rows).row("ft", 1).count == 2

    def test_all_errors_rejected(self):
        with pytest.raises(InsufficientDataError):
            summarize([{"method": "ft", "n_t": 1, "seed": 0, "error": "x"}])

    def test_accepts_run_results_and_dicts_equally(self):
        objs = [_result(accuracy=0.8, seed=0), _result(accuracy=0.9, seed=1)]
        dicts = self._rows("ft", 3, [0.8, 0.9])
        assert summarize(objs).rows == summarize(dicts).rows

    def test_csv_layout(self):
        table = summarize(self._rows("ft", 3, [0.876, 0.877, 0.878]))
        lines = table.to_csv().splitlines()
        assert lines[0] == "method,n_t,mean_pct,std_pct,seeds"
        assert lines[1] == "ft,3,87.7,0.1,3"

    def test_render_grid_marks_missing_cells(self):
        rows = self._rows("wa", 1, [0.5]) + self._rows("ft", 3, [0.7])
        text = summarize(rows).render()
        assert "n_t=1" in text and "n_t=3" in text
        wa_line = next(line for line in text.splitlines() if line.startswith("wa"))
        assert "-" in wa_line

    def test_missing_row_raises_keyerror(self):
        table = summarize(self._rows("ft", 1, [0.8]))
        with pytest.raises(KeyError):
            table.row("ft", 7)


class TestAccuracy:
    def test_matches_manual_argmax(self):
        enc_arch = trainers.default_encoder_arch(2, 6)
        cls_arch = trainers.default_classifier_arch(6, 3)
        model = trainers.TargetModel(
            enc=nn.Net(enc_arch, nn.init_params(enc_arch, 0)),
            cls=nn.Net(cls_arch, nn.init_params(cls_arch, 1)),
        )
        rng = np.random.default_rng(4)
        feats = rng.uniform(size=(25, 2)).astype(np.float32)
        labels = rng.integers(0, 3, size=25)
        probs = model.cls(model.enc(feats.astype(np.float64)))
        expected = float(np.mean(np.argmax(probs, axis=1) == labels))
        assert harness.accuracy(model, Dataset(feats, labels, 3)) == expected


def _embed_model(out_width=6):
    enc_arch = trainers.default_encoder_arch(2, out_width)
    cls_arch = trainers.default_classifier_arch(out_width, 2)
    return trainers.TargetModel(
        enc=nn.Net(enc_arch, nn.init_params(enc_arch, 0)),
        cls=nn.Net(cls_arch, nn.init_params(cls_arch, 1)),
    )


def _embed_data(n=20, seed=0):
    rng = np.random.default_rng(seed)
    feats = rng.uniform(size=(n, 2)).astype(np.float32)
    return Dataset(feats, rng.integers(0, 2, size=n), 2)


class TestDumpEmbedding:
    def test_projects_all_tagged_samples(self):
        model = _embed_model()
        table = dump_embedding(
            model, [("source", _embed_data(12, 0)), ("target", _embed_data(8, 1))]
        )
        assert table.x.shape == (20,)
        assert table.domains[:12] == ("source",) * 12
        assert table.domains[12:] == ("target",) * 8
        assert not table.degenerate
        # projections are centered
        assert abs(float(table.x.mean())) < 1e-9
        assert abs(float(table.y.mean())) < 1e-9

    def test_deterministic(self):
        model = _embed_model()
        datasets = [("a", _embed_data(10, 2))]
        t1 = dump_embedding(model, datasets)
        t2 = dump_embedding(model, datasets)
        assert t1.x.tobytes() == t2.x.tobytes()
        assert t1.y.tobytes() == t2.y.tobytes()

    def test_accepts_bare_encoder(self):
        model = _embed_model()
        data = [("a", _embed_data(10, 3))]
        via_model = dump_embedding(model, data)
        via_net = dump_embedding(model.enc, data)
        assert via_model.x.tobytes() == via_net.x.tobytes()

    def test_constant_cloud_falls_back_to_raw_axes(self):
        model = _embed_model()
        feats = np.full((6, 2), 0.5, dtype=np.float32)
        data = Dataset(feats, np.zeros(6, dtype=np.int64), 2)
        table = dump_embedding(model, [("a", data)])
        assert table.degenerate
        emb = model.enc(feats.astype(np.float64))
        np.testing.assert_array_equal(table.x, emb[:, 0])
        np.testing.assert_array_equal(table.y, emb[:, 1])

    def test_narrow_encoder_rejected(self):
        enc_arch = nn.ArchSpec((2, 1), activation="tanh", head="linear")
        enc = nn.Net(enc_arch, nn.init_params(enc_arch, 0))
        with pytest.raises(ConfigError):
            dump_embedding(enc, [("a", _embed_data(5, 0))])

    def test_no_samples_rejected(self):
        model = _embed_model()
        with pytest.raises(InsufficientDataError):
            dump_embedding(model, [])
        empty = Dataset(np.empty((0, 2), dtype=np.float32),
                        np.empty(0, dtype=np.int64), 2)
        with pytest.raises(InsufficientDataError):
            dump_embedding(model, [("a", empty)])

    def test_csv_round_trips_coordinates(self):
        model = _embed_model()
        table = dump_embedding(model, [("src", _embed_data(5, 4))])
        lines = table.to_csv().splitlines()
        assert lines[0] == "x,y,label,domain"
        assert len(lines) == 6
        x0, y0, label0, domain0 = lines[1].split(",")
        assert float(x0) == table.x[0]
        assert float(y0) == table.y[0]
        assert int(label0) == table.labels[0]
        assert domain0 == "src"
