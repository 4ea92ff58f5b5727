"""Tests for the fha command line: argument parsing, exit codes, and the
gen-data -> train-source -> run -> summarize -> dump-embed chain.

Exit code contract: 0 success, 1 runtime failures (failed runs, skipped
result lines, missing data), 2 usage and validation errors.
"""

import base64
import csv
import hashlib
import json
import os
import re
import subprocess
import sys
import types
import warnings
import zipfile
from pathlib import Path

import numpy as np
import pytest

from fha import cli, harness, nn, trainers
from fha.data import Dataset, load_dataset, save_dataset
from fha.errors import ConfigError
from fha.harness import read_results

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One shared artifact chain: datasets, a source model, a results file."""
    root = tmp_path_factory.mktemp("cli")
    assert cli.main(["gen-data", "--task", "rot20",
                     "--out", str(root / "data")]) == 0
    assert cli.main(["train-source", "--task", "rot20",
                     "--out", str(root / "model.json")]) == 0
    assert cli.main(["run", "--task", "rot20", "--methods", "wa,ft",
                     "--shots", "1", "--seeds", "0..1",
                     "--out", str(root / "results.jsonl")]) == 0
    return root


class TestParsers:
    @pytest.mark.parametrize("text,expected", [
        ("40deg", 40.0),
        ("40", 40.0),
        (" -15.5deg ", -15.5),
        ("0deg", 0.0),
    ])
    def test_rotation_degrees(self, text, expected):
        assert cli._parse_rotation(text) == expected

    @pytest.mark.parametrize("text", ["1rad", "100grad", "0.5turn", "fortydeg", ""])
    def test_rotation_rejects(self, text):
        with pytest.raises(ConfigError):
            cli._parse_rotation(text)

    @pytest.mark.parametrize("text,expected", [
        ("0..3", [0, 1, 2, 3]),
        ("5..5", [5]),
        ("0,1,2", [0, 1, 2]),
        ("7", [7]),
        ("3, 4", [3, 4]),
        ("18446744073709551616", [2**64]),
        ("9223372036854775807..9223372036854775808", [2**63 - 1, 2**63]),
    ])
    def test_seed_lists(self, text, expected):
        assert cli._parse_seeds(text) == expected

    @pytest.mark.parametrize("text", ["9..2", "a..b", "x,y", "1..z"])
    def test_seed_rejects(self, text):
        with pytest.raises(ConfigError):
            cli._parse_seeds(text)

    def test_seed_range_bound(self, monkeypatch):
        assert cli._MAX_SEED_RANGE == 10**6
        with pytest.raises(ConfigError, match=r"^seed range '0\.\.1000000' holds 1000001 seeds"):
            cli._parse_seeds("0..1000000")
        monkeypatch.setattr(cli, "_MAX_SEED_RANGE", 3)  # the edge, without a long list
        assert cli._parse_seeds("4..6") == [4, 5, 6]
        with pytest.raises(ConfigError, match="holds 4 seeds; at most 3 are allowed$"):
            cli._parse_seeds("4..7")

    def test_task_from_string_is_builtin(self):
        assert cli._task_from_config("rot40").name == "rot40"

    def test_task_builtin_object_rejects_extras(self):
        with pytest.raises(ConfigError):
            cli._task_from_config({"builtin": "rot40", "dim": 2})

    def test_task_rejects_non_object(self):
        with pytest.raises(ConfigError):
            cli._task_from_config([1, 2])

    def test_task_rejects_unknown_field(self):
        with pytest.raises(ConfigError):
            cli._task_from_config({"name": "x", "wibble": 1})


class TestUsageErrors:
    def test_no_subcommand(self):
        assert cli.main([]) == 2

    def test_unknown_subcommand(self):
        assert cli.main(["frobnicate"]) == 2

    def test_help_exits_cleanly(self, capsys):
        assert cli.main(["--help"]) == 0
        assert "gen-data" in capsys.readouterr().out

    def test_invalid_log_level(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("FHA_LOG", "chatty")
        rc = cli.main(["gen-data", "--task", "rot20", "--out", str(tmp_path / "d")])
        assert rc == 2
        assert "FHA_LOG" in capsys.readouterr().err

    def test_valid_log_level(self, monkeypatch, tmp_path):
        monkeypatch.setenv("FHA_LOG", "info")
        rc = cli.main(["gen-data", "--task", "rot20", "--out", str(tmp_path / "d")])
        assert rc == 0


class TestOneParser:
    """main builds its parser once per process, and each call parses alone."""

    def test_parser_is_built_once(self, monkeypatch, tmp_path, capsys):
        built, real = [], cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
        cli._parser.cache_clear()
        try:
            for argv in (["gen-data", "--task", "rot20", "--out", str(tmp_path / "a")],
                         ["frobnicate"], ["summarize", str(tmp_path / "absent.jsonl")]):
                cli.main(argv)
        finally:
            cli._parser.cache_clear()
        assert built == [1]

    def test_consecutive_calls_parse_independently(self, tmp_path, capsys):
        d, model = tmp_path / "d", tmp_path / "m.json"
        assert cli.main(["gen-data", "--task", "rot20", "--seed", "1", "--out", str(d)]) == 0
        # no --seed: the default, not the seed of the call before
        assert cli.main(["train-source", "--data", str(d / "source.fhd"),
                         "--out", str(model)]) == 0
        assert nn.load_model(model)[1] == 0
        assert cli.main(["summarize"]) == 2
        assert cli.main(["dump-embed", "--model", str(model), "--data",
                         f"source={d / 'source.fhd'}", "--out", str(tmp_path / "e.csv")]) == 0
        run = cli._parser().parse_args(["run", "--jobs", "2", "--seeds", "0"])
        summary = cli._parser().parse_args(["summarize", "r.jsonl"])
        bare = cli._parser().parse_args(["run"])
        assert (run.jobs, run.seeds, bare.jobs, bare.seeds) == (2, "0", None, None)
        assert not hasattr(summary, "jobs") and summary.format == "table"
        assert (run.func, summary.func) == (cli._cmd_run, cli._cmd_summarize)


class TestGenData:
    def test_writes_three_loadable_splits(self, workdir, capsys):
        data = workdir / "data"
        for name in ("source", "target", "target_test"):
            ds = load_dataset(data / f"{name}.fhd")
            assert ds.num_classes == 3 and ds.dim == 2
        assert load_dataset(data / "source.fhd").n == 300
        assert load_dataset(data / "target_test.fhd").n == 900

    def test_prints_checksums_and_is_deterministic(self, tmp_path, capsys):
        assert cli.main(["gen-data", "--task", "rot20", "--out", str(tmp_path / "a")]) == 0
        out_a = capsys.readouterr().out
        assert cli.main(["gen-data", "--task", "rot20", "--out", str(tmp_path / "b")]) == 0
        out_b = capsys.readouterr().out
        sha_a = [part for part in out_a.split() if part.startswith("sha256=")]
        sha_b = [part for part in out_b.split() if part.startswith("sha256=")]
        assert len(sha_a) == 3
        assert sha_a == sha_b

    def test_seed_changes_data(self, tmp_path, capsys):
        cli.main(["gen-data", "--task", "rot20", "--out", str(tmp_path / "a")])
        out_a = capsys.readouterr().out
        cli.main(["gen-data", "--task", "rot20", "--seed", "1",
                  "--out", str(tmp_path / "b")])
        out_b = capsys.readouterr().out
        sha = lambda s: [p for p in s.split() if p.startswith("sha256=")]
        assert sha(out_a) != sha(out_b)

    def test_rotation_override(self, tmp_path):
        assert cli.main(["gen-data", "--task", "rot20", "--rotation", "90deg",
                         "--out", str(tmp_path / "rot")]) == 0

    def test_bad_rotation_unit_is_usage_error(self, tmp_path, capsys):
        rc = cli.main(["gen-data", "--task", "rot20", "--rotation", "1rad",
                       "--out", str(tmp_path / "rot")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_task_is_usage_error(self, tmp_path):
        assert cli.main(["gen-data", "--task", "nope",
                         "--out", str(tmp_path / "d")]) == 2

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        assert cli.main(["gen-data", "--task", "rot40", "--seed", "-1",
                         "--out", str(tmp_path / "d")]) == 2
        assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"
        assert not (tmp_path / "d").exists()


class TestTrainSource:
    def test_model_file_loads_back(self, workdir, capsys):
        nets, seed, meta = nn.load_model(workdir / "model.json")
        hyp = trainers.SourceHypothesis(enc=nets["encoder"], cls=nets["classifier"], seed=seed,
                                        train_accuracy=meta["train_accuracy"],
                                        test_accuracy=meta["test_accuracy"])
        assert hyp.test_accuracy >= 0.8
        assert hyp.cls.arch.out_width == 3

    def test_accepts_dataset_file(self, workdir, tmp_path, capsys):
        rc = cli.main(["train-source", "--data", str(workdir / "data" / "source.fhd"),
                       "--out", str(tmp_path / "m.json")])
        assert rc == 0
        assert "test_accuracy=" in capsys.readouterr().out

    def test_task_and_data_are_exclusive(self, workdir, tmp_path):
        rc = cli.main(["train-source", "--task", "rot20",
                       "--data", str(workdir / "data" / "source.fhd"),
                       "--out", str(tmp_path / "m.json")])
        assert rc == 2
        assert cli.main(["train-source", "--out", str(tmp_path / "m.json")]) == 2

    def test_missing_data_file_is_runtime_error(self, tmp_path):
        rc = cli.main(["train-source", "--data", str(tmp_path / "absent.fhd"),
                       "--out", str(tmp_path / "m.json")])
        assert rc == 1

    @pytest.mark.parametrize("source", ["task", "data"])
    def test_negative_seed_is_usage_error(self, workdir, tmp_path, capsys, source):
        given = (["--task", "rot40"] if source == "task"
                 else ["--data", str(workdir / "data" / "source.fhd")])
        out = tmp_path / "m.json"
        assert cli.main(["train-source", *given, "--seed", "-1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"
        assert not out.exists()

    def test_empty_source_is_runtime_error(self, tmp_path, capsys):
        data = tmp_path / "empty.fhd"
        save_dataset(Dataset(np.zeros((0, 2), np.float32), np.zeros(0, np.int64), 3), data)
        assert load_dataset(data).n == 0
        rc = cli.main(["train-source", "--data", str(data), "--out", str(tmp_path / "m.json")])
        assert rc == 1
        assert capsys.readouterr().err == "error: the source split has no samples\n"
        assert not (tmp_path / "m.json").exists()


def _mini_run_config(out_path, **overrides):
    doc = {
        "task": {
            "name": "mini", "num_classes": 2, "dim": 2,
            "class_means": [[0.3, 0.3], [0.7, 0.7]],
            "class_scales": [0.05, 0.05], "rotation_deg": 20.0,
            "source_per_class": 40, "target_per_class": 20,
            "test_per_class": 15,
        },
        "methods": ["wa", "stfada"],
        "shots": [1],
        "seeds": [0],
        "out": str(out_path),
        "source": {"epochs": 100, "batch_size": 32, "encoder_width": 8},
        "tohan": {"gen_batch": 4, "per_group": 2, "z_dim": 3,
                  "gen_hidden": 4, "disc_hidden": 4, "total_epochs": 6,
                  "disc_pretrain_epochs": 2, "adapt_epochs": 3},
    }
    doc.update(overrides)
    return doc


class TestRun:
    def test_grid_results_parse(self, workdir):
        rows, problems = read_results(workdir / "results.jsonl")
        assert problems == []
        assert {(r["method"], r["n_t"], r["seed"]) for r in rows} == {
            (m, 1, s) for m in ("wa", "ft") for s in (0, 1)
        }

    def test_config_file_grid(self, tmp_path, capsys):
        out = tmp_path / "r.jsonl"
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(_mini_run_config(out)), encoding="utf-8")
        assert cli.main(["run", "--config", str(cfg_path)]) == 0
        assert "runs=2 errors=0" in capsys.readouterr().out
        rows, _ = read_results(out)
        assert {r["method"] for r in rows} == {"wa", "stfada"}

    def test_cli_flags_override_config(self, tmp_path):
        out = tmp_path / "r.jsonl"
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(_mini_run_config(out)), encoding="utf-8")
        assert cli.main(["run", "--config", str(cfg_path), "--methods", "wa"]) == 0
        rows, _ = read_results(out)
        assert {r["method"] for r in rows} == {"wa"}

    def test_fresh_stream_replaces_old_file(self, tmp_path):
        out = tmp_path / "r.jsonl"
        out.write_text("stale garbage\n", encoding="utf-8")
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(
            json.dumps(_mini_run_config(out, methods=["wa"])), encoding="utf-8"
        )
        assert cli.main(["run", "--config", str(cfg_path)]) == 0
        rows, problems = read_results(out)
        assert problems == []
        assert len(rows) == 1

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_unwritable_out_fails_before_any_seed(self, tmp_path, capsys, monkeypatch, jobs):
        """An --out in a missing directory exits 1 before a seed trains, at
        one job and in a pool alike."""
        calls = []
        monkeypatch.setattr(harness, "_run_seed", lambda *a: calls.append(a))
        monkeypatch.setattr(harness, "_run_pool", lambda *a: calls.append(a))
        out = tmp_path / "nodir" / "r.jsonl"
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(_mini_run_config(out, seeds=[0, 1, 2])), encoding="utf-8")
        assert cli.main(["run", "--config", str(cfg_path), "--jobs", jobs]) == 1
        assert calls == []
        assert capsys.readouterr().err.startswith("error: [Errno 2] No such file or directory")
        assert not out.parent.exists()

    @pytest.mark.parametrize("name,error", [
        (5, "task is not a string"),
        *((name, "task holds a comma, quote or line break")
          for name in ("ring,6", 'ring"6', "ring\r6", "ring\n6"))], ids=repr)
    def test_task_name_summarize_would_skip_is_usage_error(self, tmp_path, capsys, monkeypatch,
                                                          name, error):
        """Rejected before the old results are touched or a seed runs."""
        monkeypatch.setattr(trainers, "train_source", lambda *a: pytest.fail("a seed ran"))
        out = tmp_path / "r.jsonl"
        out.write_bytes(b'{"an": "earlier run"}\n')
        cfg = _mini_run_config(out)
        cfg["task"]["name"] = name
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        assert cli.main(["run", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert out.read_bytes() == b'{"an": "earlier run"}\n'

    @pytest.mark.parametrize("key,stale,flag,value", [
        ("task", "rot40", "rot20", "rot20"),
        ("methods", ["wa"], "ft,shot", "ft,shot"),
        ("shots", [1], "2,3", [2, 3]),
        ("seeds", [5], "0..2", "0..2"),
        ("out", "stale.jsonl", "flag.jsonl", "flag.jsonl"),
        ("jobs", 1, "2", 2),
    ], ids=lambda v: v if isinstance(v, str) else None)
    def test_each_flag_overrides_its_config_key(self, tmp_path, capsys, monkeypatch, key, stale,
                                                 flag, value):
        """A config whose ``key`` is ``stale``, run with ``--key flag``, runs
        the grid of the config whose ``key`` is ``value``."""
        grids = []
        monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: grids.append((a, k)) or [])
        monkeypatch.chdir(tmp_path)
        for doc, flags in ((_mini_run_config("r.jsonl", **{key: value}), []),
                           (_mini_run_config("r.jsonl", **{key: stale}), [f"--{key}", flag])):
            Path("run.json").write_text(json.dumps(doc), encoding="utf-8")
            assert cli.main(["run", "--config", "run.json", *flags]) == 0
        assert grids[0] == grids[1]
        assert not Path("stale.jsonl").exists()

    def test_failed_runs_exit_one(self, tmp_path, capsys):
        out = tmp_path / "r.jsonl"
        cfg = _mini_run_config(out, methods=["wa"])
        cfg["task"]["class_means"] = [[0.5, 0.5], [0.5, 0.5]]
        cfg["task"]["class_scales"] = [0.2, 0.2]
        cfg["source"]["epochs"] = 20
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        assert cli.main(["run", "--config", str(cfg_path)]) == 1
        captured = capsys.readouterr()
        assert "errors=1" in captured.out
        assert "error: wa n_t=1 seed=0" in captured.err

    def test_task_required(self, tmp_path):
        assert cli.main(["run", "--out", str(tmp_path / "r.jsonl")]) == 2

    def test_out_required(self):
        assert cli.main(["run", "--task", "rot20"]) == 2

    @pytest.mark.parametrize("out", [True, 2, 7, "", None, ["r.jsonl"]], ids=repr)
    def test_out_not_a_non_empty_string_is_usage_error(self, tmp_path, capsys, monkeypatch,
                                                       out):
        """Checked before any file is made or any run starts: an integer out
        would be a file descriptor to open."""
        monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: pytest.fail("ran the grid"))
        cfg = _mini_run_config(tmp_path / "r.jsonl")
        cfg["out"] = out
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        assert cli.main(["run", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: out must be a non-empty path string, got {out!r}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    def test_empty_out_flag_is_usage_error(self, capsys):
        assert cli.main(["run", "--task", "rot20", "--out", ""]) == 2
        assert capsys.readouterr().err == "error: out must be a non-empty path string, got ''\n"

    def test_unknown_config_field_is_usage_error(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"task": "rot20", "output": "x"}),
                            encoding="utf-8")
        assert cli.main(["run", "--config", str(cfg_path)]) == 2

    def test_malformed_config_is_usage_error(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text("{not json", encoding="utf-8")
        assert cli.main(["run", "--config", str(cfg_path)]) == 2
        cfg_path.write_text("[1, 2]", encoding="utf-8")
        assert cli.main(["run", "--config", str(cfg_path)]) == 2

    def test_non_utf8_config_is_usage_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_bytes(b'\xff\xfe{"task": "rot40"}')
        assert cli.main(["run", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config {cfg_path} is not valid JSON: ")
        assert "Traceback" not in err

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        assert cli.main(["run", "--task", "rot40", "--methods", "wa", "--shots", "1",
                         "--seeds=-1", "--out", str(tmp_path / "r.jsonl")]) == 2
        assert capsys.readouterr().err == "error: seeds must be non-negative\n"

    def test_duplicate_shots_flag_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "r.jsonl"
        assert cli.main(["run", "--task", "rot40", "--methods", "wa", "--shots", "3,3",
                         "--seeds", "0", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: shots must be distinct\n"
        assert not out.exists()

    @pytest.mark.parametrize("n_t", ["0", "8", "-1"])
    def test_shots_outside_the_protocol_are_usage_errors(self, tmp_path, capsys, monkeypatch,
                                                         n_t):
        """Rejected before the old results are removed or a source model trains."""
        calls = []
        monkeypatch.setattr(trainers, "train_source", lambda *a: calls.append(a))
        out = tmp_path / "r.jsonl"
        out.write_bytes(b'{"an": "earlier run"}\n')
        assert cli.main(["run", "--task", "rot40", "--methods", "wa,ft", "--seeds", "0",
                         f"--shots={n_t}", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: n_t must be in [1, 7], got {n_t}\n"
        assert out.read_bytes() == b'{"an": "earlier run"}\n'
        assert calls == []

    @pytest.mark.parametrize("flags", [["--methods", "bogus"], ["--seeds", "0,0"],
                                       ["--jobs", "0"]], ids=" ".join)
    def test_usage_error_keeps_the_old_results_file(self, tmp_path, capsys, flags):
        out = tmp_path / "r.jsonl"
        out.write_bytes(b'{"an": "earlier run"}\n')
        assert cli.main(["run", "--task", "rot20", "--methods", "wa", "--shots", "1",
                         "--seeds", "0", "--out", str(out), *flags]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert out.read_bytes() == b'{"an": "earlier run"}\n'

    @pytest.mark.parametrize("section,field,value", [
        ("tohan", "tradeoff", float("nan")), ("tohan", "lr", float("inf")),
        ("tohan", "lr", True), ("source", "lr", -float("inf")),
        ("baseline", "lr", float("nan"))], ids=repr)
    def test_non_finite_or_bool_rate_is_usage_error(self, tmp_path, capsys, section, field,
                                                     value):
        out = tmp_path / "r.jsonl"
        out.write_bytes(b'{"an": "earlier run"}\n')
        cfg = _mini_run_config(out)
        cfg.setdefault(section, {})[field] = value
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")  # NaN, Infinity, true
        assert cli.main(["run", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: invalid {section} config: {field} must be a finite number, got ")
        assert out.read_bytes() == b'{"an": "earlier run"}\n'

    def test_old_tohan_rate_key_is_usage_error(self, tmp_path, capsys):
        """The four per-phase rates are one ``lr``: an old key is refused."""
        out = tmp_path / "r.jsonl"
        out.write_bytes(b'{"an": "earlier run"}\n')
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(_mini_run_config(out, tohan={"lr_gen": 0.001})),
                            encoding="utf-8")
        assert cli.main(["run", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == "error: unknown tohan fields: ['lr_gen']\n"
        assert out.read_bytes() == b'{"an": "earlier run"}\n'

    @pytest.mark.parametrize("seeds,count", [
        ("0..1000000", 1000001), ("0..200000000", 200000001),
        ("0..1000000000000", 1000000000001)])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_huge_seed_range_is_usage_error(self, tmp_path, capsys, via, seeds, count):
        """A range past the bound is refused before a list or --out is made."""
        out = tmp_path / "r.jsonl"
        if via == "flag":
            argv = ["run", "--task", "rot40", "--methods", "wa", "--shots", "1",
                    "--seeds", seeds, "--out", str(out)]
        else:
            cfg_path = tmp_path / "run.json"
            cfg_path.write_text(json.dumps(_mini_run_config(out, seeds=seeds)),
                                encoding="utf-8")
            argv = ["run", "--config", str(cfg_path)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: seed range {seeds!r} holds {count} seeds; at most 1000000 are allowed\n")
        assert not out.exists()

    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_seeds_past_int64_run(self, tmp_path, capsys, via):
        """Seeds of 2**63 and above run error-free, from --seeds and from a
        config's seed list alike."""
        out = tmp_path / "r.jsonl"
        cfg = _mini_run_config(out, methods=["wa"])
        flags = []
        if via == "flag":
            flags = ["--seeds", "18446744073709551616,9223372036854775808"]
        else:
            cfg["seeds"] = [2**64, 2**63]
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        assert cli.main(["run", "--config", str(cfg_path), *flags]) == 0
        assert "runs=2 errors=0" in capsys.readouterr().out
        rows, problems = read_results(out)
        assert problems == []
        assert [(r["seed"], r.get("error")) for r in rows] == [(2**64, None), (2**63, None)]

    def test_deeply_nested_config_is_usage_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        assert cli.main(["run", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config {cfg_path} is not valid JSON: ")
        assert "Traceback" not in err

    def test_methods_string_is_a_comma_list(self, tmp_path):
        """A config's methods string is split like the --methods flag, not
        read letter by letter."""
        lines = {}
        for given in ("wa, stfada", ["wa", "stfada"]):
            out = tmp_path / f"{type(given).__name__}.jsonl"
            cfg_path = tmp_path / "run.json"
            cfg_path.write_text(json.dumps(_mini_run_config(out, methods=given)),
                                encoding="utf-8")
            assert cli.main(["run", "--config", str(cfg_path)]) == 0
            rows, problems = read_results(out)
            assert not problems
            lines[type(given)] = [(r["method"], r["accuracy"]) for r in rows]
        assert [m for m, _ in lines[str]] == ["wa", "stfada"]
        assert lines[str] == lines[list]

    def test_non_integer_shots_flag_is_usage_error(self, tmp_path, capsys):
        assert cli.main(["run", "--task", "rot20", "--shots", "1,a",
                         "--out", str(tmp_path / "r.jsonl")]) == 2
        assert capsys.readouterr().err.startswith("error: shots")

    @pytest.mark.parametrize("overrides", [
        {"shots": ["a"]},
        {"shots": 3},
        {"jobs": "x"},
        {"seeds": 5},
        {"seeds": [0, None]},
        {"task": {"builtin": "rot40", "seed": "x"}},
        {"tohan": {"gen_batch": "x"}},
        {"tohan": {"gen_batch": 4.5}},
        {"tohan": {"tradeoff": "x"}},
        {"tohan": {"pair_batch": 64}},
        {"source": 5},
        {"shots": [3.5]},
        {"seeds": [0.0]},
        {"jobs": "2"},
        {"task": {"builtin": "rot40", "seed": 2.5}},
        {"task": {"builtin": "rot40", "seed": -1}},
        {"methods": 5},
        {"methods": None},
        {"methods": {"wa": 1}},
        {"methods": "wa,nope"},
        {"methods": [["wa"]]},
    ], ids=repr)
    def test_malformed_config_value_is_usage_error(self, tmp_path, capsys, overrides):
        out = tmp_path / "r.jsonl"
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(_mini_run_config(out, **overrides)), encoding="utf-8")
        assert cli.main(["run", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("fields", [
        {"class_means": 5},
        {"class_means": [1, 2]},
        {"class_scales": 3},
        {"translation": 3},
        {"class_means": [["a", "b"], [1, 1]]},
        {"rotation_deg": "x"},
        {"class_means": [[float("nan"), 0.3], [0.7, 0.7]]},
        {"class_scales": [float("nan"), 0.05]},
        {"translation": [float("inf"), 0.0]},
        {"rotation_deg": float("nan")},
    ], ids=repr)
    def test_malformed_task_spec_is_usage_error(self, tmp_path, capsys, fields):
        out = tmp_path / "r.jsonl"
        cfg = _mini_run_config(out)
        cfg["task"].update(fields)
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        assert cli.main(["run", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid task config: ") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("fields,field", [
        ({"source_per_class": 10**30}, "source_per_class"),
        ({"source_per_class": 10**17}, "source_per_class"),
        ({"target_per_class": 2**63}, "target_per_class"),
        ({"class_scales": [1e308, 1e308]}, "class_scales"),
        ({"class_means": [[1e307, 0.3], [0.7, 0.7]]}, "class_means"),
        ({"translation": [0.0, -1e307]}, "translation"),
    ], ids=repr)
    def test_task_that_cannot_be_drawn_is_usage_error(self, tmp_path, capsys, monkeypatch,
                                                      fields, field):
        """Refused, naming the field, before --out is created or a seed runs."""
        monkeypatch.setattr(trainers, "train_source", lambda *a: pytest.fail("a seed ran"))
        out = tmp_path / "r.jsonl"
        cfg = _mini_run_config(out)
        cfg["task"].update(fields)
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning on the way to the refusal
            assert cli.main(["run", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid task config: {field} ") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("section,seed", [("source", 5), ("tohan", 35), ("source", 0),
                                              ("task", 3), ("builtin", 0)])
    def test_seed_in_task_source_or_tohan_is_usage_error(self, tmp_path, capsys, monkeypatch,
                                                         section, seed):
        """Each run derives these seeds, the task's data seed included, from
        its grid seed, so a config seed would be silently ignored: it is
        refused before --out is created, in an inline task and next to
        builtin alike."""
        monkeypatch.setattr(trainers, "train_source", lambda *a: pytest.fail("a seed ran"))
        out = tmp_path / "r.jsonl"
        cfg = _mini_run_config(out)
        if section == "builtin":
            cfg["task"], section = {"builtin": "rot40"}, "task"
        cfg[section]["seed"] = seed
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        assert cli.main(["run", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {section}.seed has no effect")
        assert not out.exists()

    def test_readme_example_config_is_accepted(self, tmp_path, monkeypatch):
        """The run config shown in the README passes every check (the grid
        itself is stubbed out)."""
        readme = (REPO_ROOT / "README.md").read_text("utf-8")
        doc = json.loads(re.search(r'```json\n(\{\n  "task".*?\n\})\n```', readme, re.S)[1])
        monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: [])
        doc["out"] = str(tmp_path / doc["out"])
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["run", "--config", str(cfg_path)]) == 0


class TestSummarize:
    def test_renders_table(self, workdir, capsys):
        assert cli.main(["summarize", str(workdir / "results.jsonl")]) == 0
        out = capsys.readouterr().out
        assert out.startswith("method")
        assert "n_t=1" in out
        assert "wa" in out and "ft" in out

    def test_csv_format(self, workdir, capsys):
        rc = cli.main(["summarize", str(workdir / "results.jsonl"),
                       "--format", "csv"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "method,n_t,mean_pct,std_pct,seeds"
        assert len(lines) == 3

    def test_writes_output_file(self, workdir, tmp_path, capsys):
        out = tmp_path / "summary.txt"
        rc = cli.main(["summarize", str(workdir / "results.jsonl"),
                       "--out", str(out)])
        assert rc == 0
        assert out.read_text(encoding="utf-8").startswith("method")

    def test_skipped_lines_exit_one(self, workdir, tmp_path, capsys):
        good = (workdir / "results.jsonl").read_text(encoding="utf-8")
        row = '{"method": "ft", "task": "rot20", "wa_accuracy": 0.5, '
        bad_path = tmp_path / "mixed.jsonl"
        bad_path.write_text(good + "junk line\n"
                            + row + '"n_t": "x", "seed": 0, "accuracy": 0.5}\n'
                            + row + '"n_t": 1, "seed": 0, "accuracy": "abc"}\n'
                            + row + '"n_t": 1, "seed": 0, "accuracy": NaN}\n'
                            + row + '"n_t": -4, "seed": 0, "accuracy": 0.5}\n'
                            + row + '"n_t": 1, "seed": -2, "accuracy": 0.5}\n'
                            + row.replace('"ft"', "5") + '"n_t": 1, "seed": 0, "accuracy": 0.5}\n'
                            + row.replace('"ft"', "null")
                            + '"n_t": 1, "seed": 0, "accuracy": 0.5}\n',
                            encoding="utf-8")
        assert cli.main(["summarize", str(bad_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.count("skipped line") == 8
        assert captured.err.count("method is not a string") == 2
        assert captured.out.startswith("method")  # table still rendered
        assert "nan" not in captured.out
        assert "n_t=-4" not in captured.out
        assert {line.split()[0] for line in captured.out.splitlines()}.isdisjoint({"5", "None"})

    def test_csv_breaking_method_is_skipped(self, workdir, tmp_path, capsys):
        good = (workdir / "results.jsonl").read_text(encoding="utf-8")
        row = json.loads(good.splitlines()[0])
        path = tmp_path / "names.jsonl"
        path.write_text(good + "".join(json.dumps({**row, "method": name}) + "\n"
                                       for name in ("a,b", 'a"b', "a\nb", "a\rb")),
                        encoding="utf-8")
        assert cli.main(["summarize", str(path), "--format", "csv"]) == 1
        captured = capsys.readouterr()
        assert captured.err.count("method holds a comma, quote or line break") == 4
        assert cli.main(["summarize", str(workdir / "results.jsonl"), "--format", "csv"]) == 0
        assert capsys.readouterr().out == captured.out
        assert all(len(r) == 5 for r in csv.reader(captured.out.splitlines()))

    def test_non_utf8_line_is_skipped(self, workdir, tmp_path, capsys):
        good = (workdir / "results.jsonl").read_bytes()
        bad_path = tmp_path / "bytes.jsonl"
        bad_path.write_bytes(good + b"\xff\xfe\x00bad\n")
        assert cli.main(["summarize", str(bad_path)]) == 1
        captured = capsys.readouterr()
        assert "not UTF-8" in captured.err
        assert captured.err.count("skipped line") == 1
        assert captured.out.startswith("method")

    def test_empty_results_exit_one(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        assert cli.main(["summarize", str(path)]) == 1
        assert "no valid result lines" in capsys.readouterr().err

    def test_all_error_rows_exit_one(self, tmp_path, capsys):
        path = tmp_path / "errs.jsonl"
        path.write_text(
            '{"method": "wa", "task": "t", "n_t": 1, "seed": 0, "error": "boom"}\n',
            encoding="utf-8",
        )
        assert cli.main(["summarize", str(path)]) == 1

    def test_missing_file_exit_one(self, tmp_path):
        assert cli.main(["summarize", str(tmp_path / "absent.jsonl")]) == 1


class TestDumpEmbed:
    def test_exports_tagged_csv(self, workdir, tmp_path, capsys):
        out = tmp_path / "emb.csv"
        rc = cli.main([
            "dump-embed", "--model", str(workdir / "model.json"),
            "--data", f"source={workdir / 'data' / 'source.fhd'}",
            "--data", f"target={workdir / 'data' / 'target.fhd'}",
            "--out", str(out),
        ])
        assert rc == 0
        n_points = (load_dataset(workdir / "data" / "source.fhd").n
                    + load_dataset(workdir / "data" / "target.fhd").n)
        assert f"points={n_points}" in capsys.readouterr().out
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "x,y,label,domain"
        assert len(lines) == n_points + 1
        domains = {line.rsplit(",", 1)[1] for line in lines[1:]}
        assert domains == {"source", "target"}
        assert all(len(r) == 4 for r in csv.reader(lines))

    def test_bad_tag_syntax_is_usage_error(self, workdir, tmp_path):
        rc = cli.main([
            "dump-embed", "--model", str(workdir / "model.json"),
            "--data", str(workdir / "data" / "source.fhd"),
            "--out", str(tmp_path / "emb.csv"),
        ])
        assert rc == 2

    @pytest.mark.parametrize("tag", ["src,x", 'src"x', "src\nx", "src\rx"], ids=repr)
    def test_csv_breaking_tag_is_usage_error(self, workdir, tmp_path, capsys, tag):
        out = tmp_path / "emb.csv"
        rc = cli.main([
            "dump-embed", "--model", str(workdir / "model.json"),
            "--data", f"{tag}={workdir / 'data' / 'source.fhd'}",
            "--out", str(out),
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: --data tag must hold no comma")
        assert not out.exists()

    def test_model_without_encoder_is_usage_error(self, workdir, tmp_path):
        arch = trainers.default_classifier_arch(4, 2)
        net = nn.Net(arch, nn.init_params(arch, 0))
        model_path = tmp_path / "bare.json"
        nn.save_model(model_path, {"classifier": net}, 0, {})
        rc = cli.main([
            "dump-embed", "--model", str(model_path),
            "--data", f"source={workdir / 'data' / 'source.fhd'}",
            "--out", str(tmp_path / "emb.csv"),
        ])
        assert rc == 2

    def test_deeply_nested_model_file_is_usage_error(self, workdir, tmp_path, capsys):
        model_path = tmp_path / "deep.json"
        model_path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        rc = cli.main([
            "dump-embed", "--model", str(model_path),
            "--data", f"source={workdir / 'data' / 'source.fhd'}",
            "--out", str(tmp_path / "emb.csv"),
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: model file is not valid JSON: ")

    def test_nan_features_are_usage_error(self, workdir, tmp_path, capsys):
        blob = bytearray((workdir / "data" / "source.fhd").read_bytes())
        blob[16:20] = np.array([np.nan], dtype="<f4").tobytes()
        data_path = tmp_path / "nan.fhd"
        data_path.write_bytes(bytes(blob))
        rc = cli.main([
            "dump-embed", "--model", str(workdir / "model.json"),
            "--data", f"source={data_path}",
            "--out", str(tmp_path / "emb.csv"),
        ])
        assert rc == 2
        assert "[0, 1]" in capsys.readouterr().err

    def test_overflowing_model_seed_is_usage_error(self, workdir, tmp_path, capsys):
        text = (workdir / "model.json").read_text(encoding="utf-8")
        model_path = tmp_path / "huge_seed.json"
        model_path.write_text(text.replace('"seed": 0', '"seed": 1e400', 1), encoding="utf-8")
        rc = cli.main([
            "dump-embed", "--model", str(model_path),
            "--data", f"source={workdir / 'data' / 'source.fhd'}",
            "--out", str(tmp_path / "emb.csv"),
        ])
        assert rc == 2
        assert "seed must be an integer" in capsys.readouterr().err

    def test_model_with_non_object_nets_is_usage_error(self, workdir, tmp_path):
        model_path = tmp_path / "listnets.json"
        model_path.write_text('{"format": "fha-model", "version": 1, "seed": 0, '
                              '"nets": []}', encoding="utf-8")
        rc = cli.main([
            "dump-embed", "--model", str(model_path),
            "--data", f"source={workdir / 'data' / 'source.fhd'}",
            "--out", str(tmp_path / "emb.csv"),
        ])
        assert rc == 2


@pytest.fixture(scope="module")
def installed_fha(tmp_path_factory):
    """This checkout installed by pip into a temporary directory, offline."""
    pytest.importorskip("pip")
    target = tmp_path_factory.mktemp("installed")
    proc = subprocess.run(
        [sys.executable, "-m", "pip", "install", "--no-index", "--no-deps",
         "--no-build-isolation", "--target", str(target), str(REPO_ROOT)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return target


@pytest.fixture
def build_backend(monkeypatch):
    """The in-repo build backend, with the checkout as working directory."""
    monkeypatch.chdir(REPO_ROOT)
    monkeypatch.syspath_prepend(str(REPO_ROOT / "_build"))
    import fha_build
    return fha_build


def _prepend_env(monkeypatch, name, path):
    rest = os.environ.get(name)
    monkeypatch.setenv(name, f"{path}{os.pathsep}{rest}" if rest else str(path))


class TestInstalledEntryPoints:
    def test_console_script_help(self, installed_fha, monkeypatch):
        _prepend_env(monkeypatch, "PATH", installed_fha / "bin")
        _prepend_env(monkeypatch, "PYTHONPATH", installed_fha)
        proc = subprocess.run(["fha", "--help"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "gen-data" in proc.stdout

    def test_python_dash_m(self):
        proc = subprocess.run([sys.executable, "-m", "fha", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "summarize" in proc.stdout

    def test_build_backend_wheels(self, build_backend, tmp_path):
        info = "fha-0.1.0.dist-info"
        with zipfile.ZipFile(tmp_path / build_backend.build_wheel(str(tmp_path))) as zf:
            names = set(zf.namelist())
            package = {f"fha/{p.name}": p for p in (REPO_ROOT / "src" / "fha").glob("*.py")}
            assert {n for n in names if not n.startswith(f"{info}/")} == set(package)
            for name, path in package.items():
                assert zf.read(name) == path.read_bytes()

            entry_points = zf.read(f"{info}/entry_points.txt").decode().splitlines()
            assert "fha = fha.cli:main" in entry_points
            metadata = zf.read(f"{info}/METADATA").decode().splitlines()
            assert "Requires-Dist: numpy>=1.23" in metadata
            assert "Provides-Extra: test" in metadata
            assert 'Requires-Dist: pytest>=7; extra == "test"' in metadata

            rows = list(csv.reader(zf.read(f"{info}/RECORD").decode().splitlines()))
            assert {row[0] for row in rows} == names
            for path, digest, size in rows:
                if path == f"{info}/RECORD":
                    assert digest == size == ""
                    continue
                data = zf.read(path)
                expected = base64.urlsafe_b64encode(hashlib.sha256(data).digest())
                assert digest == "sha256=" + expected.rstrip(b"=").decode()
                assert int(size) == len(data)

        editable = tmp_path / "editable"
        editable.mkdir()
        with zipfile.ZipFile(editable / build_backend.build_editable(str(editable))) as zf:
            (pth,) = [n for n in zf.namelist() if n.endswith(".pth")]
            assert Path(zf.read(pth).decode().strip()) == REPO_ROOT / "src"
            entry_points = zf.read(f"{info}/entry_points.txt").decode().splitlines()
            assert "fha = fha.cli:main" in entry_points

    def test_build_backend_falls_back_to_tomli(self, build_backend, monkeypatch):
        # Python < 3.11 has no tomllib: the backend reads pyproject.toml with
        # tomli and asks the frontend for it. A stub wrapping tomllib stands
        # in for tomli, so the check needs no download.
        tomllib = pytest.importorskip("tomllib")
        loaded = []
        stub = types.ModuleType("tomli")
        stub.load = lambda fh: loaded.append(fh) or tomllib.load(fh)
        monkeypatch.setitem(sys.modules, "tomli", stub)
        monkeypatch.setattr(sys, "version_info", (3, 10))
        project = build_backend._project()
        assert project["name"] == "fha" and "version" in project
        assert len(loaded) == 1
        assert build_backend.get_requires_for_build_wheel() == ["tomli>=1.1"]
        assert build_backend.get_requires_for_build_editable() == ["tomli>=1.1"]
