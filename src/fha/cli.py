"""Command-line front end.

Subcommands: gen-data, train-source, run, summarize, dump-embed.
Exit codes: 0 success, 1 runtime failures (including partial run batches
and skipped result lines), 2 usage or validation errors. The FHA_LOG
environment variable (error | info | debug) controls verbosity.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
from dataclasses import fields, replace

from . import harness, nn, trainers
from .data import (
    TaskSpec,
    builtin_task,
    load_dataset,
    make_synthetic_task,
    save_dataset,
)
from .errors import (
    ConfigError,
    FHAError,
    FormatError,
    ProtocolError,
)
from .harness import ExperimentConfig, read_results, run_experiment, summarize
from .trainers import METHODS, BaselineConfig, SourceTrainConfig, TohanConfig

log = logging.getLogger("fha.cli")

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging() -> None:
    raw = os.environ.get("FHA_LOG", "error").strip().lower()
    if raw not in _LOG_LEVELS:
        raise ConfigError(f"FHA_LOG must be one of {sorted(_LOG_LEVELS)}, got {raw!r}")
    logging.basicConfig(
        level=_LOG_LEVELS[raw],
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )


def _parse_rotation(text: str) -> float:
    t = text.strip().lower()
    if t.endswith("deg"):
        t = t[:-3]
    else:
        for unit in ("rad", "grad", "turn"):
            if t.endswith(unit):
                raise ConfigError(
                    f"unsupported rotation unit {unit!r}; use degrees, e.g. 40deg"
                )
    try:
        return float(t)
    except ValueError as exc:
        raise ConfigError(f"cannot parse rotation {text!r}; use e.g. 40deg") from exc


def _parse_seeds(text: str) -> list[int]:
    t = text.strip()
    if ".." in t:
        lo, _, hi = t.partition("..")
        try:
            lo_i, hi_i = int(lo), int(hi)
        except ValueError as exc:
            raise ConfigError(f"bad seed range {text!r}") from exc
        if hi_i < lo_i:
            raise ConfigError(f"empty seed range {text!r}")
        return list(range(lo_i, hi_i + 1))
    try:
        return [int(p) for p in t.split(",") if p.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad seed list {text!r}") from exc


def _dataclass_from(cls, payload: dict, what: str):
    if not isinstance(payload, dict):
        raise ConfigError(f"{what} config must be an object")
    unknown = set(payload) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {what} fields: {sorted(unknown)}")
    try:
        return cls(**payload)
    except (TypeError, ValueError, ConfigError) as exc:
        raise ConfigError(f"invalid {what} config: {exc}") from exc


def _task_from_config(payload) -> TaskSpec:
    if isinstance(payload, str):
        return builtin_task(payload)
    if not isinstance(payload, dict):
        raise ConfigError("task must be a name or an object")
    payload = dict(payload)
    if "builtin" in payload:
        name = payload.pop("builtin")
        seed = payload.pop("seed", 0)
        if payload:
            raise ConfigError(f"unexpected task fields next to builtin: {sorted(payload)}")
        return builtin_task(str(name), seed)
    try:
        if "class_means" in payload:
            payload["class_means"] = tuple(tuple(m) for m in payload["class_means"])
        if "class_scales" in payload:
            payload["class_scales"] = tuple(payload["class_scales"])
        if payload.get("translation") is not None:
            payload["translation"] = tuple(payload["translation"])
    except TypeError as exc:
        raise ConfigError(f"invalid task config: {exc}") from exc
    return _dataclass_from(TaskSpec, payload, "task")


_RUN_CONFIG_KEYS = {"task", "methods", "shots", "seeds", "out", "jobs",
                    "tohan", "source", "baseline"}


def _load_run_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("run config must be a JSON object")
    unknown = set(doc) - _RUN_CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    return doc


def _experiment_config(doc: dict) -> ExperimentConfig:
    return ExperimentConfig(
        source=_dataclass_from(SourceTrainConfig, doc.get("source", {}), "source"),
        baseline=_dataclass_from(BaselineConfig, doc.get("baseline", {}), "baseline"),
        tohan=_dataclass_from(TohanConfig, doc.get("tohan", {}), "tohan"),
    )


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen_data(args) -> int:
    spec = builtin_task(args.task, seed=args.seed)
    if args.rotation is not None:
        spec = replace(spec, rotation_deg=_parse_rotation(args.rotation))
    source, target, target_test = make_synthetic_task(spec)
    os.makedirs(args.out, exist_ok=True)
    for name, ds in (("source", source), ("target", target),
                     ("target_test", target_test)):
        path = os.path.join(args.out, f"{name}.fhd")
        save_dataset(ds, path)
        print(f"{path} n={ds.n} d={ds.dim} classes={ds.num_classes} "
              f"sha256={_sha256(path)}")
    return 0


def _cmd_train_source(args) -> int:
    if (args.task is None) == (args.data is None):
        raise ConfigError("pass exactly one of --task or --data")
    if args.task is not None:
        spec = builtin_task(args.task, seed=args.seed)
        source, _, _ = make_synthetic_task(spec)
    else:
        source = load_dataset(args.data)
    cfg = SourceTrainConfig(seed=args.seed)
    hypothesis = trainers.train_source(source, cfg)
    trainers.save_hypothesis(args.out, hypothesis)
    print(f"{args.out} train_accuracy={hypothesis.train_accuracy:.4f} "
          f"test_accuracy={hypothesis.test_accuracy:.4f}")
    return 0


def _cmd_run(args) -> int:
    doc: dict = {}
    if args.config is not None:
        doc = _load_run_config(args.config)
    if args.task is not None:
        doc["task"] = args.task
    if args.methods is not None:
        doc["methods"] = [m.strip() for m in args.methods.split(",") if m.strip()]
    if args.shots is not None:
        try:
            doc["shots"] = [int(s) for s in args.shots.split(",") if s.strip()]
        except ValueError as exc:
            raise ConfigError(f"shots must be integers, got {args.shots!r}") from exc
    if args.seeds is not None:
        doc["seeds"] = _parse_seeds(args.seeds)
    if args.out is not None:
        doc["out"] = args.out
    if args.jobs is not None:
        doc["jobs"] = args.jobs
    if "task" not in doc:
        raise ConfigError("a task is required (--task or config)")
    if "out" not in doc:
        raise ConfigError("an output path is required (--out or config)")
    task = _task_from_config(doc["task"])
    methods = doc.get("methods", list(METHODS))
    shots = doc.get("shots", [1, 3, 7])
    seeds = doc.get("seeds", list(range(10)))
    if isinstance(seeds, str):
        seeds = _parse_seeds(seeds)
    if not isinstance(shots, list) or not isinstance(seeds, list):
        raise ConfigError("shots and seeds must be lists of integers")
    shots = [nn._as_int(s, "shots") for s in shots]
    seeds = [nn._as_int(s, "seeds") for s in seeds]
    jobs = nn._as_int(doc.get("jobs", 1), "jobs")
    cfg = _experiment_config(doc)
    out = doc["out"]
    if os.path.exists(out):
        os.remove(out)  # each invocation produces a fresh stream
    results = run_experiment(task, methods, shots, seeds, cfg, sink=out, jobs=jobs)
    errors = [r for r in results if r.error is not None]
    print(f"{out} runs={len(results)} errors={len(errors)}")
    for r in errors:
        print(f"error: {r.method} n_t={r.n_t} seed={r.seed}: {r.error}",
              file=sys.stderr)
    return 1 if errors else 0


def _cmd_summarize(args) -> int:
    rows, problems = read_results(args.results)
    for p in problems:
        print(f"skipped {p}", file=sys.stderr)
    if not rows:
        print("no valid result lines", file=sys.stderr)
        return 1
    table = summarize(rows)
    text = table.to_csv() if args.format == "csv" else table.render()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 1 if problems else 0


def _cmd_dump_embed(args) -> int:
    nets, _, _ = nn.load_model(args.model)
    if "encoder" not in nets:
        raise FormatError("model file does not contain an encoder")
    tagged = []
    for item in args.data:
        tag, sep, path = item.partition("=")
        if not sep or not tag or not path:
            raise ConfigError(f"--data expects TAG=FILE, got {item!r}")
        tagged.append((tag, load_dataset(path)))
    table = harness.dump_embedding(nets["encoder"], tagged)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(table.to_csv())
    note = " (degenerate fallback)" if table.degenerate else ""
    print(f"{args.out} points={table.x.size}{note}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fha",
        description="Few-shot hypothesis adaptation experiments on synthetic tasks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a task's dataset files")
    p.add_argument("--task", required=True, help="builtin task name (e.g. rot40)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rotation", default=None,
                   help="override the target rotation, degrees (e.g. 40deg)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train-source", help="fit and save a source model")
    p.add_argument("--task", default=None, help="builtin task name")
    p.add_argument("--data", default=None, help="source dataset file (.fhd)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="model file to write")
    p.set_defaults(func=_cmd_train_source)

    p = sub.add_parser("run", help="run a method/shots/seeds grid")
    p.add_argument("--config", default=None, help="JSON run config")
    p.add_argument("--task", default=None)
    p.add_argument("--methods", default=None, help="comma list, default all")
    p.add_argument("--shots", default=None, help="comma list, default 1,3,7")
    p.add_argument("--seeds", default=None, help="e.g. 0..9 or 0,1,2")
    p.add_argument("--out", default=None, help="results file (.jsonl)")
    p.add_argument("--jobs", type=int, default=None, help="parallel seed workers")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("summarize", help="aggregate a results file")
    p.add_argument("results", help="results file (.jsonl)")
    p.add_argument("--format", choices=("table", "csv"), default="table")
    p.add_argument("--out", default=None, help="write instead of printing")
    p.set_defaults(func=_cmd_summarize)

    p = sub.add_parser("dump-embed", help="export a 2-d embedding table")
    p.add_argument("--model", required=True, help="model file")
    p.add_argument("--data", action="append", required=True, metavar="TAG=FILE",
                   help="dataset with a domain tag; repeatable")
    p.add_argument("--out", required=True, help="CSV file to write")
    p.set_defaults(func=_cmd_dump_embed)
    return parser


def main(argv=None) -> int:
    try:
        _setup_logging()
        args = build_parser().parse_args(argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse usage errors carry code 2
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigError, ProtocolError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FHAError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
