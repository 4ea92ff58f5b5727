"""Per-layer tracing of the fha package from outside it.

The package modules import each other's functions by name (for example
``fha.trainers`` holds its own ``build_groups`` and ``fha.cli`` its own
``load_dataset``), so a wrapper installed only on the defining module would
miss most calls. ``Tracer.install`` therefore replaces every module attribute
in the ``fha`` package that *is* a traced function object, and
``Tracer.uninstall`` puts the originals back.

Each wrapped call is timed with ``time.perf_counter``. A stack of open calls
gives every call its parent, so self time is the call's duration minus the
time its traced children took. Spans ``(id, name, start, end, parent id,
round)`` are kept in memory for every layer except ``nn``, whose ~10^5 calls
per round are only counted and timed in aggregate, and are written out by
``write_spans`` after the run.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict

# The public functions each layer is traced at, keyed by fha module name.
TRACED = {
    "nn": ("forward_and_cache", "backward_from_cache", "adam_step"),
    "losses": ("generator_objective_and_grad", "adaptation_loss_and_grads",
               "group_ce_and_disc_grad", "cross_entropy", "cross_entropy_grad"),
    "pairing": ("build_groups", "sample_group_pairs", "phi"),
    "trainers": ("train_source", "train_ft", "train_shot", "train_generator_bank",
                 "sample_pool", "adapt_pairwise", "run_two_step", "train_tohan"),
    "data": ("make_synthetic_task", "sample_few_shot", "save_dataset", "load_dataset"),
    "harness": ("run_experiment", "accuracy", "write_results", "read_results",
                "summarize", "dump_embedding"),
    "cli": ("main",),
}
# Functions whose calls are only counted: they are too small to time.
COUNTED = {"nn": ("num_params",)}
# Layers whose calls are timed in aggregate without keeping spans.
AGGREGATE_ONLY = {"nn"}


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


class Tracer:
    """Counts, self times, spans and layer counters of one traced run."""

    def __init__(self, package):
        self.package = package
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.spans = []
        self.round = None
        self.flops = 0
        self.pairs = 0
        self.bytes_written = 0
        self.bytes_read = 0
        self.bank_calls = 0
        self.bank_repeats = 0
        self._bank_keys = set()
        self._stack = []
        self._next_id = 0
        self._arch_macs = {}
        self._patches = []

    # -- installation -------------------------------------------------------

    def _modules(self):
        prefix = self.package.__name__
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == prefix or name.startswith(prefix + "."))]

    def install(self) -> None:
        """Replace every reference to a traced function inside the package."""
        before_hooks = {
            "data.load_dataset": self._count_read,
            "trainers.train_generator_bank": self._count_bank,
        }
        after_hooks = {
            "nn.forward_and_cache": self._count_forward,
            "nn.backward_from_cache": self._count_backward,
            "pairing.sample_group_pairs": self._count_pairs,
            "data.save_dataset": self._count_written,
        }
        self._bank_sig = inspect.signature(self.package.trainers.train_generator_bank)
        replacements = {}
        for layer, names in TRACED.items():
            module = getattr(self.package, layer)
            for fname in names:
                name = f"{layer}.{fname}"
                fn = getattr(module, fname)
                replacements[id(fn)] = self._timed(
                    name, fn, layer not in AGGREGATE_ONLY,
                    before_hooks.get(name), after_hooks.get(name))
        for layer, names in COUNTED.items():
            module = getattr(self.package, layer)
            for fname in names:
                fn = getattr(module, fname)
                replacements[id(fn)] = self._counted(f"{layer}.{fname}", fn)
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None and callable(value):
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def start_round(self, round_id) -> None:
        """Spans after this belong to ``round_id``; bank repeats are per round."""
        self.round = round_id
        self._bank_keys = set()

    # -- wrappers -----------------------------------------------------------

    def _timed(self, name, fn, keep_spans, before, after):
        stack, calls, self_s, spans = self._stack, self.calls, self.self_s, self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            child = [0.0]
            parent = stack[-1][1] if stack else None
            sid = self._next_id
            self._next_id += 1
            stack.append((child, sid))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self_s[name] += dur - child[0]
                calls[name] += 1
                if stack:
                    stack[-1][0][0] += dur
                if keep_spans:
                    spans.append((sid, name, start, end, parent, self.round))
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- layer counters -----------------------------------------------------

    def _macs(self, arch) -> int:
        """Multiply-accumulates per batch row of one dense pass."""
        macs = self._arch_macs.get(arch)
        if macs is None:
            macs = sum(fi * fo for fi, fo in zip(arch.widths[:-1], arch.widths[1:]))
            self._arch_macs[arch] = macs
        return macs

    def _count_forward(self, args, kwargs, result):
        arch = args[0] if args else kwargs["arch"]
        batch = args[2] if len(args) > 2 else kwargs["batch"]
        self.flops += 2 * len(batch) * self._macs(arch)

    def _count_backward(self, args, kwargs, result):
        # weight gradient plus input gradient: two matmuls per layer
        arch = args[0] if args else kwargs["arch"]
        acts = args[2] if len(args) > 2 else kwargs["acts"]
        self.flops += 4 * len(acts[0]) * self._macs(arch)

    def _count_pairs(self, args, kwargs, result):
        self.pairs += int(result.size)

    def _count_written(self, args, kwargs, result):
        path = args[1] if len(args) > 1 else kwargs["path"]
        self.bytes_written += os.path.getsize(path)

    def _count_read(self, args, kwargs):
        path = args[0] if args else kwargs["path"]
        self.bytes_read += os.path.getsize(path)

    def _count_bank(self, args, kwargs):
        bound = self._bank_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        hyp, fewshot, mode = a["hypothesis"], a["fewshot"], a["mode"]
        key = (
            _digest(hyp.enc.params, hyp.cls.params),
            mode,
            a["cfg"],
            None if mode == "source_only" or fewshot is None
            else _digest(fewshot.features, fewshot.labels),
            a["seed"],
            a["epochs"],
        )
        self.bank_calls += 1
        if key in self._bank_keys:
            self.bank_repeats += 1
        self._bank_keys.add(key)

    # -- output -------------------------------------------------------------

    def write_spans(self, path) -> None:
        """Write the kept spans as JSON lines, times in seconds from the first."""
        t0 = min((s[2] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, rnd in self.spans:
                fh.write(json.dumps({"id": sid, "name": name,
                                     "start": round(start - t0, 9),
                                     "end": round(end - t0, 9),
                                     "parent": parent, "round": rnd}))
                fh.write("\n")
