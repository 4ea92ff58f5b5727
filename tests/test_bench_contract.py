"""The names the benchmark tracer looks up in fha must keep resolving.

``perfbench/tracer.py`` wraps package functions by name and reads some of
their arguments by position or keyword. A refactor that renames one of them
would otherwise break only a traced benchmark run, not the test suite. The
tracer is imported from its file, as the benchmark uses it.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

import fha
import fha.cli  # noqa: F401  (the tracer looks up fha.cli.main)

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("fha_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_and_counted_name_resolves(tracer):
    names = [(layer, name) for table in (tracer.TRACED, tracer.COUNTED)
             for layer, fnames in table.items() for name in fnames]
    assert names
    for layer, name in names:
        assert callable(getattr(getattr(fha, layer), name, None)), f"{layer}.{name}"


def test_nn_hooks_find_the_batch_and_activations():
    # the flop counters read argument 2 by position, or by these keywords
    for fname, third in (("forward_and_cache", "batch"), ("backward_from_cache", "acts")):
        params = list(inspect.signature(getattr(fha.nn, fname)).parameters)
        assert params[:3] == ["arch", "params", third]


def test_generator_bank_signature_binds_the_tracer_keys():
    sig = inspect.signature(fha.trainers.train_generator_bank)
    bound = sig.bind(object(), None, "combined", object(), seed=1, epochs=2)
    bound.apply_defaults()
    assert {"hypothesis", "fewshot", "mode", "cfg", "seed", "epochs"} <= set(bound.arguments)
    bound = sig.bind(object(), None, "combined", object())
    bound.apply_defaults()
    assert bound.arguments["seed"] is None and bound.arguments["epochs"] is None
