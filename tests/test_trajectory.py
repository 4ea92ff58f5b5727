"""Bit-exact replay of the trajectory oracle.

``tests/data/trajectory_rot40.json`` holds SHA-256 digests of short rot40
runs of tohan and the two-step methods (final encoder/classifier
parameters and the full phase trace) and of a generator bank and its
sampled pool in each mode. It is written by ``scripts/record_trajectory.py``,
which this test imports from its file and runs again: a change that moves
any bit of a loss, gradient, pool or parameter fails here even when the
final accuracies in the pilot oracle stay the same.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "record_trajectory.py"
ORACLE = ROOT / "tests" / "data" / "trajectory_rot40.json"


@pytest.fixture(scope="module")
def replayed():
    spec = importlib.util.spec_from_file_location("fha_record_trajectory", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.OUT == ORACLE
    return module.trajectory()


@pytest.fixture(scope="module")
def oracle():
    return json.loads(ORACLE.read_text())


def test_setup_matches_the_oracle(replayed, oracle):
    for key in ("task", "n_t", "seed", "source_epochs", "tohan", "pool_per_class"):
        assert replayed[key] == oracle[key], key


@pytest.mark.parametrize("method", ["tohan", "sfada", "tfada", "stfada"])
def test_run_replays_bit_exactly(replayed, oracle, method):
    assert replayed["runs"][method] == oracle["runs"][method]


@pytest.mark.parametrize("mode", ["source_only", "target_only", "combined"])
def test_bank_and_pool_replay_bit_exactly(replayed, oracle, mode):
    assert replayed["banks"][mode] == oracle["banks"][mode]
