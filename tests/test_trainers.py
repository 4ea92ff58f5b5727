"""Tests for fha.trainers: source fitting, the benchmark family, pairwise
adaptation schedules, and the trace-based freeze contracts.

The schedule tests replay tiny configurations and compare the emitted phase
trace against the expected event sequence. Digest chains in the trace prove
that every event changes exactly its own parameter set: generator steps never
touch the model, model steps never touch the discriminator, and the source
hypothesis is never mutated by anything.
"""

import dataclasses
import hashlib
import json
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fha import harness, losses, nn, pairing, trainers
from fha.data import Dataset, FewShotSet, builtin_task, make_synthetic_task, sample_few_shot
from fha.errors import (
    ConfigError,
    FormatError,
    InsufficientDataError,
    MissingClassError,
    NumericalError,
    ProtocolError,
    QualityGateError,
)
from fha.pairing import ALL_GROUPS, LabeledPool


def _hypothesis(num_classes=3, dim=2, width=6, seed=0):
    enc_seed, cls_seed = nn.derive_seeds(seed, 2)
    enc_arch = trainers.default_encoder_arch(dim, width)
    cls_arch = trainers.default_classifier_arch(width, num_classes)
    return trainers.SourceHypothesis(
        enc=nn.Net(enc_arch, nn.init_params(enc_arch, enc_seed)),
        cls=nn.Net(cls_arch, nn.init_params(cls_arch, cls_seed)),
        seed=seed,
        train_accuracy=1.0,
        test_accuracy=1.0,
    )


def _fewshot(num_classes=3, n_t=2, dim=2, seed=5):
    rng = np.random.default_rng(seed)
    count = n_t * num_classes
    return FewShotSet(
        features=rng.uniform(size=(count, dim)).astype(np.float32),
        labels=np.repeat(np.arange(num_classes), n_t),
        indices=np.arange(count),
        n_t=n_t,
        num_classes=num_classes,
    )


def _pool(num_classes=3, per_class=8, dim=2, seed=11):
    rng = np.random.default_rng(seed)
    return LabeledPool(rng.uniform(size=(per_class * num_classes, dim)),
                       np.repeat(np.arange(num_classes), per_class))


def _tiny_cfg(**overrides):
    base = dict(
        gen_batch=4,
        per_group=2,
        z_dim=3,
        gen_hidden=4,
        disc_hidden=4,
        total_epochs=6,
        disc_pretrain_epochs=3,
        adapt_epochs=3,
        seed=0,
    )
    base.update(overrides)
    return trainers.TohanConfig(**base)


def _easy_source(n_per=50, seed=3):
    rng = np.random.default_rng(seed)
    means = np.array([[0.25, 0.25], [0.75, 0.75]])
    feats = np.concatenate(
        [m + 0.07 * rng.standard_normal((n_per, 2)) for m in means]
    )
    feats = np.clip(feats, 0.0, 1.0).astype(np.float32)
    return Dataset(feats, np.repeat(np.arange(2), n_per), 2)


def _snapshot(hypothesis):
    return hypothesis.enc.params.tobytes(), hypothesis.cls.params.tobytes()


def _model_bytes(model):
    return model.enc.params.tobytes(), model.cls.params.tobytes()


# which parameter sets each trace phase is allowed (and required) to change
PHASE_CHANGES = {
    "generate": {"gens"},
    "pretrain_disc": {"disc"},
    "model_update": {"enc", "cls"},
    "disc_update": {"disc"},
}


def _assert_exclusive_updates(trace):
    """Every event changes its own parameter set and leaves the others alone."""
    prev = trace[0]
    for ev in trace[1:]:
        allowed = PHASE_CHANGES[ev.phase]
        for key, digest in ev.digests.items():
            if key in allowed:
                assert digest != prev.digests[key], (
                    f"{ev.phase} at epoch {ev.epoch} left {key} unchanged"
                )
            else:
                assert digest == prev.digests[key], (
                    f"{ev.phase} at epoch {ev.epoch} modified {key}"
                )
        prev = ev


class TestConfigs:
    @pytest.mark.parametrize("kwargs", [
        {"epochs": 0},
        {"batch_size": 0},
        {"encoder_width": 0},
        {"holdout_fraction": 0.0},
        {"holdout_fraction": 1.0},
        {"min_test_accuracy": 1.2},
        {"lr": 0.0},
    ])
    def test_source_config_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            trainers.SourceTrainConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [{"epochs": -1}, {"lr": 0.0}])
    def test_baseline_config_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            trainers.BaselineConfig(**kwargs)

    def test_baseline_zero_epochs_allowed(self):
        assert trainers.BaselineConfig(epochs=0).epochs == 0

    @pytest.mark.parametrize("kwargs", [
        {"per_group": 0},
        {"z_dim": 0},
        {"adapt_epochs": 500},
        {"adapt_epochs": 700},
        {"tradeoff": -0.1},
        {"gen_batch": 0},
        {"total_epochs": 0},
        {"disc_pretrain_epochs": -1},
        {"lr": 0.0},
        {"lr": -1.0},
    ])
    def test_tohan_config_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            trainers.TohanConfig(**kwargs)

    def test_tohan_default_schedule(self):
        cfg = trainers.TohanConfig()
        assert cfg.total_epochs == 500
        assert cfg.disc_pretrain_epochs == 100
        assert cfg.adapt_epochs == 50
        assert cfg.gen_batch == 32
        assert cfg.per_group == 16
        assert cfg.tradeoff == 0.2
        assert cfg.lr == 1e-3

    @pytest.mark.parametrize("bad", [4.5, True, "3"], ids=repr)
    @pytest.mark.parametrize("base,name", [
        (base, f.name)
        for base in (trainers.SourceTrainConfig(), trainers.BaselineConfig(),
                     trainers.TohanConfig(), builtin_task("rot40"))
        for f in dataclasses.fields(base) if f.type == "int"
    ], ids=lambda v: v if isinstance(v, str) else type(v).__name__)
    def test_int_fields_refuse_non_integers(self, base, name, bad):
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            dataclasses.replace(base, **{name: bad})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), True, False,
                                     "0.1", None], ids=repr)
    @pytest.mark.parametrize("base,name", [
        (base, f.name)
        for base in (trainers.SourceTrainConfig(), trainers.BaselineConfig(),
                     trainers.TohanConfig(), builtin_task("rot40"))
        for f in dataclasses.fields(base) if f.type == "float"
    ], ids=lambda v: v if isinstance(v, str) else type(v).__name__)
    def test_float_fields_refuse_non_finite_and_bools(self, base, name, bad):
        # a NaN or infinite rate would reach the runs, which then fail one by one
        with pytest.raises(ConfigError, match=f"^{name} must be a finite number, got "):
            dataclasses.replace(base, **{name: bad})

    def test_float_fields_take_ints_and_numpy_floats(self):
        cfg = trainers.TohanConfig(tradeoff=0, lr=np.float64(0.01))
        assert (cfg.tradeoff, cfg.lr) == (0, 0.01)
        assert trainers.TohanConfig(lr=2).lr == 2

    @pytest.mark.parametrize("name", ["lr_gen", "lr_disc_pretrain", "lr_model", "lr_disc_adapt"])
    def test_per_phase_rates_are_gone(self, name):
        # every Adam steps at the one lr; an old per-phase rate is no field
        assert name not in {f.name for f in dataclasses.fields(trainers.TohanConfig)}
        with pytest.raises(TypeError, match=name):
            trainers.TohanConfig(**{name: 1e-3})

    @pytest.mark.parametrize("base", [trainers.SourceTrainConfig(), trainers.TohanConfig()],
                             ids=lambda b: type(b).__name__)
    def test_seeds_past_int64_accepted(self, base):
        for seed in (2**63, 2**64):
            assert dataclasses.replace(base, seed=seed).seed == seed

    @pytest.mark.parametrize("base", [trainers.SourceTrainConfig(), trainers.TohanConfig()],
                             ids=lambda b: type(b).__name__)
    def test_negative_seed_rejected(self, base):
        # numpy's seeding would raise a raw ValueError only when the run starts
        with pytest.raises(ConfigError, match="^seed must be non-negative, got -1$"):
            dataclasses.replace(base, seed=-1)
        assert dataclasses.replace(base, seed=0).seed == 0

    def test_method_registry(self):
        assert trainers.METHODS == (
            "wa", "ft", "shot", "sfada", "tfada", "stfada", "tohan"
        )
        assert trainers.TWO_STEP_MODES == {
            "sfada": "source_only",
            "tfada": "target_only",
            "stfada": "combined",
        }


class TestContainers:
    def test_hypothesis_width_mismatch(self):
        enc_arch = trainers.default_encoder_arch(2, 6)
        cls_arch = trainers.default_classifier_arch(5, 3)
        with pytest.raises(ConfigError):
            trainers.SourceHypothesis(
                enc=nn.Net(enc_arch, nn.init_params(enc_arch, 0)),
                cls=nn.Net(cls_arch, nn.init_params(cls_arch, 1)),
                seed=0, train_accuracy=1.0, test_accuracy=1.0,
            )

    def test_hypothesis_requires_softmax_head(self):
        enc_arch = trainers.default_encoder_arch(2, 6)
        cls_arch = nn.ArchSpec((6, 3), head="linear")
        with pytest.raises(ConfigError):
            trainers.SourceHypothesis(
                enc=nn.Net(enc_arch, nn.init_params(enc_arch, 0)),
                cls=nn.Net(cls_arch, nn.init_params(cls_arch, 1)),
                seed=0, train_accuracy=1.0, test_accuracy=1.0,
            )

    def test_target_model_width_mismatch(self):
        enc_arch = trainers.default_encoder_arch(2, 6)
        cls_arch = trainers.default_classifier_arch(4, 3)
        with pytest.raises(ConfigError):
            trainers.TargetModel(
                enc=nn.Net(enc_arch, nn.init_params(enc_arch, 0)),
                cls=nn.Net(cls_arch, nn.init_params(cls_arch, 1)),
            )

    def test_generator_bank_validation(self):
        arch = trainers.default_generator_arch(3, 2, 4)
        row = nn.init_params(arch, 0)
        stack = np.stack([row, nn.init_params(arch, 1)])
        for bad in (row, stack[:1], stack[:, :-1], stack[None]):
            with pytest.raises(ConfigError):
                trainers.GeneratorBank(arch=arch, params=bad)
        other = trainers.default_generator_arch(3, 2, 5)
        with pytest.raises(ConfigError):
            trainers.GeneratorBank(arch=other, params=stack)
        with pytest.raises(NumericalError):
            trainers.GeneratorBank(arch=arch, params=np.where(stack > 0, np.nan, stack))
        bank = trainers.GeneratorBank(arch=arch, params=stack)
        assert bank.num_classes == 2
        assert bank.arch.in_width == 3
        assert np.array_equal(bank.params, stack) and bank.params is not stack
        assert not bank.params.flags.writeable

    def test_default_arch_shapes(self):
        assert trainers.default_encoder_arch(2, 8).widths == (2, 8, 8)
        assert trainers.default_encoder_arch(2, 8).head == "linear"
        cls = trainers.default_classifier_arch(8, 3)
        assert cls.widths == (8, 3) and cls.head == "softmax"
        gen = trainers.default_generator_arch(4, 2, 16)
        assert gen.widths == (4, 16, 2) and gen.head == "sigmoid"
        disc = trainers.default_discriminator_arch(8, 16)
        assert disc.widths == (16, 16, 4) and disc.head == "softmax"


class TestEvaluation:
    def test_predict_proba_rows_sum_to_one(self):
        hyp = _hypothesis()
        x = np.random.default_rng(0).uniform(size=(10, 2))
        probs = hyp.cls(hyp.enc(x))
        assert probs.shape == (10, 3)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_eval_wa_matches_manual_argmax(self):
        hyp = _hypothesis()
        rng = np.random.default_rng(7)
        feats = rng.uniform(size=(40, 2)).astype(np.float32)
        labels = rng.integers(0, 3, size=40)
        test = Dataset(feats, labels, 3)
        probs = hyp.cls(hyp.enc(feats.astype(np.float64)))
        expected = float(np.mean(np.argmax(probs, axis=1) == labels))
        assert harness.accuracy(hyp, test) == expected

    def test_uniform_probs_predict_lowest_class(self):
        # zero classifier weights give uniform softmax rows; argmax must
        # resolve the tie to class 0
        hyp = _hypothesis()
        zero_cls = hyp.cls.with_params(np.zeros_like(hyp.cls.params))
        flat = trainers.SourceHypothesis(
            enc=hyp.enc, cls=zero_cls, seed=0,
            train_accuracy=1.0, test_accuracy=1.0,
        )
        feats = np.random.default_rng(1).uniform(size=(30, 2)).astype(np.float32)
        labels = np.zeros(30, dtype=np.int64)
        assert harness.accuracy(flat, Dataset(feats, labels, 3)) == 1.0

    def test_empty_test_set_rejected(self):
        hyp = _hypothesis()
        with pytest.raises(InsufficientDataError):
            trainers.net_accuracy(
                hyp.enc, hyp.cls, np.empty((0, 2)), np.empty(0, dtype=np.int64)
            )


class TestStratifiedHoldout:
    def test_split_is_disjoint_and_complete(self):
        labels = np.repeat(np.arange(3), 20)
        rng = np.random.default_rng(0)
        train, test = trainers._stratified_holdout(labels, 0.2, rng)
        combined = np.sort(np.concatenate([train, test]))
        np.testing.assert_array_equal(combined, np.arange(60))
        for c in range(3):
            assert np.sum(labels[test] == c) == 4

    def test_minimum_one_per_class(self):
        labels = np.repeat(np.arange(2), 4)
        rng = np.random.default_rng(0)
        _, test = trainers._stratified_holdout(labels, 0.1, rng)
        assert np.sum(labels[test] == 0) == 1

    def test_singleton_class_rejected(self):
        labels = np.array([0, 0, 0, 1])
        with pytest.raises(InsufficientDataError):
            trainers._stratified_holdout(labels, 0.2, np.random.default_rng(0))


class TestTrainSource:
    def test_fits_separable_task(self):
        hyp = trainers.train_source(_easy_source(), trainers.SourceTrainConfig(seed=3))
        assert hyp.test_accuracy >= 0.8
        assert hyp.train_accuracy >= 0.8
        assert not hyp.enc.params.flags.writeable
        assert not hyp.cls.params.flags.writeable

    def test_deterministic_under_seed(self):
        source = _easy_source()
        cfg = trainers.SourceTrainConfig(seed=3)
        a = trainers.train_source(source, cfg)
        b = trainers.train_source(source, cfg)
        assert a.enc.params.tobytes() == b.enc.params.tobytes()
        assert a.cls.params.tobytes() == b.cls.params.tobytes()
        assert a.test_accuracy == b.test_accuracy

    def test_seed_changes_solution(self):
        source = _easy_source()
        a = trainers.train_source(source, trainers.SourceTrainConfig(seed=3))
        b = trainers.train_source(source, trainers.SourceTrainConfig(seed=4))
        assert a.enc.params.tobytes() != b.enc.params.tobytes()

    # SHA-256 of encoder + classifier parameter bytes, recorded while each step
    # still ran the five checked calls (two forwards, cross_entropy_and_grad,
    # two backwards) that losses.softmax_ce_and_grads replaced; their first 16
    # hex digits go back to when encoder and classifier had two Adam states
    RECORDED = {
        ("rot40", 0): "a359ff502d4a9903ce003db21806493ae5227bb1eae72fca93e15c53e7e6d4f6",
        ("rot40", 1): "0fab60447c4297d63a80fbeb3a392677f20e3fe24028b41994a6dfc978999013",
        ("rot20", 0): "82157723e1524170a821c33dbd067dbf7418e72cfda293619707eac48d3b2121",
        ("rot20", 1): "b224d5ba95ff3ade1466a380fa92c53a5d55d1898ecbe0b443b34eec0ab10ecb",
        ("rot180", 0): "504524755f780b72c3e8246b42c1f3cdcaa760eec765fd69a750d86cca6ce964",
        ("rot180", 1): "0ebd9ae284695b637382e4fea08bbbeaedc3b7be316210d86ac3c781a28614e8",
        ("shift", 0): "9ec8f82c476ba482be30c84d28574b77acbf17f7f5a7e7d138724aa24d20e729",
        ("shift", 1): "3e04f17ca7c7acca7c0d2e0e5db87f71d5f4c16ab7c286b4e951a570230641e9",
        ("blobs", 0): "18df0bda8550f1289346d4855b3635f71f3b0a677781922219ada694975abd26",
        ("blobs", 1): "91c615cb55c204a06e4ec43101d38b63c4bf6e11e50a191b52d09d9ba6f8c1b9",
    }

    @pytest.mark.parametrize("task,seed", sorted(RECORDED))
    def test_parameters_match_recorded_digests(self, task, seed):
        source = make_synthetic_task(builtin_task(task, seed=seed))[0]
        hyp = trainers.train_source(source, trainers.SourceTrainConfig(seed=seed))
        digest = hashlib.sha256(hyp.enc.params.tobytes() + hyp.cls.params.tobytes())
        assert digest.hexdigest() == self.RECORDED[task, seed]

    def test_quality_gate_rejects_unlearnable_task(self):
        # both classes share one center, so holdout accuracy hovers near 0.5
        rng = np.random.default_rng(9)
        feats = np.clip(
            0.5 + 0.2 * rng.standard_normal((80, 2)), 0.0, 1.0
        ).astype(np.float32)
        source = Dataset(feats, np.repeat(np.arange(2), 40), 2)
        with pytest.raises(QualityGateError):
            trainers.train_source(source, trainers.SourceTrainConfig(epochs=20, seed=0))

    def test_empty_source_is_insufficient_data(self):
        source = Dataset(np.zeros((0, 2), np.float32), np.zeros(0, np.int64), 3)
        with pytest.raises(InsufficientDataError, match="no samples"):
            trainers.train_source(source, trainers.SourceTrainConfig(seed=0))

    def test_diverging_fit_raises(self, monkeypatch):
        built = _spy_losses(monkeypatch)
        source = make_synthetic_task(builtin_task("rot40", seed=0))[0]
        cfg = trainers.SourceTrainConfig(epochs=3, lr=1e300, seed=0)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                NumericalError, match=r"^source training diverged \(non-finite loss\)$"):
            trainers.train_source(source, cfg)
        # the Adam step refused the NaN gradient first; only then was the loss built
        assert len(built) == 1 and not math.isfinite(built[0])

    def test_nan_gradient_with_a_finite_loss_raises_the_gradient_error(self, monkeypatch):
        built = _spy_losses(monkeypatch, poison_after=2)
        source = make_synthetic_task(builtin_task("rot40", seed=0))[0]
        with pytest.raises(NumericalError, match="^non-finite gradient in adam_step$"):
            trainers.train_source(source, trainers.SourceTrainConfig(epochs=3, seed=0))
        assert len(built) == 1 and math.isfinite(built[0])


def _spy_losses(monkeypatch, poison_after=None):
    """Record the loss of each fitting pass that builds one, and with
    ``poison_after`` put a NaN into the gradient of every later pass."""
    softmax_ce, passes, built = losses._softmax_ce, [], []

    def spy(*args, **kwargs):
        loss = softmax_ce(*args, **kwargs)
        passes.append(None)
        if poison_after is not None and len(passes) > poison_after:
            # the first bias of the trained net (the encoder, if it trains), in its bound gradient
            (args[5] if args[2] is None else args[2])[0][1][0, 0] = np.nan
        if loss is not None:
            built.append(loss)
        return loss

    monkeypatch.setattr(losses, "_softmax_ce", spy)
    return built


@pytest.mark.parametrize("what,epochs,steps", [("source", 2, 8), ("ft", 3, 3), ("shot", 3, 3)])
def test_every_fit_steps_through_the_one_fitting_loop(monkeypatch, what, epochs, steps):
    fit, adam_into, fits, inside, stepped = trainers._fit, nn.adam_into, [], [], []

    def fit_spy(*args):
        fits.append(args[-1])
        inside.append(None)
        try:
            return fit(*args)
        finally:
            inside.pop()

    def adam_spy(*args):
        stepped.append(bool(inside))
        return adam_into(*args)

    monkeypatch.setattr(trainers, "_fit", fit_spy)
    monkeypatch.setattr(nn, "adam_into", adam_spy)
    if what == "source":  # rot40's 240 training rows make 4 batches of 64 per epoch
        source = make_synthetic_task(builtin_task("rot40", seed=0))[0]
        trainers.train_source(source, trainers.SourceTrainConfig(
            epochs=epochs, min_test_accuracy=0.0, seed=0))
    else:
        getattr(trainers, f"train_{what}")(_hypothesis(), _fewshot(),
                                           trainers.BaselineConfig(epochs=epochs))
    assert fits == [f"{what} training"]
    assert stepped == [True] * steps


def _composed_train_shot(hypothesis, fewshot, cfg):
    """train_shot's encoder parameters as it computed them before one
    losses.softmax_ce_and_grads call per epoch took over its five checked calls."""
    x = fewshot.features.astype(np.float64)
    enc_arch, cls = hypothesis.enc.arch, hypothesis.cls
    params = np.array(hypothesis.enc.params)
    state = nn.AdamState.init(params.size, cfg.lr)
    for _ in range(cfg.epochs):
        emb, enc_cache = nn.forward_and_cache(enc_arch, params, x)
        probs, cls_cache = nn.forward_and_cache(cls.arch, cls.params, emb)
        up = losses.cross_entropy_grad(probs, fewshot.labels)
        _, emb_up = nn.backward_from_cache(cls.arch, cls.params, cls_cache, up)
        grad, _ = nn.backward_from_cache(enc_arch, params, enc_cache, emb_up)
        params, state = nn.adam_step(state, params, grad)
    return params


def _composed_train_ft(hypothesis, fewshot, cfg):
    """train_ft's classifier parameters as it computed them through the public
    nn calls: a forward, cross_entropy_grad and a backward per epoch."""
    emb = hypothesis.enc(fewshot.features.astype(np.float64))
    arch = hypothesis.cls.arch
    params = np.array(hypothesis.cls.params)
    state = nn.AdamState.init(params.size, cfg.lr)
    for _ in range(cfg.epochs):
        probs, cache = nn.forward_and_cache(arch, params, emb)
        up = losses.cross_entropy_grad(probs, fewshot.labels)
        grad, _ = nn.backward_from_cache(arch, params, cache, up)
        params, state = nn.adam_step(state, params, grad)
    return params


class TestFewShotBenchmarks:
    @pytest.mark.parametrize("n_t", [1, 7])
    def test_shot_equals_the_composed_calls(self, n_t):
        source, target, _ = make_synthetic_task(builtin_task("rot40", seed=n_t))
        hyp = trainers.train_source(source, trainers.SourceTrainConfig(seed=n_t))
        fs = sample_few_shot(target, n_t, seed=n_t)
        cfg = trainers.BaselineConfig()
        model = trainers.train_shot(hyp, fs, cfg)
        assert model.cls is hyp.cls
        assert model.enc.params.tobytes() == _composed_train_shot(hyp, fs, cfg).tobytes()

    @pytest.mark.parametrize("n_t", [1, 7])
    def test_ft_equals_the_composed_calls(self, n_t):
        source, target, _ = make_synthetic_task(builtin_task("rot40", seed=n_t))
        hyp = trainers.train_source(source, trainers.SourceTrainConfig(seed=n_t))
        fs = sample_few_shot(target, n_t, seed=n_t)
        cfg = trainers.BaselineConfig()
        model = trainers.train_ft(hyp, fs, cfg)
        assert model.enc is hyp.enc
        assert model.cls.params.tobytes() == _composed_train_ft(hyp, fs, cfg).tobytes()

    def test_ft_freezes_encoder_and_moves_classifier(self):
        hyp = _hypothesis()
        fs = _fewshot()
        before = _snapshot(hyp)
        model = trainers.train_ft(hyp, fs, trainers.BaselineConfig())
        assert model.enc is hyp.enc
        assert model.cls.params.tobytes() != hyp.cls.params.tobytes()
        assert _snapshot(hyp) == before

    def test_shot_freezes_classifier_and_moves_encoder(self):
        hyp = _hypothesis()
        fs = _fewshot()
        before = _snapshot(hyp)
        model = trainers.train_shot(hyp, fs, trainers.BaselineConfig())
        assert model.cls is hyp.cls
        assert model.enc.params.tobytes() != hyp.enc.params.tobytes()
        assert _snapshot(hyp) == before

    @pytest.mark.parametrize("train", [trainers.train_ft, trainers.train_shot])
    def test_training_lowers_few_shot_loss(self, train):
        hyp = _hypothesis()
        fs = _fewshot()
        before = losses.cross_entropy(hyp.cls(hyp.enc(fs.features)), fs.labels)
        model = train(hyp, fs, trainers.BaselineConfig())
        after = losses.cross_entropy(model.cls(model.enc(fs.features)), fs.labels)
        assert after < before

    @pytest.mark.parametrize("train", [trainers.train_ft, trainers.train_shot])
    def test_diverging_fit_raises(self, monkeypatch, train):
        built = _spy_losses(monkeypatch)
        what = train.__name__.removeprefix("train_")
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                NumericalError, match=rf"^{what} training diverged \(non-finite loss\)$"):
            train(_hypothesis(), _fewshot(), trainers.BaselineConfig(epochs=3, lr=1e308))
        # the Adam step refused the NaN gradient first; only then was the loss built
        assert len(built) == 1 and not math.isfinite(built[0])

    @pytest.mark.parametrize("train", [trainers.train_ft, trainers.train_shot])
    def test_nan_gradient_with_a_finite_loss_raises_the_gradient_error(self, monkeypatch, train):
        built = _spy_losses(monkeypatch, poison_after=2)
        with pytest.raises(NumericalError, match="^non-finite gradient in adam_step$"):
            train(_hypothesis(), _fewshot(), trainers.BaselineConfig(epochs=5))
        assert len(built) == 1 and math.isfinite(built[0])

    @pytest.mark.parametrize("n_t", [1, 7])
    def test_ft_and_shot_fit_the_few_shots_once_per_epoch(self, monkeypatch, n_t):
        """The one full-batch pass per epoch reads every few-shot row, with
        the frozen net's gradient buffer None."""
        softmax_ce, seen = losses._softmax_ce, []

        def spy(*args, **kwargs):
            seen.append((args[2] is None, args[5] is None, len(args[6])))
            return softmax_ce(*args, **kwargs)

        monkeypatch.setattr(losses, "_softmax_ce", spy)
        fs = _fewshot(n_t=n_t)
        trainers.train_ft(_hypothesis(), fs, trainers.BaselineConfig(epochs=4))
        trainers.train_shot(_hypothesis(), fs, trainers.BaselineConfig(epochs=3))
        assert seen == [(True, False, 3 * n_t)] * 4 + [(False, True, 3 * n_t)] * 3

    @pytest.mark.parametrize("train", [trainers.train_ft, trainers.train_shot])
    def test_zero_epochs_returns_source_parameters(self, train):
        hyp = _hypothesis()
        model = train(hyp, _fewshot(), trainers.BaselineConfig(epochs=0))
        assert model.enc.params.tobytes() == hyp.enc.params.tobytes()
        assert model.cls.params.tobytes() == hyp.cls.params.tobytes()

    @pytest.mark.parametrize("train", [trainers.train_ft, trainers.train_shot])
    def test_deterministic(self, train):
        hyp = _hypothesis()
        fs = _fewshot()
        a = train(hyp, fs, trainers.BaselineConfig())
        b = train(hyp, fs, trainers.BaselineConfig())
        assert a.enc.params.tobytes() == b.enc.params.tobytes()
        assert a.cls.params.tobytes() == b.cls.params.tobytes()


class TestGeneratorBank:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            trainers.train_generator_bank(
                _hypothesis(), _fewshot(), "both", _tiny_cfg()
            )

    @pytest.mark.parametrize("mode", ["target_only", "combined"])
    def test_target_modes_need_few_shots(self, mode):
        with pytest.raises(ConfigError):
            trainers.train_generator_bank(_hypothesis(), None, mode, _tiny_cfg())

    @pytest.mark.parametrize("mode", ["target_only", "combined"])
    def test_target_modes_need_every_class_in_the_few_shots(self, mode):
        with pytest.raises(MissingClassError):
            trainers.train_generator_bank(_hypothesis(), _fewshot(num_classes=2), mode,
                                          _tiny_cfg(), epochs=1)

    @pytest.mark.parametrize("epochs", [7, 51])
    def test_noise_equals_one_draw_per_step(self, monkeypatch, epochs):
        """Noise drawn in chunks of steps is the stream of one (B, z_dim)
        draw per class per step, also across a last, partial chunk."""
        objective, seen = losses.generator_objective_and_grad, []

        def spy(arch, params, enc, cls, z, *args, **kwargs):
            seen.append(z.copy())
            return objective(arch, params, enc, cls, z, *args, **kwargs)

        monkeypatch.setattr(losses, "generator_objective_and_grad", spy)
        cfg = _tiny_cfg()
        trainers._run_generators(_hypothesis(), [("source_only", None),
                                                 ("target_only", _fewshot())], cfg, 9, epochs)
        child = nn.derive_seeds(9, 6)
        noise = [np.random.default_rng(child[2 * n + 1]) for n in range(3)]
        assert len(seen) == epochs
        for z in seen:
            step = np.stack([rng.standard_normal((cfg.gen_batch, cfg.z_dim)) for rng in noise])
            assert z.tobytes() == np.tile(step, (2, 1, 1)).tobytes()

    def test_source_only_ignores_few_shots(self):
        hyp = _hypothesis()
        cfg = _tiny_cfg()
        without = trainers.train_generator_bank(hyp, None, "source_only", cfg, epochs=2)
        with_fs = trainers.train_generator_bank(
            hyp, _fewshot(), "source_only", cfg, epochs=2
        )
        assert without.params.tobytes() == with_fs.params.tobytes()

    def test_bank_shape_and_range(self):
        hyp = _hypothesis()
        cfg = _tiny_cfg()
        bank = trainers.train_generator_bank(hyp, _fewshot(), "combined", cfg, epochs=2)
        assert bank.num_classes == 3
        assert bank.params.shape == (3, bank.arch.n_params)
        assert bank.arch.in_width == cfg.z_dim
        out = nn.forward(bank.arch, bank.params[0],
                         np.random.default_rng(0).standard_normal((16, cfg.z_dim)))
        assert out.shape == (16, 2)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)

    def test_zero_epochs_matches_seed_layout(self):
        # with no updates the bank is exactly the per-class initializations
        # drawn from the even-indexed children of the seed root
        hyp = _hypothesis()
        cfg = _tiny_cfg(seed=42)
        bank = trainers.train_generator_bank(hyp, None, "source_only", cfg, epochs=0)
        child = nn.derive_seeds(42, 6)
        arch = trainers.default_generator_arch(cfg.z_dim, 2, cfg.gen_hidden)
        assert bank.arch == arch
        for n, row in enumerate(bank.params):
            expected = nn.init_params(arch, child[2 * n])
            assert row.tobytes() == expected.tobytes()

    def test_combined_with_zero_tradeoff_equals_source_only(self):
        hyp = _hypothesis()
        cfg = _tiny_cfg(tradeoff=0.0)
        a = trainers.train_generator_bank(hyp, _fewshot(), "combined", cfg, epochs=3)
        b = trainers.train_generator_bank(hyp, None, "source_only", cfg, epochs=3)
        assert a.params.tobytes() == b.params.tobytes()

    def test_seed_override_beats_config_seed(self):
        hyp = _hypothesis()
        cfg = _tiny_cfg(seed=0)
        a = trainers.train_generator_bank(hyp, None, "source_only", cfg,
                                          seed=123, epochs=2)
        b = trainers.train_generator_bank(hyp, None, "source_only",
                                          _tiny_cfg(seed=123), epochs=2)
        c = trainers.train_generator_bank(hyp, None, "source_only", cfg, epochs=2)
        assert a.params.tobytes() == b.params.tobytes()
        assert a.params[0].tobytes() != c.params[0].tobytes()


class TestSamplePool:
    def _bank(self):
        return trainers.train_generator_bank(
            _hypothesis(), None, "source_only", _tiny_cfg(), epochs=1
        )

    def test_pool_layout(self):
        bank = self._bank()
        pool = trainers.sample_pool(bank, 5, seed=7)
        assert pool.size == 15
        np.testing.assert_array_equal(pool.labels, np.repeat(np.arange(3), 5))
        assert np.all(pool.features >= 0.0) and np.all(pool.features <= 1.0)

    def test_deterministic_and_seed_sensitive(self):
        bank = self._bank()
        a = trainers.sample_pool(bank, 4, seed=7)
        b = trainers.sample_pool(bank, 4, seed=7)
        c = trainers.sample_pool(bank, 4, seed=8)
        assert a.features.tobytes() == b.features.tobytes()
        assert a.features.tobytes() != c.features.tobytes()

    @pytest.mark.parametrize("per_class", [1, 7, 32])
    def test_pool_equals_each_generator_on_its_own_draw(self, per_class):
        # class n's rows are generator n alone on the n-th noise draw of the seed
        bank = self._bank()
        pool = trainers.sample_pool(bank, per_class, seed=7)
        rng = np.random.default_rng(7)
        for n, row in enumerate(bank.params):
            z = rng.standard_normal((per_class, bank.arch.in_width))
            rows = slice(n * per_class, (n + 1) * per_class)
            assert pool.features[rows].tobytes() == nn.forward(bank.arch, row, z).tobytes()
            assert np.all(pool.labels[rows] == n)

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ConfigError):
            trainers.sample_pool(self._bank(), 0, seed=0)


class TestAdaptPairwise:
    def test_zero_adapt_epochs_returns_source_nets(self):
        hyp = _hypothesis()
        model = trainers.adapt_pairwise(
            _pool(), _fewshot(), hyp, _tiny_cfg(adapt_epochs=0)
        )
        assert model.enc is hyp.enc
        assert model.cls is hyp.cls

    def test_phase_sequence(self):
        trace = []
        trainers.adapt_pairwise(_pool(), _fewshot(), _hypothesis(), _tiny_cfg(),
                                trace=trace)
        got = [(ev.epoch, ev.phase) for ev in trace]
        expected = [(-1, "init")]
        expected += [(0, "pretrain_disc")] * 3
        for epoch in range(3):
            expected += [(epoch, "model_update"), (epoch, "disc_update")]
        assert got == expected

    def test_exclusive_parameter_updates(self):
        trace = []
        trainers.adapt_pairwise(_pool(), _fewshot(), _hypothesis(), _tiny_cfg(),
                                trace=trace)
        assert set(trace[0].digests) == {"enc", "cls", "disc"}
        _assert_exclusive_updates(trace)

    def test_model_and_disc_never_move_together(self):
        trace = []
        trainers.adapt_pairwise(_pool(), _fewshot(), _hypothesis(), _tiny_cfg(),
                                trace=trace)
        prev = trace[0]
        for ev in trace[1:]:
            disc_moved = ev.digests["disc"] != prev.digests["disc"]
            model_moved = (
                ev.digests["enc"] != prev.digests["enc"]
                or ev.digests["cls"] != prev.digests["cls"]
            )
            assert not (disc_moved and model_moved)
            prev = ev

    def test_beta_follows_schedule(self):
        trace = []
        trainers.adapt_pairwise(_pool(), _fewshot(), _hypothesis(), _tiny_cfg(),
                                trace=trace)
        betas = [ev.losses["beta"] for ev in trace if ev.phase == "model_update"]
        expected = [losses.beta_schedule(e / 3) for e in range(3)]
        assert betas == pytest.approx(expected)
        assert betas[0] == 0.0

    def test_deterministic_and_seed_override(self):
        pool, fs, hyp = _pool(), _fewshot(), _hypothesis()
        a = trainers.adapt_pairwise(pool, fs, hyp, _tiny_cfg())
        b = trainers.adapt_pairwise(pool, fs, hyp, _tiny_cfg())
        c = trainers.adapt_pairwise(pool, fs, hyp, dataclasses.replace(_tiny_cfg(), seed=99))
        assert a.enc.params.tobytes() == b.enc.params.tobytes()
        assert a.cls.params.tobytes() == b.cls.params.tobytes()
        assert a.enc.params.tobytes() != c.enc.params.tobytes()

    def test_source_hypothesis_unchanged(self):
        hyp = _hypothesis()
        before = _snapshot(hyp)
        model = trainers.adapt_pairwise(_pool(), _fewshot(), hyp, _tiny_cfg())
        assert _snapshot(hyp) == before
        assert model.enc.params.tobytes() != before[0]

    def test_zero_pretrain_epochs_still_adapts(self):
        trace = []
        model = trainers.adapt_pairwise(
            _pool(), _fewshot(), _hypothesis(),
            _tiny_cfg(disc_pretrain_epochs=0), trace=trace,
        )
        assert not any(ev.phase == "pretrain_disc" for ev in trace)
        assert sum(ev.phase == "model_update" for ev in trace) == 3
        assert model.enc.params.flags.writeable is False


# pools no adaptation can pair, with the error their first draw raised when
# every draw ran the checks itself
BAD_POOLS = {
    "empty pool": (LabeledPool(np.zeros((0, 2)), np.zeros(0, dtype=np.int64)),
                   ProtocolError, "intermediate pool is empty"),
    "one class": (LabeledPool(np.ones((6, 2)), np.zeros(6, dtype=np.int64)), ProtocolError,
                  "pairing needs at least 2 classes in the intermediate pool"),
    "labels the few-shots lack": (LabeledPool(np.ones((6, 2)), np.repeat([3, 4], 3)),
                                  ProtocolError, "group 2 has no same-label combinations"),
    # this one was numpy's ValueError from joining pool and few-shot rows
    "another width": (_pool(dim=3), ConfigError, "x1 and x2 must be equal-shape (P, d) arrays"),
}


class TestAdaptPairChecks:
    """_adapt checks the shared label layout once per group set at entry, and
    only then draws its whole schedule, unchecked."""

    @pytest.mark.parametrize("pretrain", [3, 0])
    @pytest.mark.parametrize("name", sorted(BAD_POOLS))
    def test_bad_pool_raises_before_any_update(self, monkeypatch, name, pretrain):
        pool, exc, message = BAD_POOLS[name]
        with pytest.raises(exc) as checked:  # the checked public draw says the same
            pairing.build_groups(pool, _fewshot(), 2, seed=0)
        assert str(checked.value) == message
        calls = []
        monkeypatch.setattr(nn, "adam_into", lambda *a: calls.append("adam_into"))
        monkeypatch.setattr(trainers, "draw_schedule", lambda *a: calls.append("draw"))
        blocks = [trainers._Block([pool.features] * 3, 1, 2),
                  trainers._Block([pool.features] * 3, 3, 2)]
        with pytest.raises(exc) as info:
            trainers._adapt(blocks, pool.labels, _fewshot(), _hypothesis(), _tiny_cfg(
                disc_pretrain_epochs=pretrain))
        assert type(info.value) is exc and str(info.value) == message
        assert calls == []

    def test_one_check_per_group_set(self, monkeypatch):
        calls = []
        check, draw = pairing.check_pairs, pairing.draw_schedule
        monkeypatch.setattr(trainers, "check_pairs",
                            lambda *a: calls.append(a[2]) or check(*a))
        monkeypatch.setattr(trainers, "draw_schedule",
                            lambda *a: calls.append((len(a[2]), a[3])) or draw(*a))
        pool = _pool()
        blocks = [trainers._Block([pool.features] * 3, 1, 2),
                  trainers._Block([pool.features] * 3, 3, 4)]
        trainers._adapt(blocks, pool.labels, _fewshot(), _hypothesis(), _tiny_cfg())
        # two checks, then one draw of two pair streams, each 3 pretrain + 3 x (model, disc)
        assert calls == [ALL_GROUPS, (2, 4), (3 + 2 * 3, [2, 4])]

    @pytest.mark.parametrize("pretrain, epochs", [(3, 3), (0, 2), (2, 0)])
    def test_draws_are_the_sequential_draws(self, monkeypatch, pretrain, epochs):
        """_adapt's index pairs are the draw_pairs calls of each pair seed's
        fresh Generator in schedule order: pretraining, then per epoch the
        model update's groups 2 and 4 and the discriminator update's four."""
        drawn, draw = [], pairing.draw_schedule
        monkeypatch.setattr(trainers, "draw_schedule",
                            lambda *a: drawn.append(draw(*a)) or drawn[-1])
        pool, fewshot, cfg = _pool(), _fewshot(), _tiny_cfg(disc_pretrain_epochs=pretrain,
                                                             adapt_epochs=epochs)
        blocks = [trainers._Block([pool.features] * epochs, 1, seed) for seed in (7, 2**64 - 1, 7)]
        trainers._adapt(blocks, pool.labels, fewshot, _hypothesis(), cfg)
        schedule = [(ALL_GROUPS, 2)] * pretrain if epochs else []
        schedule += [((2, 4), 4), (ALL_GROUPS, 2)] * epochs
        [pairs] = drawn  # two streams; 30 rows, so one byte indexes them
        assert pairs.shape[:3] == (2, len(schedule), 2) and pairs.dtype == np.uint8
        for stream, seed in zip(pairs, (7, 2**64 - 1)):
            rng = np.random.default_rng(seed)
            for row, (group_ids, count) in zip(stream, schedule):
                ia, ib = pairing.draw_pairs(pool.labels, fewshot.labels, group_ids, count, rng)
                assert np.array_equal(row[0], ia) and np.array_equal(row[1], ib)


class TestRunTwoStep:
    @pytest.mark.parametrize("method", ["wa", "ft", "tohan", "nope"])
    def test_rejects_non_two_step_methods(self, method):
        with pytest.raises(ConfigError):
            trainers.run_two_step(method, _hypothesis(), _fewshot(), _tiny_cfg())

    def test_zero_adapt_epochs_returns_source_nets(self):
        hyp = _hypothesis()
        model = trainers.run_two_step("sfada", hyp, _fewshot(),
                                      _tiny_cfg(adapt_epochs=0))
        assert model.enc is hyp.enc and model.cls is hyp.cls

    def test_deterministic(self):
        hyp, fs = _hypothesis(), _fewshot()
        a = trainers.run_two_step("stfada", hyp, fs, _tiny_cfg())
        b = trainers.run_two_step("stfada", hyp, fs, _tiny_cfg())
        assert a.enc.params.tobytes() == b.enc.params.tobytes()
        assert a.cls.params.tobytes() == b.cls.params.tobytes()

    def test_generator_objective_differentiates_methods(self):
        hyp, fs = _hypothesis(), _fewshot()
        models = {
            m: trainers.run_two_step(m, hyp, fs, _tiny_cfg())
            for m in ("sfada", "tfada", "stfada")
        }
        blobs = {m: model.enc.params.tobytes() for m, model in models.items()}
        assert len(set(blobs.values())) == 3

    def test_trace_covers_adaptation(self):
        trace = []
        trainers.run_two_step("sfada", _hypothesis(), _fewshot(), _tiny_cfg(),
                              trace=trace)
        phases = [ev.phase for ev in trace]
        assert phases.count("pretrain_disc") == 3
        assert phases.count("model_update") == 3
        assert "generate" not in phases  # the pool is frozen before adaptation


class TestTrainTohan:
    def _run(self, cfg=None, trace=None):
        return trainers.train_tohan(_hypothesis(), _fewshot(),
                                    cfg or _tiny_cfg(), trace=trace)

    def test_phase_sequence(self):
        trace = []
        self._run(_tiny_cfg(total_epochs=6, adapt_epochs=3,
                            disc_pretrain_epochs=2), trace=trace)
        got = [(ev.epoch, ev.phase) for ev in trace]
        expected = [(-1, "init")]
        for epoch in range(3):
            expected.append((epoch, "generate"))
        expected.append((3, "generate"))
        expected += [(3, "pretrain_disc")] * 2
        expected += [(3, "model_update"), (3, "disc_update")]
        for epoch in (4, 5):
            expected += [(epoch, "generate"),
                         (epoch, "model_update"), (epoch, "disc_update")]
        assert got == expected

    def test_pretraining_happens_exactly_once(self):
        trace = []
        self._run(trace=trace)
        pretrain_epochs = {ev.epoch for ev in trace if ev.phase == "pretrain_disc"}
        assert pretrain_epochs == {3}  # total_epochs - adapt_epochs
        count = sum(ev.phase == "pretrain_disc" for ev in trace)
        assert count == 3

    def test_adaptation_confined_to_final_epochs(self):
        trace = []
        self._run(trace=trace)
        adapt_epochs = [ev.epoch for ev in trace
                        if ev.phase in ("model_update", "disc_update")]
        assert min(adapt_epochs) == 3 and max(adapt_epochs) == 5
        for epoch in (3, 4, 5):
            assert adapt_epochs.count(epoch) == 2

    def test_pool_is_regenerated_every_epoch(self):
        trace = []
        self._run(trace=trace)
        gen_events = [ev for ev in trace if ev.phase == "generate"]
        assert [ev.epoch for ev in gen_events] == list(range(6))
        for ev in gen_events:
            assert ev.losses["dm_size"] == 12.0  # 3 classes x gen_batch 4

    def test_exclusive_parameter_updates(self):
        trace = []
        self._run(trace=trace)
        assert set(trace[0].digests) == {"enc", "cls", "disc", "gens"}
        _assert_exclusive_updates(trace)

    def test_beta_restarts_at_adapt_start(self):
        trace = []
        self._run(trace=trace)
        betas = [ev.losses["beta"] for ev in trace if ev.phase == "model_update"]
        expected = [losses.beta_schedule(e / 3) for e in range(3)]
        assert betas == pytest.approx(expected)

    def test_bit_exact_reruns(self):
        a = self._run()
        b = self._run()
        assert a.enc.params.tobytes() == b.enc.params.tobytes()
        assert a.cls.params.tobytes() == b.cls.params.tobytes()

    def test_tracing_does_not_change_the_model(self):
        untraced = self._run()
        traced = self._run(trace=[])
        assert untraced.enc.params.tobytes() == traced.enc.params.tobytes()
        assert untraced.cls.params.tobytes() == traced.cls.params.tobytes()

    def test_seed_changes_model(self):
        a = self._run(_tiny_cfg(seed=0))
        b = self._run(_tiny_cfg(seed=1))
        assert a.enc.params.tobytes() != b.enc.params.tobytes()

    def test_source_hypothesis_unchanged(self):
        hyp = _hypothesis()
        before = _snapshot(hyp)
        trainers.train_tohan(hyp, _fewshot(), _tiny_cfg())
        assert _snapshot(hyp) == before

    def test_generators_ignore_the_interleaved_adaptation(self):
        # the one-step generators follow the stfada bank's trajectory exactly
        hyp, fs, cfg = _hypothesis(), _fewshot(), _tiny_cfg(seed=7)
        trace = []
        trainers.train_tohan(hyp, fs, cfg, trace=trace)
        bank = trainers.train_generator_bank(
            hyp, fs, trainers.TWO_STEP_MODES["stfada"], cfg,
            seed=nn.derive_seeds(cfg.seed, 3)[0],
        )
        assert trace[-1].phase == "disc_update"
        assert trainers._digest(bank.params) == trace[-1].digests["gens"]

    def test_zero_adapt_epochs_only_generates(self):
        hyp = _hypothesis()
        trace = []
        model = trainers.train_tohan(hyp, _fewshot(), _tiny_cfg(adapt_epochs=0), trace=trace)
        assert model.enc is hyp.enc and model.cls is hyp.cls
        assert [(ev.epoch, ev.phase) for ev in trace] == (
            [(-1, "init")] + [(epoch, "generate") for epoch in range(6)]
        )


def _spy_generators(monkeypatch):
    """Record the blocks, as (mode, n_t or None) pairs, and the (banks, kept)
    result of every generator run."""
    run_generators, started = trainers._run_generators, []

    def run(hypothesis, blocks, *args):
        out = run_generators(hypothesis, blocks, *args)
        started.append(([(mode, fs and fs.n_t) for mode, fs in blocks], out))
        return out

    monkeypatch.setattr(trainers, "_run_generators", run)
    return started


class TestRunGeneratorMethods:
    @pytest.mark.parametrize("methods,adapt_epochs,modes", [
        (("sfada",), 0, ()),
        (("tohan",), 3, ("combined",)),
        (("stfada", "sfada"), 3, ("source_only", "combined")),
        (("tfada", "tohan"), 0, ("combined",)),
        (trainers.GENERATOR_METHODS, 3, ("source_only", "target_only", "combined")),
    ], ids=repr)
    def test_one_block_per_objective_read(self, monkeypatch, methods, adapt_epochs, modes):
        started = _spy_generators(monkeypatch)
        models, = trainers.run_generator_methods(methods, _hypothesis(), [_fewshot()],
                                                 _tiny_cfg(adapt_epochs=adapt_epochs))
        assert list(models) == list(methods)
        assert [tuple(mode for mode, _ in blocks) for blocks, _ in started] == (
            [modes] if modes else [])
        if modes:
            banks, kept = started[0][1]
            assert len(banks) == len(modes)
            assert list(kept) == ([modes.index("combined")] if "tohan" in methods else [])
            for batches in kept.values():
                assert len(batches) == adapt_epochs
                assert all(batch.shape == (3, 4, 2) for batch in batches)

    @pytest.mark.parametrize("methods", [("sfada",), ("tfada",), ("stfada",), ("tohan",), ()],
                             ids=repr)
    def test_every_adam_steps_at_lr(self, monkeypatch, methods):
        """The generators (when a method trains them), the model and both
        discriminator stacks step at cfg.lr. The discriminator gets a second
        stack when adaptation begins, which restarts its moments. No methods
        means adapt_pairwise, which trains no generators."""
        made, adam_init = [], trainers._Adam.__init__

        def init(self, params, lr, *args):
            made.append((self, params, lr))
            adam_init(self, params, lr, *args)

        monkeypatch.setattr(trainers._Adam, "__init__", init)
        cfg, hyp, fs = _tiny_cfg(lr=0.02), _hypothesis(), _fewshot()
        if methods:
            trainers.run_generator_methods(methods, hyp, [fs], cfg)
        else:
            trainers.adapt_pairwise(_pool(), fs, hyp, cfg)
        assert [lr for *_, lr in made] == [0.02] * (4 if methods else 3)
        (pretrain, disc, _), (adapt, disc_again, _) = made[-2:]
        assert disc_again is disc and adapt is not pretrain

    @pytest.mark.parametrize("methods", [["wa"], ["ft"], ["nope"], ["tohan", "shot"], []],
                             ids=repr)
    def test_rejects_non_generator_methods(self, methods):
        with pytest.raises(ConfigError):
            trainers.run_generator_methods(methods, _hypothesis(), [_fewshot()], _tiny_cfg())

    @pytest.mark.parametrize("fewshots,traces", [
        ([], None), ("bare set", None), (["set"], [{}, {}]), (["set", "set"], [{}])], ids=repr)
    def test_rejects_bad_few_shot_lists(self, fewshots, traces):
        fs = _fewshot()
        fewshots = fs if fewshots == "bare set" else [fs for _ in fewshots]
        with pytest.raises(ConfigError, match="one traces dict"):
            trainers.run_generator_methods(["tohan"], _hypothesis(), fewshots, _tiny_cfg(),
                                           traces=traces)

    def test_sets_share_one_run_and_its_source_only_block(self, monkeypatch):
        """Several few-shot sets train one source_only block, then each set's
        target_only and combined blocks, in one run; each set's models are the
        bytes of a one-set call's."""
        hyp, cfg, methods = _hypothesis(), _tiny_cfg(), trainers.GENERATOR_METHODS
        started, sets = _spy_generators(monkeypatch), [_fewshot(n_t=1), _fewshot()]
        shared = trainers.run_generator_methods(methods, hyp, sets, cfg)
        assert [blocks for blocks, _ in started] == [[
            ("source_only", None), ("target_only", 1), ("combined", 1),
            ("target_only", 2), ("combined", 2)]]
        for fewshot, models in zip(sets, shared, strict=True):
            alone, = trainers.run_generator_methods(methods, hyp, [fewshot], cfg)
            for method in methods:
                assert _model_bytes(models[method]) == _model_bytes(alone[method]), method


# the losses whose gradient each kind of Adam step reads
GRADIENTS = {"generator": "generator_objective_and_grad",
             "model": "adaptation_loss_and_grads", "disc": "group_ce_and_disc_grad"}
DIVERGED = "^non-finite gradient in adam_step$"


def _poison_grad(monkeypatch, kind, rows=slice(None), after=1):
    """Fill ``rows`` of the gradient of every ``kind`` step after the first
    ``after`` with NaN."""
    loss_and_grad, calls = getattr(losses, GRADIENTS[kind]), []

    def poisoned(*args, **kwargs):
        out = loss_and_grad(*args, **kwargs)
        calls.append(None)
        if len(calls) > after:
            out[1][rows] = np.nan
        return out

    monkeypatch.setattr(losses, GRADIENTS[kind], poisoned)


def _overflow_params(monkeypatch, after=1):
    """Make every Adam step after the first ``after`` write an infinite
    parameter in row 0."""
    adam_into, calls = nn.adam_into, []

    def step(state, params, grad):
        adam_into(state, params, grad)
        calls.append(None)
        if len(calls) > after:
            params[0] = np.inf

    monkeypatch.setattr(nn, "adam_into", step)


# one-method entry point -> (its call, the kinds of Adam step it runs)
ENTRY_POINTS = {
    "train_generator_bank": (lambda hyp, fs, cfg: trainers.train_generator_bank(
        hyp, fs, "combined", cfg), ("generator",)),
    "run_two_step": (lambda hyp, fs, cfg: trainers.run_two_step("stfada", hyp, fs, cfg),
                     ("generator", "model", "disc")),
    "train_tohan": (lambda hyp, fs, cfg: trainers.train_tohan(hyp, fs, cfg),
                    ("generator", "model", "disc")),
    "adapt_pairwise": (lambda hyp, fs, cfg: trainers.adapt_pairwise(_pool(), fs, hyp, cfg),
                       ("model", "disc")),
}


class TestDivergence:
    @pytest.mark.parametrize("entry,kind", [(e, k) for e, (_, kinds) in ENTRY_POINTS.items()
                                            for k in kinds])
    def test_one_method_run_raises_on_a_non_finite_gradient(self, monkeypatch, entry, kind):
        _poison_grad(monkeypatch, kind)
        with pytest.raises(NumericalError, match=DIVERGED):
            ENTRY_POINTS[entry][0](_hypothesis(), _fewshot(), _tiny_cfg())

    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    def test_one_method_run_raises_on_non_finite_parameters(self, monkeypatch, entry):
        _overflow_params(monkeypatch)
        with pytest.raises(NumericalError, match="^network parameters must be finite$"):
            ENTRY_POINTS[entry][0](_hypothesis(), _fewshot(), _tiny_cfg())

    @pytest.mark.parametrize("failing,error", [
        (0, DIVERGED), (1, DIVERGED), (0, "^network parameters must be finite$")])
    def test_generator_block_fails_alone(self, monkeypatch, failing, error):
        hyp, cfg = _hypothesis(), _tiny_cfg()
        blocks = [("source_only", None), ("combined", _fewshot())]
        keep = {0: 2, 1: 2}
        clean = trainers._run_generators(hyp, blocks, cfg, 9, 6, keep)
        if error == DIVERGED:
            _poison_grad(monkeypatch, "generator", slice(3 * failing, 3 * failing + 3), after=2)
        else:  # row 0 is block 0's
            _overflow_params(monkeypatch, after=2)
        banks, kept = trainers._run_generators(hyp, blocks, cfg, 9, 6, keep)
        assert isinstance(banks[failing], NumericalError)
        assert re.match(error, str(banks[failing]))
        other = 1 - failing
        assert banks[other].params.tobytes() == clean[0][other].params.tobytes()
        assert [b.tobytes() for b in kept[other]] == [b.tobytes() for b in clean[1][other]]

    @pytest.mark.parametrize("kind,after", [("model", 1), ("disc", 1), ("disc", 4)])
    @pytest.mark.parametrize("failing", ["sfada", "tohan"])
    def test_adaptation_block_fails_alone(self, monkeypatch, kind, after, failing):
        """A failing block's error and trace, generate events included, are
        its one-method run's; the other block keeps its model and trace."""
        hyp, fs, cfg, methods = _hypothesis(), _fewshot(), _tiny_cfg(), ("sfada", "tohan")

        def adapt(names):
            traces = {m: [] for m in names}
            models, = trainers.run_generator_methods(names, hyp, [fs], cfg, traces=[traces])
            return models, traces

        other = methods[1 - methods.index(failing)]
        clean, clean_traces = adapt([other])
        with monkeypatch.context() as mp:
            _poison_grad(mp, kind, methods.index(failing), after)
            models, traces = adapt(methods)
        with monkeypatch.context() as mp:
            _poison_grad(mp, kind, after=after)
            alone, alone_traces = adapt([failing])
        assert isinstance(models[failing], NumericalError)
        assert re.match(DIVERGED, str(models[failing]))
        assert str(alone[failing]) == str(models[failing])
        assert traces[failing] == alone_traces[failing] and len(traces[failing]) > 1
        assert models[other].enc.params.tobytes() == clean[other].enc.params.tobytes()
        assert models[other].cls.params.tobytes() == clean[other].cls.params.tobytes()
        assert traces[other] == clean_traces[other]


class TestStackWithNoBlockLeft:
    @pytest.mark.parametrize("kind", list(GRADIENTS))
    def test_stops_stepping_once_every_block_failed(self, monkeypatch, kind):
        """Every block's first ``kind`` step diverges: that pass is the run's
        last loss pass, and each method gets its own block's error."""
        calls = []
        for name, fn in GRADIENTS.items():
            def spy(*args, _name=name, _pass=getattr(losses, fn), **kwargs):
                calls.append(_name)
                return _pass(*args, **kwargs)
            monkeypatch.setattr(losses, fn, spy)
        _poison_grad(monkeypatch, kind, after=0)
        models, = trainers.run_generator_methods(["sfada", "tohan"], _hypothesis(),
                                                 [_fewshot()], _tiny_cfg())
        assert calls.index(kind) == len(calls) - 1
        assert models["sfada"] is not models["tohan"]
        assert all(re.match(DIVERGED, str(model)) for model in models.values())


class TestAdamStack:
    ROWS = 2  # rows per block of a 3-block (6, 5) stack

    @pytest.mark.parametrize("kind,error", [("grad", DIVERGED),
                                            ("params", "^network parameters must be finite$")])
    def test_failed_block_leaves_the_others_bits(self, monkeypatch, kind, error):
        """Block 1 fails at step 3: blocks 0 and 2 keep the parameters and
        moments of a 2-block run without it, its rows are zero from then on,
        and a step that fails the last blocks records them in block order and
        raises nothing."""
        rows, rng = self.ROWS, np.random.default_rng(4)
        init, grads = rng.normal(size=(6, 5)), rng.normal(size=(6, 6, 5))
        keep, block1 = np.r_[0:rows, 2 * rows:3 * rows], slice(rows, 2 * rows)
        adam_into, overflow = nn.adam_into, []  # rows the next core step leaves infinite

        def step(state, params, grad):
            adam_into(state, params, grad)
            params[overflow] = np.inf

        monkeypatch.setattr(nn, "adam_into", step)
        failed = {}
        adam = trainers._Adam(init.copy(), 0.01, failed, rows)
        alone = trainers._Adam(init[keep], 0.01, {}, rows)
        for k, grad in enumerate(grads):
            alone.step(grad[keep])
            if k == 3 and kind == "grad":
                grad[block1] = np.nan
            overflow[:] = [rows] if k == 3 and kind == "params" else []
            adam.step(grad)
            overflow.clear()
            assert list(failed) == ([1] if k >= 3 else [])
            for mine, its in ((adam.params, alone.params), (adam.state.m, alone.state.m),
                              (adam.state.v, alone.state.v)):
                assert mine[keep].tobytes() == its.tobytes()
                assert k < 3 or not mine[block1].any()
            assert adam.state.t == alone.state.t
        assert re.match(error, str(failed[1]))
        grad = rng.normal(size=(6, 5))
        grad[2 * rows:] = np.nan
        overflow[:] = [0]
        adam.step(grad)
        assert list(failed) == [1, 0, 2]
        assert re.match("^network parameters must be finite$", str(failed[0]))
        assert re.match(DIVERGED, str(failed[2]))


class TestDiscriminatorAccuracy:
    def test_range_and_determinism(self):
        hyp = _hypothesis()
        arch = trainers.default_discriminator_arch(hyp.enc.arch.out_width, 4)
        disc = nn.Net(arch, nn.init_params(arch, 0))
        pool, fs = _pool(), _fewshot()
        a = trainers.group_discriminator_accuracy(disc, hyp.enc, pool, fs, 8, seed=3)
        b = trainers.group_discriminator_accuracy(disc, hyp.enc, pool, fs, 8, seed=3)
        assert 0.0 <= a <= 1.0
        assert a == b


class TestTraceFile:
    def test_write_trace_round_trips(self, tmp_path):
        trace = []
        trainers.adapt_pairwise(_pool(), _fewshot(), _hypothesis(),
                                _tiny_cfg(disc_pretrain_epochs=1), trace=trace)
        path = tmp_path / "trace.jsonl"
        trainers.write_trace(trace, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == len(trace)
        for line, ev in zip(lines, trace):
            rec = json.loads(line)
            assert rec["epoch"] == ev.epoch
            assert rec["phase"] == ev.phase
            assert rec["losses"] == ev.losses
            assert rec["digests"] == ev.digests


class TestModelFiles:
    def test_hypothesis_round_trip(self, tmp_path):
        hyp = trainers.train_source(_easy_source(), trainers.SourceTrainConfig(seed=3))
        path = tmp_path / "hypothesis.json"
        trainers.save_hypothesis(path, hyp)
        nets, seed, meta = nn.load_model(path)  # the package's one model-file reader
        loaded = trainers.SourceHypothesis(enc=nets["encoder"], cls=nets["classifier"],
                                           seed=seed, train_accuracy=meta["train_accuracy"],
                                           test_accuracy=meta["test_accuracy"])
        assert loaded.enc.params.tobytes() == hyp.enc.params.tobytes()
        assert loaded.cls.params.tobytes() == hyp.cls.params.tobytes()
        assert loaded.enc.arch == hyp.enc.arch
        assert loaded.seed == hyp.seed
        assert loaded.train_accuracy == hyp.train_accuracy
        assert loaded.test_accuracy == hyp.test_accuracy

    def test_hypothesis_file_with_linear_classifier_head(self, tmp_path):
        hyp = _hypothesis()
        linear = nn.ArchSpec(hyp.cls.arch.widths, "linear")
        path = tmp_path / "linear.json"
        nn.save_model(path, {"encoder": hyp.enc, "classifier": nn.Net(linear, hyp.cls.params)},
                      0, {"role": "source_hypothesis"})
        nets, _, _ = nn.load_model(path)
        with pytest.raises(ConfigError, match="softmax head"):
            trainers.SourceHypothesis(enc=nets["encoder"], cls=nets["classifier"], seed=0,
                                      train_accuracy=1.0, test_accuracy=1.0)

    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_corrupted_bytes_load_or_raise_typed_errors(self, tmp_path, data):
        path = tmp_path / "hypothesis.json"
        # a small file, so more flips land on names, widths and heads than on digits
        trainers.save_hypothesis(path, _hypothesis(num_classes=2, dim=1, width=2))
        blob = bytearray(path.read_bytes())
        flips = data.draw(st.lists(st.tuples(st.integers(0, len(blob) - 1),
                                             st.integers(1, 255)), max_size=4))
        for pos, mask in flips:
            blob[pos] ^= mask
        path.write_bytes(bytes(blob[:data.draw(st.integers(0, len(blob)))]))
        try:
            nets, seed, _ = nn.load_model(path)
        except FormatError:
            return
        if not {"encoder", "classifier"} <= set(nets):
            return
        try:
            hyp = trainers.SourceHypothesis(enc=nets["encoder"], cls=nets["classifier"],
                                            seed=seed, train_accuracy=1.0, test_accuracy=1.0)
        except ConfigError:
            return
        assert hyp.cls.arch.head == "softmax"
        assert hyp.enc.arch.out_width == hyp.cls.arch.in_width
