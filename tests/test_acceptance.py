"""Shipping acceptance suite.

One test per numbered criterion; each emits exactly one PASS or FAIL line
(stream them with ``pytest tests/test_acceptance.py -s``):

  1  analytic gradients of every loss operation match central finite
     differences (max relative error < 1e-4, 20 random draws each, < 30 s)
  2  augmented-L1: identity, symmetry, closed form on 1e4 pairs; the
     dimension diameter bounds every sampled distance; target proximity
     stays in [0, 1] on 1e3 batches (1e-9 absolute tolerance)
  3  pair-group predicates hold on 1000+ sampled pairs across 10+ random
     configurations; counts exact; a single-sample pool is a protocol error
  4  one-step schedule at default budgets: discriminator pretraining exactly
     once at epoch 450, adaptation updates only in 450..499, and a fresh
     pool of num_classes * gen_batch samples every epoch
  5  freeze contracts: ft keeps encoder bytes, shot keeps classifier bytes,
     the source hypothesis survives every method unchanged, and the
     discriminator and model never update in the same step
  6  a repeated same-seed run reproduces the final accuracy bit-exactly
  7  benchmark ordering on the 40-degree rotation task (n_t=3, seeds 0..9)
     reproduces the committed pilot bit-exactly and satisfies the ordering
     conditions in < 5 minutes; the pilot is the n_t=3 slice of one run of
     the default grid (shots 1, 3, 7), which replays its own oracle too;
     the run and the conditions are scripts/run_pilot.py's, loaded by path
  8  the few-shot protocol returns exactly n_t per class for n_t in 1..7
     and rejects budgets outside that range
  9  end-to-end CLI: gen-data -> run (7 methods x {1,3,7} shots x 3 seeds)
     -> summarize, with every table cell recomputed exactly from the raw
     results file
"""

import importlib.util
import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

from fha import cli, harness, losses, nn, trainers
from fha.data import FewShotSet, builtin_task, make_synthetic_task, sample_few_shot
from fha.errors import ProtocolError
from fha.harness import read_results, summarize
from fha.pairing import ALL_GROUPS, LabeledPool, build_groups, phi, sample_group_pairs
from fha.trainers import METHODS, BaselineConfig, TohanConfig

ROOT = Path(__file__).resolve().parent.parent
PILOT_PATH = ROOT / "tests" / "data" / "pilot_rot40.json"
GRID_PATH = ROOT / "tests" / "data" / "grid_rot40.json"
PILOT_SCRIPT = ROOT / "scripts" / "run_pilot.py"


class _Check:
    detail = ""


@contextmanager
def _criterion(num: int, name: str):
    chk = _Check()
    try:
        yield chk
    except BaseException as exc:
        print(f"FAIL criterion {num}: {name} ({exc})", flush=True)
        raise
    suffix = f" ({chk.detail})" if chk.detail else ""
    print(f"PASS criterion {num}: {name}{suffix}", flush=True)


def _hypothesis(num_classes=3, dim=2, width=8, seed=0):
    enc_seed, cls_seed = nn.derive_seeds(seed, 2)
    enc_arch = trainers.default_encoder_arch(dim, width)
    cls_arch = trainers.default_classifier_arch(width, num_classes)
    return trainers.SourceHypothesis(
        enc=nn.Net(enc_arch, nn.init_params(enc_arch, enc_seed)),
        cls=nn.Net(cls_arch, nn.init_params(cls_arch, cls_seed)),
        seed=seed, train_accuracy=1.0, test_accuracy=1.0,
    )


def _fewshot(num_classes=3, n_t=3, dim=2, seed=5):
    rng = np.random.default_rng(seed)
    count = n_t * num_classes
    return FewShotSet(
        features=rng.uniform(size=(count, dim)).astype(np.float32),
        labels=np.repeat(np.arange(num_classes), n_t),
        indices=np.arange(count),
        n_t=n_t, num_classes=num_classes,
    )


@pytest.fixture(scope="module")
def default_run():
    """One full-budget one-step run with a phase trace, shared by 4/5/6."""
    hyp = _hypothesis()
    fs = _fewshot()
    trace = []
    model = trainers.train_tohan(hyp, fs, TohanConfig(seed=0), trace=trace)
    return hyp, fs, model, trace


# ---------------------------------------------------------------------------
# criterion 1: gradients


def _seed_of(rng):
    return int(rng.integers(1 << 30))


def _build_gen_source(rng):
    p0 = rng.uniform(0.05, 0.95, size=int(rng.integers(1, 9)))

    def loss_fn(p):
        return losses.gen_source_loss_and_grad(p)

    return loss_fn, p0


def _build_aug_l1(rng):
    dim = int(rng.integers(1, 9))
    y = rng.uniform(size=dim)

    def loss_fn(x):
        return losses.augmented_l1(x, y), losses.augmented_l1_grad(x, y)

    return loss_fn, rng.uniform(size=dim)


def _build_gen_target(rng):
    dim = int(rng.integers(1, 6))
    m, k = int(rng.integers(1, 6)), int(rng.integers(1, 5))
    targets = rng.uniform(size=(k, dim))
    diameter = losses.l1_diameter(dim)

    def loss_fn(flat):
        value, grad = losses.gen_target_loss_and_grad(flat.reshape(m, dim), targets, diameter)
        return float(value), grad.ravel()

    return loss_fn, rng.uniform(size=(m, dim)).ravel()


def _build_cross_entropy(rng):
    b, c = int(rng.integers(2, 7)), int(rng.integers(2, 5))
    labels = rng.integers(0, c, size=b)

    def loss_fn(flat):
        p = flat.reshape(b, c)
        return (losses.cross_entropy(p, labels),
                losses.cross_entropy_grad(p, labels).ravel())

    return loss_fn, rng.uniform(0.05, 0.95, size=(b, c)).ravel()


def _tagged_pools(rng, num_classes, per_inter, per_target, dim=2):
    inter_labels = np.repeat(np.arange(num_classes), per_inter)
    tgt_labels = np.repeat(np.arange(num_classes), per_target)
    inter = LabeledPool(rng.uniform(size=(inter_labels.size, dim)), inter_labels)
    tgt = LabeledPool(rng.uniform(size=(tgt_labels.size, dim)), tgt_labels)
    return inter, tgt


def _build_group_ce(rng):
    width = 4
    enc_arch = nn.ArchSpec((2, width, width), "linear")
    disc_arch = trainers.default_discriminator_arch(width, 4)
    enc = nn.Net(enc_arch, nn.init_params(enc_arch, _seed_of(rng)))
    inter, tgt = _tagged_pools(rng, 3, 3, 2)
    pairs = build_groups(inter, tgt, 3, _seed_of(rng))

    def loss_fn(p):
        return losses.group_ce_and_disc_grad(nn.Net(disc_arch, p),
                                             phi(enc, pairs.x1, pairs.x2), pairs.group)

    return loss_fn, nn.init_params(disc_arch, _seed_of(rng))


def _build_adaptation(rng):
    width, c, dim = 4, 3, 2
    enc_arch = nn.ArchSpec((dim, width, width), "linear")
    cls_arch = nn.ArchSpec((width, c), "softmax")
    disc_arch = trainers.default_discriminator_arch(width, 4)
    disc = nn.Net(disc_arch, nn.init_params(disc_arch, _seed_of(rng)))
    enc_p = nn.init_params(enc_arch, _seed_of(rng))
    cls_p = nn.init_params(cls_arch, _seed_of(rng))
    n = 6  # pairs per cross-domain group: x1 and x2 hold group 2's, then group 4's
    g2_x1, g2_x2, g4_x1, g4_x2 = (rng.uniform(size=(n, dim)) for _ in range(4))
    x1, x2 = np.concatenate([g2_x1, g4_x1]), np.concatenate([g2_x2, g4_x2])
    fs = _fewshot(num_classes=c, n_t=2, dim=dim, seed=_seed_of(rng))
    beta = float(rng.uniform(0.05, 0.95))
    n_enc = enc_p.size

    def loss_fn(stacked):
        enc = nn.Net(enc_arch, stacked[:n_enc])
        cls = nn.Net(cls_arch, stacked[n_enc:])
        loss, eg, cg = losses.adaptation_loss_and_grads(x1, x2, disc, enc, cls, fs, beta)
        return loss, np.concatenate([eg, cg])

    return loss_fn, np.concatenate([enc_p, cls_p])


def _build_model_ce(rng):
    width, c, dim = int(rng.integers(3, 6)), int(rng.integers(2, 4)), 2
    enc_arch = nn.ArchSpec((dim, width, width), "linear")
    cls_arch = nn.ArchSpec((width, c), "softmax")
    enc_p = nn.init_params(enc_arch, _seed_of(rng))
    cls_p = nn.init_params(cls_arch, _seed_of(rng))
    x = rng.uniform(size=(5, dim))
    labels = rng.integers(0, c, size=5)
    n_enc = enc_p.size

    def loss_fn(stacked):
        ep, cp = stacked[:n_enc], stacked[n_enc:]
        emb, ecache = nn.forward_and_cache(enc_arch, ep, x)
        probs, ccache = nn.forward_and_cache(cls_arch, cp, emb)
        loss = losses.cross_entropy(probs, labels)
        up = losses.cross_entropy_grad(probs, labels)
        cg, emb_up = nn.backward_from_cache(cls_arch, cp, ccache, up)
        eg, _ = nn.backward_from_cache(enc_arch, ep, ecache, emb_up)
        return loss, np.concatenate([eg, cg])

    return loss_fn, np.concatenate([enc_p, cls_p])


def _build_gen_objective(mode):
    # a stack of one generator per class; the loss is the sum over the stack,
    # so a gradient row built for another class's generator fails the check
    def build(rng):
        z_dim, hidden, dim, c = 3, 4, 2, 3
        gen_arch = trainers.default_generator_arch(z_dim, dim, hidden)
        enc_arch = nn.ArchSpec((dim, 4, 4), "linear")
        cls_arch = nn.ArchSpec((4, c), "softmax")
        enc = nn.Net(enc_arch, nn.init_params(enc_arch, _seed_of(rng)))
        cls = nn.Net(cls_arch, nn.init_params(cls_arch, _seed_of(rng)))
        z = rng.standard_normal((c, 4, z_dim))
        targets = rng.uniform(size=(c, 2, dim))

        def loss_fn(flat):
            loss, grad, _ = losses.generator_objective_and_grad(
                gen_arch, flat.reshape(c, -1), enc, cls, z,
                losses.generator_plan((mode,), c, [targets], 0.2, z.shape[-2]))
            return float(loss.sum()), grad.ravel()

        stack = [nn.init_params(gen_arch, _seed_of(rng)) for _ in range(c)]
        return loss_fn, np.concatenate(stack)

    return build


GRAD_OPS = {
    "source compatibility": _build_gen_source,
    "augmented L1": _build_aug_l1,
    "target proximity": _build_gen_target,
    "cross entropy": _build_cross_entropy,
    "group CE via discriminator": _build_group_ce,
    "adaptation via encoder+classifier": _build_adaptation,
    "source CE via encoder+classifier": _build_model_ce,
    "generator objective source_only": _build_gen_objective("source_only"),
    "generator objective target_only": _build_gen_objective("target_only"),
    "generator objective combined": _build_gen_objective("combined"),
}


def test_criterion_1_gradients():
    with _criterion(1, "analytic gradients match finite differences") as chk:
        start = perf_counter()
        rng = np.random.default_rng(7)
        worst = 0.0
        for name, build in GRAD_OPS.items():
            for draw in range(20):
                loss_fn, p0 = build(rng)
                report = nn.grad_check_fd(loss_fn, p0, tolerance=1e-4, step=1e-5)
                assert report.passed, (
                    f"{name} draw {draw}: max relative error "
                    f"{report.max_rel_error:.3e} at index {report.worst_index}"
                )
                worst = max(worst, report.max_rel_error)
        elapsed = perf_counter() - start
        assert elapsed < 30.0, f"gradient suite took {elapsed:.1f}s"
        chk.detail = (f"{len(GRAD_OPS)} ops x 20 draws, "
                      f"max rel err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: augmented-L1 suite


def test_criterion_2_augmented_l1():
    with _criterion(2, "augmented-L1 identity/symmetry/closed form/bounds") as chk:
        rng = np.random.default_rng(2024)
        tol = 1e-9
        worst = 0.0
        for d in (1, 2, 4, 8, 16):
            X = rng.uniform(size=(2000, d))
            Y = rng.uniform(size=(2000, d))
            diff = X - Y
            closed = (np.abs(diff) ** 3).sum(axis=1) / np.linalg.norm(diff, axis=1)
            bound = losses.l1_diameter(d)
            assert abs(bound - d ** 0.5) <= tol
            for i in range(2000):
                val = losses.augmented_l1(X[i], Y[i])
                assert abs(val - closed[i]) <= tol
                assert abs(losses.augmented_l1(Y[i], X[i]) - val) <= tol
                assert losses.augmented_l1(X[i], X[i]) == 0.0
                assert val > 0.0
                assert val <= bound + tol
                worst = max(worst, abs(val - closed[i]))
        for _ in range(1000):
            d = int(rng.choice((1, 2, 4, 8, 16)))
            gen = rng.uniform(size=(int(rng.integers(1, 7)), d))
            tgt = rng.uniform(size=(int(rng.integers(1, 8)), d))
            val = losses.gen_target_loss(gen, tgt, losses.l1_diameter(d))
            assert -tol <= val <= 1.0 + tol
        chk.detail = (f"1e4 pairs across d in {{1,2,4,8,16}}, "
                      f"max closed-form gap {worst:.1e}; "
                      f"1e3 proximity batches in [0,1]")


# ---------------------------------------------------------------------------
# criterion 3: pairing predicates


def _tag_pool(num_classes, per_class, tag):
    labels = np.repeat(np.arange(num_classes), per_class)
    feats = np.column_stack([labels / 10.0, np.full(labels.size, tag)])
    return LabeledPool(feats, labels)


def test_criterion_3_pairing_predicates():
    with _criterion(3, "pair-group predicates and exact counts") as chk:
        rng = np.random.default_rng(33)
        total = 0
        for _ in range(12):
            nc = int(rng.integers(2, 6))
            inter = _tag_pool(nc, int(rng.integers(2, 6)), 0.25)
            tgt = _tag_pool(nc, int(rng.integers(1, 4)), 0.75)
            for gid in ALL_GROUPS:
                count = int(rng.integers(15, 30))
                batch = sample_group_pairs(inter, tgt, gid, count, rng)
                assert batch.size == count
                assert np.all(batch.group == gid)
                lab1 = np.rint(batch.x1[:, 0] * 10).astype(int)
                lab2 = np.rint(batch.x2[:, 0] * 10).astype(int)
                assert np.all(batch.x1[:, 1] == 0.25)  # x1 always intermediate
                want_target = gid in (2, 4)
                assert np.all(batch.x2[:, 1] == (0.75 if want_target else 0.25))
                if gid in (1, 2):
                    assert np.all(lab1 == lab2)
                else:
                    assert np.all(lab1 != lab2)
                total += count
            grouped = build_groups(inter, tgt, 7, _seed_of(rng))
            assert grouped.counts() == {1: 7, 2: 7, 3: 7, 4: 7}
            assert np.all(grouped.group == np.repeat([1, 2, 3, 4], 7))
            total += grouped.size
        assert total >= 1000
        single = LabeledPool(np.array([[0.0, 0.25]]), np.array([0]))
        tgt = _tag_pool(2, 2, 0.75)
        for gid in ALL_GROUPS:
            with pytest.raises(ProtocolError):
                sample_group_pairs(single, tgt, gid, 4, rng)
        with pytest.raises(ProtocolError):
            build_groups(single, tgt, 2, 0)
        chk.detail = f"{total} pairs over 12 configurations; single-sample pool rejected"


# ---------------------------------------------------------------------------
# criterion 4: schedule conformance


def test_criterion_4_schedule(default_run):
    with _criterion(4, "one-step schedule at default budgets") as chk:
        _, _, _, trace = default_run
        cfg = TohanConfig()
        adapt_start = cfg.total_epochs - cfg.adapt_epochs
        assert adapt_start == 450

        gen_events = [ev for ev in trace if ev.phase == "generate"]
        assert [ev.epoch for ev in gen_events] == list(range(500))
        assert all(ev.losses["dm_size"] == 3 * cfg.gen_batch for ev in gen_events)

        pretrain = [ev for ev in trace if ev.phase == "pretrain_disc"]
        assert len(pretrain) == cfg.disc_pretrain_epochs == 100
        assert {ev.epoch for ev in pretrain} == {450}
        phases = [(ev.epoch, ev.phase) for ev in trace]
        i0 = phases.index((450, "generate"))
        assert all(p == (450, "pretrain_disc") for p in phases[i0 + 1:i0 + 101])

        model_epochs = [ev.epoch for ev in trace if ev.phase == "model_update"]
        disc_epochs = [ev.epoch for ev in trace if ev.phase == "disc_update"]
        assert model_epochs == list(range(450, 500))
        assert disc_epochs == list(range(450, 500))
        chk.detail = ("pretraining once at epoch 450 (100 steps), "
                      "adaptation only in 450..499, pool 96 samples/epoch")


# ---------------------------------------------------------------------------
# criterion 5: freeze contracts


def _tiny_tohan(**overrides):
    base = dict(gen_batch=4, per_group=2, z_dim=3, gen_hidden=4,
                disc_hidden=4, total_epochs=6, disc_pretrain_epochs=2,
                adapt_epochs=3, seed=0)
    base.update(overrides)
    return TohanConfig(**base)


def test_criterion_5_freeze_contracts(default_run):
    with _criterion(5, "freeze contracts") as chk:
        hyp = _hypothesis(seed=1)
        fs = _fewshot(seed=6)
        before = (hyp.enc.params.tobytes(), hyp.cls.params.tobytes())

        ft = trainers.train_ft(hyp, fs, BaselineConfig())
        assert ft.enc.params.tobytes() == before[0]
        shot = trainers.train_shot(hyp, fs, BaselineConfig())
        assert shot.cls.params.tobytes() == before[1]

        runs = {
            "wa": lambda: trainers.TargetModel(hyp.enc, hyp.cls),
            "ft": lambda: trainers.train_ft(hyp, fs, BaselineConfig()),
            "shot": lambda: trainers.train_shot(hyp, fs, BaselineConfig()),
            "sfada": lambda: trainers.run_two_step("sfada", hyp, fs, _tiny_tohan()),
            "tfada": lambda: trainers.run_two_step("tfada", hyp, fs, _tiny_tohan()),
            "stfada": lambda: trainers.run_two_step("stfada", hyp, fs, _tiny_tohan()),
            "tohan": lambda: trainers.train_tohan(hyp, fs, _tiny_tohan()),
        }
        assert set(runs) == set(METHODS)
        for name, run in runs.items():
            run()
            now = (hyp.enc.params.tobytes(), hyp.cls.params.tobytes())
            assert now == before, f"{name} mutated the source hypothesis"

        def never_together(trace):
            prev = trace[0]
            for ev in trace[1:]:
                disc_moved = ev.digests["disc"] != prev.digests["disc"]
                model_moved = (ev.digests["enc"] != prev.digests["enc"]
                               or ev.digests["cls"] != prev.digests["cls"])
                assert not (disc_moved and model_moved), (
                    f"{ev.phase} at epoch {ev.epoch} moved both"
                )
                prev = ev

        never_together(default_run[3])
        two_step_trace = []
        trainers.run_two_step("stfada", hyp, fs, _tiny_tohan(),
                              trace=two_step_trace)
        never_together(two_step_trace)
        chk.detail = ("encoder/classifier bytes pinned; hypothesis unchanged "
                      "after all 7 methods; model and discriminator steps disjoint")


# ---------------------------------------------------------------------------
# criterion 6: determinism


def test_criterion_6_determinism(default_run):
    with _criterion(6, "same-seed runs are bit-exact") as chk:
        hyp, fs, model_a, _ = default_run
        model_b = trainers.train_tohan(hyp, fs, TohanConfig(seed=0))
        rng = np.random.default_rng(17)
        test = harness.Dataset(
            rng.uniform(size=(300, 2)).astype(np.float32),
            rng.integers(0, 3, size=300), 3,
        )
        acc_a = harness.accuracy(model_a, test)
        acc_b = harness.accuracy(model_b, test)
        assert model_a.enc.params.tobytes() == model_b.enc.params.tobytes()
        assert model_a.cls.params.tobytes() == model_b.cls.params.tobytes()
        assert acc_a == acc_b
        chk.detail = f"repeated full run, identical parameters and accuracy {acc_a:.4f}"


# ---------------------------------------------------------------------------
# criterion 7: desk-scale ordering experiment


def test_criterion_7_ordering():
    with _criterion(7, "benchmark ordering matches the committed pilot") as chk:
        start = perf_counter()
        spec = importlib.util.spec_from_file_location("fha_run_pilot", PILOT_SCRIPT)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        assert (script.GRID_OUT, script.PILOT_OUT) == (GRID_PATH, PILOT_PATH)
        grid, pilot = script.oracles()
        assert grid == json.loads(GRID_PATH.read_text(encoding="utf-8")), "grid drifted"
        assert pilot == json.loads(PILOT_PATH.read_text(encoding="utf-8")), "pilot drifted"
        gates = script.ordering_gates(pilot)
        failed = [label for label, ok in gates if not ok]
        assert not failed, f"ordering gates failed: {failed}"
        elapsed = perf_counter() - start
        assert elapsed < 300.0, f"ordering experiment took {elapsed:.0f}s"
        chk.detail = (f"{len(gates)} ordering gates hold; grid of n_t {grid['shots']} and "
                      f"its n_t={pilot['n_t']} pilot replayed; {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 8: few-shot protocol


def test_criterion_8_few_shot_protocol():
    with _criterion(8, "few-shot budget enforcement") as chk:
        _, target, _ = make_synthetic_task(builtin_task("rot40"))
        for n_t in range(1, 8):
            fs = sample_few_shot(target, n_t, seed=0)
            counts = np.bincount(fs.labels, minlength=target.num_classes)
            assert np.all(counts == n_t)
            assert fs.features.shape[0] == n_t * target.num_classes
            np.testing.assert_array_equal(
                fs.features, target.features[fs.indices]
            )
        for bad in (0, -1, 8, 20):
            with pytest.raises(ProtocolError):
                sample_few_shot(target, bad, seed=0)
        chk.detail = "exact counts for n_t in 1..7; 0, -1, 8, 20 rejected"


# ---------------------------------------------------------------------------
# criterion 9: end-to-end CLI


def test_criterion_9_cli_round_trip(tmp_path):
    with _criterion(9, "CLI round trip with exact summary recomputation") as chk:
        data_dir = tmp_path / "data"
        results_path = tmp_path / "results.jsonl"
        summary_path = tmp_path / "summary.csv"

        assert cli.main(["gen-data", "--task", "rot40",
                         "--out", str(data_dir)]) == 0
        for name in ("source", "target", "target_test"):
            assert (data_dir / f"{name}.fhd").exists()

        assert cli.main(["run", "--task", "rot40", "--shots", "1,3,7",
                         "--seeds", "0..2", "--out", str(results_path)]) == 0
        rows, problems = read_results(results_path)
        assert problems == []
        assert len(rows) == 7 * 3 * 3
        assert all("error" not in r for r in rows)

        assert cli.main(["summarize", str(results_path), "--format", "csv",
                         "--out", str(summary_path)]) == 0

        # recompute every cell from the raw stream (same aggregation order)
        groups: dict = {}
        for r in rows:
            groups.setdefault((r["method"], int(r["n_t"])), []).append(
                float(r["accuracy"])
            )
        assert set(groups) == {(m, n) for m in METHODS for n in (1, 3, 7)}
        assert all(len(v) == 3 for v in groups.values())
        expected = {
            key: (f"{100 * np.mean(vals):.1f}",
                  f"{100 * np.std(np.asarray(vals), ddof=1):.1f}")
            for key, vals in groups.items()
        }

        lines = summary_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "method,n_t,mean_pct,std_pct,seeds"
        assert len(lines) == 1 + 21
        for line in lines[1:]:
            method, n_t, mean_pct, std_pct, count = line.split(",")
            want = expected[(method, int(n_t))]
            assert (mean_pct, std_pct) == want, f"cell {method}/{n_t} drifted"
            assert count == "3"

        table = summarize(rows)
        for (method, n_t), (mean_pct, std_pct) in expected.items():
            assert table.cell(method, n_t) == f"{mean_pct}±{std_pct}"
        chk.detail = "21/21 cells recomputed exactly from the raw results"
