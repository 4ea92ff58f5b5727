"""Tests for generation and adaptation objectives in fha.losses.

Closed-form reference values are hand-derived:
  * gen_source_loss_and_grad([0.5, 1.0])[0] = ((0.5-1)^2 + 0) / 2 = 0.125
  * augmented_l1((1,0),(0,0)) = |1|^3 / 1 = 1
  * augmented_l1((1,1),(0,0)) = (1+1) / sqrt(2) = sqrt(2)
  * l1_diameter(d) = sqrt(d) (maximum at |d_i| = 1 everywhere)
  * gen_target_loss of one pair at augmented distance 1 with M = sqrt(2)
    is 1/sqrt(2)
  * uniform 4-way predictions give group CE ln(4)
  * beta_schedule(1) = 2/(1+e^-10) - 1
"""

import functools
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fha import losses, nn, trainers
from fha.data import FewShotSet
from fha.errors import ConfigError, MissingClassError
from fha.pairing import ALL_GROUPS, PairBatch, draw_pairs

RNG = np.random.default_rng(812)

unit_vectors = arrays(
    np.float64,
    st.integers(min_value=1, max_value=8),
    elements=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


def _gen_source_loss(p):
    return losses.gen_source_loss_and_grad(p)[0]


class TestGenSourceLoss:
    def test_reference_value(self):
        assert _gen_source_loss(np.array([0.5, 1.0])) == pytest.approx(0.125)

    def test_zero_probs_give_one(self):
        assert _gen_source_loss(np.zeros(4)) == pytest.approx(1.0)

    def test_perfect_probs_give_zero(self):
        assert _gen_source_loss(np.ones(3)) == 0.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            _gen_source_loss(np.array([0.5, 1.2]))
        with pytest.raises(ConfigError):
            _gen_source_loss(np.array([-0.1]))

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            _gen_source_loss(np.array([]))

    def test_grad_matches_fd(self):
        p0 = RNG.uniform(0.05, 0.95, size=6)

        def loss_fn(p):
            return losses.gen_source_loss_and_grad(p)

        assert nn.grad_check_fd(loss_fn, p0).passed


class TestAugmentedL1:
    def test_reference_values(self):
        assert losses.augmented_l1(np.array([1.0, 0.0]), np.zeros(2)) == pytest.approx(1.0)
        assert losses.augmented_l1(np.array([1.0, 1.0]), np.zeros(2)) == pytest.approx(
            np.sqrt(2.0)
        )

    def test_identity_iff_equal(self):
        x = RNG.uniform(size=5)
        assert losses.augmented_l1(x, x) == 0.0
        assert losses.augmented_l1(x, x + 1e-9) > 0.0

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(unit_vectors.flatmap(lambda x: st.tuples(st.just(x), arrays(
        np.float64, x.shape,
        elements=st.floats(min_value=0.0, max_value=1.0, allow_nan=False)))))
    def test_symmetry_and_closed_form(self, xy):
        x, y = xy
        d = x - y
        norm = np.sqrt(np.sum(d * d))
        expected = 0.0 if norm == 0.0 else np.sum(np.abs(d) ** 3) / norm
        assert losses.augmented_l1(x, y) == pytest.approx(expected, abs=1e-12)
        assert losses.augmented_l1(x, y) == pytest.approx(losses.augmented_l1(y, x), abs=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            losses.augmented_l1(np.zeros(2), np.zeros(3))

    def test_grad_matches_fd_away_from_origin(self):
        y = RNG.uniform(size=4)
        x0 = y + RNG.uniform(0.1, 0.3, size=4)

        def loss_fn(x):
            return losses.augmented_l1(x, y), losses.augmented_l1_grad(x, y)

        assert nn.grad_check_fd(loss_fn, x0).passed

    def test_grad_zero_at_coincidence(self):
        x = RNG.uniform(size=3)
        assert np.array_equal(losses.augmented_l1_grad(x, x), np.zeros(3))


class TestDiameter:
    def test_reference_values(self):
        assert losses.l1_diameter(1) == pytest.approx(1.0)
        assert losses.l1_diameter(4) == pytest.approx(2.0)

    @pytest.mark.parametrize("dim", [1, 2, 4, 8, 16])
    def test_bounds_all_unit_cube_distances(self, dim):
        rng = np.random.default_rng(dim)
        m = losses.l1_diameter(dim)
        x = rng.uniform(size=(500, dim))
        y = rng.uniform(size=(500, dim))
        dists = [losses.augmented_l1(a, b) for a, b in zip(x, y)]
        assert max(dists) <= m + 1e-12
        corner = losses.augmented_l1(np.ones(dim), np.zeros(dim))
        assert corner == pytest.approx(m, abs=1e-12)

    def test_non_positive_dim_rejected(self):
        with pytest.raises(ConfigError):
            losses.l1_diameter(0)


class TestGenTargetLoss:
    def test_reference_value(self):
        generated = np.array([[1.0, 0.0]])
        target = np.array([[0.0, 0.0]])
        value = losses.gen_target_loss(generated, target, losses.l1_diameter(2))
        assert value == pytest.approx(1.0 / np.sqrt(2.0))

    def test_zero_at_coincidence(self):
        pts = RNG.uniform(size=(3, 4))
        assert losses.gen_target_loss(pts, pts[:1].repeat(1, axis=0), 2.0) >= 0.0
        assert losses.gen_target_loss(pts[:1], pts[:1], 2.0) == 0.0

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=5),
           st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**31))
    def test_unit_interval_range(self, b, k, dim, seed):
        rng = np.random.default_rng(seed)
        generated = rng.uniform(size=(b, dim))
        target = rng.uniform(size=(k, dim))
        value = losses.gen_target_loss(generated, target, losses.l1_diameter(dim))
        assert 0.0 <= value <= 1.0

    def test_empty_target_class_raises(self):
        with pytest.raises(MissingClassError):
            losses.gen_target_loss(np.zeros((2, 3)), np.zeros((0, 3)), 1.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            losses.gen_target_loss(np.zeros((0, 3)), np.zeros((1, 3)), 1.0)
        with pytest.raises(ConfigError):
            losses.gen_target_loss(np.zeros((2, 3)), np.zeros((1, 2)), 1.0)
        with pytest.raises(ConfigError):
            losses.gen_target_loss(np.zeros((2, 3)), np.zeros((1, 3)), 0.0)

    def test_grad_matches_fd(self):
        target = RNG.uniform(size=(3, 4))
        x0 = RNG.uniform(0.2, 0.8, size=(2, 4))
        diameter = losses.l1_diameter(4)

        def loss_fn(flat):
            value, grad = losses.gen_target_loss_and_grad(flat.reshape(2, 4), target, diameter)
            return float(value), grad.reshape(-1)

        assert nn.grad_check_fd(loss_fn, x0.reshape(-1)).passed

    def test_stacked_rows_equal_single_calls(self):
        generated = RNG.uniform(size=(3, 5, 4))
        targets = RNG.uniform(size=(3, 2, 4))
        generated[1, 0] = targets[1, 1]  # a zero distance takes the guarded branch
        loss, grad = losses.gen_target_loss_and_grad(generated, targets, 2.0)
        assert loss.shape == (3,) and grad.shape == generated.shape
        for n in range(3):
            row_loss, row_grad = losses.gen_target_loss_and_grad(generated[n], targets[n], 2.0)
            assert loss[n] == row_loss
            assert np.array_equal(grad[n], row_grad)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(min_value=1, max_value=20), st.integers(min_value=1, max_value=12),
           st.integers(min_value=1, max_value=9),
           st.sampled_from([(), (1,), (3,), (2, 3)]), st.integers(min_value=0, max_value=3),
           st.integers(min_value=0, max_value=2**31))
    @example(dim=1, k=9, b=5, lead=(3,), zero_gaps=1, seed=0)
    def test_equals_the_difference_tensor_kernel(self, dim, k, b, lead, zero_gaps, seed):
        """Byte for byte equal to the kernel that sums over one (.., B, K, dim)
        difference tensor with np.sum, zero-gap pairs included; K beyond
        MAX_SHOTS covers np.sum's pairwise order over K at dim 1."""
        rng = np.random.default_rng(seed)
        generated = rng.uniform(-2.0, 2.0, size=lead + (b, dim))
        targets = rng.uniform(-2.0, 2.0, size=lead + (k, dim))
        for _ in range(zero_gaps):
            i, j = rng.integers(b), rng.integers(k)
            generated[..., i, :] = targets[..., j, :]
        diameter = losses.l1_diameter(dim)
        loss, grad = losses.gen_target_loss_and_grad(generated, targets, diameter)
        want_loss, want_grad = _difference_tensor_kernel(generated, targets, diameter)
        assert loss.shape == want_loss.shape and grad.shape == want_grad.shape
        assert loss.tobytes() == want_loss.tobytes()
        assert grad.tobytes() == want_grad.tobytes()

    def test_stacked_leading_axes_must_match(self):
        with pytest.raises(ConfigError):
            losses.gen_target_loss_and_grad(np.zeros((3, 2, 4)), np.zeros((2, 1, 4)), 1.0)
        with pytest.raises(ConfigError):
            losses.gen_target_loss_and_grad(np.zeros((3, 2, 4)), np.zeros((1, 4)), 1.0)
        with pytest.raises(ConfigError):
            losses.gen_target_loss_and_grad(np.zeros((2, 4)), np.zeros(4), 1.0)


def _dim_leading_kernel(generated, targets, diameter):
    """The proximity kernel before the K-leading layout: (dim, .., K, B)
    coordinate planes, K folded after moving it to the front."""
    lead, dim = generated.ndim - 2, generated.shape[-1]
    b, k = generated.shape[-2], targets.shape[-2]
    to_planes = (lead + 1, *range(lead + 1))
    d = generated.transpose(to_planes)[..., None, :] - targets.transpose(to_planes)[..., :, None]
    abs_d = np.abs(d)
    norm = np.sqrt(nn._pairwise_sum(d * d))
    cube = nn._pairwise_sum(abs_d ** 3)
    pos = norm > 0.0
    safe = np.where(pos, norm, 1.0)
    vals = np.where(pos, cube / safe, 0.0)
    loss = vals.swapaxes(-1, -2).reshape(generated.shape[:-2] + (-1,)).sum(axis=-1)
    grad = np.where(pos, 3.0 * d * abs_d / safe - d * cube / safe**3, 0.0)
    planes = np.moveaxis(grad, -2, 0)
    grad = nn._pairwise_sum(planes) if dim == 1 else functools.reduce(np.add, planes)
    scale = diameter * b * k
    return loss / scale, grad.transpose((*range(1, lead + 2), 0)) / scale


class TestKLeadingKernel:
    """The K-leading proximity kernel, alone and through a generator plan,
    gives the bytes of the (dim, .., K, B) kernel it replaced."""

    @pytest.mark.parametrize("dim", range(1, 6))
    @pytest.mark.parametrize("lead", [(), (4,)], ids=["single", "stacked"])
    def test_equals_the_dim_leading_kernel(self, dim, lead):
        rng = np.random.default_rng(dim)
        for k in range(1, 10):
            for b in (1, 5, 32):
                generated = rng.uniform(size=lead + (b, dim))
                targets = rng.uniform(size=lead + (k, dim))
                generated[..., 0, :] = targets[..., k - 1, :]  # zero-distance rows
                diameter = losses.l1_diameter(dim)
                want = _dim_leading_kernel(generated, targets, diameter)
                got = losses.gen_target_loss_and_grad(generated, targets, diameter)
                assert got[0].tobytes() == want[0].tobytes()
                assert got[1].shape == want[1].shape
                assert got[1].tobytes() == want[1].tobytes()
                if lead:  # the plan stacks the few-shots of its proximity blocks
                    plan = losses.generator_plan(("target_only", "combined"), lead[0],
                                                 [targets, targets], 0.5, b)
                    both = np.concatenate([generated, generated])
                    loss, grad = losses._proximity(both, plan.tgt[0][2], plan.diameter)
                    assert loss.tobytes() == np.tile(want[0], 2).tobytes()
                    assert grad.tobytes() == np.tile(want[1], (2, 1, 1)).tobytes()


def _difference_tensor_kernel(generated, targets, diameter):
    """The reference target-proximity kernel: one 4-D difference tensor,
    reduced with np.sum over its last axes."""
    b, k = generated.shape[-2], targets.shape[-2]
    d = generated[..., :, None, :] - targets[..., None, :, :]
    norm = np.sqrt(np.sum(d * d, axis=-1, keepdims=True))
    cube = np.sum(np.abs(d) ** 3, axis=-1, keepdims=True)
    safe = np.where(norm > 0.0, norm, 1.0)
    vals = np.where(norm > 0.0, cube / safe, 0.0)
    loss = vals.reshape(generated.shape[:-2] + (-1,)).sum(axis=-1) / (diameter * b * k)
    grad = np.where(norm > 0.0, 3.0 * d * np.abs(d) / safe - d * cube / safe**3, 0.0)
    return loss, grad.sum(axis=-2) / (diameter * b * k)


class TestGenTotalLoss:
    def test_config_validation(self):
        gen_arch, params, enc, cls, z, targets = _generator_stack()
        with pytest.raises(ConfigError):
            losses.generator_plan(("combined",), 2, [targets], -0.5, z.shape[-2])


class TestCrossEntropy:
    def test_uniform_value(self):
        probs = np.full((5, 3), 1.0 / 3.0)
        labels = np.array([0, 1, 2, 0, 1])
        assert losses.cross_entropy(probs, labels) == pytest.approx(np.log(3.0))

    def test_clamp_prevents_infinity(self):
        probs = np.array([[0.0, 1.0]])
        value = losses.cross_entropy(probs, np.array([0]))
        assert value == pytest.approx(-np.log(losses.PROB_FLOOR))

    def test_validation(self):
        with pytest.raises(ConfigError):
            losses.cross_entropy(np.zeros((0, 2)), np.zeros(0, dtype=int))
        with pytest.raises(ConfigError):
            losses.cross_entropy(np.full((2, 2), 0.5), np.array([0, 2]))
        with pytest.raises(ConfigError):
            losses.cross_entropy(np.full((2, 2), 0.5), np.array([[0], [1]]).ravel()[:1])

    # the gradient shares the loss's checks: each bad label vector raises
    # ConfigError from both, never wrapping or dropping rows silently
    @pytest.mark.parametrize("fn", [losses.cross_entropy, losses.cross_entropy_grad])
    def test_negative_label_rejected(self, fn):
        # -1 would index the last class
        with pytest.raises(ConfigError, match="^labels outside the class range$"):
            fn(np.full((3, 2, 4), 0.25), np.array([0, -1]))

    @pytest.mark.parametrize("fn", [losses.cross_entropy, losses.cross_entropy_grad])
    def test_label_past_the_last_class_rejected(self, fn):
        with pytest.raises(ConfigError, match="^labels outside the class range$"):
            fn(np.full((2, 4), 0.25), np.array([0, 4]))

    @pytest.mark.parametrize("fn", [losses.cross_entropy, losses.cross_entropy_grad])
    def test_labels_shorter_than_the_batch_rejected(self, fn):
        # the missing rows would keep a zero gradient
        with pytest.raises(ConfigError, match="aligned with"):
            fn(np.full((3, 4), 0.25), np.array([0, 1]))

    @pytest.mark.parametrize("lead", [(), (3,)], ids=["single", "stacked"])
    def test_loss_and_grad_equal_their_formulas(self, lead):
        """cross_entropy and cross_entropy_grad give the bytes of their
        formulas, from one gather of the true-class probabilities each."""
        probs = RNG.uniform(0.0, 1.0, size=lead + (9, 4))
        probs[..., 0, 1] = 1e-13  # inside the clamped region
        labels = np.array([1, 0, 3, 2, 2, 1, 0, 0, 3])
        rows = np.arange(labels.size)
        picked = np.ascontiguousarray(probs[..., rows, labels])
        want_loss = -np.mean(np.log(np.maximum(picked, losses.PROB_FLOOR)), axis=-1)
        want_grad = np.zeros_like(probs)
        want_grad[..., rows, labels] = np.where(
            picked >= losses.PROB_FLOOR,
            -1.0 / (labels.size * np.maximum(picked, losses.PROB_FLOOR)), 0.0)
        loss = losses.cross_entropy(probs, labels)
        assert isinstance(loss, float) if not lead else loss.shape == lead
        assert np.asarray(loss).tobytes() == want_loss.tobytes()
        assert losses.cross_entropy_grad(probs, labels).tobytes() == want_grad.tobytes()

    def test_grad_matches_fd(self):
        probs0 = RNG.uniform(0.1, 0.9, size=(4, 3))
        labels = np.array([0, 2, 1, 0])

        def loss_fn(flat):
            p = flat.reshape(4, 3)
            return losses.cross_entropy(p, labels), losses.cross_entropy_grad(p, labels).reshape(-1)

        assert nn.grad_check_fd(loss_fn, probs0.reshape(-1)).passed


def _tuple_pick(shape, labels):
    """The label pick as an index tuple: (..., rows, labels), or with one row
    of labels per block, (blocks, rows, labels)."""
    rows = np.arange(shape[-2])
    return (np.arange(shape[0])[:, None], rows, labels) if np.ndim(labels) == 2 else (
        ..., rows, labels)


def _tuple_ce_parts(probs, labels, with_loss=True, logits=False):
    """_ce_parts as it gathered and scattered through index tuples."""
    pick, b = _tuple_pick(probs.shape, labels), probs.shape[-2]
    picked = np.ascontiguousarray(probs[pick])
    floor = np.maximum(picked, losses.PROB_FLOOR)
    loss = -(np.add.reduce(np.log(floor), axis=-1) / b) if with_loss else None
    u = np.where(picked >= losses.PROB_FLOOR, -1.0 / (b * floor), 0.0)
    if logits:
        s = u * picked
        grad = probs * (0.0 - s)[..., None]
        grad[pick] = (u - s) * picked
    else:
        grad = np.zeros_like(probs)
        grad[pick] = u
    return (float(loss) if loss is not None and loss.ndim == 0 else loss), grad


def _softmax_rows(rng, shape, edges):
    """Softmax rows of ``shape``; with ``edges``, one row is exactly 1.0 at
    class 0, two are under the probability floor at a class and one is NaN."""
    probs = nn._softmax(rng.normal(size=shape))
    if edges:
        flat = probs.reshape(-1, shape[-1])
        flat[1] = np.eye(shape[-1])[0]
        flat[2, :2] = (1e-13, 1.0 - 1e-13)
        flat[3, 1] = 0.0
        flat[-1] = np.nan
    return probs


class TestFlatPicks:
    """Flat label picks (_flat_pick) gather and scatter the bits the index
    tuples did, for one net, a stack with one label vector and a stack with
    per-block labels, and the batches source fitting slices from its epochs."""

    CASES = {"(B, C)": ((7, 3), (7,)), "(M, B, C)": ((4, 7, 3), (7,)),
             "(M, B, C) per block": ((4, 7, 3), (4, 7)),
             "(M, B, C) per block, 2 classes": ((3, 5, 2), (3, 5))}

    @pytest.mark.parametrize("edges", [False, True], ids=["inside the floor", "edges"])
    @pytest.mark.parametrize("case", CASES)
    def test_equal_the_tuple_picks(self, case, edges):
        shape, label_shape = self.CASES[case]
        rng = np.random.default_rng(len(case))
        probs = _softmax_rows(rng, shape, edges)
        labels = rng.integers(0, shape[-1], size=label_shape)
        pick = losses._flat_pick(shape, labels)
        assert pick.shape == shape[:-1]
        want = np.ascontiguousarray(probs[_tuple_pick(shape, labels)])
        assert probs.take(pick).tobytes() == want.tobytes()
        for with_loss in (True, False):
            for logits in (True, False):
                got = losses._ce_parts(probs, pick, with_loss, logits)
                ref = _tuple_ce_parts(probs, labels, with_loss, logits)
                assert type(got[0]) is type(ref[0])
                assert np.asarray(got[0]).tobytes() == np.asarray(ref[0]).tobytes()
                assert got[1].tobytes() == ref[1].tobytes()

    @pytest.mark.parametrize("rows,classes", [(240, 3), (160, 2)], ids=["rot40", "shift"])
    def test_epoch_picks_slice_into_batch_picks(self, rows, classes):
        """train_source's epoch picks (row % batch * C + label) sliced into
        batches of 64 are each batch's own picks, with its tail (rot40: 240
        rows as 3 x 64 + 48; shift: 160 as 2 x 64 + 32)."""
        rng = np.random.default_rng(rows)
        labels = rng.integers(0, classes, size=rows)
        epoch = labels + np.arange(rows) % 64 * classes
        sizes = []
        for start in range(0, rows, 64):
            batch = labels[start:start + 64]
            pick = epoch[start:start + 64]
            sizes.append(batch.size)
            assert np.array_equal(pick, losses._flat_pick((batch.size, classes), batch))
            for edges in (False, True):
                probs = _softmax_rows(rng, (batch.size, classes), edges)
                got, ref = losses._ce_parts(probs, pick, logits=True), _tuple_ce_parts(
                    probs, batch, logits=True)
                assert np.asarray(got[0]).tobytes() == np.asarray(ref[0]).tobytes()
                assert got[1].tobytes() == ref[1].tobytes()
        assert sizes == [64] * (rows // 64) + [rows % 64]


def _composed_softmax_ce(enc_arch, ep, cls_arch, cp, x, labels):
    """The five calls softmax_ce_and_grads replaces."""
    emb, enc_cache = nn.forward_and_cache(enc_arch, ep, x)
    probs, cls_cache = nn.forward_and_cache(cls_arch, cp, emb)
    up = losses.cross_entropy_grad(probs, labels)
    cls_grad, emb_up = nn.backward_from_cache(cls_arch, cp, cls_cache, up)
    enc_grad, _ = nn.backward_from_cache(enc_arch, ep, enc_cache, emb_up)
    return losses.cross_entropy(probs, labels), enc_grad, cls_grad, probs


def _ce_nets(rng, classes, lead=(), cls_widths=()):
    enc_arch = nn.ArchSpec((3, 7, 5), head="linear")
    cls_arch = nn.ArchSpec((5, *cls_widths, classes))
    ep = rng.normal(size=lead + (enc_arch.n_params,))
    cp = 3.0 * rng.normal(size=lead + (cls_arch.n_params,))
    return enc_arch, ep, cls_arch, cp


class TestSoftmaxCEAndGrads:
    """The fused pass gives the composed path's bytes and checks its inputs once."""

    @pytest.mark.parametrize("classes", range(2, 7))
    @pytest.mark.parametrize("lead", [(), (3,)], ids=["single", "stacked"])
    @pytest.mark.parametrize("cls_widths", [(), (4,)])
    def test_equals_the_composed_path(self, classes, lead, cls_widths):
        rng = np.random.default_rng(classes)
        for b in (1, 2, 9, 64):
            enc_arch, ep, cls_arch, cp = _ce_nets(rng, classes, lead, cls_widths)
            x = rng.normal(size=lead + (b, 3))
            if lead and b == 9:  # one batch seen by every net, as the few-shot term passes it
                x = np.broadcast_to(x[0], x.shape)
            labels = rng.integers(0, classes, size=b)
            handed = [a.copy() for a in (ep, cp, x, labels)]
            want = _composed_softmax_ce(enc_arch, ep, cls_arch, cp, x, labels)
            got = losses.softmax_ce_and_grads(enc_arch, ep, cls_arch, cp, x, labels)
            assert isinstance(got[0], float) if not lead else got[0].shape == lead
            for g, w in zip(got, want):
                assert np.asarray(g).tobytes() == np.asarray(w).tobytes()
            assert got[1].shape == ep.shape and got[2].shape == cp.shape
            assert all(a.tobytes() == h.tobytes() for a, h in zip((ep, cp, x, labels), handed))

    @pytest.mark.parametrize("classes", range(2, 7))
    @pytest.mark.parametrize("lead", [(), (2,)], ids=["single", "stacked"])
    def test_rows_below_the_probability_floor(self, classes, lead):
        """Rows whose true class sits under PROB_FLOOR (or underflows to 0)
        get the composed path's clamped loss and zero gradient, and the
        gradient at the softmax's input its bytes, signs of zero included."""
        rng = np.random.default_rng(100 + classes)
        enc_arch, ep, cls_arch, cp = _ce_nets(rng, classes, lead)
        cp = 200.0 * cp
        x = rng.normal(size=lead + (64, 3))
        probs = nn.forward(cls_arch, cp, nn.forward(enc_arch, ep, x)).reshape(-1, 64, classes)
        # rows where the least likely class is under the floor in every block
        rows = np.flatnonzero((probs.min(axis=-1) < losses.PROB_FLOOR).all(axis=0))[:8]
        assert rows.size == 8
        x, lowest = x[..., rows, :], probs[0, rows].argmin(axis=-1)
        # half the rows under the floor, then all of them: every logit gradient
        # is then zero, and its sign reaches the classifier's bias gradient
        for labels in (np.where(np.arange(8) % 2 == 0, lowest, (lowest + 1) % classes),
                       lowest):
            want = _composed_softmax_ce(enc_arch, ep, cls_arch, cp, x, labels)
            got = losses.softmax_ce_and_grads(enc_arch, ep, cls_arch, cp, x, labels)
            for g, w in zip(got, want):
                assert np.asarray(g).tobytes() == np.asarray(w).tobytes()
            probs = want[-1]
            logit_grad = nn._head_grad(cls_arch, probs, losses.cross_entropy_grad(probs, labels))
            pick = losses._flat_pick(probs.shape, labels)
            assert losses._ce_parts(probs, pick, logits=True)[1].tobytes() == logit_grad.tobytes()

    @pytest.mark.parametrize("classes", [2, 4])
    def test_gradients_match_fd(self, classes):
        rng = np.random.default_rng(7)
        enc_arch, ep, cls_arch, cp = _ce_nets(rng, classes)
        x = rng.normal(size=(6, 3))
        labels = rng.integers(0, classes, size=6)
        split = enc_arch.n_params

        def loss_fn(flat):
            loss, enc_grad, cls_grad = losses.softmax_ce_and_grads(
                enc_arch, flat[:split], cls_arch, flat[split:], x, labels)
            return loss, np.concatenate([enc_grad, cls_grad])

        report = nn.grad_check_fd(loss_fn, np.concatenate([ep, cp]))
        assert report.passed, report

    def test_bad_labels_raise_the_cross_entropy_messages(self):
        rng = np.random.default_rng(3)
        enc_arch, ep, cls_arch, cp = _ce_nets(rng, 4)
        x = rng.normal(size=(3, 3))

        def call(x, labels):
            return losses.softmax_ce_and_grads(enc_arch, ep, cls_arch, cp, x, labels)

        with pytest.raises(ConfigError, match="^cross_entropy on an empty batch$"):
            call(np.zeros((0, 3)), np.zeros(0, dtype=int))
        with pytest.raises(ConfigError, match="aligned with"):
            call(x, np.array([0, 1]))
        with pytest.raises(ConfigError, match="aligned with"):
            call(x, np.array([[0, 1, 2]]))
        for labels in ([0, -1, 2], [0, 4, 1]):
            with pytest.raises(ConfigError, match="^labels outside the class range$"):
                call(x, np.array(labels))

    def test_nets_and_batch_are_checked(self):
        rng = np.random.default_rng(4)
        enc_arch, ep, cls_arch, cp = _ce_nets(rng, 3)
        x, labels = rng.normal(size=(4, 3)), np.array([0, 1, 2, 0])
        with pytest.raises(ConfigError, match="parameters must be"):
            losses.softmax_ce_and_grads(enc_arch, ep[:-1], cls_arch, cp, x, labels)
        with pytest.raises(ConfigError, match="batch must be"):
            losses.softmax_ce_and_grads(enc_arch, ep, cls_arch, cp, x[:, :2], labels)
        with pytest.raises(ConfigError, match="one parameter row per batch block"):
            losses.softmax_ce_and_grads(enc_arch, ep, cls_arch, cp, x[None], labels)
        with pytest.raises(ConfigError, match="softmax head"):
            losses.softmax_ce_and_grads(enc_arch, ep, cls_arch, cp[None], x, labels)
        linear = nn.ArchSpec(cls_arch.widths, head="linear")
        with pytest.raises(ConfigError, match="softmax head"):
            losses.softmax_ce_and_grads(enc_arch, ep, linear, cp, x, labels)


class TestGroupCE:
    """The group cross-entropy of group_ce_and_disc_grad and its checks."""

    def test_uniform_value(self):
        # an all-zero discriminator puts 1/4 on every group
        arch = trainers.default_discriminator_arch(3)
        disc = nn.Net(arch, np.zeros(arch.n_params))
        labels = np.array([1, 2, 3, 4, 1, 2, 3, 4])
        loss, _ = losses.group_ce_and_disc_grad(disc, np.ones((8, 6)), labels)
        assert loss == pytest.approx(np.log(4.0))

    def test_one_based_labels_enforced(self):
        probs = np.full((2, 4), 0.25)
        with pytest.raises(ConfigError):
            losses._check_group_ce(probs, np.array([0, 1]))
        with pytest.raises(ConfigError):
            losses._check_group_ce(probs, np.array([1, 5]))

    def test_shape_validation(self):
        with pytest.raises(ConfigError):
            losses._check_group_ce(np.full((2, 3), 1 / 3), np.array([1, 2]))

    def test_label_errors_name_the_group_labels(self):
        with pytest.raises(ConfigError, match=r"group labels must lie in \{1, 2, 3, 4\}"):
            losses._check_group_ce(np.full((2, 4), 0.25), np.array([0, 4]))
        with pytest.raises(ConfigError, match="^group cross-entropy on an empty batch$"):
            losses._check_group_ce(np.zeros((0, 4)), np.zeros(0, dtype=int))

    def test_grad_matches_fd(self):
        raw = RNG.uniform(0.2, 0.8, size=(3, 4))
        probs0 = raw / raw.sum(axis=1, keepdims=True)
        labels = np.array([1, 4, 2])

        def loss_fn(flat):
            p = flat.reshape(3, 4)
            # the fused part of group_ce_and_disc_grad, without the row-sum
            # check: the gradient is defined pointwise, also off the simplex
            loss, grad = losses._ce_parts(*losses._check_ce(p, labels - 1))
            assert loss == losses.cross_entropy(p, labels - 1)
            return loss, grad.reshape(-1)

        assert nn.grad_check_fd(loss_fn, probs0.reshape(-1)).passed


class TestBetaSchedule:
    def test_endpoints(self):
        assert losses.beta_schedule(0.0) == 0.0
        assert losses.beta_schedule(1.0) == pytest.approx(2.0 / (1.0 + np.exp(-10.0)) - 1.0)
        assert losses.beta_schedule(1.0) == pytest.approx(0.9999092, abs=1e-7)

    def test_monotone_and_bounded(self):
        qs = np.linspace(0.0, 1.0, 101)
        vals = [losses.beta_schedule(q) for q in qs]
        assert all(b2 > b1 for b1, b2 in zip(vals, vals[1:]))
        assert all(0.0 <= v < 1.0 for v in vals)

    def test_clamps_out_of_range_progress(self):
        assert losses.beta_schedule(-3.0) == losses.beta_schedule(0.0)
        assert losses.beta_schedule(7.0) == losses.beta_schedule(1.0)


def _small_models(num_classes=2, dim=2, enc_width=3, seed=0):
    s1, s2, s3 = nn.derive_seeds(seed, 3)
    enc_arch = nn.ArchSpec((dim, 4, enc_width), head="linear")
    enc = nn.Net(enc_arch, nn.init_params(enc_arch, seed=s1))
    cls_arch = nn.ArchSpec((enc_width, num_classes), head="softmax")
    cls = nn.Net(cls_arch, nn.init_params(cls_arch, seed=s2))
    disc_arch = nn.ArchSpec((2 * enc_width, 5, 4), head="softmax")
    disc = nn.Net(disc_arch, nn.init_params(disc_arch, seed=s3))
    return enc, cls, disc


def _fewshot(num_classes=2, n_t=2, dim=2, seed=1):
    rng = np.random.default_rng(seed)
    feats = rng.uniform(size=(num_classes * n_t, dim)).astype(np.float32)
    labels = np.repeat(np.arange(num_classes), n_t)
    return FewShotSet(features=feats, labels=labels, n_t=n_t,
                      indices=np.arange(num_classes * n_t), num_classes=num_classes)


def _pair_rows(g2_seed=5, g4_seed=5, count=3, dim=2):
    """The model update's pair rows: x1 and x2 of ``count`` group-2 pairs,
    then ``count`` group-4 pairs, each group drawn by its own seed."""
    groups = []
    for seed in (g2_seed, g4_seed):
        rng = np.random.default_rng(seed)
        groups.append((rng.uniform(size=(count, dim)), rng.uniform(size=(count, dim))))
    return tuple(np.concatenate(side) for side in zip(*groups))


class TestAdaptationLoss:
    def test_uniform_discriminator_reference(self):
        enc, cls, _ = _small_models()
        # discriminator with zero weights outputs exactly uniform rows
        disc_arch = nn.ArchSpec((6, 4), head="softmax")
        disc = nn.Net(disc_arch, np.zeros(nn.num_params(disc_arch)))
        fs = _fewshot()
        probs = nn.forward(cls.arch, cls.params, nn.forward(enc.arch, enc.params,
                                                            np.asarray(fs.features, float)))
        expected_ce = losses.cross_entropy(probs, np.asarray(fs.labels, np.int64))
        beta = 0.5
        value, _, _ = losses.adaptation_loss_and_grads(*_pair_rows(), disc, enc, cls, fs, beta)
        assert value == pytest.approx(beta * 2.0 * np.log(4.0) + expected_ce, abs=1e-12)

    def test_beta_zero_is_pure_cross_entropy(self):
        enc, cls, disc = _small_models()
        fs = _fewshot()
        with_pairs, _, _ = losses.adaptation_loss_and_grads(*_pair_rows(), disc, enc, cls, fs,
                                                            0.0)
        probs = nn.forward(cls.arch, cls.params, nn.forward(enc.arch, enc.params,
                                                            np.asarray(fs.features, float)))
        assert with_pairs == pytest.approx(
            losses.cross_entropy(probs, np.asarray(fs.labels, np.int64)), abs=1e-12
        )

    def test_beta_out_of_range_rejected(self):
        enc, cls, disc = _small_models()
        fs = _fewshot()
        for bad in (-0.1, 1.5):
            with pytest.raises(ConfigError):
                losses.adaptation_loss_and_grads(*_pair_rows(), disc, enc, cls, fs, bad)

    def test_empty_or_odd_pairs_rejected(self):
        enc, cls, disc = _small_models()
        fs = _fewshot()
        x1, x2 = _pair_rows()
        for rows in (slice(0, 0), slice(0, 5)):
            with pytest.raises(ConfigError, match="h of group 2, then h of group 4"):
                losses.adaptation_loss_and_grads(x1[rows], x2[rows], disc, enc, cls, fs, 0.9)

    def test_nets_and_pairs_are_checked(self):
        enc, cls, disc = _small_models()
        fs = _fewshot()
        x1, x2 = _pair_rows()

        def call(x1=x1, x2=x2, disc=disc, enc=enc):
            losses.adaptation_loss_and_grads(x1, x2, disc, enc, cls, fs, 0.5)

        with pytest.raises(ConfigError, match="batch must be"):
            call(x1=x1[:, :1])
        with pytest.raises(ConfigError, match="equal-shape pairs"):
            call(x2=x2[:4])
        with pytest.raises(ConfigError, match="one block per encoder"):
            call(x1=x1[None], x2=x2[None])
        with pytest.raises(ConfigError, match="parameters must be"):
            call(disc=_Stack(disc.arch, disc.params[:-1]))
        for arch in (nn.ArchSpec((6, 5, 4), head="sigmoid"), nn.ArchSpec((6, 5, 3)),
                     nn.ArchSpec((4, 5, 4))):
            with pytest.raises(ConfigError, match="4-way softmax head"):
                call(disc=nn.Net(arch, nn.init_params(arch, 0)))
        with pytest.raises(ConfigError, match="one per encoder"):
            call(disc=_Stack(disc.arch, disc.params[None]))

    def test_encoder_grad_matches_fd(self):
        enc, cls, disc = _small_models()
        fs = _fewshot()
        x1, x2 = _pair_rows(11, 12)
        beta = 0.7

        def loss_fn(params):
            e = enc.with_params(params)
            value, enc_grad, _ = losses.adaptation_loss_and_grads(x1, x2, disc, e, cls, fs, beta)
            return value, enc_grad

        assert nn.grad_check_fd(loss_fn, enc.params).passed

    def test_classifier_grad_matches_fd(self):
        enc, cls, disc = _small_models()
        fs = _fewshot()
        x1, x2 = _pair_rows(21, 22)

        def loss_fn(params):
            c = cls.with_params(params)
            value, _, cls_grad = losses.adaptation_loss_and_grads(x1, x2, disc, enc, c, fs, 0.5)
            return value, cls_grad

        assert nn.grad_check_fd(loss_fn, cls.params).passed

    def test_classifier_grad_sees_only_the_ce_path(self):
        enc, cls, disc = _small_models()
        fs = _fewshot()
        x1, x2 = _pair_rows()
        _, _, grad_low = losses.adaptation_loss_and_grads(x1, x2, disc, enc, cls, fs, 0.0)
        _, _, grad_high = losses.adaptation_loss_and_grads(x1, x2, disc, enc, cls, fs, 0.99)
        assert np.array_equal(grad_low, grad_high)

    def test_no_discriminator_gradient_is_produced(self):
        enc, cls, disc = _small_models()
        fs = _fewshot()
        out = losses.adaptation_loss_and_grads(*_pair_rows(), disc, enc, cls, fs, 0.5)
        assert len(out) == 3  # loss, encoder grad, classifier grad


def _joint(enc, x1, x2):
    """Joint embeddings of pairs by one encoder forward per side, as
    pairing.phi builds them; an (M, P) encoder stack embeds (M, P, d) blocks."""
    return np.concatenate([nn.forward(enc.arch, enc.params, x1),
                           nn.forward(enc.arch, enc.params, x2)], axis=-1)


class TestGroupCEDiscGrad:
    def test_grad_matches_fd(self):
        enc, _, disc = _small_models()
        batch = PairBatch(
            RNG.uniform(size=(6, 2)),
            RNG.uniform(size=(6, 2)),
            np.array([1, 2, 3, 4, 2, 3], dtype=np.int64),
        )

        def loss_fn(params):
            d = disc.with_params(params)
            return losses.group_ce_and_disc_grad(d, _joint(enc, batch.x1, batch.x2),
                                                 batch.group)

        assert nn.grad_check_fd(loss_fn, disc.params).passed

    def test_empty_batch_rejected(self):
        enc, _, disc = _small_models()
        empty = PairBatch(np.zeros((0, 2)), np.zeros((0, 2)), np.zeros(0, dtype=np.int64))
        with pytest.raises(ConfigError):
            losses.group_ce_and_disc_grad(disc, _joint(enc, empty.x1, empty.x2), empty.group)

    def test_discriminator_and_blocks_are_checked(self):
        _, _, disc = _small_models()
        joint, group = RNG.uniform(size=(4, 6)), np.array([1, 2, 3, 4])
        with pytest.raises(ConfigError, match="batch must be"):
            losses.group_ce_and_disc_grad(disc, joint[:, :5], group)
        with pytest.raises(ConfigError, match="one per block of pairs"):
            losses.group_ce_and_disc_grad(disc, joint[None], group)
        linear = nn.ArchSpec(disc.arch.widths, head="linear")
        with pytest.raises(ConfigError, match="softmax head"):
            losses.group_ce_and_disc_grad(nn.Net(linear, disc.params), joint, group)


class _Stack(NamedTuple):
    arch: nn.ArchSpec
    params: np.ndarray


class TestGatheredPairEmbeddings:
    """The discriminator step of the stacked adaptation gathers its pair
    embeddings from one encoder pass over each block's pool and few-shot rows;
    a row of a stacked matmul has the same bits whatever rows surround it, so
    loss and gradient equal those from encoding each pair batch."""

    # (classes, n_t, blocks, per_group): the pilot (rot40, n_t 3, four
    # methods), ring6 at each grid shot count, and a one-block 4-pair draw
    @pytest.mark.parametrize("classes,n_t,count,per_group", [
        (3, 3, 4, 16), (6, 1, 4, 16), (6, 3, 4, 16), (6, 7, 4, 16), (3, 1, 1, 1)])
    def test_equals_per_pair_encoder_forwards(self, classes, n_t, count, per_group):
        enc_arch = trainers.default_encoder_arch(2)
        disc_arch = trainers.default_discriminator_arch(32)
        seeds = nn.derive_seeds(classes * n_t, 2 * count)
        enc = _Stack(enc_arch, np.stack([nn.init_params(enc_arch, s) for s in seeds[:count]]))
        disc = _Stack(disc_arch, np.stack([nn.init_params(disc_arch, s)
                                           for s in seeds[count:]]))
        rng = np.random.default_rng(n_t)
        labels = np.repeat(np.arange(classes), 32)
        pools = rng.uniform(size=(count, labels.size, 2))
        fs = _fewshot(num_classes=classes, n_t=n_t, seed=n_t)
        shots = np.broadcast_to(fs.features, (count,) + fs.features.shape)
        rows = np.concatenate([pools, shots], axis=1)
        draws = [draw_pairs(labels, fs.labels, ALL_GROUPS, per_group, np.random.default_rng(s))
                 for s in range(count)]
        ia, ib = (np.stack([d[side] for d in draws]) for side in (0, 1))
        at = np.arange(count)[:, None]
        groups = np.repeat(ALL_GROUPS, per_group)
        emb = nn.forward(enc.arch, enc.params, rows)
        gathered = np.concatenate([emb[at, ia], emb[at, ib]], axis=-1)
        encoded = _joint(enc, rows[at, ia], rows[at, ib])
        assert gathered.tobytes() == encoded.tobytes()
        # one encoder pass over the gathered x1 rows then x2 rows
        once = nn.forward(enc.arch, enc.params, rows[at, np.concatenate([ia, ib], axis=1)])
        once = np.concatenate([once[:, :groups.size], once[:, groups.size:]], axis=-1)
        assert once.tobytes() == encoded.tobytes()
        loss, grad = losses.group_ce_and_disc_grad(disc, gathered, groups)
        want_loss, want_grad = losses.group_ce_and_disc_grad(disc, encoded, groups)
        assert loss.tobytes() == want_loss.tobytes()
        assert grad.tobytes() == want_grad.tobytes()


def _composed_model_update(x1, x2, disc, enc, cls, fewshot, beta):
    """The model update as it ran before its one checked pass: the few-shot
    term, then per cross-domain group two encoder forwards, a discriminator
    forward and three backwards through the public nn calls, on contiguous
    copies of the group's pair rows."""
    x_t = np.asarray(fewshot.features, dtype=np.float64)
    x_t = np.broadcast_to(x_t, np.shape(enc.params)[:-1] + x_t.shape)
    target_ce, enc_grad, cls_grad = losses.softmax_ce_and_grads(enc.arch, enc.params, cls.arch,
                                                                cls.params, x_t, fewshot.labels)
    confusion, h, width = 0.0, x1.shape[-2] // 2, enc.arch.out_width
    for rows, col in ((slice(0, h), 0), (slice(h, None), 2)):
        e1, c1 = nn.forward_and_cache(enc.arch, enc.params, np.ascontiguousarray(x1[..., rows, :]))
        e2, c2 = nn.forward_and_cache(enc.arch, enc.params, np.ascontiguousarray(x2[..., rows, :]))
        d_probs, d_cache = nn.forward_and_cache(disc.arch, disc.params,
                                                np.concatenate([e1, e2], axis=-1))
        picked = np.maximum(d_probs[..., col], losses.PROB_FLOOR)
        confusion = confusion - np.log(picked).mean(axis=-1)
        if beta != 0.0:
            up_d = np.zeros_like(d_probs)
            up_d[..., col] = np.where(d_probs[..., col] >= losses.PROB_FLOOR,
                                      -beta / (h * picked), 0.0)
            _, joint_up = nn.backward_from_cache(disc.arch, disc.params, d_cache, up_d)
            g1, _ = nn.backward_from_cache(enc.arch, enc.params, c1, joint_up[..., :width])
            g2, _ = nn.backward_from_cache(enc.arch, enc.params, c2, joint_up[..., width:])
            enc_grad = enc_grad + g1 + g2
    loss = float(beta) * confusion + target_ce
    return (float(loss) if np.ndim(loss) == 0 else loss), enc_grad, cls_grad


def _composed_disc_update(disc, joint, group):
    """The discriminator update as the public nn calls ran it."""
    d_probs, cache = nn.forward_and_cache(disc.arch, disc.params, joint)
    loss, up = losses._ce_parts(*losses._check_group_ce(d_probs, group))
    return loss, nn.backward_from_cache(disc.arch, disc.params, cache, up)[0]


def _same_bytes(got, want):
    for g, w in zip(got, want, strict=True):
        assert type(g) is type(w) and np.asarray(g).tobytes() == np.asarray(w).tobytes()


class TestAdaptationUpdatesEqualTheComposedCalls:
    """Both adaptation updates, one checked pass each over the nn cores, give
    the bytes of the composed public calls at the grid's shapes: the pair
    rows _adapt gathers for M = 1 and 4 blocks, rot40 (3 classes) and ring6
    (6 classes) widths, every grid shot count, betas of the schedule, and a
    discriminator sharp enough to reach the probability floor."""

    @pytest.mark.parametrize("count", [1, 4])
    @pytest.mark.parametrize("classes", [3, 6], ids=["rot40", "ring6"])
    @pytest.mark.parametrize("n_t", [1, 3, 7])
    def test_bytes(self, count, classes, n_t):
        cfg = trainers.TohanConfig()
        enc_arch = trainers.default_encoder_arch(2)
        cls_arch = trainers.default_classifier_arch(enc_arch.out_width, classes)
        disc_arch = trainers.default_discriminator_arch(enc_arch.out_width, cfg.hidden)
        seeds = iter(nn.derive_seeds(100 * classes + 10 * n_t + count, 3 * count))
        enc, cls, disc = (_Stack(arch, np.stack([nn.init_params(arch, next(seeds))
                                                 for _ in range(count)]))
                          for arch in (enc_arch, cls_arch, disc_arch))
        rng = np.random.default_rng(n_t)
        labels = np.repeat(np.arange(classes), cfg.gen_batch)
        pools = rng.uniform(size=(count, labels.size, 2))
        fs = _fewshot(num_classes=classes, n_t=n_t, seed=n_t)
        rows = np.concatenate([pools, np.broadcast_to(fs.features, (count,) + fs.features.shape)],
                              axis=1)
        at = np.arange(count)[:, None]

        def gather(group_ids, per_group):
            draws = [draw_pairs(labels, fs.labels, group_ids, per_group, rng)
                     for _ in range(count)]
            return (rows[at, np.stack([d[side] for d in draws])] for side in (0, 1))

        x1, x2 = gather((2, 4), 2 * cfg.per_group)
        joint = np.concatenate([nn.forward(enc.arch, enc.params, x) for x in
                                gather(ALL_GROUPS, cfg.per_group)], axis=-1)
        groups = np.repeat(ALL_GROUPS, cfg.per_group)
        # a discriminator 20x as sharp puts some scored probabilities under the floor
        sharp = _Stack(disc_arch, 20.0 * disc.params)
        emb = np.concatenate([nn.forward(enc.arch, enc.params, x) for x in (x1, x2)], axis=-1)
        assert (nn.forward(disc_arch, sharp.params, emb)[..., [0, 2]] < losses.PROB_FLOOR).any()
        cases = [(enc, cls, d, x1, x2, joint) for d in (disc, sharp)]
        if count == 1:  # and as one net of each kind
            cases += [(*(nn.Net(n.arch, n.params[0]) for n in (enc, cls, d)),
                       x1[0], x2[0], joint[0]) for d in (disc, sharp)]
        for enc, cls, disc, x1, x2, joint in cases:
            for beta in (0.0, losses.beta_schedule(0.1), losses.beta_schedule(0.98)):
                _same_bytes(losses.adaptation_loss_and_grads(x1, x2, disc, enc, cls, fs, beta),
                            _composed_model_update(x1, x2, disc, enc, cls, fs, beta))
            _same_bytes(losses.group_ce_and_disc_grad(disc, joint, groups),
                        _composed_disc_update(disc, joint, groups))


def _stacked_nets(count=3, pairs=10, seed=0):
    """``count`` encoder, classifier and discriminator triples, their (M, P)
    stacks, and one block per triple of the model update's x1 and x2 rows
    (``pairs`` group-2 pairs, then as many group-4 pairs) and of 4-group
    pairs, with those pairs' group labels."""
    nets = [_small_models(num_classes=3, seed=seed + m) for m in range(count)]
    stacks = [_Stack(kind[0].arch, np.stack([n.params for n in kind])) for kind in zip(*nets)]
    rng = np.random.default_rng(seed)
    sizes = {2: pairs, 4: pairs, "all": 2 * pairs}
    drawn = {g: [rng.uniform(size=(count, size, 2)) for _ in range(2)]
             for g, size in sizes.items()}
    model = tuple(np.concatenate(side, axis=1) for side in zip(drawn[2], drawn[4]))
    return nets, stacks, model, drawn["all"], np.repeat([1, 2, 3, 4], pairs // 2)


class TestStackedAdaptationLosses:
    """An (M, P) stack of nets gives every block the bits of its net alone."""

    @pytest.mark.parametrize("beta", [0.0, 0.4])
    def test_adaptation_loss_per_block(self, beta):
        nets, (enc, cls, disc), (x1, x2), _, _ = _stacked_nets()
        fs = _fewshot(num_classes=3, n_t=3)
        loss, enc_grad, cls_grad = losses.adaptation_loss_and_grads(
            x1, x2, disc, enc, cls, fs, beta)
        assert loss.shape == (3,) and enc_grad.shape == enc.params.shape
        for m, (enc_m, cls_m, disc_m) in enumerate(nets):
            want = losses.adaptation_loss_and_grads(x1[m], x2[m], disc_m, enc_m, cls_m, fs, beta)
            assert isinstance(want[0], float) and loss[m] == want[0]
            assert enc_grad[m].tobytes() == want[1].tobytes()
            assert cls_grad[m].tobytes() == want[2].tobytes()

    def test_group_ce_and_disc_grad_per_block(self):
        nets, (enc, _, disc), _, (x1, x2), groups = _stacked_nets()
        loss, grad = losses.group_ce_and_disc_grad(disc, _joint(enc, x1, x2), groups)
        assert loss.shape == (3,) and grad.shape == disc.params.shape
        for m, (enc_m, _, disc_m) in enumerate(nets):
            want_loss, want_grad = losses.group_ce_and_disc_grad(
                disc_m, _joint(enc_m, x1[m], x2[m]), groups)
            assert isinstance(want_loss, float) and loss[m] == want_loss
            assert grad[m].tobytes() == want_grad.tobytes()


def _generator_stack(seed=3):
    """A stack of two generators, one per class of a 2-class source model."""
    s1, s2, s3, s4 = nn.derive_seeds(seed, 4)
    gen_arch = nn.ArchSpec((3, 5, 2), head="sigmoid")
    params = np.stack([nn.init_params(gen_arch, seed=s) for s in (s1, s4)])
    enc_arch = nn.ArchSpec((2, 4, 3), head="linear")
    enc = nn.Net(enc_arch, nn.init_params(enc_arch, seed=s2))
    cls_arch = nn.ArchSpec((3, 2), head="softmax")
    cls = nn.Net(cls_arch, nn.init_params(cls_arch, seed=s3))
    z = np.random.default_rng(seed).normal(size=(2, 4, 3))
    targets = np.random.default_rng(seed + 1).uniform(size=(2, 2, 2))
    return gen_arch, params, enc, cls, z, targets


def _objective(gen_arch, params, enc, cls, z, targets, tradeoff, mode="combined"):
    """The objective under the plan of a run of ``mode`` on these few-shots."""
    plan = losses.generator_plan((mode,), cls.arch.out_width, [targets], tradeoff, z.shape[-2])
    return losses.generator_objective_and_grad(gen_arch, params, enc, cls, z, plan)


class TestGeneratorObjective:
    """The objective of a stack of two generators, one per source class."""

    @pytest.mark.parametrize("mode", ["source_only", "target_only", "combined"])
    def test_grad_matches_fd(self, mode):
        gen_arch, params, enc, cls, z, targets = _generator_stack()

        def loss_fn(flat):
            value, grad, _ = _objective(
                gen_arch, flat.reshape(params.shape), enc, cls, z, targets,
                tradeoff=0.2, mode=mode,
            )
            return float(value.sum()), grad.reshape(-1)

        assert nn.grad_check_fd(loss_fn, params.reshape(-1)).passed

    def test_generator_n_scores_class_n(self):
        gen_arch, params, enc, cls, z, targets = _generator_stack()
        src, _, generated = _objective(
            gen_arch, params, enc, cls, z, targets, tradeoff=0.2, mode="source_only"
        )
        tgt, _, _ = _objective(
            gen_arch, params, enc, cls, z, targets, tradeoff=0.2, mode="target_only"
        )
        diameter = losses.l1_diameter(2)
        for n in range(2):
            batch = nn.forward(gen_arch, params[n], z[n])
            assert np.array_equal(generated[n], batch)
            assert src[n] == pytest.approx(
                _gen_source_loss(cls(enc(batch))[:, n]), abs=1e-15)
            assert tgt[n] == pytest.approx(
                losses.gen_target_loss(batch, targets[n], diameter), abs=1e-15)
        assert src[0] != src[1]

    def test_stack_must_hold_one_generator_per_class(self):
        gen_arch, params, enc, cls, z, targets = _generator_stack()
        for bad in (params[0], params[:1], np.concatenate([params, params[:1]])):
            with pytest.raises(ConfigError):
                _objective(gen_arch, bad, enc, cls, z, targets,
                                                    tradeoff=0.2)

    def test_zero_tradeoff_combined_equals_source_only(self):
        gen_arch, params, enc, cls, z, targets = _generator_stack()
        a = _objective(gen_arch, params, enc, cls, z, targets,
                                                tradeoff=0.0, mode="combined")
        b = _objective(gen_arch, params, enc, cls, z, None,
                                                tradeoff=0.0, mode="source_only")
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])
        assert np.array_equal(a[2], b[2])

    def test_combined_is_source_plus_weighted_target(self):
        gen_arch, params, enc, cls, z, targets = _generator_stack()
        total, _, _ = _objective(
            gen_arch, params, enc, cls, z, targets, tradeoff=0.3, mode="combined"
        )
        src, _, _ = _objective(
            gen_arch, params, enc, cls, z, None, tradeoff=0.3, mode="source_only"
        )
        tgt, _, _ = _objective(
            gen_arch, params, enc, cls, z, targets, tradeoff=0.3, mode="target_only"
        )
        assert np.allclose(total, src + 0.3 * tgt, atol=1e-12, rtol=0.0)

    def test_target_only_requires_targets(self):
        gen_arch, params, enc, cls, z, _ = _generator_stack()
        with pytest.raises(MissingClassError):
            _objective(gen_arch, params, enc, cls, z, None,
                                                tradeoff=0.2, mode="target_only")

    def test_malformed_targets_are_config_errors(self):
        _, _, _, _, z, targets = _generator_stack()
        for bad in (targets[0], targets[:1], targets[..., None]):
            with pytest.raises(ConfigError):
                losses.generator_plan(("target_only",), 2, [bad], 0.2, z.shape[-2])
        with pytest.raises(MissingClassError):
            losses.generator_plan(("combined",), 2, [targets[:, :0]], 0.2, z.shape[-2])

    def test_unknown_mode_rejected(self):
        gen_arch, params, enc, cls, z, targets = _generator_stack()
        with pytest.raises(ConfigError):
            _objective(gen_arch, params, enc, cls, z, targets,
                                                tradeoff=0.2, mode="both")

    @pytest.mark.parametrize("targets_of", [lambda t: t, lambda t: [t]], ids=["bare", "listed"])
    def test_bare_string_mode_rejected(self, targets_of):
        """The modes are a sequence, one per block, even for one block."""
        _, _, _, _, z, targets = _generator_stack()
        with pytest.raises(ConfigError, match="^unknown generator mode 'combined'$"):
            losses.generator_plan("combined", 2, targets_of(targets), 0.2, z.shape[-2])

    def test_generated_batch_is_returned(self):
        gen_arch, params, enc, cls, z, targets = _generator_stack()
        _, _, generated = _objective(
            gen_arch, params, enc, cls, z, targets, tradeoff=0.2, mode="combined"
        )
        assert generated.shape == (2, 4, 2)
        assert np.array_equal(generated, nn.forward_and_cache(gen_arch, params, z)[0])


def _composed_objective(arch, params, source_enc, source_cls, z, plan):
    """The objective as six checked public nn calls: the reference the one
    checked pass must reproduce bit for bit. The frozen source nets run as
    stacks of one row per generator they read (a stacked row has the bits
    of its net alone)."""
    generated, gen_cache = nn.forward_and_cache(arch, params, z)
    x_up = np.zeros_like(generated)
    loss = np.zeros(len(generated))
    if plan.src is not None:
        src = generated[plan.src]
        enc_params, cls_params = (np.broadcast_to(p, (len(src), p.size))
                                  for p in (source_enc.params, source_cls.params))
        emb, enc_cache = nn.forward_and_cache(source_enc.arch, enc_params, src)
        probs, cls_cache = nn.forward_and_cache(source_cls.arch, cls_params, emb)
        own = np.arange(len(src))  # source row s scores class s % N, at every batch row
        pick = (own, slice(None), own % plan.num_classes)
        gap = probs[pick] - 1.0
        loss[plan.src] += (gap ** 2).mean(axis=-1)
        up_probs = np.zeros_like(probs)
        up_probs[pick] = 2.0 * gap / gap.shape[-1]
        _, emb_up = nn.backward_from_cache(source_cls.arch, cls_params, cls_cache, up_probs)
        _, x_up_src = nn.backward_from_cache(source_enc.arch, enc_params, enc_cache, emb_up)
        x_up[plan.src] += x_up_src
    for rows, weight, planes in plan.tgt:
        targets = np.moveaxis(planes[..., 0], -1, 0)  # the (R, K, dim) few-shots
        target_loss, target_grad = _dim_leading_kernel(generated[rows], targets, plan.diameter)
        loss[rows] += weight * target_loss
        x_up[rows] += weight[:, None, None] * target_grad
    gen_grad, _ = nn.backward_from_cache(arch, params, gen_cache, x_up)
    return loss, gen_grad, generated


def _objective_case(classes, modes, tradeoff=0.2, seed=0, saturate=False, touch=False,
                    dim=2, batch=5):
    """A generator stack on ``modes`` over a ``classes``-class source model:
    (arch, params, enc, cls, z, plan). ``saturate`` scales the classifier so
    some class probabilities are exactly 0 and 1; ``touch`` puts a few-shot
    on a generated point, so one gap norm is zero."""
    rng = np.random.default_rng(seed)
    arch = trainers.default_generator_arch(3, dim, 6)
    params = np.stack([nn.init_params(arch, int(s)) for s in
                       rng.integers(2**31, size=len(modes) * classes)])
    enc_arch = nn.ArchSpec((dim, 5, 4), "linear")
    enc = nn.Net(enc_arch, nn.init_params(enc_arch, int(rng.integers(2**31))))
    cls_arch = nn.ArchSpec((4, classes), "softmax")
    cls_params = nn.init_params(cls_arch, int(rng.integers(2**31)))
    cls = nn.Net(cls_arch, cls_params * (3000.0 if saturate else 1.0))
    z = rng.standard_normal((len(modes) * classes, batch, 3))
    targets = rng.uniform(size=(classes, 2, dim))
    if touch:
        generated = nn.forward(arch, params, z)
        tgt = [m for m, name in enumerate(modes) if name != "source_only"][-1]
        targets[1, 0] = generated[tgt * classes + 1, 3]
    plan = losses.generator_plan(modes, classes, [targets] * len(modes), tradeoff, batch)
    return arch, params, enc, cls, z, plan


ONE_PASS_CASES = {
    "one mode": dict(classes=3, modes=("combined",)),
    "two blocks": dict(classes=3, modes=("target_only", "combined")),
    "three blocks": dict(classes=3, modes=("source_only", "target_only", "combined")),
    **{f"C={c}": dict(classes=c, modes=("source_only", "target_only", "combined"), seed=c)
       for c in range(2, 7)},
    "tradeoff 0": dict(classes=4, modes=("source_only", "combined"), tradeoff=0.0),
    "probability 1.0": dict(classes=3, modes=("source_only", "combined"), saturate=True),
    "zero gap": dict(classes=3, modes=("source_only", "target_only", "combined"),
                     touch=True),
    "dim 1": dict(classes=2, modes=("target_only", "combined"), dim=1, touch=True),
}


class TestOnePassObjective:
    """generator_objective_and_grad, one checked pass over the nn cores, gives
    the bytes of the composed public nn calls, with or without its losses."""

    @pytest.mark.parametrize("case", ONE_PASS_CASES)
    def test_equals_the_composed_calls(self, case):
        arch, params, enc, cls, z, plan = _objective_case(**ONE_PASS_CASES[case])
        want = _composed_objective(arch, params, enc, cls, z, plan)
        got = losses.generator_objective_and_grad(arch, params, enc, cls, z, plan)
        for w, g in zip(want, got):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()
        lean = losses.generator_objective_and_grad(arch, params, enc, cls, z, plan,
                                                   with_loss=False)
        assert lean[0] is None
        assert lean[1].tobytes() == want[1].tobytes()
        assert lean[2].tobytes() == want[2].tobytes()

    def test_blocks_of_each_shot_count_equal_their_one_block_runs(self):
        """The blocks of few-shot sets of K = 1, 3 and 2 shots share one
        proximity entry per K, in the order K first appears; each block's rows get
        the bits of the block scored alone, and the whole the composed calls'."""
        classes, batch, rng = 3, 5, np.random.default_rng(4)
        modes = ("source_only", *("target_only", "combined") * 3)
        shots = [rng.uniform(size=(classes, k, 2)) for k in (1, 3, 2)]
        targets = [None, *(t for t in shots for _ in range(2))]
        arch, params, enc, cls, z, _ = _objective_case(classes, modes, batch=batch)
        plan = losses.generator_plan(modes, classes, targets, 0.2, batch)
        assert [planes.shape[0] for _, _, planes in plan.tgt] == [1, 3, 2]
        assert [rows for rows, _, _ in plan.tgt] == [slice(3, 9), slice(9, 15), slice(15, 21)]
        got = losses.generator_objective_and_grad(arch, params, enc, cls, z, plan)
        want = _composed_objective(arch, params, enc, cls, z, plan)
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
        for m, mode in enumerate(modes):
            rows = slice(m * classes, (m + 1) * classes)
            alone = losses.generator_objective_and_grad(
                arch, params[rows], enc, cls, z[rows],
                losses.generator_plan((mode,), classes, [targets[m]], 0.2, batch))
            for g, a in zip(got, alone):
                assert g[rows].tobytes() == a.tobytes(), mode

    def test_mixed_feature_dimensions_rejected(self):
        targets = [np.zeros((2, 1, 2)), np.zeros((2, 3, 4))]
        with pytest.raises(ConfigError, match="share a feature dimension"):
            losses.generator_plan(("target_only", "target_only"), 2, targets, 0.2, 4)

    def test_targets_need_one_entry_per_mode(self):
        with pytest.raises(ConfigError, match="one entry per mode"):
            losses.generator_plan(("target_only", "combined"), 2, [np.zeros((2, 1, 2))], 0.2, 4)

    def test_cases_reach_the_edges(self):
        """The source rows of three blocks are not adjacent, and the saturated
        and touching cases hit exact 0/1 probabilities and a zero gap."""
        arch, params, enc, cls, z, plan = _objective_case(**ONE_PASS_CASES["three blocks"])
        assert isinstance(plan.src, np.ndarray) and plan.src.size == 6
        arch, params, enc, cls, z, plan = _objective_case(**ONE_PASS_CASES["probability 1.0"])
        probs = cls(enc(nn.forward(arch, params, z)[plan.src]))
        picked = probs.take(plan.src_pick)
        assert (picked == 1.0).any() and (picked == 0.0).any()
        for case in ("zero gap", "dim 1"):
            arch, params, enc, cls, z, plan = _objective_case(**ONE_PASS_CASES[case])
            (rows, _, planes), = plan.tgt
            generated = nn.forward(arch, params, z)[rows]
            targets = np.moveaxis(planes[..., 0], -1, 0)
            gaps = generated[:, :, None] - targets[:, None]
            assert (np.abs(gaps).sum(axis=-1) == 0.0).any()

    def test_non_softmax_classifier_rejected(self):
        arch, params, enc, cls, z, plan = _objective_case(3, ("source_only",))
        sigmoid = nn.Net(nn.ArchSpec(cls.arch.widths, "sigmoid"), cls.params)
        with pytest.raises(ConfigError, match="softmax head"):
            losses.generator_objective_and_grad(arch, params, enc, sigmoid, z, plan)

    def test_width_mismatches_rejected(self):
        arch, params, enc, cls, z, plan = _objective_case(3, ("combined",))
        wide_enc_arch = nn.ArchSpec((3, 5, 4), "linear")
        wide_enc = nn.Net(wide_enc_arch, nn.init_params(wide_enc_arch, 0))
        with pytest.raises(ConfigError, match="feed the encoder"):
            losses.generator_objective_and_grad(arch, params, wide_enc, cls, z, plan)
        narrow_cls_arch = nn.ArchSpec((3, 3), "softmax")
        narrow_cls = nn.Net(narrow_cls_arch, nn.init_params(narrow_cls_arch, 0))
        with pytest.raises(ConfigError, match="feed the encoder"):
            losses.generator_objective_and_grad(arch, params, enc, narrow_cls, z, plan)

    @pytest.mark.parametrize("modes", [("source_only",), ("target_only",), ("combined",)])
    def test_empty_batch_rejected(self, modes):
        arch, params, enc, cls, z, plan = _objective_case(3, modes)
        with pytest.raises(ConfigError):
            losses.generator_objective_and_grad(arch, params, enc, cls, z[:, :0], plan)

    @pytest.mark.parametrize("modes", [("source_only",), ("target_only",), ("combined",)])
    def test_plan_for_another_batch_size_rejected(self, modes):
        """The source term's flat picks, like the proximity planes, fix the
        batch size the plan was built for."""
        arch, params, enc, cls, z, plan = _objective_case(3, modes)
        with pytest.raises(ConfigError, match="^the plan is for another batch size"):
            losses.generator_objective_and_grad(arch, params, enc, cls, z[:, :-1], plan)
