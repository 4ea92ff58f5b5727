"""Tests for the flat-parameter MLP machinery in fha.nn."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fha import nn
from fha.errors import ConfigError, FormatError, NumericalError

RNG = np.random.default_rng(20260819)


def layers_of(arch, params):
    """(weight, bias) views per layer of a (P,) vector, or of each net of an (N, P) stack."""
    lead = params.shape[:-1]
    return [(params[..., w_sl].reshape(lead + shape), params[..., b_sl])
            for w_sl, b_sl, shape in arch.layout]


class TestArchSpec:
    def test_param_count_small_example(self):
        # 2->4->3: (2+1)*4 + (4+1)*3 = 27
        arch = nn.ArchSpec((2, 4, 3))
        assert nn.num_params(arch) == 27

    def test_param_count_matches_layer_shapes(self):
        arch = nn.ArchSpec((5, 7, 2, 4), head="linear")
        layers = layers_of(arch, nn.init_params(arch, seed=0))
        total = sum(w.size + b.size for w, b in layers)
        assert total == nn.num_params(arch)

    def test_widths_coerced_to_int(self):
        arch = nn.ArchSpec((np.int64(2), np.int64(3)))
        assert arch.widths == (2, 3)
        assert all(type(w) is int for w in arch.widths)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"widths": (4,)},
            {"widths": (4, 0)},
            {"widths": (4, 3), "head": "argmax"},
            {"widths": (4, 1), "head": "softmax"},
            {"widths": (2.7, 3.9)},
            {"widths": (True, 3)},
            {"widths": ("2", 3)},
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            nn.ArchSpec(**kwargs)


class TestInitAndPacking:
    def test_init_is_deterministic(self):
        arch = nn.ArchSpec((3, 5, 2))
        a = nn.init_params(arch, seed=7)
        b = nn.init_params(arch, seed=7)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, nn.init_params(arch, seed=8))

    def test_init_bounds_and_zero_biases(self):
        arch = nn.ArchSpec((4, 6, 3), head="linear")
        layers = layers_of(arch, nn.init_params(arch, seed=1))
        for (w, b), (fi, fo) in zip(layers, [(4, 6), (6, 3)]):
            limit = np.sqrt(6.0 / (fi + fo))
            assert np.all(np.abs(w) <= limit)
            assert np.all(b == 0.0)

    @pytest.mark.parametrize("widths", [(3, 2), (3, 4, 2), (5, 7, 2, 4)])
    def test_init_draws_each_layer_in_turn(self, widths):
        # one (fan_in, fan_out) uniform block per layer, from one generator,
        # packed weights-then-biases layer by layer
        arch = nn.ArchSpec(widths, head="linear")
        rng = np.random.default_rng(3)
        want = []
        for fi, fo in zip(widths[:-1], widths[1:]):
            limit = np.sqrt(6.0 / (fi + fo))
            want += [rng.uniform(-limit, limit, size=(fi, fo)).ravel(), np.zeros(fo)]
        assert np.array_equal(nn.init_params(arch, seed=3), np.concatenate(want))

    def test_wrong_param_length_rejected(self):
        arch = nn.ArchSpec((3, 4, 2))
        with pytest.raises(ConfigError):
            nn.forward(arch, np.zeros(5), np.zeros((1, 3)))


class TestForward:
    def test_softmax_rows_are_distributions(self):
        arch = nn.ArchSpec((3, 5, 4), head="softmax")
        out = nn.forward(arch, nn.init_params(arch, seed=0), RNG.normal(size=(8, 3)))
        assert out.shape == (8, 4)
        assert np.all(out > 0)
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_softmax_is_shift_stable(self):
        # huge logits must not overflow
        arch = nn.ArchSpec((2, 3), head="softmax")
        params = np.concatenate([np.full(6, 500.0), np.zeros(3)])
        out = nn.forward(arch, params, np.array([[1.0, 1.0]]))
        assert np.all(np.isfinite(out))
        assert np.allclose(out.sum(axis=1), 1.0)

    def test_sigmoid_bounds_and_stability(self):
        arch = nn.ArchSpec((2, 2), head="sigmoid")
        params = np.concatenate([[800.0, 0.0, 0.0, -800.0], np.zeros(2)])
        out = nn.forward(arch, params, np.array([[1.0, 1.0]]))
        assert np.all(np.isfinite(out))
        assert np.all((out >= 0.0) & (out <= 1.0))

    def test_linear_head_single_layer_is_affine(self):
        arch = nn.ArchSpec((3, 2), head="linear")
        w = RNG.normal(size=(3, 2))
        b = RNG.normal(size=2)
        params = np.concatenate([w.ravel(), b])
        x = RNG.normal(size=(5, 3))
        assert np.allclose(nn.forward(arch, params, x), x @ w + b, atol=1e-12)

    def test_hidden_activations(self):
        x = RNG.normal(size=(4, 3))
        arch = nn.ArchSpec((3, 4, 2), head="linear")
        params = nn.init_params(arch, seed=5)
        (w1, b1), (w2, b2) = layers_of(arch, params)
        expected = np.tanh(x @ w1 + b1) @ w2 + b2
        assert np.allclose(nn.forward(arch, params, x), expected, atol=1e-12)

    def test_forward_and_cache_matches_forward(self):
        arch = nn.ArchSpec((3, 4, 4), head="softmax")
        params = nn.init_params(arch, seed=11)
        x = RNG.normal(size=(6, 3))
        out, acts = nn.forward_and_cache(arch, params, x)
        assert np.array_equal(out, nn.forward(arch, params, x))
        assert np.array_equal(acts[0], x)
        assert np.array_equal(acts[-1], out)

    def test_bad_batch_shape_rejected(self):
        arch = nn.ArchSpec((3, 2))
        params = nn.init_params(arch, seed=0)
        with pytest.raises(ConfigError):
            nn.forward(arch, params, np.zeros((4, 5)))
        with pytest.raises(ConfigError):
            nn.forward(arch, params, np.zeros(3))


class TestBackward:
    @pytest.mark.parametrize("hidden", [(5,), (5, 4)], ids=["one-hidden", "two-hidden"])
    @pytest.mark.parametrize("head", ["softmax", "linear", "sigmoid"])
    def test_backward_matches_fd(self, head, hidden):
        rng = np.random.default_rng(hash((head, hidden)) % 2**32)
        arch = nn.ArchSpec((3, *hidden, 3), head=head)
        x = rng.uniform(-1.0, 1.0, size=(4, 3))
        # random fixed projection makes the scalar loss exercise all outputs
        proj = rng.normal(size=(4, 3))

        def loss_fn(params):
            out, acts = nn.forward_and_cache(arch, params, x)
            grad, _ = nn.backward_from_cache(arch, params, acts, proj)
            return float(np.sum(out * proj)), grad

        report = nn.grad_check_fd(loss_fn, nn.init_params(arch, seed=2))
        assert report.passed, report

    def test_backward_input_grad_matches_fd(self):
        arch = nn.ArchSpec((3, 4, 2), head="linear")
        params = nn.init_params(arch, seed=9)
        x0 = RNG.uniform(-1.0, 1.0, size=(2, 3))
        proj = RNG.normal(size=(2, 2))
        _, acts = nn.forward_and_cache(arch, params, x0)
        _, x_grad = nn.backward_from_cache(arch, params, acts, proj)
        h = 1e-6
        fd = np.zeros_like(x0)
        for i in range(x0.shape[0]):
            for j in range(x0.shape[1]):
                hi, lo = x0.copy(), x0.copy()
                hi[i, j] += h
                lo[i, j] -= h
                fd[i, j] = (
                    np.sum(nn.forward(arch, params, hi) * proj)
                    - np.sum(nn.forward(arch, params, lo) * proj)
                ) / (2 * h)
        assert np.allclose(x_grad, fd, atol=1e-6)


class TestStacked:
    """An (N, P) stack runs as N nets; a row alone gives the same bits."""

    @pytest.mark.parametrize("n", [1, 3, 6])
    @pytest.mark.parametrize("hidden", [(32,), (32, 16)], ids=["one-hidden", "two-hidden"])
    @pytest.mark.parametrize("head", ["softmax", "linear", "sigmoid"])
    def test_stack_equals_each_row_alone(self, head, hidden, n):
        rng = np.random.default_rng([n, len(head), len(hidden)])
        arch = nn.ArchSpec((8, *hidden, 5), head=head)
        params = np.stack([nn.init_params(arch, seed=s) for s in range(n)])
        x = rng.normal(size=(n, 32, 8))
        up = rng.normal(size=(n, 32, 5))
        out, acts = nn.forward_and_cache(arch, params, x)
        grad, x_grad = nn.backward_from_cache(arch, params, acts, up)
        assert out.shape == (n, 32, 5) and grad.shape == params.shape
        for i in range(n):
            row_out, row_acts = nn.forward_and_cache(arch, params[i], x[i])
            row_grad, row_x_grad = nn.backward_from_cache(arch, params[i], row_acts, up[i])
            assert np.array_equal(out[i], row_out)
            assert all(np.array_equal(a[i], b) for a, b in zip(acts, row_acts))
            assert np.array_equal(grad[i], row_grad)
            assert np.array_equal(x_grad[i], row_x_grad)

    def test_one_net_over_a_stacked_batch_equals_each_block(self):
        arch = nn.ArchSpec((2, 32, 32), head="linear")
        params = nn.init_params(arch, seed=4)
        x = RNG.uniform(size=(6, 32, 2))
        up = RNG.normal(size=(6, 32, 32))
        out, acts = nn.forward_and_cache(arch, params, x)
        for i in range(6):
            assert np.array_equal(out[i], nn.forward_and_cache(arch, params, x[i])[0])
        with pytest.raises(ConfigError, match="one parameter row per batch block"):
            nn.backward_from_cache(arch, params, acts, up)

    def test_adam_steps_a_stack_like_each_row(self):
        params = RNG.normal(size=(3, 4))
        grads = RNG.normal(size=(2, 3, 4))
        state = nn.AdamState.init(params.shape, lr=0.01)
        rows = [(params[i], nn.AdamState.init(4, lr=0.01)) for i in range(3)]
        for g in grads:
            params, state = nn.adam_step(state, params, g)
            rows = [nn.adam_step(s, p, g[i]) for i, (p, s) in enumerate(rows)]
        for i, (p, _) in enumerate(rows):
            assert np.array_equal(params[i], p)

    def test_stack_shapes_checked(self):
        arch = nn.ArchSpec((3, 2))
        stack = np.stack([nn.init_params(arch, seed=s) for s in (0, 1)])
        with pytest.raises(ConfigError):
            nn.forward(arch, stack, np.zeros((4, 3)))
        with pytest.raises(ConfigError):
            nn.forward(arch, stack, np.zeros((3, 4, 3)))
        with pytest.raises(ConfigError):
            nn.forward(arch, stack[None], np.zeros((1, 2, 4, 3)))
        with pytest.raises(ConfigError):
            nn.Net(arch, stack)


# The forward, backward, softmax, sigmoid and Adam step as they were before
# the kernels walked arch.layout and wrote into their own temporaries, kept
# verbatim (module names qualified, nn._layers as layers_of, the relu
# branches dropped) as the byte-for-byte reference.


def ref_softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def ref_sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def ref_forward_and_cache(arch, params, batch):
    params = nn._check_params(arch, params)
    acts = [nn._check_batch(arch, batch, params)]
    layers = layers_of(arch, params)
    for i, (w, b) in enumerate(layers):
        z = acts[-1] @ w + b[..., None, :]
        if i < len(layers) - 1:
            z = np.tanh(z)
        acts.append(z)
    out = acts[-1]
    if arch.head == "softmax":
        out = ref_softmax(out)
    elif arch.head == "sigmoid":
        out = ref_sigmoid(out)
    acts[-1] = out
    return out, acts


def ref_backward_from_cache(arch, params, acts, upstream, *, input_only=False):
    params = nn._check_params(arch, params)
    if not input_only and acts[0].shape[:-2] != params.shape[:-1]:
        raise ConfigError("a parameter gradient needs one parameter row per batch block")
    upstream = np.asarray(upstream, dtype=np.float64)
    out = acts[-1]
    if upstream.shape != out.shape:
        raise ConfigError(f"upstream must be {out.shape}, got {upstream.shape}")
    if arch.head == "softmax":
        g = out * (upstream - np.sum(upstream * out, axis=-1, keepdims=True))
    elif arch.head == "sigmoid":
        g = upstream * out * (1.0 - out)
    else:
        g = upstream
    layers = layers_of(arch, params)
    param_grad = None if input_only else np.empty(params.shape)
    for i in range(len(layers) - 1, -1, -1):
        w, _ = layers[i]
        if param_grad is not None:
            w_sl, b_sl, _ = arch.layout[i]
            w_grad = np.swapaxes(acts[i], -1, -2) @ g
            param_grad[..., w_sl] = w_grad.reshape(params.shape[:-1] + (-1,))
            param_grad[..., b_sl] = g.sum(axis=-2)
        g = g @ np.swapaxes(w, -1, -2)
        if i > 0:
            a = acts[i]
            g = g * (1.0 - a * a)
    return param_grad, g


def ref_adam_step(state, params, grad):
    params = np.asarray(params, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    if params.shape != grad.shape or params.shape != state.m.shape:
        raise ConfigError("params, grad, and state must share one shape")
    if not np.all(np.isfinite(grad)):
        raise NumericalError("non-finite gradient in adam_step")
    t = state.t + 1
    m = nn._BETA1 * state.m + (1.0 - nn._BETA1) * grad
    v = nn._BETA2 * state.v + (1.0 - nn._BETA2) * grad * grad
    m_hat = m / (1.0 - nn._BETA1**t)
    v_hat = v / (1.0 - nn._BETA2**t)
    new_params = params - state.lr * m_hat / (np.sqrt(v_hat) + nn._EPS)
    return new_params, nn.AdamState(m=m, v=v, t=t, lr=state.lr)


def same_bytes(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestMatchesReference:
    """The kernels give the reference's bytes, and write into nothing they were handed."""

    @settings(max_examples=150, deadline=None)
    @given(head=st.sampled_from(nn.HEADS),
           layout=st.sampled_from(["single", "stacked", "one net over blocks"]),
           depth=st.integers(2, 4), n=st.integers(1, 4),
           b=st.integers(1, 9), scale=st.sampled_from([1.0, 30.0, 1e3]),
           seed=st.integers(0, 2**32 - 1))
    def test_forward_and_backward_bytes(self, head, layout, depth, n, b, scale, seed):
        rng = np.random.default_rng(seed)
        widths = tuple(int(w) for w in rng.integers(2, 7, size=depth))
        if head == "softmax":
            widths = widths[:-1] + (max(widths[-1], 2),)
        arch = nn.ArchSpec(widths, head=head)
        lead = () if layout == "single" else (n,)
        # random biases too: init_params would leave them all zero
        params = rng.normal(size=(lead if layout == "stacked" else ()) + (arch.n_params,))
        x = scale * rng.normal(size=lead + (b, arch.in_width))
        up = rng.normal(size=lead + (b, arch.out_width))
        blocks = layout == "one net over blocks"
        handed = [a.copy() for a in (params, x, up)]
        out, acts = nn.forward_and_cache(arch, params, x)
        cache = [a.copy() for a in acts]
        if blocks:  # a frozen net's pass in the fused losses: the core, input gradient only
            grad = None
            x_grad = nn._backward(nn._layers(arch, params), acts, nn._head_grad(arch, out, up),
                                  None)
            with pytest.raises(ConfigError, match="one parameter row per batch block"):
                nn.backward_from_cache(arch, params, acts, up)
        else:
            grad, x_grad = nn.backward_from_cache(arch, params, acts, up)
        ref_out, ref_acts = ref_forward_and_cache(arch, params, x)
        ref_grad, ref_x_grad = ref_backward_from_cache(arch, params, ref_acts, up,
                                                       input_only=blocks)
        assert same_bytes(out, ref_out)
        assert len(acts) == len(ref_acts)
        assert all(same_bytes(a, r) for a, r in zip(acts, ref_acts))
        assert blocks or same_bytes(grad, ref_grad)
        assert same_bytes(x_grad, ref_x_grad)
        assert all(same_bytes(a, h) for a, h in zip((params, x, up), handed))
        assert all(same_bytes(a, c) for a, c in zip(acts, cache))

    def test_sigmoid_special_values(self):
        with np.errstate(invalid="ignore"):
            nan = np.array([np.inf]) - np.inf  # the sign bit set, unlike np.nan
        z = np.concatenate([[np.inf, -np.inf, np.nan, -np.nan, -0.0, 0.0, 800.0, -800.0,
                             745.2, -745.2, 5e-324, -5e-324], nan, -nan,
                            RNG.normal(scale=40.0, size=61)])
        for shape in ((z.size,), (z.size, 1), (1, z.size)):
            zz = z.reshape(shape)
            assert same_bytes(nn._sigmoid(zz.copy()), ref_sigmoid(zz))
        out = nn._sigmoid(z.copy())
        assert np.array_equal(np.isnan(out), np.isnan(z))
        assert np.all((out[~np.isnan(z)] >= 0.0) & (out[~np.isnan(z)] <= 1.0))

    @settings(max_examples=200, deadline=None)
    @given(classes=st.integers(2, 9), lead=st.sampled_from([(), (3,)]),
           rows=st.integers(1, 160), special=st.integers(0, 5), scale=st.sampled_from([1.0, 50.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_softmax_folds_match_the_reference(self, classes, lead, rows, special, scale, seed):
        """The column folds (from 16 rows per class) and the row reductions
        give ref_softmax's bytes, special-value rows included."""
        rng = np.random.default_rng(seed)
        z = scale * rng.normal(size=lead + (rows, classes))
        flat = z.reshape(-1, classes)  # a view of z's rows
        for _ in range(special):  # rows of ±0, ±1e308 and 1, some with one NaN
            row = rng.choice([0.0, -0.0, 1e308, -1e308, 1.0], size=classes)
            if rng.integers(2):
                row[rng.integers(classes)] = np.nan
            flat[rng.integers(len(flat))] = row
        with np.errstate(over="ignore", invalid="ignore"):
            assert same_bytes(nn._softmax(z.copy()), ref_softmax(z))

    def test_softmax_special_values(self):
        z = np.array([[800.0, -800.0, 0.0], [-0.0, 0.0, -0.0], [1e308, 1e308, -1e308],
                      [-745.0, -745.0, 3.0]])
        with np.errstate(over="ignore"):  # -1e308 - 1e308 overflows to -inf: exp 0
            assert same_bytes(nn._softmax(z.copy()), ref_softmax(z))

    @settings(max_examples=200, deadline=None)
    @given(m=st.integers(1, 70), k=st.integers(1, 40), p=st.integers(1, 40),
           layout=st.sampled_from(["C", "F left", "F right", "row slice"]),
           seed=st.integers(0, 2**32 - 1))
    def test_one_net_product_equals_matmul(self, m, k, p, layout, seed):
        """The cores multiply a (B, in) batch with np.dot (_matmul), which gives
        np.matmul's bytes, also for one row or column, transposed operands and
        row slices; a stack keeps np.matmul, so a net alone equals its row."""
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=(m + 2, k))[1:m + 1], rng.normal(size=(k, p))
        if layout == "C":
            a = np.ascontiguousarray(a)
        elif layout == "F left":
            a = np.asfortranarray(a)
        elif layout == "F right":
            b = np.asfortranarray(b)
        assert nn._matmul(a) is np.dot and nn._matmul(a[None]) is np.matmul
        assert same_bytes(np.dot(a, b), np.matmul(a, b))
        out = np.empty((m, p))
        np.dot(a, b, out=out)
        assert same_bytes(out, np.matmul(a[None], b[None])[0])

    @settings(max_examples=50, deadline=None)
    @given(shape=st.sampled_from([(7,), (3, 5), (2, 2, 9)]), steps=st.integers(1, 4),
           lr=st.sampled_from([1e-3, 0.05]), seed=st.integers(0, 2**32 - 1))
    def test_adam_step_bytes(self, shape, steps, lr, seed):
        rng = np.random.default_rng(seed)
        params = rng.normal(size=shape)
        state = ref_state = nn.AdamState.init(shape, lr=lr)
        ref_params = params
        for _ in range(steps):
            grad = rng.normal(scale=10.0 ** rng.integers(-9, 3), size=shape)
            handed = (params.copy(), grad.copy(), state.m.copy(), state.v.copy())
            new_params, new_state = nn.adam_step(state, params, grad)
            assert all(same_bytes(a, h) for a, h in
                       zip((params, grad, state.m, state.v), handed))
            params, state = new_params, new_state
            ref_params, ref_state = ref_adam_step(ref_state, ref_params, grad)
            assert same_bytes(params, ref_params)
            assert same_bytes(state.m, ref_state.m) and same_bytes(state.v, ref_state.v)
            assert state.t == ref_state.t

    @settings(max_examples=50, deadline=None)
    @given(shape=st.sampled_from([(7,), (3, 5), (2, 2, 9)]), steps=st.integers(1, 4),
           lr=st.sampled_from([1e-3, 0.05]), seed=st.integers(0, 2**32 - 1))
    def test_adam_into_bytes(self, shape, steps, lr, seed):
        """The core gives the reference's bytes step after step, in place,
        and leaves the gradient as it was."""
        rng = np.random.default_rng(seed)
        params, state = rng.normal(size=shape), nn.AdamState.init(shape, lr=lr)
        ref_params, ref_state = params.copy(), nn.AdamState.init(shape, lr=lr)
        for _ in range(steps):
            grad = rng.normal(scale=10.0 ** rng.integers(-9, 3), size=shape)
            handed = grad.copy()
            nn.adam_into(state, params, grad)
            assert same_bytes(grad, handed)
            ref_params, ref_state = ref_adam_step(ref_state, ref_params, grad)
            assert same_bytes(params, ref_params)
            assert same_bytes(state.m, ref_state.m) and same_bytes(state.v, ref_state.v)
            assert (state.t, state.lr) == (ref_state.t, ref_state.lr)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_adam_into_non_finite_grad_writes_nothing(self, bad):
        state = nn.AdamState(np.full(3, 0.5), np.full(3, 0.25), t=4, lr=0.01)
        params, grad = np.array([1.0, -2.0, 0.5]), np.array([0.3, bad, 0.0])
        before = (params.copy(), state.m.copy(), state.v.copy())
        with pytest.raises(NumericalError, match="^non-finite gradient in adam_step$"):
            nn.adam_into(state, params, grad)
        assert all(same_bytes(a, b) for a, b in zip((params, state.m, state.v), before))
        assert state.t == 4

    def test_joint_step_equals_two_steps(self):
        # train_source and the adaptation model update step encoder + classifier as one
        enc, cls = RNG.normal(size=(3, 41)), RNG.normal(size=(3, 13))
        joint = np.concatenate([enc, cls], axis=1)
        states = [nn.AdamState.init(a.shape, lr=0.01) for a in (enc, cls, joint)]
        for step in range(5):
            g_enc, g_cls = RNG.normal(size=enc.shape), RNG.normal(size=cls.shape)
            enc, states[0] = nn.adam_step(states[0], enc, g_enc)
            cls, states[1] = nn.adam_step(states[1], cls, g_cls)
            joint, states[2] = nn.adam_step(states[2], joint,
                                            np.concatenate([g_enc, g_cls], axis=1))
            assert same_bytes(joint, np.concatenate([enc, cls], axis=1)), step
            for part in ("m", "v"):
                assert same_bytes(getattr(states[2], part), np.concatenate(
                    [getattr(states[0], part), getattr(states[1], part)], axis=1))


class TestNet:
    def test_params_are_copied_and_frozen(self):
        arch = nn.ArchSpec((2, 3))
        params = nn.init_params(arch, seed=0)
        net = nn.Net(arch, params)
        params[0] = 99.0
        assert net.params[0] != 99.0
        with pytest.raises(ValueError):
            net.params[0] = 1.0

    def test_non_finite_params_rejected(self):
        arch = nn.ArchSpec((2, 3))
        params = nn.init_params(arch, seed=0)
        params[3] = np.nan
        with pytest.raises(NumericalError):
            nn.Net(arch, params)

    def test_layer_views_alias_the_params(self):
        arch = nn.ArchSpec((2, 3, 4))
        net = nn.Net(arch, nn.init_params(arch, seed=0))
        assert len(net.layers) == len(arch.layout)
        for (w, b), (w_sl, b_sl, shape) in zip(net.layers, arch.layout):
            assert w.shape == shape and b.shape == (1, shape[1])
            assert np.shares_memory(w, net.params) and np.shares_memory(b, net.params)
            assert same_bytes(w.reshape(-1), net.params[w_sl])
            assert same_bytes(b.reshape(-1), net.params[b_sl])
            assert not w.flags.writeable and not b.flags.writeable
        assert "layers" not in repr(net)

    def test_call_and_with_params(self):
        arch = nn.ArchSpec((2, 3))
        net = nn.Net(arch, nn.init_params(arch, seed=1))
        x = RNG.uniform(size=(4, 2))
        assert np.array_equal(net(x), nn.forward(arch, net.params, x))
        other = net.with_params(nn.init_params(arch, seed=2))
        assert other.arch is arch
        assert not np.array_equal(other.params, net.params)


class TestAdam:
    def test_single_step_matches_formula(self):
        state = nn.AdamState.init(3, lr=0.01)
        params = np.array([1.0, -2.0, 0.5])
        grad = np.array([0.3, -0.1, 0.0])
        new_params, new_state = nn.adam_step(state, params, grad)
        # t=1 bias correction collapses m_hat to grad, v_hat to grad^2
        expected = params - 0.01 * grad / (np.abs(grad) + 1e-8)
        assert np.allclose(new_params, expected, atol=1e-12)
        assert new_state.t == 1
        assert state.t == 0, "input state must stay untouched"

    def test_two_steps_match_reference(self):
        lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
        params = np.array([0.2, -0.4])
        g1 = np.array([1.0, -0.5])
        g2 = np.array([-0.3, 0.8])
        m = v = np.zeros(2)
        ref = params.copy()
        for t, g in ((1, g1), (2, g2)):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            ref = ref - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        state = nn.AdamState.init(2, lr=lr)
        p, state = nn.adam_step(state, params, g1)
        p, state = nn.adam_step(state, p, g2)
        assert np.allclose(p, ref, atol=1e-15)

    @pytest.mark.parametrize("shape", [7, (3, 5)])
    @pytest.mark.parametrize("mode", ["in place", "bare state"])
    def test_adam_into_in_owned_scratch_matches_adam_step(self, shape, mode):
        """adam_into works in the scratch its state owns and gives
        adam_step's bytes, also from a bare AdamState(m, v), which owns none."""
        rng = np.random.default_rng(11)
        params = rng.normal(size=shape)
        ref_params, ref_state = params.copy(), nn.AdamState.init(shape, lr=0.05)
        state = (nn.AdamState(np.zeros(shape), np.zeros(shape), lr=0.05) if mode == "bare state"
                 else nn.AdamState.init(shape, lr=0.05))
        scratch = state.scratch
        for buf in scratch or ():
            buf.fill(np.nan)  # what a step leaves there must not reach its results
        for _ in range(4):
            grad = rng.normal(size=shape)
            ref_params, ref_state = nn.adam_step(ref_state, ref_params, grad)
            nn.adam_into(state, params, grad)
            assert same_bytes(params, ref_params)
            assert same_bytes(state.m, ref_state.m) and same_bytes(state.v, ref_state.v)
            assert (state.t, state.lr) == (ref_state.t, ref_state.lr)
        assert state.scratch is scratch
        if scratch is not None:
            assert all(np.isfinite(buf).all() for buf in scratch)

    def test_init_owns_scratch_shaped_like_the_moments(self):
        state = nn.AdamState.init((3, 5))
        assert [buf.shape for buf in state.scratch] == [(3, 5), (3, 5)]
        assert state.scratch[0] is not state.scratch[1]
        assert nn.AdamState(np.zeros(2), np.zeros(2)).scratch is None

    def test_non_finite_grad_raises(self):
        state = nn.AdamState.init(2)
        with pytest.raises(NumericalError):
            nn.adam_step(state, np.zeros(2), np.array([1.0, np.inf]))

    def test_shape_mismatch_raises(self):
        state = nn.AdamState.init(2)
        with pytest.raises(ConfigError):
            nn.adam_step(state, np.zeros(3), np.zeros(3))


class TestGradCheck:
    def test_quadratic_passes(self):
        a = RNG.normal(size=5)

        def loss_fn(p):
            return float(np.sum((p - a) ** 2)), 2.0 * (p - a)

        report = nn.grad_check_fd(loss_fn, RNG.normal(size=5))
        assert report.passed
        assert report.max_rel_error < 1e-6

    def test_corrupted_gradient_fails(self):
        def loss_fn(p):
            grad = 2.0 * p
            grad[0] += 0.5
            return float(np.sum(p**2)), grad

        report = nn.grad_check_fd(loss_fn, np.ones(4))
        assert not report.passed
        assert report.worst_index == 0

    def test_zero_gradient_passes_exactly(self):
        def loss_fn(p):
            return 1.0, np.zeros_like(p)

        report = nn.grad_check_fd(loss_fn, np.ones(3))
        assert report.passed
        assert report.max_rel_error == 0.0


class TestSeeds:
    def test_derive_seeds_deterministic_and_distinct(self):
        a = nn.derive_seeds(123, 6)
        b = nn.derive_seeds(123, 6)
        assert a == b
        assert len(set(a)) == 6
        assert nn.derive_seeds(124, 6) != a

    def test_derive_seeds_prefix_stable(self):
        assert nn.derive_seeds(55, 2) == nn.derive_seeds(55, 5)[:2]

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_derive_seeds_never_echoes_parent(self, seed):
        children = nn.derive_seeds(seed, 3)
        assert all(isinstance(c, int) for c in children)
        assert seed not in children


class TestModelFile:
    def _nets(self):
        enc_arch = nn.ArchSpec((2, 4, 3), head="linear")
        cls_arch = nn.ArchSpec((3, 2), head="softmax")
        return {
            "enc": nn.Net(enc_arch, nn.init_params(enc_arch, seed=0)),
            "cls": nn.Net(cls_arch, nn.init_params(cls_arch, seed=1)),
        }

    def test_roundtrip_is_bit_exact(self, tmp_path):
        path = tmp_path / "model.json"
        nets = self._nets()
        nn.save_model(path, nets, seed=42, metadata={"task": "demo"})
        loaded, seed, meta = nn.load_model(path)
        assert seed == 42
        assert meta == {"task": "demo"}
        assert set(loaded) == {"enc", "cls"}
        for name in nets:
            assert loaded[name].arch == nets[name].arch
            assert np.array_equal(loaded[name].params, nets[name].params)

    def test_roundtrip_writes_the_tanh_activation(self, tmp_path):
        path = tmp_path / "model.json"
        nn.save_model(path, self._nets(), seed=0)
        loaded, _, _ = nn.load_model(path)
        nn.save_model(path, loaded, seed=0)
        nets = json.loads(path.read_text())["nets"]
        assert [list(entry) for entry in nets.values()] == [
            ["widths", "activation", "head", "params"]] * 2
        assert [entry["activation"] for entry in nets.values()] == ["tanh", "tanh"]

    @pytest.mark.parametrize("activation", ["relu", None, 1])
    def test_rejects_any_activation_but_tanh(self, tmp_path, activation):
        path = tmp_path / "model.json"
        nn.save_model(path, self._nets(), seed=0)
        doc = json.loads(path.read_text())
        doc["nets"]["cls"]["activation"] = activation
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="activation must be 'tanh'"):
            nn.load_model(path)

    @pytest.mark.parametrize("metadata", [None, {"task": "demo", "acc": 0.25, "tags": ["a", 1],
                                                 "nested": {"é": None, "empty": []}}])
    def test_bytes_equal_json_dump(self, tmp_path, metadata):
        """The file is json.dump's ``indent=1`` text, edge floats included."""
        nets = self._nets()
        params = np.array(nets["enc"].params)
        params[:4] = (5e-324, -0.0, 1e16, 0.1)
        nets = {"enc": nets["enc"].with_params(params), 'c"l\u00e9s': nets["cls"]}
        path = tmp_path / "model.json"
        nn.save_model(path, nets, seed=3, metadata=metadata)
        doc = {"format": "fha-model", "version": 1, "seed": 3, "metadata": metadata or {},
               "nets": {name: {"widths": list(net.arch.widths), "activation": "tanh",
                               "head": net.arch.head, "params": [float(p) for p in net.params]}
                        for name, net in nets.items()}}
        want = tmp_path / "want.json"
        with open(want, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        assert path.read_bytes() == want.read_bytes()
        nn.save_model(path, {}, seed=3, metadata=metadata)
        doc["nets"] = {}
        assert path.read_text(encoding="utf-8") == json.dumps(doc, indent=1) + "\n"

    def test_rejects_non_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_bytes(b"\x00\x01 not json")
        with pytest.raises(FormatError):
            nn.load_model(path)

    def test_rejects_deeply_nested_json(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        with pytest.raises(FormatError, match="^model file is not valid JSON: "):
            nn.load_model(path)

    def test_rejects_missing_format_marker(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"version": 1, "nets": {}}))
        with pytest.raises(FormatError):
            nn.load_model(path)

    def test_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "model.json"
        nn.save_model(path, self._nets(), seed=0)
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError):
            nn.load_model(path)

    @pytest.mark.parametrize("nets", [[], "enc", 3, None],
                             ids=["list", "string", "number", "null"])
    def test_rejects_non_object_nets(self, tmp_path, nets):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"format": "fha-model", "version": 1, "seed": 0,
                                    "nets": nets}))
        with pytest.raises(FormatError):
            nn.load_model(path)

    @pytest.mark.parametrize("edit", [
        lambda doc: doc.update(seed=1.5),
        lambda doc: doc.update(seed=1e400),
        lambda doc: doc.update(seed="1"),
        lambda doc: doc.update(seed=True),
        lambda doc: doc["nets"]["enc"].update(widths=[2, 4.5, 3]),
        lambda doc: doc["nets"]["enc"].update(widths=[2, 1e400, 3]),
        lambda doc: doc["nets"]["enc"].update(widths=[2.0, 4, 3]),
    ], ids=["float-seed", "overflowing-seed", "string-seed", "bool-seed",
            "fractional-width", "overflowing-width", "float-width"])
    def test_rejects_non_integer_seed_and_widths(self, tmp_path, edit):
        path = tmp_path / "model.json"
        nn.save_model(path, self._nets(), seed=0)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))  # 1e400 is written as Infinity
        with pytest.raises(FormatError, match="must be an integer"):
            nn.load_model(path)

    def test_rejects_negative_seed(self, tmp_path):
        path = tmp_path / "model.json"
        nn.save_model(path, self._nets(), seed=0)
        doc = json.loads(path.read_text())
        doc["seed"] = -1
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="seed must be non-negative, got -1"):
            nn.load_model(path)

    def test_rejects_infinite_params(self, tmp_path):
        path = tmp_path / "model.json"
        nn.save_model(path, self._nets(), seed=0)
        doc = json.loads(path.read_text())
        doc["nets"]["enc"]["params"][0] = float("inf")
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="finite"):
            nn.load_model(path)

    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_corrupted_bytes_load_or_raise_format_error(self, tmp_path, data):
        path = tmp_path / "model.json"
        nets = self._nets()
        nn.save_model(path, nets, seed=3)
        blob = bytearray(path.read_bytes())
        flips = data.draw(st.lists(st.tuples(st.integers(0, len(blob) - 1),
                                             st.integers(1, 255)), max_size=4))
        for pos, mask in flips:
            blob[pos] ^= mask
        path.write_bytes(bytes(blob[:data.draw(st.integers(0, len(blob)))]))
        try:
            loaded, seed, meta = nn.load_model(path)
        except FormatError:
            return
        assert type(seed) is int and isinstance(meta, dict)
        for net in loaded.values():
            assert net.params.shape == (net.arch.n_params,)
            assert np.all(np.isfinite(net.params))

    def test_rejects_corrupt_params(self, tmp_path):
        path = tmp_path / "model.json"
        nn.save_model(path, self._nets(), seed=0)
        doc = json.loads(path.read_text())
        doc["nets"]["enc"]["params"] = doc["nets"]["enc"]["params"][:-1]
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError):
            nn.load_model(path)
