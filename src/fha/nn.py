"""A small differentiable core: tanh MLPs over flat parameter vectors, Adam,
and a finite-difference gradient checker.

Every network is described by an ArchSpec (widths and head; every hidden
layer is tanh) and a single float64 parameter vector laid out layer by layer
as (weight matrix row-major, then bias). A leading stack axis makes an
(N, P) stack of N nets that run as one, net n mapping block n of an
(N, B, in) batch. All arithmetic runs in 64-bit with
numpy's fixed reduction order and stacked matmuls run the per-slice kernels,
so equal seeds give bit-identical results whether nets run alone or stacked.

Every public call checks its inputs, binds per-layer (weight, bias) views of
the parameters once (_layers) and runs one unchecked core (_forward,
_backward) over them, one code path for a net and a stack; every training
pass in losses checks once and runs these cores too (a Net binds its views
once, for the passes that read a frozen Net). Trainers' one fitting loop
_fit, behind the source fit and the ft and shot baselines, checks once at
entry, binds its parameter and gradient buffers once and runs the
unchecked pass; its stacked loops (_run_generators, _adapt) call the
checked passes on every step. Every loop steps Adam (adam_into, which works
only in place) on its own buffers and on the AdamState it made. Apart from
those buffers, nothing writes in place into an array it did not allocate:
not the parameters, the batch, an upstream gradient or a cache.
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import dataclass, field, fields
from numbers import Real

import numpy as np

from .errors import ConfigError, FormatError, NumericalError

HEADS = ("softmax", "linear", "sigmoid")


@dataclass(frozen=True)
class ArchSpec:
    """Layer widths (input first, output last) and head; every hidden layer
    is tanh."""

    widths: tuple[int, ...]
    head: str = "softmax"

    def __post_init__(self) -> None:
        widths = tuple(_as_int(w, "a layer width") for w in self.widths)
        object.__setattr__(self, "widths", widths)
        if len(widths) < 2:
            raise ConfigError("an architecture needs at least input and output widths")
        if any(w < 1 for w in widths):
            raise ConfigError("layer widths must be positive")
        if self.head not in HEADS:
            raise ConfigError(f"head must be one of {HEADS}")
        if self.head == "softmax" and widths[-1] < 2:
            raise ConfigError("a softmax head needs an output width of at least 2")
        # Computed once and kept on the spec: the hot loops read the layout on
        # every call, and a cache keyed by the spec would hash it each time.
        layout, offset = [], 0
        for fi, fo in zip(widths[:-1], widths[1:]):
            layout.append((slice(offset, offset + fi * fo),
                           slice(offset + fi * fo, offset + (fi + 1) * fo), (fi, fo)))
            offset += (fi + 1) * fo
        object.__setattr__(self, "layout", tuple(layout))
        object.__setattr__(self, "n_params", offset)
        object.__setattr__(self, "in_width", widths[0])
        object.__setattr__(self, "out_width", widths[-1])


def num_params(arch: ArchSpec) -> int:
    """Total parameter count: sum over layers of (fan_in + 1) * fan_out."""
    return arch.n_params


def init_params(arch: ArchSpec, seed) -> np.ndarray:
    """Uniform(-a, a) weights with a = sqrt(6 / (fan_in + fan_out)); zero biases."""
    rng = np.random.default_rng(seed)
    params = np.zeros(arch.n_params)
    for w_sl, _, (fi, fo) in arch.layout:
        limit = np.sqrt(6.0 / (fi + fo))
        params[w_sl] = rng.uniform(-limit, limit, size=fi * fo)
    return params


def _check_params(arch: ArchSpec, params: np.ndarray) -> np.ndarray:
    params = np.asarray(params, dtype=np.float64)
    if params.ndim not in (1, 2) or params.shape[-1] != arch.n_params:
        raise ConfigError(
            f"parameters must be ({arch.n_params},) or (N, {arch.n_params}), got {params.shape}"
        )
    return params


def _check_batch(arch: ArchSpec, batch: np.ndarray, params: np.ndarray) -> np.ndarray:
    batch = np.asarray(batch, dtype=np.float64)
    lead = params.shape[:-1]
    if (batch.ndim not in (2, 3) or batch.shape[-1] != arch.in_width
            or (lead and batch.shape[:-2] != lead)):
        raise ConfigError(
            f"batch must be {lead + ('B', arch.in_width)}, got {batch.shape}"
        )
    return batch


def _pairwise_sum(planes: np.ndarray) -> np.ndarray:
    """planes.sum(axis=0) in the order np.sum(axis=-1) adds a contiguous
    axis: a left fold below 8 terms, 8 interleaved accumulators up to 128,
    halves above (np.sum starts from +0.0; no term here is -0.0)."""
    n = len(planes)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(planes[:half]) + _pairwise_sum(planes[half:])
    if n < 8:
        return functools.reduce(np.add, planes)
    m = n - n % 8
    r = functools.reduce(np.add, planes[:m].reshape((m // 8, 8) + planes.shape[1:]))
    r = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    return functools.reduce(np.add, planes[m:], r)


def _softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, in z, with max subtraction.

    numpy reduces a short last axis row by row, so from 16 rows per class on
    the row max and sum are column folds (z.T iterates the columns) instead:
    the max is exact in any order, and _pairwise_sum adds in np.sum's."""
    wide = z.size >= 16 * z.shape[-1] ** 2
    z -= functools.reduce(np.maximum, z.T).T[..., None] if wide else z.max(-1, keepdims=True)
    np.exp(z, out=z)
    z /= _pairwise_sum(z.T).T[..., None] if wide else z.sum(-1, keepdims=True)
    return z


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + t) for z >= 0, else t / (1 + t), t = exp(-|z|); a NaN keeps its sign."""
    t = -z
    np.exp(np.minimum(z, t, out=t), out=t)
    out = np.where(z >= 0.0, 1.0, t)
    t += 1.0
    out /= t
    return out


def _layers(arch: ArchSpec, params: np.ndarray) -> list:
    """Per-layer (weight, bias) views of checked params: (fi, fo) and (1, fo)
    for one net, (N, fi, fo) and (N, 1, fo) for an (N, P) stack. Views, so
    they read (or, bound to a gradient buffer, write) ``params`` in place."""
    lead = params.shape[:-1]
    return [(params[..., w_sl].reshape(lead + shape), params[..., None, b_sl])
            for w_sl, b_sl, shape in arch.layout]


def _matmul(x: np.ndarray):
    """The matrix product for layers on batch (or gradient) ``x``: np.dot for
    a (B, in) one, which gives np.matmul's bits with less per-call work, and
    np.matmul for an (N, B, in) stack."""
    return np.dot if x.ndim == 2 else np.matmul


def _forward(arch: ArchSpec, layers: list, x: np.ndarray):
    """forward_and_cache on checked params, bound by _layers, and batch."""
    acts, last, mm = [x], len(layers) - 1, _matmul(x)
    for i, (w, b) in enumerate(layers):
        x = mm(x, w)
        x += b
        if i < last:
            x = np.tanh(x, out=x)
        elif arch.head == "softmax":
            x = _softmax(x)
        elif arch.head == "sigmoid":
            x = _sigmoid(x)
        acts.append(x)
    return x, acts


def _backward(layers: list, acts: list, g: np.ndarray, grad_layers, want_input: bool = True):
    """backward_from_cache on checked inputs, from the gradient ``g`` at the
    head's input: writes the parameter gradient into ``grad_layers`` (a
    buffer shaped like params, bound by _layers, or None for none) and
    returns the input gradient, or None without ``want_input``."""
    mm = _matmul(g)
    for i in range(len(layers) - 1, -1, -1):
        if grad_layers is not None:
            gw, gb = grad_layers[i]
            mm(acts[i].swapaxes(-1, -2), g, out=gw)
            np.add.reduce(g, axis=-2, out=gb, keepdims=True)
        if i == 0 and not want_input:
            return None
        g = mm(g, layers[i][0].swapaxes(-1, -2))
        if i > 0:
            d = acts[i] * acts[i]
            g *= np.subtract(1.0, d, out=d)
    return g


def _head_grad(arch: ArchSpec, out: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """The gradient at the head's input from the upstream gradient at its output."""
    if arch.head == "softmax":
        g = upstream - (upstream * out).sum(axis=-1, keepdims=True)
        g *= out
    elif arch.head == "sigmoid":
        g = upstream * out
        g *= 1.0 - out
    else:
        g = upstream
    return g


def forward_and_cache(arch: ArchSpec, params: np.ndarray, batch: np.ndarray):
    """Forward pass returning (output, activations list for the backward pass).

    ``params`` is one net (P,) with a (B, in) batch, or a stack of N nets
    (N, P) with an (N, B, in) batch. One net given an (N, B, in) batch maps
    each block as it would alone.
    """
    params = _check_params(arch, params)
    x = _check_batch(arch, batch, params)
    return _forward(arch, _layers(arch, params), x)


def forward(arch: ArchSpec, params: np.ndarray, batch: np.ndarray) -> np.ndarray:
    """Map a (B, in) batch, or an (N, B, in) stack, to the head output.

    Softmax rows are computed with max subtraction and sum to 1 within
    rounding; a sigmoid head squashes every output into (0, 1).
    """
    return forward_and_cache(arch, params, batch)[0]


def backward_from_cache(arch, params, acts, upstream):
    """Reverse-mode pass reusing activations from forward_and_cache, one
    parameter row per batch block: returns (parameter gradient shaped like
    ``params``, input gradient)."""
    params = _check_params(arch, params)
    if acts[0].shape[:-2] != params.shape[:-1]:
        raise ConfigError("a parameter gradient needs one parameter row per batch block")
    upstream = np.asarray(upstream, dtype=np.float64)
    out = acts[-1]
    if upstream.shape != out.shape:
        raise ConfigError(f"upstream must be {out.shape}, got {upstream.shape}")
    param_grad = np.empty(params.shape)
    return param_grad, _backward(_layers(arch, params), acts, _head_grad(arch, out, upstream),
                                 _layers(arch, param_grad))


@dataclass(frozen=True)
class Net:
    """An architecture bound to a read-only parameter vector, and its
    per-layer views (_layers), bound once for the passes in losses."""

    arch: ArchSpec
    params: np.ndarray
    layers: list = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        params = np.array(_check_params(self.arch, self.params), copy=True)
        if params.ndim != 1:
            raise ConfigError("a Net holds one parameter vector, not a stack")
        if not np.all(np.isfinite(params)):
            raise NumericalError("network parameters must be finite")
        params.setflags(write=False)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "layers", _layers(self.arch, params))

    def __call__(self, batch: np.ndarray) -> np.ndarray:
        return forward(self.arch, self.params, batch)

    def with_params(self, params: np.ndarray) -> "Net":
        return Net(self.arch, params)


# Adam's moment decay rates and denominator offset, shared by every state.
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8
# the largest |g| adam_into takes, 1% under sqrt(float64 max): v is an average
# of g * g, so v and its bias-corrected v / (1 - b2**t) stay finite under it
_G_MAX = 0.99 * float(np.sqrt(np.finfo(np.float64).max))


@dataclass
class AdamState:
    """Adam moments and step count at one lr; adam_into steps one in place,
    adam_step returns a new one. ``scratch`` holds the two buffers, shaped
    like the moments, that adam_into works in; without them it allocates
    two on each step."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    lr: float = 1e-3
    scratch: tuple | None = field(default=None, repr=False, compare=False)

    @classmethod
    def init(cls, shape, lr: float = 1e-3) -> "AdamState":
        """Zero moments for parameters of ``shape`` (a count, or (N, P)), and
        their scratch."""
        return cls(np.zeros(shape), np.zeros(shape), lr=float(lr),
                   scratch=(np.empty(shape), np.empty(shape)))


def _refused(peak: float) -> NumericalError:
    """The error of a gradient whose largest |entry| is ``peak`` > _G_MAX."""
    return NumericalError("non-finite gradient in adam_step" if not np.isfinite(peak)
                          else f"gradient too large for adam_step (an entry above {_G_MAX:.1e})")


def adam_into(state: AdamState, params: np.ndarray, grad: np.ndarray) -> None:
    """One Adam update on ``grad``, in place: steps ``params`` and ``state``'s
    moments and step count, float64 buffers of one shape that the caller
    owns and has checked. The step works in ``state.scratch``. A gradient
    with an entry that is not finite or above _G_MAX in size, whose square
    would overflow the moments, raises before anything is written."""
    work, denom = state.scratch or (np.empty(grad.shape), np.empty(grad.shape))
    peak = np.abs(grad, out=work).max()
    if not peak <= _G_MAX:
        raise _refused(peak)
    state.t += 1
    # m' = b1 m + (1 - b1) g and v' = b2 v + (1 - b2) g g, each product and sum
    # in this order or commuted (the same bits)
    np.multiply(grad, 1.0 - _BETA1, out=work)
    state.m *= _BETA1
    state.m += work
    np.multiply(grad, 1.0 - _BETA2, out=work)
    work *= grad
    state.v *= _BETA2
    state.v += work
    np.divide(state.m, 1.0 - _BETA1**state.t, out=work)
    work *= state.lr
    np.divide(state.v, 1.0 - _BETA2**state.t, out=denom)
    np.sqrt(denom, out=denom)
    denom += _EPS
    work /= denom
    params -= work


def adam_step(state: AdamState, params: np.ndarray, grad: np.ndarray):
    """One Adam update of parameters of any shape: adam_into on copies of
    ``params`` and ``state``; returns (new_params, new_state) and leaves its
    inputs untouched."""
    params = np.array(params, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    if params.shape != grad.shape or params.shape != state.m.shape:
        raise ConfigError("params, grad, and state must share one shape")
    new = AdamState(np.array(state.m, dtype=np.float64), np.array(state.v, dtype=np.float64),
                    state.t, state.lr)
    adam_into(new, params, grad)
    return params, new


@dataclass(frozen=True)
class GradCheckReport:
    """Outcome of a finite-difference check: the worst relative error and its index."""

    passed: bool
    max_rel_error: float
    worst_index: int


def grad_check_fd(loss_fn, params: np.ndarray, tolerance: float = 1e-4,
                  step: float = 1e-5) -> GradCheckReport:
    """Compare loss_fn's analytic gradient against central differences.

    ``loss_fn(params)`` must return (value, gradient). The error metric is
    max|analytic - fd| / max(|analytic|_inf, |fd|_inf, 1e-12), so a constant
    loss with zero gradient passes exactly.
    """
    params = np.asarray(params, dtype=np.float64)
    _, analytic = loss_fn(params)
    analytic = np.asarray(analytic, dtype=np.float64)
    if analytic.shape != params.shape:
        raise ConfigError("analytic gradient shape must match params")
    fd = np.zeros_like(params)
    for i in range(params.size):
        bumped = params.copy()
        bumped[i] = params[i] + step
        hi, _ = loss_fn(bumped)
        bumped[i] = params[i] - step
        lo, _ = loss_fn(bumped)
        fd[i] = (hi - lo) / (2.0 * step)
    scale = max(np.max(np.abs(analytic), initial=0.0),
                np.max(np.abs(fd), initial=0.0), 1e-12)
    rel = np.abs(analytic - fd) / scale
    worst = int(np.argmax(rel)) if rel.size else 0
    max_rel = float(rel[worst]) if rel.size else 0.0
    return GradCheckReport(passed=bool(max_rel < tolerance), max_rel_error=max_rel,
                           worst_index=worst)


def derive_seeds(seed: int, n: int) -> list[int]:
    """Deterministically derive n independent child seeds from one seed."""
    children = np.random.SeedSequence(seed).spawn(n)
    return [int(c.generate_state(1)[0]) for c in children]


def _as_int(value, what: str) -> int:
    """``value`` as an int; bools, floats and strings raise ConfigError, never truncate."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise ConfigError(f"{what} must be an integer, got {value!r}")


def _as_int_fields(obj) -> None:
    """Check each ``int`` field of a frozen dataclass with _as_int, that each
    ``float`` field is a finite real and not a bool, and that a seed is >= 0."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.type == "int":
            object.__setattr__(obj, f.name, _as_int(value, f.name))
        elif f.type == "float" and (isinstance(value, bool) or not isinstance(value, Real)
                                    or not abs(value) <= sys.float_info.max):
            raise ConfigError(f"{f.name} must be a finite number, got {value!r}")
    if getattr(obj, "seed", 0) < 0:
        raise ConfigError(f"seed must be non-negative, got {obj.seed}")


_MODEL_FORMAT = "fha-model"
_MODEL_VERSION = 1


def _float_list(values: np.ndarray, depth: int) -> str:
    """json.dump's ``indent=1`` text of a non-empty float list at nesting
    ``depth``; json writes a finite float as float.__repr__ does."""
    pad = "\n" + " " * (depth + 1)
    return "[" + pad + ("," + pad).join(map(float.__repr__, values.tolist())) + pad[:-1] + "]"


def save_model(path, nets: dict[str, Net], seed: int, metadata: dict | None = None) -> None:
    """Write named networks to a JSON text file.

    Parameters are serialized with Python's shortest round-trip decimal repr
    (at most 17 significant digits), so loading reconstructs the exact
    64-bit values. The text is json.dump's with ``indent=1``; only the
    parameter lists are written without its encoder, which takes about a
    microsecond per value.
    """
    # "nets" is the document's last key, and "params" the last of each net, so
    # each text ends in the empty value that the parts after it replace
    text = json.dumps({"format": _MODEL_FORMAT, "version": _MODEL_VERSION, "seed": int(seed),
                       "metadata": metadata or {}, "nets": {}}, indent=1)
    entries = []
    for name, net in nets.items():
        entry = json.dumps({"widths": list(net.arch.widths), "activation": "tanh",
                            "head": net.arch.head, "params": []}, indent=1)
        entries.append(f"  {json.dumps(name)}: " + entry[:-len("[]\n}")].replace("\n", "\n  ")
                       + _float_list(net.params, 3) + "\n  }")
    if entries:
        text = text[:-len("{}\n}")] + "{\n" + ",\n".join(entries) + "\n }\n}"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def load_model(path) -> tuple[dict[str, Net], int, dict]:
    """Read a model file written by save_model; returns (nets, seed, metadata)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise FormatError(f"model file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != _MODEL_FORMAT:
        raise FormatError("not a model file (missing format marker)")
    if doc.get("version") != _MODEL_VERSION:
        raise FormatError(f"unsupported model file version {doc.get('version')!r}")
    if not isinstance(doc.get("nets"), dict):
        raise FormatError("model file has no object of nets")
    try:
        for entry in doc["nets"].values():
            if entry["activation"] != "tanh":
                raise ConfigError(f"activation must be 'tanh', got {entry['activation']!r}")
        nets = {
            name: Net(ArchSpec(tuple(entry["widths"]), entry["head"]),
                      np.asarray(entry["params"], dtype=np.float64))
            for name, entry in doc["nets"].items()
        }
        if (seed := _as_int(doc["seed"], "the seed")) < 0:
            raise ConfigError(f"the seed must be non-negative, got {seed}")
        return nets, seed, dict(doc.get("metadata", {}))
    except (KeyError, TypeError, ValueError, ConfigError, NumericalError) as exc:
        raise FormatError(f"model file contents invalid: {exc}") from exc
