"""Objectives for intermediate-domain generation and pairwise adaptation.

The generator objective scores an (M*N, P) stack of class generators, and
both adaptation objectives take (M, P) stacks of nets as well as one net;
each reduces per block, so a row gets the same numbers in any stack. Each
objective that returns parameter gradients is one checked pass over the nn
cores; the passes, and why their bits equal the composed nn calls, are in
the README's "Where the time goes".

The augmented L1 distance reweights each coordinate gap by its share of the
squared error: sum_i w_i |x_i - y_i| with w_i = |x_i - y_i|^2 / ||x - y||_2,
which collapses to sum_i |d_i|^3 / ||d||_2 and is 0 exactly when x == y.
Probabilities are clamped at 1e-12 before logs.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from . import nn
from .errors import ConfigError, MissingClassError
from .pairing import GROUP_BOTH_INTERMEDIATE_DIFF, GROUP_BOTH_INTERMEDIATE_SAME

PROB_FLOOR = 1e-12


def _check_probs(p: np.ndarray, what: str) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.size and (p.min() < 0.0 or p.max() > 1.0):
        raise ConfigError(f"{what} must lie in [0, 1]")
    return p


def gen_source_loss_and_grad(class_probs: np.ndarray):
    """(1/B) * sum_i (p_i - 1)^2 over the last axis of the class probabilities
    and its gradient; an (N, B) stack, one per row."""
    p = _check_probs(class_probs, "class probabilities")
    if p.ndim == 0 or p.shape[-1] == 0:
        raise ConfigError("class_probs must be non-empty along its last axis")
    return _compatibility(p)


def _compatibility(p: np.ndarray, with_loss=True):
    """gen_source_loss_and_grad on checked, non-empty float64 probabilities,
    the loss None without ``with_loss``."""
    gap = p - 1.0
    return (gap ** 2).mean(axis=-1) if with_loss else None, 2.0 * gap / p.shape[-1]


def _augmented_l1_and_grad(x: np.ndarray, y: np.ndarray):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ConfigError(f"shape mismatch: {x.shape} vs {y.shape}")
    loss, grad = gen_target_loss_and_grad(x.reshape(1, x.size), y.reshape(1, y.size), 1.0)
    return float(loss), grad.reshape(x.shape)


def augmented_l1(x: np.ndarray, y: np.ndarray) -> float:
    """sum_i |d_i|^3 / ||d||_2 with d = x - y; zero exactly at x == y."""
    return _augmented_l1_and_grad(x, y)[0]


def augmented_l1_grad(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient of augmented_l1 with respect to x (zero at x == y)."""
    return _augmented_l1_and_grad(x, y)[1]


def l1_diameter(dim: int) -> float:
    """Largest augmented-L1 distance between two points of [0, 1]^dim.

    The maximum sits at |d_i| = 1 for every coordinate, giving
    dim / sqrt(dim) = sqrt(dim).
    """
    if dim < 1:
        raise ConfigError("dimension must be positive")
    return float(np.sqrt(dim))


def gen_target_loss_and_grad(generated: np.ndarray, targets: np.ndarray, diameter: float):
    """Target-proximity term and its gradient with respect to the generated batch.

    Loss (1/(M*B*K)) * sum_i sum_k augmented_l1(x_i, t_k) with M = diameter,
    for a (B, dim) batch and (K, dim) few-shots, or per row of an (N, B, dim)
    stack against (N, K, dim) few-shots.
    """
    generated = np.asarray(generated, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if min(generated.ndim, targets.ndim) < 2 or generated.shape[:-2] != targets.shape[:-2]:
        raise ConfigError("generated and targets must be (.., B, dim) and (.., K, dim)")
    b, k = generated.shape[-2], targets.shape[-2]
    if b == 0:
        raise ConfigError("generated batch is empty")
    if k == 0:
        raise MissingClassError("no few-shot samples for this class")
    if generated.shape[-1] != targets.shape[-1]:
        raise ConfigError("generated and targets must share a feature dimension")
    if diameter <= 0:
        raise ConfigError("diameter must be positive")
    return _proximity(generated, _target_planes(targets, b), diameter)


def _target_planes(targets: np.ndarray, b: int) -> np.ndarray:
    """(.., K, dim) few-shots as contiguous (K, dim, .., B) planes."""
    return np.repeat(np.moveaxis(targets, (-2, -1), (0, 1))[..., None], b, axis=-1)


def _proximity(generated: np.ndarray, planes: np.ndarray, diameter: float, with_loss=True):
    """The proximity kernel on checked (.., B, dim) batches and their
    _target_planes: the gaps are (K, dim, .., B) planes, so only K
    broadcasts, and sums over dim or K are whole-plane adds. The loss is None
    without ``with_loss``; with no zero gap, the np.where passes are skipped."""
    k, dim = planes.shape[:2]
    b, nd = generated.shape[-2], generated.ndim
    d = generated.transpose((nd - 1, *range(nd - 1))) - planes
    abs_d = np.abs(d)
    norm = np.sqrt(nn._pairwise_sum((d * d).swapaxes(0, 1)))
    cube = nn._pairwise_sum((abs_d ** 3).swapaxes(0, 1))
    pos = norm > 0.0
    every = pos.all()
    safe = norm if every else np.where(pos, norm, 1.0)
    to_last, scale, loss = (*range(1, nd), 0), diameter * b * k, None
    if with_loss:
        vals = cube / safe if every else np.where(pos, cube / safe, 0.0)
        # (.., B, K) rows in C order, so each row's sum is np.sum's over a contiguous axis
        loss = np.ascontiguousarray(vals.transpose(to_last)).reshape(
            generated.shape[:-2] + (-1,)).sum(axis=-1) / scale
    safe, cube = safe[:, None], cube[:, None]
    grad = 3.0 * d * abs_d / safe - d * cube / safe**3
    if not every:
        grad = np.where(pos[:, None], grad, 0.0)
    # over K a left fold, but pairwise for dim 1, where K is the contiguous axis
    grad = nn._pairwise_sum(grad) if dim == 1 else functools.reduce(np.add, grad)
    return loss, grad.transpose(to_last) / scale


def gen_target_loss(generated: np.ndarray, targets_n: np.ndarray,
                    diameter: float) -> float:
    """Mean augmented-L1 distance to the class few-shots, scaled into [0, 1]."""
    return float(gen_target_loss_and_grad(generated, targets_n, diameter)[0])


def _check_labels(labels: np.ndarray, shape: tuple, name="cross_entropy",
                  out_of_range="labels outside the class range") -> np.ndarray:
    """(B,) int64 labels in 0..C-1 for probabilities of ``shape`` (B, C) or (M, B, C)."""
    labels = np.asarray(labels, dtype=np.int64)
    if len(shape) not in (2, 3) or labels.ndim != 1 or shape[-2] != labels.shape[0]:
        raise ConfigError("probs must be (B, C) or (M, B, C) aligned with (B,) labels")
    if labels.size == 0:
        raise ConfigError(f"{name} on an empty batch")
    if labels.view(np.uint64).max() >= shape[-1]:  # a negative label reads as >= 2**63
        raise ConfigError(out_of_range)
    return labels


def _flat_pick(shape: tuple, labels: np.ndarray) -> np.ndarray:
    """Indices into probs.reshape(-1), probs of ``shape`` (B, C) or (M, B, C),
    of the label of each row: row * C + label, plus block * B * C for block m
    of a stack. ``labels`` is (B,), the same for every block, or (M, B), one
    row of labels per block."""
    b, c = shape[-2:]
    pick = np.arange(0, b * c, c) + labels
    if len(shape) == 3:
        pick = np.arange(0, shape[0] * b * c, b * c)[:, None] + pick
    return pick


def _label_pick(labels: np.ndarray, shape: tuple, *names) -> np.ndarray:
    """The _flat_pick of (B,) labels, checked by _check_labels, into probabilities of ``shape``."""
    return _flat_pick(shape, _check_labels(labels, shape, *names))


def _check_ce(probs: np.ndarray, labels: np.ndarray, *names):
    """(B, C) or (M, B, C) float64 probs and their _label_pick."""
    probs = np.asarray(probs, dtype=np.float64)
    return probs, _label_pick(labels, probs.shape, *names)


def _softmax_input_grad(probs: np.ndarray, pick: np.ndarray, picked: np.ndarray, u: np.ndarray):
    """The gradient at the input of the softmax head that gave ``probs`` from
    an upstream gradient whose one nonzero per row is u, at the flat ``pick``
    (_flat_pick), where the probabilities are ``picked``: the backward's row
    sum is s = u * picked, giving probs * (0 - s), and (u - s) * picked at
    the pick."""
    s = u * picked
    grad = probs * (0.0 - s)[..., None]  # not -s: a zero s gives +0.0, as in the backward
    grad.put(pick, (u - s) * picked)
    return grad


def _ce_parts(probs: np.ndarray, pick: np.ndarray, with_loss=True, logits=False):
    """(loss, gradient) of probs at the flat label picks of their B rows
    (_flat_pick), the loss None without ``with_loss``. The gradient is
    with respect to the probabilities, one nonzero u = -1 / (B * max(p_y,
    PROB_FLOOR)) per row or 0 under the floor, or with ``logits`` to the
    input of the softmax head that gave them."""
    b = pick.shape[-1]
    picked = probs.take(pick)  # C order, so each block's row is summed as a (B,) vector is
    if picked.min() >= PROB_FLOOR:  # a NaN fails this and takes the general branch
        floor, u = picked, -1.0 / (b * picked)
    else:
        floor = np.maximum(picked, PROB_FLOOR)
        u = np.where(picked >= PROB_FLOOR, -1.0 / (b * floor), 0.0)
    loss = None
    if with_loss:
        loss = -(np.add.reduce(np.log(floor), axis=-1) / b)  # mean(axis=-1)'s bits
        loss = float(loss) if loss.ndim == 0 else loss
    if logits:
        return loss, _softmax_input_grad(probs, pick, picked, u)
    grad = np.zeros_like(probs)
    grad.put(pick, u)
    return loss, grad


def cross_entropy(probs: np.ndarray, labels: np.ndarray):
    """Mean negative log-probability of the true class, clamped at 1e-12.

    (B, C) probabilities give one value; an (M, B, C) stack gives one per
    block, every block scored against the same (B,) labels.
    """
    return _ce_parts(*_check_ce(probs, labels))[0]


def cross_entropy_grad(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """d(cross_entropy)/d(probs); zero inside the clamped region."""
    return _ce_parts(*_check_ce(probs, labels), with_loss=False)[1]


def _softmax_ce(enc_arch: nn.ArchSpec, enc: list, enc_grad: list | None,
                cls_arch: nn.ArchSpec, cls: list, cls_grad: list | None,
                x: np.ndarray, pick: np.ndarray, with_loss=True) -> float | np.ndarray | None:
    """softmax_ce_and_grads on checked inputs, each net and gradient buffer
    bound by nn._layers and the labels as their _flat_pick: writes the
    gradients (none for a net whose buffer is None, and then computes none
    that only it would read) and returns the loss, or None without
    ``with_loss``."""
    emb, enc_acts = nn._forward(enc_arch, enc, x)
    probs, cls_acts = nn._forward(cls_arch, cls, emb)
    loss, g = _ce_parts(probs, pick, with_loss, logits=True)
    emb_g = nn._backward(cls, cls_acts, g, cls_grad, want_input=enc_grad is not None)
    if enc_grad is not None:
        nn._backward(enc, enc_acts, nn._head_grad(enc_arch, emb, emb_g), enc_grad,
                     want_input=False)
    return loss


def softmax_ce_and_grads(enc_arch: nn.ArchSpec, enc_params: np.ndarray,
                         cls_arch: nn.ArchSpec, cls_params: np.ndarray,
                         x: np.ndarray, labels: np.ndarray):
    """Cross-entropy of cls(enc(x)) against ``labels`` with its encoder and
    classifier gradients, in one checked pass: (loss, encoder gradient,
    classifier gradient).

    One net of each maps a (B, in) batch; (M, P) stacks of both map an
    (M, B, in) one, every block scored against the same (B,) labels, one loss
    per block. The classifier has a softmax head. The result equals
    forward_and_cache of both nets, cross_entropy_grad, then
    backward_from_cache of both, bit for bit: that upstream gradient has one
    nonzero u per row, so the softmax backward needs only the true-class
    probability p_y, its row sum being s = u * p_y.
    """
    enc_params = nn._check_params(enc_arch, enc_params)
    cls_params = nn._check_params(cls_arch, cls_params)
    lead = enc_params.shape[:-1]
    if (cls_arch.head != "softmax" or cls_arch.in_width != enc_arch.out_width
            or cls_params.shape[:-1] != lead):
        raise ConfigError("the classifier must be a softmax head on the encoder's output, "
                          "as many nets of each")
    x = nn._check_batch(enc_arch, x, enc_params)
    if x.shape[:-2] != lead:
        raise ConfigError("a parameter gradient needs one parameter row per batch block")
    pick = _label_pick(labels, x.shape[:-1] + (cls_arch.out_width,))
    enc_grad, cls_grad = np.empty(enc_params.shape), np.empty(cls_params.shape)
    loss = _softmax_ce(enc_arch, nn._layers(enc_arch, enc_params), nn._layers(enc_arch, enc_grad),
                       cls_arch, nn._layers(cls_arch, cls_params), nn._layers(cls_arch, cls_grad),
                       x, pick)
    return loss, enc_grad, cls_grad


def _check_group_ce(pair_probs: np.ndarray, group_labels: np.ndarray):
    """4-wide pair probabilities and the _flat_pick of their checked 0-based
    group labels. The rows are not scanned: the only caller passes the rows
    of its discriminator's softmax head, which lie in [0, 1] and sum to 1."""
    if np.ndim(pair_probs) not in (2, 3) or np.shape(pair_probs)[-1] != 4:
        raise ConfigError("pair_probs must be (P, 4) or (M, P, 4)")
    return _check_ce(pair_probs, np.asarray(group_labels, dtype=np.int64) - 1,
                     "group cross-entropy", "group labels must lie in {1, 2, 3, 4}")


def beta_schedule(progress: float) -> float:
    """Warm-up factor 2 / (1 + exp(-10 q)) - 1 with q clamped into [0, 1].

    Starts at exactly 0, increases monotonically, stays below 1.
    """
    q = min(max(float(progress), 0.0), 1.0)
    return 2.0 / (1.0 + np.exp(-10.0 * q)) - 1.0


def adaptation_loss_and_grads(x1, x2, disc, enc, cls, fewshot, beta: float):
    """beta * (confusion of cross-domain pairs) + CE on the few-shot samples,
    with gradients for the encoder and classifier only: (loss, encoder
    gradient, classifier gradient).

    ``x1`` and ``x2`` hold 2h pairs: the first h of group 2, scored against
    the group-1 label of the group discriminator, the last h of group 4,
    against the group-3 label. The discriminator is a frozen scorer: no
    gradient is produced for it. One net of each kind (an ``arch`` and a
    ``params``) maps (2h, d) pairs; (M, P) stacks map (M, 2h, d) blocks, one
    loss per block. One checked pass over the nn cores gives the bits of the
    public calls run per group, the encoder gradient summed in their order.
    """
    if not 0.0 <= beta <= 1.0:
        raise ConfigError("beta must lie in [0, 1]")
    enc_params = nn._check_params(enc.arch, enc.params)
    disc_params = nn._check_params(disc.arch, disc.params)
    lead, width = enc_params.shape[:-1], enc.arch.out_width
    x1 = nn._check_batch(enc.arch, x1, enc_params)
    x2 = nn._check_batch(enc.arch, x2, enc_params)
    if x1.shape != x2.shape or x1.shape[:-2] != lead:
        raise ConfigError("x1 and x2 must be equal-shape pairs, one block per encoder")
    if ((disc.arch.head, disc.arch.in_width, disc.arch.out_width) != ("softmax", 2 * width, 4)
            or disc_params.shape[:-1] != lead):
        raise ConfigError("the discriminator must be a 4-way softmax head on pairs of "
                          "encoder outputs, one per encoder")
    h, odd = divmod(x1.shape[-2], 2)
    if h == 0 or odd:
        raise ConfigError("the pairs must be h of group 2, then h of group 4, h >= 1")
    x_t = np.asarray(fewshot.features, dtype=np.float64)
    x_t = np.broadcast_to(x_t, lead + x_t.shape)  # one view per net
    target_ce, enc_grad, cls_grad = softmax_ce_and_grads(enc.arch, enc_params, cls.arch,
                                                         cls.params, x_t, fewshot.labels)
    enc_layers, disc_layers = nn._layers(enc.arch, enc_params), nn._layers(disc.arch, disc_params)
    e1, acts1 = nn._forward(enc.arch, enc_layers, x1)
    e2, acts2 = nn._forward(enc.arch, enc_layers, x2)
    probs, disc_acts = nn._forward(disc.arch, disc_layers, np.concatenate([e1, e2], axis=-1))
    # cross-domain groups are pushed toward their same-domain twins: group 2
    # toward group 1, group 4 toward group 3, at their 0-based columns
    cols = (GROUP_BOTH_INTERMEDIATE_SAME - 1, GROUP_BOTH_INTERMEDIATE_DIFF - 1)
    pick, halves = _flat_pick(probs.shape, np.repeat(cols, h)), (slice(0, h), slice(h, 2 * h))
    picked = probs.take(pick)
    floor = np.maximum(picked, PROB_FLOOR)
    # each group's mean over a C-contiguous copy of its half: numpy sums the
    # rows of a strided view, or of an (.., 2, h) array, in another order
    logs = np.log(floor)
    g2, g4 = (np.ascontiguousarray(logs[..., half]).mean(axis=-1) for half in halves)
    loss = float(beta) * (0.0 - g2 - g4) + target_ce
    if beta != 0.0:
        u = np.where(picked >= PROB_FLOOR, -beta / (h * floor), 0.0)
        joint_g = nn._backward(disc_layers, disc_acts,
                               _softmax_input_grad(probs, pick, picked, u), None)
        part = np.empty(enc_params.shape)
        part_layers = nn._layers(enc.arch, part)
        for half in halves:
            for acts, side in ((acts1, slice(0, width)), (acts2, slice(width, 2 * width))):
                acts = [a[..., half, :] for a in acts]
                nn._backward(enc_layers, acts,
                             nn._head_grad(enc.arch, acts[-1], joint_g[..., half, side]),
                             part_layers, want_input=False)
                enc_grad += part
    return (float(loss) if np.ndim(loss) == 0 else loss), enc_grad, cls_grad


def group_ce_and_disc_grad(disc, joint: np.ndarray, group: np.ndarray):
    """Group cross-entropy of pair embeddings and its discriminator gradient.

    ``joint`` holds the (P, 2 * width) joint embeddings of P pairs (see
    pairing.phi) with their (P,) 1-based ``group`` labels; the encoder that
    embedded them is frozen, so the gradient is taken with respect to the
    discriminator parameters alone. The discriminator, a softmax head, may
    be an (M, P) stack scoring (M, P, 2 * width) blocks, one loss per block.
    """
    if np.size(group) == 0:
        raise ConfigError("cannot score an empty pair batch")
    params = nn._check_params(disc.arch, disc.params)
    joint = nn._check_batch(disc.arch, joint, params)
    if disc.arch.head != "softmax" or joint.shape[:-2] != params.shape[:-1]:
        raise ConfigError("the discriminator must be a softmax head, one per block of pairs")
    layers = nn._layers(disc.arch, params)
    probs, acts = nn._forward(disc.arch, layers, joint)
    loss, g = _ce_parts(*_check_group_ce(probs, group), logits=True)
    grad = np.empty(params.shape)
    nn._backward(layers, acts, g, nn._layers(disc.arch, grad), want_input=False)
    return loss, grad


class GeneratorPlan(NamedTuple):
    """What one generator run fixes for every step, built by generator_plan."""

    modes: tuple[str, ...]
    num_classes: int
    src: slice | np.ndarray | None  # the rows the source term scores
    src_pick: np.ndarray  # the (S, B) _flat_pick of the class each of them scores
    # per few-shot count K, the rows the proximity term reads with K shots:
    # (rows, their (R,) proximity weights, their few-shots as (K, dim, R, B) planes)
    tgt: tuple[tuple, ...]
    diameter: float


def _block_rows(blocks: list[int], n: int):
    """The stack rows of row blocks of n: a slice if they are adjacent, else an
    index array; None for no blocks."""
    if not blocks:
        return None
    if blocks[-1] - blocks[0] == len(blocks) - 1:
        return slice(blocks[0] * n, (blocks[-1] + 1) * n)
    return np.array([m * n + c for m in blocks for c in range(n)], dtype=np.int64)


def generator_plan(mode, num_classes: int, targets, tradeoff: float,
                   batch: int) -> GeneratorPlan:
    """The plan of generator_objective_and_grad for a run of ``batch``-row steps:
    ``mode`` is a sequence of M objectives, one per row block of
    ``num_classes`` generators, with a sequence of M ``targets``, each
    block's (N, K, dim) few-shots of each class (or None), and the
    non-negative ``tradeoff``. Modes:
      * ``source_only``: compatibility term alone (few-shots unused);
      * ``target_only``: proximity term alone, scaled into [0, 1] by
        ``l1_diameter(dim)``;
      * ``combined``: compatibility + tradeoff * proximity. With tradeoff 0
        the proximity term is skipped entirely, matching source_only.
    The proximity blocks with K few-shots per class share one ``tgt`` entry,
    in the order their K first appears.
    """
    modes = tuple(mode)  # a bare string is a sequence of unknown one-letter modes
    if not modes or any(m not in ("source_only", "target_only", "combined") for m in modes):
        raise ConfigError(f"unknown generator mode {mode!r}")
    if targets is None or len(targets) != len(modes):
        raise ConfigError("targets must hold one entry per mode")
    if tradeoff < 0:
        raise ConfigError("tradeoff must be non-negative")
    if batch < 1:
        raise ConfigError("generated batch is empty")
    src_blocks = [m for m, name in enumerate(modes) if name != "target_only"]
    own = np.arange(len(src_blocks) * num_classes)
    by_k = {}  # K -> the proximity blocks with K few-shots per class
    for m, name in enumerate(modes):
        if name == "target_only" or (name == "combined" and tradeoff != 0.0):
            if targets[m] is None or not np.size(targets[m]):
                raise MissingClassError("no few-shot samples for some source class")
            if np.ndim(targets[m]) != 3 or len(targets[m]) != num_classes:
                raise ConfigError("targets must be (N, K, dim), one row per source class")
            by_k.setdefault(np.shape(targets[m])[1], []).append(m)
    if len({np.shape(targets[m])[2] for blocks in by_k.values() for m in blocks}) > 1:
        raise ConfigError("the few-shots of every block must share a feature dimension")
    tgt = tuple((
        _block_rows(blocks, num_classes),
        np.repeat([1.0 if modes[m] == "target_only" else tradeoff for m in blocks], num_classes),
        _target_planes(np.concatenate([np.asarray(targets[m], dtype=np.float64)
                                       for m in blocks]), batch))
        for blocks in by_k.values())
    diameter = l1_diameter(tgt[0][2].shape[1]) if tgt else 1.0
    src_pick = _flat_pick((own.size, batch, num_classes),
                          np.repeat((own % num_classes)[:, None], batch, axis=1))
    return GeneratorPlan(modes, num_classes, _block_rows(src_blocks, num_classes),
                         src_pick, tgt, diameter)


def generator_objective_and_grad(arch: nn.ArchSpec, params: np.ndarray,
                                 source_enc: nn.Net, source_cls: nn.Net,
                                 z: np.ndarray, plan: GeneratorPlan, *, with_loss=True):
    """Evaluate the objective of every class generator on its noise batch.

    ``params`` is an (M*N, P) stack of generators of ``arch``: block m holds
    N generators on objective ``plan.modes[m]``, and its row n maps ``z`` row
    (B, z_dim) and is scored on class n. Returns (per-generator losses
    (M*N,) or None without ``with_loss``, parameter gradients (M*N, P),
    generated batches (M*N, B, dim)). The frozen source model, a softmax
    classifier on an encoder, runs once over the batches of the blocks that
    read it, and carries gradient to them only, in one checked pass over the
    nn cores: the gradient at its probabilities has one nonzero per row, so
    the softmax backward needs only the picked probabilities.
    A row gets the same numbers in any stack: each term runs only on the rows
    that read it, the compatibility term added before the proximity term.
    """
    n, rows = plan.num_classes, len(plan.modes) * plan.num_classes
    if np.ndim(params) != 2 or len(params) != rows or source_cls.arch.out_width != n:
        raise ConfigError(f"expected an ({rows}, P) stack, one generator per source class "
                          "and mode of the plan")
    params = nn._check_params(arch, params)
    gen = nn._layers(arch, params)
    generated, gen_acts = nn._forward(arch, gen, nn._check_batch(arch, z, params))
    if generated.shape[-2] != plan.src_pick.shape[-1] or (
            plan.tgt and generated.shape[-1] != plan.tgt[0][2].shape[1]):
        raise ConfigError("the plan is for another batch size or feature dimension")
    x_up = np.zeros_like(generated)
    loss = np.zeros(len(generated)) if with_loss else None
    if plan.src is not None:
        enc, cls = source_enc.arch, source_cls.arch
        if (arch.out_width, enc.out_width, cls.head) != (enc.in_width, cls.in_width, "softmax"):
            raise ConfigError("the generators must feed the encoder, and it a softmax head")
        enc_layers, cls_layers = source_enc.layers, source_cls.layers
        emb, enc_acts = nn._forward(enc, enc_layers, generated[plan.src])
        probs, cls_acts = nn._forward(cls, cls_layers, emb)
        picked = probs.take(plan.src_pick)
        src_loss, u = _compatibility(picked, with_loss)
        if with_loss:
            loss[plan.src] += src_loss
        g = _softmax_input_grad(probs, plan.src_pick, picked, u)
        emb_g = nn._backward(cls_layers, cls_acts, g, None)
        x_up[plan.src] += nn._backward(enc_layers, enc_acts, nn._head_grad(enc, emb, emb_g), None)
    for rows, weight, planes in plan.tgt:
        target_loss, target_grad = _proximity(generated[rows], planes, plan.diameter, with_loss)
        if with_loss:
            loss[rows] += weight * target_loss
        x_up[rows] += weight[:, None, None] * target_grad
    gen_grad = np.empty(params.shape)
    nn._backward(gen, gen_acts, nn._head_grad(arch, generated, x_up), nn._layers(arch, gen_grad),
                 want_input=False)
    return loss, gen_grad, generated
