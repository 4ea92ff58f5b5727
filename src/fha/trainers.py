"""Training routines: source fitting, the benchmark family, and one-step
hypothesis adaptation with generated intermediate data.

Methods (names match the results schema):
  * wa    -- apply the frozen source model to the target directly;
  * ft    -- freeze the encoder, fit the classifier on the few-shots;
  * shot  -- freeze the classifier, fit the encoder on the few-shots;
  * sfada -- two-step: generator trained for source compatibility only,
             then pairwise adversarial adaptation against the frozen pool;
  * tfada -- two-step with a generator trained for target proximity only;
  * stfada-- two-step with the combined generator objective;
  * tohan -- one-step: generators first, then adaptation over the kept
             batches; the pool of each of the final adapt_epochs epochs is
             the batch that epoch's generator step was computed on.

The two-step methods and tohan share one generator run and one adaptation
schedule (discriminator pretraining, then alternating model and
discriminator updates over a list of pools). They differ only in the pools:
one pool drawn from the converged bank, or the batches of the generators'
final steps. The generator objective never reads the adapted model, so
tohan's trace keeps the interleaved order of the paper's one-step loop. The
class generators are one (N, P) parameter stack throughout (row n for class
n): trained, kept in a GeneratorBank and sampled as one. A generator run
can train several objectives at once, one row block of N per mode from the
same init and noise, so each block's bank and batches equal its one-mode
run. In the same way _adapt runs M adaptations as one (M, P) stack of
encoder + classifier rows and one of discriminators, each row equal to its
one-block run. generate(methods) trains the blocks the listed methods read, and
adapt_generated(methods, run) adapts the listed methods from that run in
one stack: run_two_step and train_tohan are these two calls for a single
method, adapt_pairwise is the one-block stack against a fixed pool, and
the harness makes one call of each per (seed, n_t) for sfada, tfada,
stfada and tohan.

All routines are functional: the source hypothesis is never mutated (its
parameter arrays are read-only), and every update builds new parameter
vectors. Equal seeds give bit-identical outputs.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import losses, nn
from .data import Dataset, FewShotSet
from .errors import (
    ConfigError,
    FormatError,
    InsufficientDataError,
    MissingClassError,
    NumericalError,
    QualityGateError,
)
from .pairing import (ALL_GROUPS, LabeledPool, PairBatch, build_groups, check_pairs,
                      draw_pairs, phi)

TWO_STEP_MODES = {"sfada": "source_only", "tfada": "target_only", "stfada": "combined"}
GENERATOR_METHODS = (*TWO_STEP_MODES, "tohan")
METHODS = ("wa", "ft", "shot", *GENERATOR_METHODS)


# ---------------------------------------------------------------------------
# configs


@dataclass(frozen=True)
class SourceTrainConfig:
    """Source fitting: minibatch cross-entropy with Adam, stratified holdout."""

    epochs: int = 200
    batch_size: int = 64
    lr: float = 1e-3
    holdout_fraction: float = 0.2
    min_test_accuracy: float = 0.8
    encoder_width: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        nn._as_int_fields(self)
        if self.epochs < 1 or self.batch_size < 1 or self.encoder_width < 1:
            raise ConfigError("epochs, batch_size, and encoder_width must be positive")
        if not 0.0 < self.holdout_fraction < 1.0:
            raise ConfigError("holdout_fraction must lie in (0, 1)")
        if not 0.0 <= self.min_test_accuracy <= 1.0:
            raise ConfigError("min_test_accuracy must lie in [0, 1]")
        if self.lr <= 0:
            raise ConfigError("lr must be positive")


@dataclass(frozen=True)
class BaselineConfig:
    """Few-shot fitting for the ft and shot benchmarks (full batch)."""

    epochs: int = 100
    lr: float = 1e-3

    def __post_init__(self) -> None:
        nn._as_int_fields(self)
        if self.epochs < 0:
            raise ConfigError("epochs must be non-negative")
        if self.lr <= 0:
            raise ConfigError("lr must be positive")


@dataclass(frozen=True)
class TohanConfig:
    """Schedule and sizes of the generation + adaptation runs.

    Each adaptation update consumes ``4 * per_group`` pairs: the
    discriminator step uses ``per_group`` pairs of each of the 4 groups, the
    model step ``2 * per_group`` pairs of each cross-domain group. The final
    ``adapt_epochs`` epochs of ``total_epochs`` are the adaptation phase;
    the discriminator is pretrained for ``disc_pretrain_epochs`` right
    before it.
    """

    tradeoff: float = 0.2
    gen_batch: int = 32
    per_group: int = 16
    z_dim: int = 8
    gen_hidden: int = 32
    disc_hidden: int = 32
    total_epochs: int = 500
    disc_pretrain_epochs: int = 100
    adapt_epochs: int = 50
    lr_gen: float = 1e-3
    lr_disc_pretrain: float = 1e-3
    lr_model: float = 1e-3
    lr_disc_adapt: float = 1e-3
    seed: int = 0

    def __post_init__(self) -> None:
        nn._as_int_fields(self)
        if min(self.gen_batch, self.per_group, self.z_dim, self.gen_hidden,
               self.disc_hidden, self.total_epochs) < 1:
            raise ConfigError("batch sizes, widths, and total_epochs must be positive")
        if self.adapt_epochs < 0 or self.disc_pretrain_epochs < 0:
            raise ConfigError("epoch counts must be non-negative")
        if self.adapt_epochs >= self.total_epochs:
            raise ConfigError("adapt_epochs must be smaller than total_epochs")
        if self.tradeoff < 0:
            raise ConfigError("tradeoff must be non-negative")
        if min(self.lr_gen, self.lr_disc_pretrain, self.lr_model, self.lr_disc_adapt) <= 0:
            raise ConfigError("learning rates must be positive")


# ---------------------------------------------------------------------------
# model containers


@dataclass(frozen=True)
class SourceHypothesis:
    """A trained source model; frozen after creation (read-only params)."""

    enc: nn.Net
    cls: nn.Net
    seed: int
    train_accuracy: float
    test_accuracy: float

    def __post_init__(self) -> None:
        if self.enc.arch.out_width != self.cls.arch.in_width:
            raise ConfigError("encoder output width must feed the classifier")
        if self.cls.arch.head != "softmax":
            raise ConfigError("the classifier must end in a softmax head")


@dataclass(frozen=True)
class TargetModel:
    """The adapted encoder + classifier pair."""

    enc: nn.Net
    cls: nn.Net

    def __post_init__(self) -> None:
        if self.enc.arch.out_width != self.cls.arch.in_width:
            raise ConfigError("encoder output width must feed the classifier")


@dataclass(frozen=True)
class GeneratorBank:
    """The trained class generators: a read-only (N, P) stack of ``arch``
    parameters, row n for class n."""

    arch: nn.ArchSpec
    params: np.ndarray

    def __post_init__(self) -> None:
        params = np.array(self.params, dtype=np.float64)
        if params.ndim != 2 or len(params) < 2 or params.shape[1] != self.arch.n_params:
            raise ConfigError(f"a bank needs an (N, {self.arch.n_params}) stack, one "
                              "generator per class (at least 2)")
        if not np.all(np.isfinite(params)):
            raise NumericalError("network parameters must be finite")
        params.setflags(write=False)
        object.__setattr__(self, "params", params)

    @property
    def num_classes(self) -> int:
        return len(self.params)


def default_encoder_arch(dim: int, width: int = 32) -> nn.ArchSpec:
    return nn.ArchSpec((dim, width, width), activation="tanh", head="linear")


def default_classifier_arch(width: int, num_classes: int) -> nn.ArchSpec:
    return nn.ArchSpec((width, num_classes), activation="tanh", head="softmax")


def default_generator_arch(z_dim: int, dim: int, hidden: int = 32) -> nn.ArchSpec:
    return nn.ArchSpec((z_dim, hidden, dim), activation="tanh", head="sigmoid")


def default_discriminator_arch(emb_width: int, hidden: int = 32) -> nn.ArchSpec:
    return nn.ArchSpec((2 * emb_width, hidden, 4), activation="tanh", head="softmax")


# ---------------------------------------------------------------------------
# phase trace


@dataclass(frozen=True)
class PhaseEvent:
    """One training event: which phase ran, its losses, and state digests.

    ``digests`` holds short content hashes of each parameter set after the
    event, so a trace doubles as a freeze-contract witness: an event must
    change its own parameter set and no other.
    """

    epoch: int
    phase: str
    losses: dict[str, float]
    digests: dict[str, str] = field(default_factory=dict)


def _digest(*param_arrays: np.ndarray) -> str:
    h = hashlib.sha1()
    for arr in param_arrays:
        h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def write_trace(events, path) -> None:
    """Write phase events as line-delimited JSON records."""
    with open(path, "w", encoding="utf-8") as fh:
        for ev in events:
            fh.write(json.dumps({
                "epoch": ev.epoch,
                "phase": ev.phase,
                "losses": ev.losses,
                "digests": ev.digests,
            }))
            fh.write("\n")


# ---------------------------------------------------------------------------
# evaluation core (single code path shared with the harness)


def net_accuracy(enc: nn.Net, cls: nn.Net, feats: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of argmax predictions of cls(enc(feats)) that equal labels."""
    feats = np.asarray(feats, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if feats.shape[0] == 0:
        raise InsufficientDataError("cannot evaluate accuracy on an empty set")
    probs = cls(enc(feats))
    pred = np.argmax(probs, axis=1)  # ties resolve to the lowest index
    return float(np.mean(pred == labels))


# ---------------------------------------------------------------------------
# source training


def _stratified_holdout(labels: np.ndarray, fraction: float, rng: np.random.Generator):
    train_idx, test_idx = [], []
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        idx = rng.permutation(idx)
        k = max(1, int(round(fraction * idx.size)))
        if k >= idx.size:
            raise InsufficientDataError(f"class {c} too small for a holdout split")
        test_idx.append(idx[:k])
        train_idx.append(idx[k:])
    return np.concatenate(train_idx), np.concatenate(test_idx)


def train_source(source: Dataset, cfg: SourceTrainConfig) -> SourceHypothesis:
    """Fit encoder + classifier on the source split with minibatch Adam.

    A stratified holdout (cfg.holdout_fraction) estimates generalization;
    the hypothesis is rejected when holdout accuracy falls below
    cfg.min_test_accuracy. Deterministic under cfg.seed.
    """
    if source.n == 0:
        raise InsufficientDataError("the source split has no samples")
    split_seed, enc_seed, cls_seed, shuffle_seed = nn.derive_seeds(cfg.seed, 4)
    rng = np.random.default_rng(split_seed)
    train_idx, test_idx = _stratified_holdout(source.labels, cfg.holdout_fraction, rng)
    x_train = source.features[train_idx].astype(np.float64)
    y_train = source.labels[train_idx]
    x_test = source.features[test_idx].astype(np.float64)
    y_test = source.labels[test_idx]

    enc_arch = default_encoder_arch(source.dim, cfg.encoder_width)
    cls_arch = default_classifier_arch(cfg.encoder_width, source.num_classes)
    # encoder, then classifier: Adam is elementwise, so one state steps both bit for bit
    params = np.concatenate([nn.init_params(enc_arch, enc_seed),
                             nn.init_params(cls_arch, cls_seed)])
    state = nn.AdamState.init(params.size, cfg.lr)
    split, grad = enc_arch.n_params, np.empty(params.size)

    shuffle_rng = np.random.default_rng(shuffle_seed)
    n = x_train.shape[0]
    for _ in range(cfg.epochs):
        order = shuffle_rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            rows = order[start:start + cfg.batch_size]
            xb, yb = x_train[rows], y_train[rows]
            enc_params, cls_params = params[:split], params[split:]
            emb, enc_cache = nn.forward_and_cache(enc_arch, enc_params, xb)
            probs, cls_cache = nn.forward_and_cache(cls_arch, cls_params, emb)
            loss = losses.cross_entropy(probs, yb)
            if not math.isfinite(loss):
                raise NumericalError("source training diverged (non-finite loss)")
            up = losses.cross_entropy_grad(probs, yb)
            grad[split:], emb_up = nn.backward_from_cache(cls_arch, cls_params, cls_cache, up)
            grad[:split], _ = nn.backward_from_cache(enc_arch, enc_params, enc_cache, emb_up)
            params, state = nn.adam_step(state, params, grad)

    enc = nn.Net(enc_arch, params[:split])
    cls = nn.Net(cls_arch, params[split:])
    train_acc = net_accuracy(enc, cls, x_train, y_train)
    test_acc = net_accuracy(enc, cls, x_test, y_test)
    if test_acc < cfg.min_test_accuracy:
        raise QualityGateError(
            f"source holdout accuracy {test_acc:.3f} below the "
            f"{cfg.min_test_accuracy:.2f} gate"
        )
    return SourceHypothesis(
        enc=enc, cls=cls, seed=cfg.seed,
        train_accuracy=train_acc, test_accuracy=test_acc,
    )


# ---------------------------------------------------------------------------
# few-shot benchmarks


def train_ft(hypothesis: SourceHypothesis, fewshot: FewShotSet,
             cfg: BaselineConfig) -> TargetModel:
    """Freeze the encoder, fit the classifier on the few-shots (full batch)."""
    emb = hypothesis.enc(fewshot.features.astype(np.float64))
    labels = fewshot.labels
    arch = hypothesis.cls.arch
    params = np.array(hypothesis.cls.params)
    state = nn.AdamState.init(params.size, cfg.lr)
    for _ in range(cfg.epochs):
        probs, cache = nn.forward_and_cache(arch, params, emb)
        up = losses.cross_entropy_grad(probs, labels)
        grad, _ = nn.backward_from_cache(arch, params, cache, up)
        params, state = nn.adam_step(state, params, grad)
    return TargetModel(enc=hypothesis.enc, cls=nn.Net(arch, params))


def train_shot(hypothesis: SourceHypothesis, fewshot: FewShotSet,
               cfg: BaselineConfig) -> TargetModel:
    """Freeze the classifier, fit the encoder on the few-shots (full batch)."""
    x = fewshot.features.astype(np.float64)
    labels = fewshot.labels
    enc_arch = hypothesis.enc.arch
    cls = hypothesis.cls
    params = np.array(hypothesis.enc.params)
    state = nn.AdamState.init(params.size, cfg.lr)
    for _ in range(cfg.epochs):
        emb, enc_cache = nn.forward_and_cache(enc_arch, params, x)
        probs, cls_cache = nn.forward_and_cache(cls.arch, cls.params, emb)
        up = losses.cross_entropy_grad(probs, labels)
        _, emb_up = nn.backward_from_cache(cls.arch, cls.params, cls_cache, up,
                                           input_only=True)
        grad, _ = nn.backward_from_cache(enc_arch, params, enc_cache, emb_up)
        params, state = nn.adam_step(state, params, grad)
    return TargetModel(enc=nn.Net(enc_arch, params), cls=cls)


# ---------------------------------------------------------------------------
# generators


def _run_generators(hypothesis: SourceHypothesis, fewshot: FewShotSet | None,
                    modes: tuple[str, ...], cfg: TohanConfig, root: int, epochs: int,
                    keep: dict | None = None, log: list | None = None) -> tuple[dict, dict]:
    """Train the class generators of every objective in ``modes`` as one
    (M*N, P) stack with one Adam state: block m holds the N generators on
    objective modes[m], row n of a block for class n.

    Seeds follow derive_seeds(root, 2 * num_classes): child 2n initializes
    generator n and child 2n + 1 drives its noise stream, drawn in class order.
    Every block starts from the same init rows and reads the same noise, so
    each block follows its one-mode run bit for bit. Returns the trained bank
    of each mode and, for each mode in ``keep``, the (N, gen_batch, dim)
    batches its last keep[mode] steps were computed on. ``log``, when given,
    receives the digest of the initial stack, then one (loss mean, stack
    digest) pair per step.
    """
    num_classes = hypothesis.cls.arch.out_width
    child = nn.derive_seeds(root, 2 * num_classes)
    arch = default_generator_arch(cfg.z_dim, hypothesis.enc.arch.in_width, cfg.gen_hidden)
    init = np.stack([nn.init_params(arch, child[2 * n]) for n in range(num_classes)])
    params = np.tile(init, (len(modes), 1))
    state = nn.AdamState.init(params.shape, cfg.lr_gen)
    noise = [np.random.default_rng(child[2 * n + 1]) for n in range(num_classes)]
    targets = None
    if any(mode != "source_only" for mode in modes):
        if fewshot.num_classes < num_classes:
            raise MissingClassError("no few-shot samples for some source class")
        targets = np.stack([fewshot.class_features(n) for n in range(num_classes)]
                           ).astype(np.float64)
    blocks = {mode: slice(m * num_classes, (m + 1) * num_classes)
              for m, mode in enumerate(modes)}
    keep = keep or {}
    kept = {mode: [] for mode in keep}
    if log is not None:
        log.append(_digest(params))
    for epoch in range(epochs):
        z = np.stack([rng.standard_normal((cfg.gen_batch, cfg.z_dim)) for rng in noise])
        step_losses, grad, generated = losses.generator_objective_and_grad(
            arch, params, hypothesis.enc, hypothesis.cls, np.tile(z, (len(modes), 1, 1)),
            targets, cfg.tradeoff, modes
        )
        params, state = nn.adam_step(state, params, grad)
        if not np.all(np.isfinite(params)):
            raise NumericalError("network parameters must be finite")
        for mode, count in keep.items():
            if epoch >= epochs - count:
                # a copy, so the other blocks' batches are not kept alive
                kept[mode].append(generated[blocks[mode]].copy())
        if log is not None:
            log.append((float(np.mean(step_losses)), _digest(params)))
    return {mode: GeneratorBank(arch, params[rows]) for mode, rows in blocks.items()}, kept


def train_generator_bank(hypothesis: SourceHypothesis, fewshot: FewShotSet | None,
                         mode: str, cfg: TohanConfig, *, seed: int | None = None,
                         epochs: int | None = None) -> GeneratorBank:
    """Train one generator per class on the chosen objective.

    ``mode`` is source_only, target_only, or combined. source_only ignores
    the few-shots entirely; combined with tradeoff 0 follows the exact same
    trajectory as source_only under equal seeds.
    """
    if mode not in ("source_only", "target_only", "combined"):
        raise ConfigError(f"unknown generator mode {mode!r}")
    if mode != "source_only" and fewshot is None:
        raise ConfigError(f"mode {mode!r} needs a few-shot set")
    root = cfg.seed if seed is None else seed
    return _run_generators(hypothesis, fewshot, (mode,), cfg, root,
                           cfg.total_epochs if epochs is None else epochs)[0][mode]


def _labeled_pool(batches: np.ndarray) -> LabeledPool:
    """The intermediate pool of an (N, B, dim) stack of batches, block n labeled n."""
    n, b, dim = batches.shape
    return LabeledPool(batches.reshape(n * b, dim), np.repeat(np.arange(n), b))


def sample_pool(bank: GeneratorBank, per_class: int, seed: int) -> LabeledPool:
    """Generate a labeled intermediate pool: per_class samples per generator,
    from one (N, per_class, z_dim) noise draw through the stacked bank."""
    if per_class < 1:
        raise ConfigError("per_class must be positive")
    z = np.random.default_rng(seed).standard_normal(
        (bank.num_classes, per_class, bank.arch.in_width))
    return _labeled_pool(nn.forward(bank.arch, bank.params, z))


# ---------------------------------------------------------------------------
# pairwise adaptation


class _Block(NamedTuple):
    """One adaptation of a stacked _adapt run."""

    pools: list
    disc_seed: int
    pair_seed: int
    trace: list | None = None
    gen_log: list | None = None


class _Stack(NamedTuple):
    """An (M, P) parameter stack, read by the losses as M nets of ``arch``."""

    arch: nn.ArchSpec
    params: np.ndarray


def _finite(stack: _Stack, params: np.ndarray) -> _Stack:
    if not np.all(np.isfinite(params)):
        raise NumericalError("network parameters must be finite")
    return stack._replace(params=params)


def _adapt(blocks: list[_Block], fewshot: FewShotSet, hypothesis: SourceHypothesis,
           cfg: TohanConfig) -> list[TargetModel]:
    """The adaptation schedule of the two-step and one-step methods, for M
    blocks at once: row m of an (M, P) stack each of encoder + classifier
    models and of discriminators is block m's, with one Adam state per stack.

    Each block starts from the source nets and a discriminator seeded by its
    disc_seed, and holds one intermediate pool per epoch. The discriminator
    is pretrained for cfg.disc_pretrain_epochs against the first; then each
    epoch runs one model update (discriminator frozen) and one discriminator
    update (encoder frozen) against its own pool. The pair draws read only
    labels, which all pools share, so each pair_seed's stream draws once and
    its blocks gather the rows from their own pools. A stacked row gets the
    bits it gets alone, so block m ends, and traces, as its one-block run.
    A trace gets its row's digests; with ``gen_log``, the log of the
    generator run that drew the pools, it keeps the interleaved order: one
    generate event per generator step, the last len(pools) opening the epochs.
    """
    steps, count = len(blocks[0].pools), len(blocks)
    pools = {id(p): p for b in blocks for p in b.pools}.values()
    if any(len(b.pools) != steps for b in blocks) or any(
            not np.array_equal(p.labels, blocks[0].pools[0].labels) for p in pools):
        raise ConfigError("stacked blocks need as many pools, all of one label layout")
    half = 2 * cfg.per_group  # model-update pairs per cross-domain group
    if steps:  # the one check for every draw below: all pools share these labels
        for group_ids, per_group in ((ALL_GROUPS, cfg.per_group), ((2, 4), half)):
            check_pairs(blocks[0].pools[0], fewshot, group_ids, per_group)
    # one (M, P_enc + P_cls) model stack under one Adam state; enc and cls view its halves
    split = hypothesis.enc.arch.n_params
    model = np.tile(np.concatenate([hypothesis.enc.params, hypothesis.cls.params]), (count, 1))
    enc = _Stack(hypothesis.enc.arch, model[:, :split])
    cls = _Stack(hypothesis.cls.arch, model[:, split:])
    disc_arch = default_discriminator_arch(enc.arch.out_width, cfg.disc_hidden)
    disc = _Stack(disc_arch, np.stack([nn.init_params(disc_arch, b.disc_seed) for b in blocks]))
    seeds = list(dict.fromkeys(b.pair_seed for b in blocks))  # one pair stream per seed
    rngs = [np.random.default_rng(seed) for seed in seeds]
    stream_of = [seeds.index(b.pair_seed) for b in blocks]
    block_rows = np.arange(count)[:, None]
    x_t = np.asarray(fewshot.features, dtype=np.float64)

    def draw(k, rows, group_ids, per_group):
        """Each block's pairs of epoch k: its stream's index pairs, gathered from
        its own pool (ia) and from ``rows``, its pool followed by the few-shots (ib)."""
        drawn = [draw_pairs(blocks[0].pools[k], fewshot, group_ids, per_group, rng)
                 for rng in rngs]
        ia, ib = (np.stack([drawn[s][side] for s in stream_of]) for side in (0, 1))
        return rows[block_rows, ia], rows[block_rows, ib]

    def disc_update(k, rows, state):
        x1, x2 = draw(k, rows, ALL_GROUPS, cfg.per_group)
        pairs = PairBatch(x1, x2, np.repeat(ALL_GROUPS, cfg.per_group))
        loss, grad = losses.group_ce_and_disc_grad(disc, enc, pairs)
        params, state = nn.adam_step(state, disc.params, grad)
        return _finite(disc, params), state, loss

    traced = [m for m, b in enumerate(blocks) if b.trace is not None]
    gens = [None if b.gen_log is None else b.gen_log[0] for b in blocks]
    leads = [0 if b.gen_log is None else len(b.gen_log) - 1 - steps for b in blocks]
    dm_size = float(cfg.gen_batch * cls.arch.out_width)

    def event(m, epoch, phase, values):
        digests = {"enc": _digest(enc.params[m]), "cls": _digest(cls.params[m]),
                   "disc": _digest(disc.params[m])}
        if gens[m] is not None:
            digests["gens"] = gens[m]
        blocks[m].trace.append(PhaseEvent(epoch, phase, values, digests))

    def generate(m, epochs):
        """Block m's generate events of ``epochs``, read from its generator log."""
        gen_log = blocks[m].gen_log
        for epoch in () if gen_log is None else epochs:
            gen_loss_mean, gens[m] = gen_log[epoch + 1]
            event(m, epoch, "generate", {"gen_loss_mean": gen_loss_mean, "dm_size": dm_size})

    def record(k, phase, **values):  # a per-block value is an (M,) array
        for m in traced:
            event(m, leads[m] + k, phase,
                  {key: float(v[m]) if np.ndim(v) else v for key, v in values.items()})

    for m in traced:
        event(m, -1, "init", {})
        generate(m, range(leads[m]))
    model_state = nn.AdamState.init(model.shape, cfg.lr_model)
    model_grad = np.empty(model.shape)
    for k in range(steps):
        for m in traced:
            generate(m, [leads[m] + k])
        # each block's pool rows, then the few-shots: the order draw_pairs indexes
        feats = np.stack([b.pools[k].features for b in blocks])
        rows = np.concatenate([feats, np.broadcast_to(x_t, (count,) + x_t.shape)], axis=1)
        if k == 0:
            disc_state = nn.AdamState.init(disc.params.shape, cfg.lr_disc_pretrain)
            for _ in range(cfg.disc_pretrain_epochs):
                disc, disc_state, loss = disc_update(k, rows, disc_state)
                record(k, "pretrain_disc", group_ce=loss)
            disc_state = nn.AdamState.init(disc.params.shape, cfg.lr_disc_adapt)
        beta = losses.beta_schedule(k / steps)
        x1, x2 = draw(k, rows, (2, 4), half)
        g2 = PairBatch(x1[:, :half], x2[:, :half], np.full(half, 2))
        g4 = PairBatch(x1[:, half:], x2[:, half:], np.full(half, 4))
        loss, model_grad[:, :split], model_grad[:, split:] = losses.adaptation_loss_and_grads(
            g2, g4, disc, enc, cls, fewshot, beta)
        model, model_state = nn.adam_step(model_state, model, model_grad)
        enc, cls = _finite(enc, model[:, :split]), _finite(cls, model[:, split:])
        record(k, "model_update", adaptation=loss, beta=beta)
        disc, disc_state, loss = disc_update(k, rows, disc_state)
        record(k, "disc_update", group_ce=loss)
    if steps == 0:
        return [TargetModel(enc=hypothesis.enc, cls=hypothesis.cls)] * count
    return [TargetModel(enc=nn.Net(enc.arch, e), cls=nn.Net(cls.arch, c))
            for e, c in zip(enc.params, cls.params)]


def adapt_pairwise(intermediate: LabeledPool, fewshot: FewShotSet,
                   hypothesis: SourceHypothesis, cfg: TohanConfig, *,
                   seed: int | None = None, trace: list | None = None) -> TargetModel:
    """Adversarial adaptation against a fixed intermediate pool.

    Starts from the source hypothesis and runs the shared schedule for
    cfg.adapt_epochs: discriminator pretraining, then one model update and
    one discriminator update per epoch. With adapt_epochs 0 the source nets
    are returned untouched.
    """
    if cfg.adapt_epochs == 0:
        return TargetModel(enc=hypothesis.enc, cls=hypothesis.cls)
    root = cfg.seed if seed is None else seed
    disc_seed, pair_seed = nn.derive_seeds(root, 2)
    block = _Block([intermediate] * cfg.adapt_epochs, disc_seed, pair_seed, trace)
    return _adapt([block], fewshot, hypothesis, cfg)[0]


def generate(hypothesis: SourceHypothesis, fewshot: FewShotSet, methods,
             cfg: TohanConfig, log: list | None = None) -> tuple[dict, list]:
    """One generator run for the listed methods, rooted at child 0 of
    derive_seeds(cfg.seed, 3), for cfg.total_epochs steps: a row block per
    objective they read, in source_only/target_only/combined order. Returns
    (bank per mode, the combined block's last cfg.adapt_epochs batches when
    tohan is listed); when no method reads a generator, nothing runs.
    ``log`` is as in _run_generators."""
    tohan = "tohan" in methods
    modes = tuple(mode for method, mode in TWO_STEP_MODES.items()  # in block order
                  if (method in methods and cfg.adapt_epochs > 0)
                  or (mode == "combined" and tohan))
    if not modes:
        return {}, []
    banks, kept = _run_generators(hypothesis, fewshot, modes, cfg,
                                  nn.derive_seeds(cfg.seed, 3)[0], cfg.total_epochs,
                                  {"combined": cfg.adapt_epochs} if tohan else None, log)
    return banks, kept.get("combined", [])


def adapt_generated(methods, run: tuple[dict, list], hypothesis: SourceHypothesis,
                    fewshot: FewShotSet, cfg: TohanConfig, *, traces: dict | None = None,
                    gen_log: list | None = None) -> dict[str, TargetModel]:
    """Adapt the listed generator methods from ``run``, a generate() result
    that covers them, as one stacked _adapt run; returns each method's model.

    tohan adapts over the kept batches, one pool per epoch, with its
    discriminator seeded by child 1 of derive_seeds(cfg.seed, 3) and its
    pairs by child 2. A two-step method adapts against one pool sampled from
    its objective's bank with child 1, seeded as adapt_pairwise with child
    2, so the two-step methods share one pair stream; at adapt_epochs 0 it
    keeps the source nets. ``traces`` maps a method to the list that
    receives its phase events; ``gen_log``, the run's log, adds tohan's
    generate events.
    """
    methods = list(methods)
    unknown = [m for m in methods if m not in GENERATOR_METHODS]
    if unknown or not methods:
        raise ConfigError(f"methods must be among {list(GENERATOR_METHODS)}, got {methods}")
    banks, kept = run
    traces = traces or {}
    _, first, second = nn.derive_seeds(cfg.seed, 3)
    models = dict.fromkeys(methods, TargetModel(enc=hypothesis.enc, cls=hypothesis.cls))
    blocks = {}
    for method in methods:
        if method == "tohan":
            blocks[method] = _Block([_labeled_pool(b) for b in kept], first, second,
                                    traces.get(method), gen_log)
        elif cfg.adapt_epochs > 0:
            pool = sample_pool(banks[TWO_STEP_MODES[method]], cfg.gen_batch, first)
            blocks[method] = _Block([pool] * cfg.adapt_epochs, *nn.derive_seeds(second, 2),
                                    traces.get(method))
    if blocks:
        models.update(zip(blocks, _adapt(list(blocks.values()), fewshot, hypothesis, cfg)))
    return models


def run_two_step(method: str, hypothesis: SourceHypothesis, fewshot: FewShotSet,
                 cfg: TohanConfig, *, trace: list | None = None) -> TargetModel:
    """Train a generator bank, freeze a pool, then adapt against it.

    ``method`` picks the generator objective: sfada (source term only),
    tfada (target term only), stfada (combined).
    """
    if method not in TWO_STEP_MODES:
        raise ConfigError(f"method must be one of {sorted(TWO_STEP_MODES)}")
    return adapt_generated([method], generate(hypothesis, fewshot, [method], cfg),
                           hypothesis, fewshot, cfg, traces={method: trace})[method]


def train_tohan(hypothesis: SourceHypothesis, fewshot: FewShotSet, cfg: TohanConfig,
                *, trace: list | None = None) -> TargetModel:
    """One-step adaptation: generators first, then adaptation over the kept batches.

    The generators train for cfg.total_epochs on the combined objective; the
    batches their final cfg.adapt_epochs steps were computed on are the
    pools of the shared adaptation schedule, one per epoch. The generator
    objective never reads the adapted model, so this equals interleaving the
    two loops, and the trace keeps the interleaved order.
    """
    gen_log = None if trace is None else []
    run = generate(hypothesis, fewshot, ["tohan"], cfg, gen_log)
    return adapt_generated(["tohan"], run, hypothesis, fewshot, cfg,
                           traces={"tohan": trace}, gen_log=gen_log)["tohan"]


def group_discriminator_accuracy(disc: nn.Net, enc: nn.Net, intermediate: LabeledPool,
                                 fewshot, per_group: int, seed: int) -> float:
    """Held-out group classification accuracy of a discriminator."""
    pairs = build_groups(intermediate, fewshot, per_group, seed)
    probs = disc(phi(enc, pairs.x1, pairs.x2))
    pred = np.argmax(probs, axis=1) + 1
    return float(np.mean(pred == pairs.group))


# ---------------------------------------------------------------------------
# model file round trips


def save_hypothesis(path, hypothesis: SourceHypothesis) -> None:
    nn.save_model(
        path,
        {"encoder": hypothesis.enc, "classifier": hypothesis.cls},
        hypothesis.seed,
        {
            "role": "source_hypothesis",
            "train_accuracy": hypothesis.train_accuracy,
            "test_accuracy": hypothesis.test_accuracy,
        },
    )


def load_hypothesis(path) -> SourceHypothesis:
    nets, seed, meta = nn.load_model(path)
    try:
        train_acc, test_acc = (float(meta.get(key, float("nan")))
                               for key in ("train_accuracy", "test_accuracy"))
    except (TypeError, ValueError) as exc:
        raise FormatError(f"model file accuracy is not a number: {exc}") from exc
    try:
        return SourceHypothesis(enc=nets["encoder"], cls=nets["classifier"], seed=seed,
                                train_accuracy=train_acc, test_accuracy=test_acc)
    except KeyError as exc:
        raise FormatError(f"model file lacks a net: {exc}") from exc
    except ConfigError as exc:
        raise FormatError(f"model file holds no source hypothesis: {exc}") from exc
