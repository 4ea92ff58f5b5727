"""Training routines: source fitting, the ft and shot baselines, the class
generators and the adaptation schedule the generator methods share (the
README's Methods section says what each method trains, and how
run_generator_methods runs them on every few-shot set of a seed in one
generator run and one stacked adaptation per set).

A stack equals its rows run alone, bit for bit: each row block of a
generator run equals its one-block run, and each row of an _adapt stack its
one-block run, trace included. A diverging block fails alone (_Adam), with
the NumericalError its one-block run raises; a stack stops stepping once
every block has failed, and returns each block's error.

The source fit and the ft and shot baselines share one fitting loop, _fit:
a softmax cross-entropy pass and an Adam step per batch, minibatches for
the source fit, the full few-shot batch with one source net frozen for the
baselines.

All routines are functional: the source hypothesis is never mutated (its
parameter arrays are read-only), and an update writes only into arrays its
routine allocated: each loop steps Adam (nn.adam_into) in place on its own
parameter and moment buffers, _fit on one net's, a stack through _Adam.
Equal seeds give bit-identical outputs.
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
    InsufficientDataError,
    NumericalError,
    QualityGateError,
)
from .pairing import ALL_GROUPS, LabeledPool, build_groups, check_pairs, draw_schedule, phi

TWO_STEP_MODES = {"sfada": "source_only", "tfada": "target_only", "stfada": "combined"}
GENERATOR_METHODS = (*TWO_STEP_MODES, "tohan")
METHODS = ("wa", "ft", "shot", *GENERATOR_METHODS)
_NOISE_CHUNK = 8  # generator steps of noise drawn at once: 96 KiB at 6 classes, B 32, z_dim 8


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
    before it. Every Adam (generators, model, discriminator) steps at
    ``lr``; the discriminator's moments restart when adaptation begins.
    ``hidden`` is the one hidden width of the generators and discriminator.
    """

    tradeoff: float = 0.2
    gen_batch: int = 32
    per_group: int = 16
    z_dim: int = 8
    hidden: int = 32
    total_epochs: int = 500
    disc_pretrain_epochs: int = 100
    adapt_epochs: int = 50
    lr: float = 1e-3
    seed: int = 0

    def __post_init__(self) -> None:
        nn._as_int_fields(self)
        if min(self.gen_batch, self.per_group, self.z_dim, self.hidden, self.total_epochs) < 1:
            raise ConfigError("batch sizes, widths, and total_epochs must be positive")
        if self.adapt_epochs < 0 or self.disc_pretrain_epochs < 0:
            raise ConfigError("epoch counts must be non-negative")
        if self.adapt_epochs >= self.total_epochs:
            raise ConfigError("adapt_epochs must be smaller than total_epochs")
        if self.tradeoff < 0:
            raise ConfigError("tradeoff must be non-negative")
        if self.lr <= 0:
            raise ConfigError("lr must be positive")


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
    return nn.ArchSpec((dim, width, width), head="linear")


def default_classifier_arch(width: int, num_classes: int) -> nn.ArchSpec:
    return nn.ArchSpec((width, num_classes), head="softmax")


def default_generator_arch(z_dim: int, dim: int, hidden: int = 32) -> nn.ArchSpec:
    return nn.ArchSpec((z_dim, hidden, dim), head="sigmoid")


def default_discriminator_arch(emb_width: int, hidden: int = 32) -> nn.ArchSpec:
    return nn.ArchSpec((2 * emb_width, hidden, 4), head="softmax")


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


def _fit(nets: tuple, params: np.ndarray, grad: np.ndarray, lr: float, batches,
         what: str) -> None:
    """The one fitting loop: per (x, pick) batch of ``batches``, one
    losses._softmax_ce pass over ``nets`` (its six net arguments, with
    ``params`` and ``grad`` bound into the trained ones) and one Adam step
    (nn.adam_into) of ``params`` in place. A refused step raises "<what>
    diverged (non-finite loss)" if the batch's loss, built only then, is not
    finite (a NaN true-class probability makes the gradient NaN too), else
    Adam's own error."""
    state = nn.AdamState.init(params.size, lr)
    for batch in batches:
        losses._softmax_ce(*nets, *batch, with_loss=False)
        try:
            nn.adam_into(state, params, grad)
        except NumericalError:
            if not math.isfinite(losses._softmax_ce(*nets, *batch)):
                raise NumericalError(f"{what} diverged (non-finite loss)") from None
            raise


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
    split, grad = enc_arch.n_params, np.empty(params.size)
    # checked once (the Dataset holds finite features of the encoder's width); _fit
    # runs the unchecked pass on views of params and grad bound once, and Adam
    # steps params in place, so the views stay valid
    y_train = losses._check_labels(y_train, (len(y_train), cls_arch.out_width))
    nets = (enc_arch, nn._layers(enc_arch, params[:split]), nn._layers(enc_arch, grad[:split]),
            cls_arch, nn._layers(cls_arch, params[split:]), nn._layers(cls_arch, grad[split:]))
    shuffle_rng = np.random.default_rng(shuffle_seed)
    n, size = x_train.shape[0], cfg.batch_size
    # row r of the epoch is row r % size of its batch: its flat label pick
    # (losses._flat_pick) is that row's offset plus its label
    rows = np.arange(n) % size * cls_arch.out_width
    x_epoch, pick_epoch = np.empty_like(x_train), np.empty_like(y_train)

    def batches():
        for _ in range(cfg.epochs):
            order = shuffle_rng.permutation(n)
            # each epoch's permuted rows and picks, built once; batches are slices of them
            np.take(x_train, order, axis=0, out=x_epoch)
            np.take(y_train, order, out=pick_epoch)
            np.add(pick_epoch, rows, out=pick_epoch)
            for start in range(0, n, size):
                yield x_epoch[start:start + size], pick_epoch[start:start + size]

    _fit(nets, params, grad, cfg.lr, batches(), "source training")
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


def _fit_few_shots(hypothesis: SourceHypothesis, fewshot: FewShotSet, cfg: BaselineConfig,
                   method: str) -> TargetModel:
    """Fit one source net on the few-shots (full batch) with the other frozen:
    the classifier for ft, the encoder for shot."""
    nets = {"enc": hypothesis.enc, "cls": hypothesis.cls}
    name = "cls" if method == "ft" else "enc"
    arch = nets[name].arch
    params, grad = np.array(nets[name].params), np.empty(arch.n_params)
    x = nn._check_batch(hypothesis.enc.arch, fewshot.features, hypothesis.enc.params)
    pick = losses._label_pick(fewshot.labels, (len(x), hypothesis.cls.arch.out_width))
    # as in train_source; the frozen net builds no parameter gradient
    bound = {key: (net.arch, net.layers, None) for key, net in nets.items()}
    bound[name] = (arch, nn._layers(arch, params), nn._layers(arch, grad))
    _fit((*bound["enc"], *bound["cls"]), params, grad, cfg.lr, [(x, pick)] * cfg.epochs,
         f"{method} training")
    return TargetModel(**{**nets, name: nn.Net(arch, params)})


def train_ft(hypothesis: SourceHypothesis, fewshot: FewShotSet,
             cfg: BaselineConfig) -> TargetModel:
    """Freeze the encoder, fit the classifier on the few-shots (full batch)."""
    return _fit_few_shots(hypothesis, fewshot, cfg, "ft")


def train_shot(hypothesis: SourceHypothesis, fewshot: FewShotSet,
               cfg: BaselineConfig) -> TargetModel:
    """Freeze the classifier, fit the encoder on the few-shots (full batch)."""
    return _fit_few_shots(hypothesis, fewshot, cfg, "shot")


# ---------------------------------------------------------------------------
# generators


class _Adam:
    """Adam on ``params``, a stack of blocks along its first axis, stepped in
    place (nn.adam_into). A block whose gradient nn.adam_into would refuse,
    or whose new parameters are not finite, goes into ``failed`` (which the
    stacks of one run may share) with its one-block run's NumericalError,
    and its parameters and moments are zeroed, so no later stacked pass reads
    inf or NaN. A block in ``failed`` steps on a zero gradient, which keeps
    zero blocks zero; Adam being elementwise, the other blocks keep their
    bits. A step never raises: its loop stops stepping once every block is
    in ``failed``."""

    def __init__(self, params: np.ndarray, lr: float, failed: dict):
        self.params, self.lr, self.failed = params, lr, failed
        self.state = None

    def step(self, grad: np.ndarray) -> None:
        if self.state is None:
            # allocated at the first step, while that step's temporaries are live:
            # allocated up front, they cost an adaptation 10-30x the minor page
            # faults (by all appearances glibc trimming the freed temporaries off
            # the heap top after every step)
            self.state = nn.AdamState.init(self.params.shape, self.lr)
        params, state, failed = self.params, self.state, self.failed
        if failed:
            grad[list(failed)] = 0.0
        try:
            nn.adam_into(state, params, grad)
        except NumericalError:  # nothing written: step again without those blocks' gradients
            peak = np.abs(grad).reshape(len(grad), -1).max(axis=1)
            bad_grad = ~(peak <= nn._G_MAX)
            grad[bad_grad] = 0.0
            nn.adam_into(state, params, grad)
        else:
            if np.isfinite(params).all():
                return
            bad_grad = np.zeros(len(params), dtype=bool)
        bad = bad_grad | ~np.isfinite(params).reshape(len(params), -1).all(axis=1)
        for m in np.flatnonzero(bad):
            failed.setdefault(int(m), nn._refused(peak[m]) if bad_grad[m]
                              else NumericalError("network parameters must be finite"))
        params[bad] = state.m[bad] = state.v[bad] = 0.0


def _raised(result):
    """A one-block run's bank or model, or raise its block's NumericalError."""
    if isinstance(result, NumericalError):
        raise result
    return result


def _run_generators(hypothesis: SourceHypothesis, blocks, cfg: TohanConfig, root: int,
                    epochs: int, keep: dict | None = None,
                    logs: dict | None = None) -> tuple[list, dict]:
    """Train the class generators of every block in ``blocks``, an
    (objective, few-shot set or None) pair each, as one (M, N, P) stack in one
    buffer with one Adam state and one losses.generator_plan: block m,
    stack[m], holds the N generators on objective blocks[m][0] and its
    few-shots, row n for class n. The plan reads the stack's (M*N, P) view,
    and _Adam steps it block by block along its first axis.

    Seeds follow derive_seeds(root, 2 * num_classes): child 2n initializes
    generator n and child 2n + 1 drives its noise stream, drawn in class order.
    Every block starts from the same init rows and reads the same noise, so
    each block follows its one-block run bit for bit. Returns each block's
    trained bank, or its own NumericalError (_Adam) if it failed, in block
    order, and, for each block m in ``keep``, the (N, gen_batch, dim) batches
    of its last keep[m] steps. ``logs`` maps a block to the list that
    receives its initial digest, then one (loss mean, digest) of the block
    per step; the step losses are built only for a logged run.
    """
    num_classes, count = hypothesis.cls.arch.out_width, len(blocks)
    child = nn.derive_seeds(root, 2 * num_classes)
    arch = default_generator_arch(cfg.z_dim, hypothesis.enc.arch.in_width, cfg.hidden)
    init = np.stack([nn.init_params(arch, child[2 * n]) for n in range(num_classes)])
    stack = np.tile(init, (count, 1, 1))
    noise = [np.random.default_rng(child[2 * n + 1]) for n in range(num_classes)]
    # the plan refuses a target block without the shots of every class
    targets = [None if fs is None or fs.num_classes < num_classes else
               np.stack([fs.class_features(n) for n in range(num_classes)]).astype(np.float64)
               for _, fs in blocks]
    plan = losses.generator_plan(tuple(mode for mode, _ in blocks), num_classes, targets,
                                 cfg.tradeoff, cfg.gen_batch)
    keep, logs = keep or {}, logs or {}
    kept, failed = {m: [] for m in keep}, {}
    adam = _Adam(stack, cfg.lr, failed)
    for m, log in logs.items():
        log.append(_digest(stack[m]))
    for epoch in range(epochs):
        if len(failed) == count:  # no block left to step
            break
        if epoch % _NOISE_CHUNK == 0:  # the same stream as one (B, z_dim) draw per step
            # The tile (672 KiB at grid6's 7 blocks of 6 classes) also keeps glibc from
            # handing the step temporaries' memory back and faulting it in again: one
            # (M*N, B, z_dim) buffer per run, drawn into each step, took 69k-101k minor
            # page faults per 7-block grid6 run against 0.5k-1.2k once a first run has
            # grown the heap, and 0.79-0.92 s against 0.68-0.83 s (resource.getrusage,
            # 4 runs each in one process, 2-CPU VM).
            steps = min(_NOISE_CHUNK, epochs - epoch)
            chunk = np.tile(np.stack([rng.standard_normal((steps, cfg.gen_batch, cfg.z_dim))
                                      for rng in noise], axis=1), (1, count, 1, 1))
        step_losses, grad, generated = losses.generator_objective_and_grad(
            arch, stack.reshape(-1, arch.n_params), hypothesis.enc, hypothesis.cls,
            chunk[epoch % _NOISE_CHUNK], plan, with_loss=bool(logs))
        adam.step(grad.reshape(stack.shape))
        for m, steps_kept in keep.items():
            if epoch >= epochs - steps_kept:
                # a copy, so the other blocks' batches are not kept alive
                kept[m].append(generated[m * num_classes:(m + 1) * num_classes].copy())
        for m, log in logs.items():
            log.append((float(np.mean(step_losses.reshape(count, -1)[m])), _digest(stack[m])))
    return [failed.get(m) or GeneratorBank(arch, stack[m]) for m in range(count)], kept


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
    return _raised(_run_generators(hypothesis, [(mode, fewshot)], cfg, root,
                                   cfg.total_epochs if epochs is None else epochs)[0][0])


def sample_pool(bank: GeneratorBank, per_class: int, seed: int) -> LabeledPool:
    """Generate a labeled intermediate pool: per_class samples per generator,
    from one (N, per_class, z_dim) noise draw through the stacked bank."""
    if per_class < 1:
        raise ConfigError("per_class must be positive")
    z = np.random.default_rng(seed).standard_normal(
        (bank.num_classes, per_class, bank.arch.in_width))
    generated = nn.forward(bank.arch, bank.params, z)
    return LabeledPool(generated.reshape(-1, generated.shape[-1]),
                       np.repeat(np.arange(bank.num_classes), per_class))


# ---------------------------------------------------------------------------
# pairwise adaptation


class _Block(NamedTuple):
    """One adaptation of a stacked _adapt run."""

    pools: list  # one (R, dim) array of rows per epoch, labeled by _adapt's labels
    disc_seed: int
    pair_seed: int
    trace: list | None = None
    gen_log: list | None = None


class _Stack(NamedTuple):
    """An (M, P) parameter stack, read by the losses as M nets of ``arch``."""

    arch: nn.ArchSpec
    params: np.ndarray


def _adapt(blocks: list[_Block], labels: np.ndarray, fewshot: FewShotSet,
           hypothesis: SourceHypothesis, cfg: TohanConfig) -> list[TargetModel | NumericalError]:
    """The adaptation schedule of the two-step and one-step methods, for M
    blocks at once: row m of an (M, P) stack each of encoder + classifier
    models and of discriminators is block m's, each stack one buffer for the
    whole run with one Adam state.

    Each block starts from the source nets and a discriminator seeded by its
    disc_seed, and holds one intermediate pool per epoch: its (R, dim) rows,
    row r labeled labels[r] in every pool of every block. The discriminator
    is pretrained for cfg.disc_pretrain_epochs against the first; then each
    epoch runs one model update (discriminator frozen) and one discriminator
    update (encoder frozen) against its own pool. The pair draws read only
    the labels, so each pair_seed's stream draws the whole schedule before
    the first update, and its blocks gather from their own pools: the model
    update its pair rows, the pretraining updates their pair embeddings from
    one embedding of the pool and few-shot rows, and each later
    discriminator update embeds its pair rows in one pass. A stacked row
    gets the bits it gets alone, so block m ends, or fails (_Adam) with its
    NumericalError, and traces as its one-block run; the run stops stepping
    once every block has failed. A trace gets its row's digests; with
    ``gen_log``, its generator block's log, it keeps the interleaved order:
    a generate event per step, the last len(pools) opening the epochs.
    """
    steps, count = len(blocks[0].pools), len(blocks)
    half = 2 * cfg.per_group  # model-update pairs per cross-domain group
    if steps:  # the one check for every draw below: all pools share these labels
        for group_ids, per_group in ((ALL_GROUPS, cfg.per_group), ((2, 4), half)):
            check_pairs(LabeledPool(blocks[0].pools[0], labels), fewshot, group_ids, per_group)
    # one (M, P_enc + P_cls) model stack under one Adam state; enc and cls view its halves
    split = hypothesis.enc.arch.n_params
    model = np.tile(np.concatenate([hypothesis.enc.params, hypothesis.cls.params]), (count, 1))
    enc = _Stack(hypothesis.enc.arch, model[:, :split])
    cls = _Stack(hypothesis.cls.arch, model[:, split:])
    disc_arch = default_discriminator_arch(enc.arch.out_width, cfg.hidden)
    disc = _Stack(disc_arch, np.stack([nn.init_params(disc_arch, b.disc_seed) for b in blocks]))
    seeds = list(dict.fromkeys(b.pair_seed for b in blocks))  # one pair stream per seed
    pretrain = [(ALL_GROUPS, cfg.per_group)] * cfg.disc_pretrain_epochs if steps else []
    schedule = pretrain + [((2, 4), half), (ALL_GROUPS, cfg.per_group)] * steps
    # draw d of each block's stream: (M, 2, 4 * per_group) index pairs, into its
    # pool (ia) and into its pool followed by the few-shots (ib)
    draws = iter(draw_schedule(labels, fewshot.labels, schedule, seeds)[
        [seeds.index(b.pair_seed) for b in blocks]].swapaxes(0, 1))
    block_rows = np.arange(count)[:, None]
    x_t = np.asarray(fewshot.features, dtype=np.float64)
    groups = np.repeat(ALL_GROUPS, cfg.per_group)

    def disc_update(embed):  # embed: indices into ``rows`` -> frozen-encoder rows
        if len(failed) == count:  # no block left to step
            return None
        emb = embed(next(draws).reshape(count, -1))
        joint = np.concatenate([emb[:, :groups.size], emb[:, groups.size:]], axis=-1)
        loss, grad = losses.group_ce_and_disc_grad(disc, joint, groups)
        disc_adam.step(grad)
        return loss

    traced = [m for m, b in enumerate(blocks) if b.trace is not None]
    failed = {}  # block -> its NumericalError, for the model and discriminator steps
    gens = [None if b.gen_log is None else b.gen_log[0] for b in blocks]
    leads = [0 if b.gen_log is None else len(b.gen_log) - 1 - steps for b in blocks]
    dm_size = float(cfg.gen_batch * cls.arch.out_width)

    def event(m, epoch, phase, values):
        digests = {"enc": _digest(enc.params[m]), "cls": _digest(cls.params[m]),
                   "disc": _digest(disc.params[m])}
        if gens[m] is not None:
            digests["gens"] = gens[m]
        blocks[m].trace.append(PhaseEvent(epoch, phase, values, digests))

    def generate_events(m, epochs):
        """Block m's generate events of ``epochs``, read from its generator log."""
        gen_log = blocks[m].gen_log
        for epoch in () if gen_log is None else epochs:
            gen_loss_mean, gens[m] = gen_log[epoch + 1]
            event(m, epoch, "generate", {"gen_loss_mean": gen_loss_mean, "dm_size": dm_size})

    def record(k, phase, **values):  # a per-block value is an (M,) array
        for m in (m for m in traced if m not in failed):
            event(m, leads[m] + k, phase,
                  {key: float(v[m]) if np.ndim(v) else v for key, v in values.items()})

    for m in traced:
        event(m, -1, "init", {})
        generate_events(m, range(leads[m]))
    model_adam = _Adam(model, cfg.lr, failed)
    model_grad = np.empty(model.shape)
    for k in range(steps):
        for m in (m for m in traced if m not in failed):
            generate_events(m, [leads[m] + k])
        # each block's pool rows, then the few-shots: the order the draws index
        feats = np.stack([b.pools[k] for b in blocks])
        rows = np.concatenate([feats, np.broadcast_to(x_t, (count,) + x_t.shape)], axis=1)
        if k == 0:  # pretraining reads the source encoder: embed its rows once
            emb = nn.forward(enc.arch, enc.params, rows) if cfg.disc_pretrain_epochs else None
            disc_adam = _Adam(disc.params, cfg.lr, failed)
            for _ in range(cfg.disc_pretrain_epochs):
                loss = disc_update(lambda i: emb[block_rows, i])
                record(k, "pretrain_disc", group_ce=loss)
            disc_adam = _Adam(disc.params, cfg.lr, failed)
            del emb  # up to 240 KB, unread after pretraining
        if len(failed) == count:  # no block left to step
            break
        beta = losses.beta_schedule(k / steps)
        ia, ib = next(draws).swapaxes(0, 1)
        loss, model_grad[:, :split], model_grad[:, split:] = losses.adaptation_loss_and_grads(
            rows[block_rows, ia], rows[block_rows, ib], disc, enc, cls, fewshot, beta)
        model_adam.step(model_grad)
        record(k, "model_update", adaptation=loss, beta=beta)
        # one update per encoder state: embed just its pair rows, in one pass
        loss = disc_update(lambda i: nn.forward(enc.arch, enc.params, rows[block_rows, i]))
        record(k, "disc_update", group_ce=loss)
    if steps == 0:
        return [TargetModel(enc=hypothesis.enc, cls=hypothesis.cls)] * count
    return [failed.get(m) or TargetModel(enc=nn.Net(enc.arch, e), cls=nn.Net(cls.arch, c))
            for m, (e, c) in enumerate(zip(enc.params, cls.params))]


def adapt_pairwise(intermediate: LabeledPool, fewshot: FewShotSet,
                   hypothesis: SourceHypothesis, cfg: TohanConfig, *,
                   trace: list | None = None) -> TargetModel:
    """Adversarial adaptation against a fixed intermediate pool.

    Starts from the source hypothesis and runs the shared schedule for
    cfg.adapt_epochs: discriminator pretraining, then one model update and
    one discriminator update per epoch. With adapt_epochs 0 the source nets
    are returned untouched.
    """
    block = _Block([intermediate.features] * cfg.adapt_epochs, *nn.derive_seeds(cfg.seed, 2),
                   trace)
    return _raised(_adapt([block], intermediate.labels, fewshot, hypothesis, cfg)[0])


def run_generator_methods(methods, hypothesis: SourceHypothesis, fewshots, cfg: TohanConfig, *,
                          traces=None) -> list[dict[str, TargetModel | NumericalError]]:
    """Run the listed generator methods on each few-shot set of ``fewshots``
    (one seed's sets, one per shot count) as one generator run, then one
    stacked _adapt run per set; returns, per set, each method's model or its
    own NumericalError: its bank's if that failed, else its adaptation
    row's (the error its one-method run raises). A block's failure costs no
    other block, even when every block of a stack fails.

    The generator run is rooted at child 0 of derive_seeds(cfg.seed, 3) and
    takes cfg.total_epochs steps, with a row block per objective the methods
    read: the source_only block once, since it reads no few-shots, then the
    target_only and combined blocks of each set in turn. A two-step method
    reads its objective's bank when cfg.adapt_epochs > 0 (at 0 it keeps the
    source nets), tohan always reads its set's combined block. tohan adapts
    over that block's last cfg.adapt_epochs batches, one pool per epoch, with
    its discriminator seeded by child 1 and its pairs by child 2. A two-step
    method adapts against one pool sampled from its bank with child 1,
    seeded as adapt_pairwise with child 2, so the two-step methods share one
    pair stream. ``traces``, one dict per set, maps a method to the list that
    receives its phase events on that set; a traced tohan gets its block's
    generate events too.
    """
    methods = list(methods)
    unknown = [m for m in methods if m not in GENERATOR_METHODS]
    if unknown or not methods:
        raise ConfigError(f"methods must be among {list(GENERATOR_METHODS)}, got {methods}")
    fewshots = [] if isinstance(fewshots, FewShotSet) else list(fewshots)
    traces = [{}] * len(fewshots) if traces is None else [t or {} for t in traces]
    if not fewshots or len(traces) != len(fewshots):
        raise ConfigError("need one or more few-shot sets, with one traces dict (or None) each")
    root, first, second = nn.derive_seeds(cfg.seed, 3)
    tohan = "tohan" in methods
    reads = [mode for method, mode in TWO_STEP_MODES.items()  # in block order
             if (method in methods and cfg.adapt_epochs > 0) or (mode == "combined" and tohan)]
    blocks, block_of = [], [{} for _ in fewshots]  # per set, each mode's block
    for i, fewshot in enumerate(fewshots):
        for mode in reads:
            if mode == "source_only" and i:  # it reads no few-shots: one block serves every set
                block_of[i][mode] = block_of[0][mode]
            else:
                block_of[i][mode] = len(blocks)
                blocks.append((mode, None if mode == "source_only" else fewshot))
    gen_logs = [None if t.get("tohan") is None else [] for t in traces]
    combined = [of["combined"] for of in block_of] if tohan else []
    banks, kept = _run_generators(
        hypothesis, blocks, cfg, root, cfg.total_epochs, dict.fromkeys(combined, cfg.adapt_epochs),
        {m: log for m, log in zip(combined, gen_logs) if log is not None}) if blocks else ([], {})
    # the labels of every pool: a kept batch or a sampled pool, gen_batch rows per class
    labels = np.repeat(np.arange(hypothesis.cls.arch.out_width), cfg.gen_batch)
    results = []
    for i, (fewshot, trace) in enumerate(zip(fewshots, traces)):
        models = dict.fromkeys(methods, TargetModel(enc=hypothesis.enc, cls=hypothesis.cls))
        adapting = {}
        for method in methods:
            block = block_of[i].get("combined" if method == "tohan" else TWO_STEP_MODES[method])
            bank = None if block is None else banks[block]
            if isinstance(bank, NumericalError):
                models[method] = bank
            elif method == "tohan":
                pools = [b.reshape(labels.size, -1) for b in kept[block]]
                adapting[method] = _Block(pools, first, second, trace.get(method), gen_logs[i])
            elif cfg.adapt_epochs > 0:
                pool = sample_pool(bank, cfg.gen_batch, first).features
                adapting[method] = _Block([pool] * cfg.adapt_epochs, *nn.derive_seeds(second, 2),
                                          trace.get(method))
        if adapting:
            models.update(zip(adapting, _adapt(list(adapting.values()), labels, fewshot,
                                               hypothesis, cfg)))
        results.append(models)
    return results


def _one_method(method: str, hypothesis: SourceHypothesis, fewshot: FewShotSet,
                cfg: TohanConfig, trace: list | None) -> TargetModel:
    """run_generator_methods of one method on one set; raises its error."""
    return _raised(run_generator_methods([method], hypothesis, [fewshot], cfg,
                                         traces=[{method: trace}])[0][method])


def run_two_step(method: str, hypothesis: SourceHypothesis, fewshot: FewShotSet,
                 cfg: TohanConfig, *, trace: list | None = None) -> TargetModel:
    """Train a generator bank, freeze a pool, then adapt against it.

    ``method`` picks the generator objective: sfada (source term only),
    tfada (target term only), stfada (combined).
    """
    if method not in TWO_STEP_MODES:
        raise ConfigError(f"method must be one of {sorted(TWO_STEP_MODES)}")
    return _one_method(method, hypothesis, fewshot, cfg, trace)


def train_tohan(hypothesis: SourceHypothesis, fewshot: FewShotSet, cfg: TohanConfig,
                *, trace: list | None = None) -> TargetModel:
    """One-step adaptation: generators first, then adaptation over the kept batches.

    The generators train for cfg.total_epochs on the combined objective; the
    batches their final cfg.adapt_epochs steps were computed on are the
    pools of the shared adaptation schedule, one per epoch. The generator
    objective never reads the adapted model, so this equals interleaving the
    two loops, and the trace keeps the interleaved order.
    """
    return _one_method("tohan", hypothesis, fewshot, cfg, trace)


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
