"""Synthetic covariate-shift tasks, the few-shot protocol, and dataset I/O.

A task is a Gaussian mixture in feature space; the target domain is the same
mixture pushed through a rigid transform (rotation about the population
centroid, then translation). All splits are rescaled through one shared
affine map into the unit cube so distances are comparable across domains and
the L1-diameter constant of the generator objective is well defined.

Datasets serialize to a little-endian binary format: magic ``FHD1``, then
u32 sample count, u32 feature dim, u32 class count, the float32 feature
matrix in row-major order, and one u32 label per sample.
"""

from __future__ import annotations

import struct
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    FormatError,
    InsufficientDataError,
    MissingClassError,
    ProtocolError,
)
from .nn import _as_int_fields

MAGIC = b"FHD1"
MAX_SHOTS = 7
# elements (classes x per-class count x dim) of one split: 80 MB of float64 draws, and
# thousands of times the builtin tasks' largest; past it a split is a usage error
# rather than a MemoryError in every seed
MAX_SPLIT_ELEMENTS = 10**7
_HEADER = struct.Struct("<4sIII")


@dataclass(frozen=True)
class Dataset:
    """A labeled sample set with features in [0, 1]^d.

    features: (n, d) float32, every entry in [0, 1].
    labels:   (n,) integers in [0, num_classes).
    """

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self) -> None:
        feats = np.ascontiguousarray(self.features, dtype=np.float32)
        labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if feats.ndim != 2:
            raise ConfigError("features must be a 2-d array")
        if labels.ndim != 1 or labels.shape[0] != feats.shape[0]:
            raise ConfigError("labels must be 1-d and aligned with features")
        if self.num_classes < 2:
            raise ConfigError("num_classes must be at least 2")
        if labels.size and (labels.min() < 0 or labels.max() >= self.num_classes):
            raise ConfigError("labels must lie in [0, num_classes)")
        if not np.all((feats >= 0.0) & (feats <= 1.0)):  # NaN fails both
            raise ConfigError("features must lie in [0, 1]")
        feats.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def class_indices(self, label: int) -> np.ndarray:
        return np.flatnonzero(self.labels == label)


def _finite(values, what: str) -> np.ndarray:
    """``values`` as an array, or ConfigError unless every entry is a finite number."""
    try:
        arr = np.asarray(values)
    except ValueError as exc:  # ragged nesting
        raise ConfigError(f"{what} must be numeric and finite") from exc
    if arr.dtype.kind not in "iuf" or not np.all(np.isfinite(arr)):
        raise ConfigError(f"{what} must be numeric and finite")
    return arr


def _check_n_t(n_t: int) -> None:
    """ProtocolError unless the shot count ``n_t`` is in 1..MAX_SHOTS."""
    if not 1 <= n_t <= MAX_SHOTS:
        raise ProtocolError(f"n_t must be in [1, {MAX_SHOTS}], got {n_t}")


@dataclass(frozen=True)
class TaskSpec:
    """Parameters of one synthetic task.

    ``class_means`` is an (N, d) nested tuple in pre-rescale coordinates and
    ``class_scales`` holds one isotropic standard deviation per class (a
    per-dimension tuple is accepted for diagonal covariances). The target
    domain applies ``rotation_deg`` in the plane of the first two features,
    about the mean of the class means, followed by ``translation``.
    """

    name: str
    num_classes: int
    dim: int
    class_means: tuple[tuple[float, ...], ...]
    class_scales: tuple = ()
    rotation_deg: float = 0.0
    translation: tuple[float, ...] | None = None
    source_per_class: int = 100
    target_per_class: int = 50
    test_per_class: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        _as_int_fields(self)
        if self.num_classes < 2:
            raise ConfigError("a task needs at least 2 classes")
        if self.dim < 1:
            raise ConfigError("feature dimension must be positive")
        if not hasattr(self.class_means, "__len__") or len(self.class_means) != self.num_classes:
            raise ConfigError("class_means must list one mean per class")
        if any(_finite(m, "class means").shape != (self.dim,) for m in self.class_means):
            raise ConfigError("every class mean must have length dim")
        scales = self.class_scales or tuple(1.0 for _ in range(self.num_classes))
        if not hasattr(scales, "__len__") or len(scales) != self.num_classes:
            raise ConfigError("class_scales must list one scale per class")
        for s in scales:
            arr = np.atleast_1d(_finite(s, "class scales"))
            if arr.ndim != 1 or arr.size not in (1, self.dim):
                raise ConfigError("each class scale must be a scalar or a length-d vector")
            if np.any(arr <= 0):
                raise ConfigError("class scales must be positive")
        object.__setattr__(self, "class_scales", tuple(scales))
        if _finite(self.rotation_deg, "rotation_deg").shape != ():
            raise ConfigError("rotation_deg must be a number")
        if self.rotation_deg != 0.0 and self.dim < 2:
            raise ConfigError("rotation needs at least 2 feature dimensions")
        if (self.translation is not None
                and _finite(self.translation, "translation").shape != (self.dim,)):
            raise ConfigError("translation must have length dim")
        if min(self.source_per_class, self.target_per_class, self.test_per_class) < 1:
            raise ConfigError("per-class sample counts must be positive")
        for name in ("source_per_class", "target_per_class", "test_per_class"):
            if self.num_classes * getattr(self, name) * self.dim > MAX_SPLIT_ELEMENTS:
                raise ConfigError(f"{name} gives a split too large: over "
                                  f"{MAX_SPLIT_ELEMENTS:,} elements (classes x count x dim)")
        # a standard normal draw stays under 14 in size (numpy's ziggurat tail), so no
        # draw passes |mean| + 16 scale; with the translation kept under float64's
        # max / (64 N), the draws, the centroid, the rotation and the rescale stay finite
        reach = {"class_means": float(np.max(np.abs(self.class_means))),
                 "class_scales": 16.0 * max(float(np.max(s)) for s in scales),
                 "translation": 0.0 if self.translation is None
                 else float(np.max(np.abs(self.translation)))}
        if sum(reach.values()) > sys.float_info.max / (64 * self.num_classes):
            raise ConfigError(f"{max(reach, key=reach.get)} too large: the task's draws "
                              "would overflow float64")


@dataclass(frozen=True)
class FewShotSet:
    """The labeled target budget: n_t samples per class, 1 <= n_t <= 7.

    Rows are grouped by class (class 0 first). ``indices`` are row numbers
    into the target training dataset the samples were drawn from.
    """

    features: np.ndarray
    labels: np.ndarray
    indices: np.ndarray
    n_t: int
    num_classes: int

    def __post_init__(self) -> None:
        feats = np.ascontiguousarray(self.features, dtype=np.float32)
        labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        idx = np.ascontiguousarray(self.indices, dtype=np.int64)
        _check_n_t(self.n_t)
        expected = self.n_t * self.num_classes
        if feats.shape[0] != expected or labels.shape[0] != expected:
            raise ProtocolError("few-shot set must hold exactly n_t samples per class")
        counts = np.bincount(labels, minlength=self.num_classes)
        if not np.all(counts == self.n_t):
            raise ProtocolError("every class must contribute exactly n_t samples")
        for arr in (feats, labels, idx):
            arr.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "indices", idx)

    def class_features(self, label: int) -> np.ndarray:
        return self.features[self.labels == label]


def _class_scale(spec: TaskSpec, c: int) -> np.ndarray:
    return np.broadcast_to(
        np.atleast_1d(np.asarray(spec.class_scales[c], dtype=np.float64)), (spec.dim,)
    )


def _draw_mixture(rng: np.random.Generator, spec: TaskSpec, per_class: int):
    feats, labels = [], []
    for c in range(spec.num_classes):
        mean = np.asarray(spec.class_means[c], dtype=np.float64)
        block = mean + _class_scale(spec, c) * rng.standard_normal((per_class, spec.dim))
        feats.append(block)
        labels.append(np.full(per_class, c, dtype=np.int64))
    return np.concatenate(feats), np.concatenate(labels)


def _rotation_matrix(dim: int, degrees: float) -> np.ndarray:
    theta = np.deg2rad(degrees)
    rot = np.eye(dim)
    rot[0, 0] = np.cos(theta)
    rot[0, 1] = -np.sin(theta)
    rot[1, 0] = np.sin(theta)
    rot[1, 1] = np.cos(theta)
    return rot


def _target_transform(spec: TaskSpec, x: np.ndarray) -> np.ndarray:
    out = x
    if spec.rotation_deg != 0.0:
        centroid = np.mean(np.asarray(spec.class_means, dtype=np.float64), axis=0)
        rot = _rotation_matrix(spec.dim, spec.rotation_deg)
        out = (out - centroid) @ rot.T + centroid
    if spec.translation is not None:
        out = out + np.asarray(spec.translation, dtype=np.float64)
    return out


def make_synthetic_task(spec: TaskSpec) -> tuple[Dataset, Dataset, Dataset]:
    """Draw (source, target_train, target_test) for a task spec.

    Deterministic: the same spec (seed included) gives bit-identical splits.
    The three splits share one min-max rescale into [0, 1]^d, computed over
    their union, so the source/target geometry is preserved.
    """
    rng = np.random.default_rng(spec.seed)
    src_x, src_y = _draw_mixture(rng, spec, spec.source_per_class)
    tgt_x, tgt_y = _draw_mixture(rng, spec, spec.target_per_class)
    tst_x, tst_y = _draw_mixture(rng, spec, spec.test_per_class)
    tgt_x = _target_transform(spec, tgt_x)
    tst_x = _target_transform(spec, tst_x)

    pooled = np.concatenate([src_x, tgt_x, tst_x])
    lo = pooled.min(axis=0)
    hi = pooled.max(axis=0)
    span = hi - lo

    def rescale(x: np.ndarray) -> np.ndarray:
        scaled = np.where(span > 0.0, (x - lo) / np.where(span > 0.0, span, 1.0), 0.5)
        return np.clip(scaled, 0.0, 1.0).astype(np.float32)

    n = spec.num_classes
    return (
        Dataset(rescale(src_x), src_y, n),
        Dataset(rescale(tgt_x), tgt_y, n),
        Dataset(rescale(tst_x), tst_y, n),
    )


def sample_few_shot(target: Dataset, n_t: int, seed: int) -> FewShotSet:
    """Draw n_t labeled samples per class from the target training split.

    Stratified, without replacement, deterministic under the seed. n_t above
    7 violates the protocol; n_t above a class population is insufficient
    data.
    """
    if not isinstance(n_t, (int, np.integer)) or isinstance(n_t, bool):
        raise ProtocolError("n_t must be an integer")
    _check_n_t(n_t)
    rng = np.random.default_rng(seed)
    picks = []
    for c in range(target.num_classes):
        idx = target.class_indices(c)
        if idx.size == 0:
            raise MissingClassError(f"target split has no samples of class {c}")
        if idx.size < n_t:
            raise InsufficientDataError(
                f"class {c} has {idx.size} target samples, fewer than n_t={n_t}"
            )
        picks.append(rng.choice(idx, size=n_t, replace=False))
    indices = np.concatenate(picks)
    return FewShotSet(
        features=target.features[indices],
        labels=target.labels[indices],
        indices=indices,
        n_t=int(n_t),
        num_classes=target.num_classes,
    )


def save_dataset(ds: Dataset, path) -> None:
    """Write a dataset in the FHD1 binary format (bit-exact round trip)."""
    header = _HEADER.pack(MAGIC, ds.n, ds.dim, ds.num_classes)
    feats = np.ascontiguousarray(ds.features, dtype="<f4").tobytes()
    labels = np.ascontiguousarray(ds.labels, dtype="<u4").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(feats)
        fh.write(labels)


def load_dataset(path) -> Dataset:
    """Read an FHD1 file, rejecting wrong magic, truncation, or bad labels."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise FormatError("dataset file shorter than its header")
    magic, n, dim, num_classes = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    expected = _HEADER.size + 4 * n * dim + 4 * n
    if len(blob) != expected:
        raise FormatError(
            f"dataset file has {len(blob)} bytes, expected {expected} for n={n}, d={dim}"
        )
    feats = np.frombuffer(blob, dtype="<f4", count=n * dim, offset=_HEADER.size)
    labels = np.frombuffer(blob, dtype="<u4", count=n, offset=_HEADER.size + 4 * n * dim)
    if labels.size and labels.max() >= num_classes:
        raise FormatError("label outside [0, num_classes)")
    try:
        return Dataset(
            feats.reshape(n, dim).astype(np.float32),
            labels.astype(np.int64),
            int(num_classes),
        )
    except ConfigError as exc:
        raise FormatError(f"dataset file contents invalid: {exc}") from exc


def _circle_means(num_classes: int, radius: float, phase_deg: float = 90.0) -> tuple:
    angles = np.deg2rad(phase_deg + 360.0 * np.arange(num_classes) / num_classes)
    return tuple((radius * float(np.cos(a)), radius * float(np.sin(a))) for a in angles)


# name -> (class means, the scale of every class, the target shift); every
# builtin task is 2-d with 100/60/300 source/target/test samples per class
_BUILTIN_TASKS = {
    "rot40": (_circle_means(3, 0.8), 0.35, {"rotation_deg": 40.0}),
    "rot20": (_circle_means(3, 0.8), 0.35, {"rotation_deg": 20.0}),
    "rot180": (((-0.7, 0.0), (0.7, 0.0)), 0.25, {"rotation_deg": 180.0}),
    "shift": (((-0.6, -0.3), (0.6, 0.3)), 0.3, {"translation": (0.5, 0.5)}),
    "blobs": (_circle_means(3, 0.8), 0.3, {}),
}


def builtin_task(name: str, seed: int = 0) -> TaskSpec:
    """Look up a named task. Known names: rot40, rot20, rot180, shift, blobs."""
    if name not in _BUILTIN_TASKS:
        raise ConfigError(f"unknown task {name!r}; known: {sorted(_BUILTIN_TASKS)}")
    means, scale, shift = _BUILTIN_TASKS[name]
    return TaskSpec(name=name, num_classes=len(means), dim=2, class_means=means,
                    class_scales=(scale,) * len(means), source_per_class=100,
                    target_per_class=60, test_per_class=300, seed=seed, **shift)
