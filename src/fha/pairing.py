"""Pair groups for the group discriminator, over the generated intermediate
pool and the labeled target few-shots: 1 both intermediate, same label;
2 intermediate then target, same label; 3 both intermediate, different
labels; 4 intermediate then target, different labels.

Pairs are drawn with replacement, uniformly over the valid combinations of
each group, by rejection from the uniform index product (exact and
deterministic under the seeded generator). ``draw_pairs`` takes the two
label vectors alone, so pools of one label layout can share draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .errors import ConfigError, ProtocolError

GROUP_BOTH_INTERMEDIATE_SAME = 1
GROUP_CROSS_DOMAIN_SAME = 2
GROUP_BOTH_INTERMEDIATE_DIFF = 3
GROUP_CROSS_DOMAIN_DIFF = 4
ALL_GROUPS = (1, 2, 3, 4)


@dataclass(frozen=True)
class LabeledPool:
    """Read-only float64 samples with aligned integer labels."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        feats = np.ascontiguousarray(self.features, dtype=np.float64)
        labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if feats.ndim != 2 or labels.ndim != 1 or feats.shape[0] != labels.shape[0]:
            raise ConfigError("features must be (n, d) aligned with (n,) labels")
        feats.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)

    @property
    def size(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class PairBatch:
    """Ordered (P, d) sample pairs with their (P,) 1-based group labels."""

    x1: np.ndarray
    x2: np.ndarray
    group: np.ndarray

    def __post_init__(self) -> None:
        x1 = np.ascontiguousarray(self.x1, dtype=np.float64)
        x2 = np.ascontiguousarray(self.x2, dtype=np.float64)
        group = np.ascontiguousarray(self.group, dtype=np.int64)
        if x1.shape != x2.shape or x1.ndim != 2:
            raise ConfigError("x1 and x2 must be equal-shape (P, d) arrays")
        if group.ndim != 1 or group.shape[0] != x1.shape[0]:
            raise ConfigError("group labels must align with the pairs")
        if group.size and (group.min() < 1 or group.max() > 4):
            raise ConfigError("group labels must lie in {1, 2, 3, 4}")
        for arr in (x1, x2, group):
            arr.setflags(write=False)
        object.__setattr__(self, "x1", x1)
        object.__setattr__(self, "x2", x2)
        object.__setattr__(self, "group", group)

    @property
    def size(self) -> int:
        return self.group.shape[0]

    def counts(self) -> dict[int, int]:
        return {g: int(np.sum(self.group == g)) for g in ALL_GROUPS}


def _rejection_sample(rng, labels_a, labels_b, same: bool, count: int):
    """Uniform draws of index pairs whose labels match the predicate."""
    out, need = [], count
    while need > 0:
        k = max(4 * need, 32)
        if labels_a.size == labels_b.size:  # one call draws both halves' stream
            ia, ib = rng.integers(0, labels_a.size, size=(2, k))
        else:
            ia, ib = (rng.integers(0, labels.size, size=k) for labels in (labels_a, labels_b))
        ok = (labels_a[ia] == labels_b[ib]) if same else (labels_a[ia] != labels_b[ib])
        hits = ok.nonzero()[0][:need]
        if hits.size == count:
            return ia[hits], ib[hits]
        out.append((ia[hits], ib[hits]))
        need -= hits.size
    return tuple(np.concatenate(side) for side in zip(*out))


def check_pairs(intermediate: LabeledPool, target, group_ids, count: int) -> None:
    """Raise for the first unknown group id, bad count or unsatisfiable group.
    Given 2+ intermediate classes, only group 2 can lack valid combinations."""
    for group_id in group_ids:
        if group_id not in ALL_GROUPS:
            raise ConfigError(f"unknown group id {group_id}")
    if count < 1:
        raise ConfigError("pair count must be positive")
    if intermediate.labels.size == 0:
        raise ProtocolError("intermediate pool is empty")
    classes = set(intermediate.labels.tolist())
    if len(classes) < 2:
        raise ProtocolError("pairing needs at least 2 classes in the intermediate pool")
    if not any(g in (2, 4) for g in group_ids):
        return
    if target.labels.size == 0:
        raise ProtocolError("cross-domain groups need a non-empty target pool")
    if GROUP_CROSS_DOMAIN_SAME in group_ids and classes.isdisjoint(target.labels.tolist()):
        raise ProtocolError(f"group {GROUP_CROSS_DOMAIN_SAME} has no same-label combinations")
    if target.features.shape[1:] != intermediate.features.shape[1:]:
        raise ConfigError("x1 and x2 must be equal-shape (P, d) arrays")


def draw_pairs(labels: np.ndarray, target_labels: np.ndarray, group_ids, count: int,
               rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs of ``count`` pairs of each group in ``group_ids``, in order.

    Returns (ia, ib): ia indexes the intermediate rows (``labels``), ib the
    intermediate rows followed by the target rows (``target_labels``). Every
    pool with these labels can gather its own rows from them. The labels
    must have passed check_pairs for these groups and count: a group with no
    valid combination would never fill.
    """
    ia, ib = [], []
    for g in group_ids:
        cross = g in (GROUP_CROSS_DOMAIN_SAME, GROUP_CROSS_DOMAIN_DIFF)
        a, b = _rejection_sample(rng, labels, target_labels if cross else labels, g in (1, 2),
                                 count)
        ia.append(a)
        ib.append(b + labels.size if cross else b)
    return np.concatenate(ia), np.concatenate(ib)


def _draw_batch(intermediate: LabeledPool, target, group_ids, count: int, rng) -> PairBatch:
    check_pairs(intermediate, target, group_ids, count)
    ia, ib = draw_pairs(intermediate.labels, target.labels, group_ids, count, rng)
    rows = intermediate.features
    if GROUP_CROSS_DOMAIN_SAME in group_ids or GROUP_CROSS_DOMAIN_DIFF in group_ids:
        rows = np.concatenate([rows, target.features])
    return PairBatch(intermediate.features[ia], rows[ib], np.repeat(group_ids, count))


def sample_group_pairs(intermediate: LabeledPool, target, group_id: int,
                       count: int, rng: np.random.Generator) -> PairBatch:
    """Draw ``count`` pairs of one group, uniform over valid combinations."""
    return _draw_batch(intermediate, target, (group_id,), count, rng)


def build_groups(intermediate: LabeledPool, target, per_group: int,
                 seed) -> PairBatch:
    """Build all four groups, exactly ``per_group`` pairs each, in order.

    ``target`` may be a FewShotSet or a LabeledPool. Deterministic under the
    seed; an integer seed or a numpy Generator is accepted.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return _draw_batch(intermediate, target, ALL_GROUPS, per_group, rng)


def phi(encoder: nn.Net, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Joint pair embedding: encoder outputs of x1 and x2, concatenated.

    Order is preserved (x1's embedding fills the first half).
    """
    x1 = np.atleast_2d(np.asarray(x1, dtype=np.float64))
    x2 = np.atleast_2d(np.asarray(x2, dtype=np.float64))
    if x1.shape != x2.shape:
        raise ConfigError("phi needs equal-shape batches")
    return np.hstack([encoder(x1), encoder(x2)])
