"""Pair groups for the group discriminator.

Four groups of ordered sample pairs, built from the generated intermediate
pool and the labeled target few-shots:

  1. both intermediate, same label;
  2. first intermediate, second target, same label;
  3. both intermediate, different labels;
  4. first intermediate, second target, different labels.

Cross-domain pairs always put the intermediate sample first. Pairs are
drawn with replacement, uniformly over the valid combinations of each
group, via rejection from the uniform index product (exact and
deterministic under the seeded generator). A call checks its label facts
once and gathers each side's rows once; the target, a FewShotSet or a
LabeledPool, is read through its ``features`` and ``labels``.
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
    """Ordered sample pairs with 1-based group labels."""

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
        ia = rng.integers(0, labels_a.size, size=k)
        ib = rng.integers(0, labels_b.size, size=k)
        ok = (labels_a[ia] == labels_b[ib]) if same else (labels_a[ia] != labels_b[ib])
        hits = np.flatnonzero(ok)[:need]
        if hits.size == count:
            return ia[hits], ib[hits]
        out.append((ia[hits], ib[hits]))
        need -= hits.size
    return tuple(np.concatenate(side) for side in zip(*out))


def _check(intermediate: LabeledPool, target, group_ids, count: int) -> None:
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


def sample_group_pairs(intermediate: LabeledPool, target, group_id: int,
                       count: int, rng: np.random.Generator) -> PairBatch:
    """Draw ``count`` pairs of one group, uniform over valid combinations."""
    _check(intermediate, target, (group_id,), count)
    second = target if group_id in (2, 4) else intermediate
    ia, ib = _rejection_sample(rng, intermediate.labels, second.labels, group_id in (1, 2), count)
    return PairBatch(intermediate.features[ia], second.features[ib],
                     np.full(count, group_id, dtype=np.int64))


def build_groups(intermediate: LabeledPool, target, per_group: int,
                 seed) -> PairBatch:
    """Build all four groups, exactly ``per_group`` pairs each, in order.

    ``target`` may be a FewShotSet or a LabeledPool. Deterministic under the
    seed; an integer seed or a numpy Generator is accepted.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    _check(intermediate, target, ALL_GROUPS, per_group)
    ia, ib = [], []
    for g in ALL_GROUPS:
        second = target if g in (2, 4) else intermediate
        a, b = _rejection_sample(rng, intermediate.labels, second.labels, g in (1, 2), per_group)
        ia.append(a)
        ib.append(b + intermediate.size if g in (2, 4) else b)  # rows of pool ++ target
    rows = np.concatenate([intermediate.features, target.features])
    return PairBatch(intermediate.features[np.concatenate(ia)], rows[np.concatenate(ib)],
                     np.repeat(ALL_GROUPS, per_group))


def phi(encoder: nn.Net, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Joint pair embedding: encoder outputs of x1 and x2, concatenated.

    Order is preserved (x1's embedding fills the first half).
    """
    x1 = np.atleast_2d(np.asarray(x1, dtype=np.float64))
    x2 = np.atleast_2d(np.asarray(x2, dtype=np.float64))
    if x1.shape != x2.shape:
        raise ConfigError("phi needs equal-shape batches")
    return np.hstack([encoder(x1), encoder(x2)])
