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
deterministic under the seeded generator). Both sides are read through
their ``features`` and ``labels``, so the target may be a FewShotSet or a
LabeledPool and is used as given, not copied.
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
    ia_out, ib_out = [], []
    need = count
    while need > 0:
        k = max(4 * need, 32)
        ia = rng.integers(0, labels_a.size, size=k)
        ib = rng.integers(0, labels_b.size, size=k)
        ok = (labels_a[ia] == labels_b[ib]) if same else (labels_a[ia] != labels_b[ib])
        hits = np.flatnonzero(ok)[:need]
        ia_out.append(ia[hits])
        ib_out.append(ib[hits])
        need -= hits.size
    return np.concatenate(ia_out), np.concatenate(ib_out)


def _check_satisfiable(labels_a, labels_b, same: bool, group_id: int) -> None:
    shared = np.intersect1d(labels_a, labels_b)
    if same and shared.size == 0:
        raise ProtocolError(f"group {group_id} has no same-label combinations")
    if not same:
        # a differing pair exists unless both pools hold one identical label
        ua, ub = np.unique(labels_a), np.unique(labels_b)
        if ua.size == 1 and ub.size == 1 and ua[0] == ub[0]:
            raise ProtocolError(f"group {group_id} has no different-label combinations")


def sample_group_pairs(intermediate: LabeledPool, target, group_id: int,
                       count: int, rng: np.random.Generator) -> PairBatch:
    """Draw ``count`` pairs of one group, uniform over valid combinations."""
    if group_id not in ALL_GROUPS:
        raise ConfigError(f"unknown group id {group_id}")
    if count < 1:
        raise ConfigError("pair count must be positive")
    if intermediate.labels.size == 0:
        raise ProtocolError("intermediate pool is empty")
    if np.unique(intermediate.labels).size < 2:
        raise ProtocolError("pairing needs at least 2 classes in the intermediate pool")
    second = intermediate if group_id in (1, 3) else target
    if second.labels.size == 0:
        raise ProtocolError("cross-domain groups need a non-empty target pool")
    same = group_id in (GROUP_BOTH_INTERMEDIATE_SAME, GROUP_CROSS_DOMAIN_SAME)
    _check_satisfiable(intermediate.labels, second.labels, same, group_id)
    ia, ib = _rejection_sample(rng, intermediate.labels, second.labels, same, count)
    return PairBatch(
        intermediate.features[ia],
        second.features[ib],
        np.full(count, group_id, dtype=np.int64),
    )


def build_groups(intermediate: LabeledPool, target, per_group: int,
                 seed) -> PairBatch:
    """Build all four groups, exactly ``per_group`` pairs each, in order.

    ``target`` may be a FewShotSet or a LabeledPool. Deterministic under the
    seed; an integer seed or a numpy Generator is accepted.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    batches = [
        sample_group_pairs(intermediate, target, g, per_group, rng) for g in ALL_GROUPS
    ]
    return PairBatch(
        np.concatenate([b.x1 for b in batches]),
        np.concatenate([b.x2 for b in batches]),
        np.concatenate([b.group for b in batches]),
    )


def phi(encoder: nn.Net, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Joint pair embedding: encoder outputs of x1 and x2, concatenated.

    Order is preserved (x1's embedding fills the first half).
    """
    x1 = np.atleast_2d(np.asarray(x1, dtype=np.float64))
    x2 = np.atleast_2d(np.asarray(x2, dtype=np.float64))
    if x1.shape != x2.shape:
        raise ConfigError("phi needs equal-shape batches")
    return np.hstack([encoder(x1), encoder(x2)])
