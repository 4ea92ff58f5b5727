"""Tests for pair-group construction feeding the group discriminator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fha import nn
from fha.data import FewShotSet
from fha.errors import ConfigError, ProtocolError
from fha.pairing import (
    ALL_GROUPS,
    GROUP_BOTH_INTERMEDIATE_DIFF,
    GROUP_BOTH_INTERMEDIATE_SAME,
    GROUP_CROSS_DOMAIN_DIFF,
    GROUP_CROSS_DOMAIN_SAME,
    LabeledPool,
    PairBatch,
    build_groups,
    phi,
    sample_group_pairs,
)


def make_pools(num_classes=3, inter_per_class=8, target_per_class=2, dim=2, seed=0):
    """An intermediate pool and a target pool with recognizable features.

    Feature encoding: row i of a pool stores (domain_tag + i, label), which
    lets the predicate checks recover domain and label from the features.
    """
    rng = np.random.default_rng(seed)
    n_i = num_classes * inter_per_class
    inter_labels = np.repeat(np.arange(num_classes), inter_per_class)
    inter_feats = np.column_stack([np.arange(n_i, dtype=float),
                                   inter_labels.astype(float)])
    n_t = num_classes * target_per_class
    tgt_labels = np.repeat(np.arange(num_classes), target_per_class)
    tgt_feats = np.column_stack([1000.0 + np.arange(n_t), tgt_labels.astype(float)])
    if dim > 2:
        inter_feats = np.pad(inter_feats, ((0, 0), (0, dim - 2)))
        tgt_feats = np.pad(tgt_feats, ((0, 0), (0, dim - 2)))
    inter = LabeledPool(inter_feats, inter_labels)
    target = LabeledPool(tgt_feats, tgt_labels)
    return inter, target


def row_is_intermediate(x):
    return x[0] < 1000.0


def row_label(x):
    return int(round(x[1]))


GROUP_PREDICATES = {
    GROUP_BOTH_INTERMEDIATE_SAME: lambda a, b: (
        row_is_intermediate(a) and row_is_intermediate(b)
        and row_label(a) == row_label(b)
    ),
    GROUP_CROSS_DOMAIN_SAME: lambda a, b: (
        row_is_intermediate(a) and not row_is_intermediate(b)
        and row_label(a) == row_label(b)
    ),
    GROUP_BOTH_INTERMEDIATE_DIFF: lambda a, b: (
        row_is_intermediate(a) and row_is_intermediate(b)
        and row_label(a) != row_label(b)
    ),
    GROUP_CROSS_DOMAIN_DIFF: lambda a, b: (
        row_is_intermediate(a) and not row_is_intermediate(b)
        and row_label(a) != row_label(b)
    ),
}


class TestLabeledPool:
    def test_rejects_misaligned_labels(self):
        with pytest.raises(ConfigError):
            LabeledPool(np.zeros((2, 2)), np.array([0]))

    def test_arrays_read_only(self):
        pool = LabeledPool(np.zeros((2, 2)), np.array([0, 1]))
        assert pool.size == 2
        with pytest.raises(ValueError):
            pool.features[0, 0] = 1.0


class TestPairBatch:
    def test_counts_and_one_hot(self):
        batch = PairBatch(np.zeros((4, 2)), np.zeros((4, 2)),
                          np.array([1, 2, 2, 4]))
        assert batch.counts() == {1: 1, 2: 2, 3: 0, 4: 1}

    def test_rejects_zero_based_groups(self):
        with pytest.raises(ConfigError):
            PairBatch(np.zeros((2, 2)), np.zeros((2, 2)), np.array([0, 1]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ConfigError):
            PairBatch(np.zeros((2, 2)), np.zeros((3, 2)), np.array([1, 2]))


class TestSampleGroupPairs:
    @pytest.mark.parametrize("group_id", ALL_GROUPS)
    def test_pairs_satisfy_their_predicate(self, group_id):
        inter, target = make_pools()
        rng = np.random.default_rng(group_id)
        batch = sample_group_pairs(inter, target, group_id, 50, rng)
        assert batch.size == 50
        assert np.all(batch.group == group_id)
        pred = GROUP_PREDICATES[group_id]
        for a, b in zip(batch.x1, batch.x2):
            assert pred(a, b)

    def test_intermediate_sample_always_first(self):
        inter, target = make_pools()
        rng = np.random.default_rng(0)
        for group_id in ALL_GROUPS:
            batch = sample_group_pairs(inter, target, group_id, 20, rng)
            assert all(row_is_intermediate(a) for a in batch.x1)

    def test_single_class_pool_raises(self):
        labels = np.zeros(6, dtype=np.int64)
        inter = LabeledPool(np.random.default_rng(0).uniform(size=(6, 2)), labels)
        _, target = make_pools()
        with pytest.raises(ProtocolError):
            sample_group_pairs(inter, target, 1, 4, np.random.default_rng(0))

    def test_empty_target_rejected_for_cross_domain(self):
        inter, _ = make_pools()
        empty = LabeledPool(np.zeros((0, 2)), np.zeros(0, dtype=np.int64))
        rng = np.random.default_rng(0)
        for group_id in (GROUP_CROSS_DOMAIN_SAME, GROUP_CROSS_DOMAIN_DIFF):
            with pytest.raises(ProtocolError):
                sample_group_pairs(inter, empty, group_id, 4, rng)
        # intermediate-only groups do not need a target pool
        batch = sample_group_pairs(inter, empty, GROUP_BOTH_INTERMEDIATE_SAME, 4, rng)
        assert batch.size == 4

    def test_unsatisfiable_same_label_raises(self):
        inter, _ = make_pools(num_classes=3)
        # target labels disjoint from the intermediate ones
        target = LabeledPool(np.full((4, 2), 2000.0), np.full(4, 7, dtype=np.int64))
        with pytest.raises(ProtocolError):
            sample_group_pairs(inter, target, GROUP_CROSS_DOMAIN_SAME, 4,
                               np.random.default_rng(0))

    def test_invalid_group_and_count(self):
        inter, target = make_pools()
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigError):
            sample_group_pairs(inter, target, 5, 4, rng)
        with pytest.raises(ConfigError):
            sample_group_pairs(inter, target, 1, 0, rng)

    def test_deterministic_under_generator_state(self):
        inter, target = make_pools()
        a = sample_group_pairs(inter, target, 2, 25, np.random.default_rng(77))
        b = sample_group_pairs(inter, target, 2, 25, np.random.default_rng(77))
        assert np.array_equal(a.x1, b.x1)
        assert np.array_equal(a.x2, b.x2)

    def test_uniform_over_valid_combinations(self):
        # group 2 on 2 intermediate rows x 2 same-label target rows has 2
        # valid combinations; both must appear with equal frequency
        inter = LabeledPool(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([0, 1]))
        target = LabeledPool(np.array([[1000.0, 0.0], [1001.0, 1.0]]), np.array([0, 1]))
        batch = sample_group_pairs(inter, target, GROUP_CROSS_DOMAIN_SAME, 4000,
                                   np.random.default_rng(3))
        first = batch.x1[:, 0]
        share = np.mean(first == 0.0)
        assert abs(share - 0.5) < 0.03

    def test_accepts_fewshot_as_target(self):
        # a FewShotSet is paired as given: the same draws, byte for byte, as
        # its samples copied into a float64 LabeledPool
        inter, _ = make_pools(num_classes=2)
        feats = np.random.default_rng(5).uniform(size=(4, 2)).astype(np.float32)
        fs = FewShotSet(feats, np.array([0, 0, 1, 1]), np.arange(4), 2, 2)
        pool = LabeledPool(fs.features.astype(np.float64), fs.labels)
        for group_id in ALL_GROUPS:
            a, b = (sample_group_pairs(inter, tgt, group_id, 10, np.random.default_rng(0))
                    for tgt in (fs, pool))
            assert a.size == 10
            for field in ("x1", "x2", "group"):
                assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
        a, b = (build_groups(inter, tgt, 6, seed=9) for tgt in (fs, pool))
        for field in ("x1", "x2", "group"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes()


class TestBuildGroups:
    def test_exact_counts_in_group_order(self):
        inter, target = make_pools()
        batch = build_groups(inter, target, per_group=6, seed=4)
        assert batch.size == 24
        assert batch.counts() == {1: 6, 2: 6, 3: 6, 4: 6}
        assert np.array_equal(batch.group, np.repeat([1, 2, 3, 4], 6))

    def test_int_seed_and_generator_agree(self):
        inter, target = make_pools()
        a = build_groups(inter, target, per_group=5, seed=123)
        b = build_groups(inter, target, per_group=5, seed=np.random.default_rng(123))
        assert np.array_equal(a.x1, b.x1)
        assert np.array_equal(a.x2, b.x2)

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(st.integers(min_value=2, max_value=5), st.integers(min_value=2, max_value=6),
           st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=999))
    def test_predicates_hold_across_configurations(self, num_classes, inter_pc,
                                                   target_pc, seed):
        inter, target = make_pools(num_classes=num_classes, inter_per_class=inter_pc,
                                   target_per_class=target_pc, seed=seed)
        batch = build_groups(inter, target, per_group=8, seed=seed)
        for a, b, g in zip(batch.x1, batch.x2, batch.group):
            assert GROUP_PREDICATES[int(g)](a, b)


class TestPhi:
    def test_concatenates_in_order(self):
        arch = nn.ArchSpec((2, 3), head="linear")
        enc = nn.Net(arch, nn.init_params(arch, seed=0))
        x1 = np.random.default_rng(1).uniform(size=(4, 2))
        x2 = np.random.default_rng(2).uniform(size=(4, 2))
        joint = phi(enc, x1, x2)
        assert joint.shape == (4, 6)
        assert np.array_equal(joint[:, :3], enc(x1))
        assert np.array_equal(joint[:, 3:], enc(x2))

    def test_rejects_mismatched_batches(self):
        arch = nn.ArchSpec((2, 3), head="linear")
        enc = nn.Net(arch, nn.init_params(arch, seed=0))
        with pytest.raises(ConfigError):
            phi(enc, np.zeros((2, 2)), np.zeros((3, 2)))
