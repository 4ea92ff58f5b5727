"""Tests for pair-group construction feeding the group discriminator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fha import nn, pairing
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
    draw_pairs,
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
    def test_pairs_are_two_dimensional(self):
        batch = PairBatch(np.zeros((4, 2)), np.ones((4, 2)), np.array([1, 2, 2, 4]))
        assert batch.size == 4 and batch.x1.shape == (4, 2)
        with pytest.raises(ConfigError):
            PairBatch(np.zeros((4, 2)), np.zeros((4, 2)), np.array([1, 2, 3]))
        for shape in ((3, 4, 2), (4,)):
            with pytest.raises(ConfigError, match=r"equal-shape \(P, d\) arrays"):
                PairBatch(np.zeros(shape), np.zeros(shape), np.ones(4))

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


def reference_sample(intermediate, target, group_id, count, rng):
    """One group drawn as the per-group sampler always drew it: rejection
    rounds of max(4 * need, 32) uniform index pairs, hits kept in order."""
    second = intermediate if group_id in (1, 3) else target
    la, lb = intermediate.labels, second.labels
    ia_out, ib_out, need = [], [], count
    while need > 0:
        k = max(4 * need, 32)
        ia = rng.integers(0, la.size, size=k)
        ib = rng.integers(0, lb.size, size=k)
        ok = (la[ia] == lb[ib]) if group_id in (1, 2) else (la[ia] != lb[ib])
        hits = np.flatnonzero(ok)[:need]
        ia_out.append(ia[hits])
        ib_out.append(ib[hits])
        need -= hits.size
    ia, ib = np.concatenate(ia_out), np.concatenate(ib_out)
    return PairBatch(intermediate.features[ia], second.features[ib],
                     np.full(count, group_id))


def reference_build_groups(intermediate, target, per_group, rng, sample=sample_group_pairs):
    """The per-group loop: groups 1..4 on one generator, then concatenated."""
    batches = [sample(intermediate, target, g, per_group, rng) for g in ALL_GROUPS]
    return PairBatch(*(np.concatenate([getattr(b, f) for b in batches])
                       for f in ("x1", "x2", "group")))


def assert_same_draws(intermediate, target, per_group, seed):
    """build_groups, the per-group loop over sample_group_pairs and the
    reference sampler give the same bytes and leave the generator alike."""
    rngs = [np.random.default_rng(seed) for _ in range(3)]
    got = build_groups(intermediate, target, per_group, rngs[0])
    for rng, sample in zip(rngs[1:], (sample_group_pairs, reference_sample)):
        want = reference_build_groups(intermediate, target, per_group, rng, sample)
        for field in ("x1", "x2", "group"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        assert rng.bit_generator.state == rngs[0].bit_generator.state
    return got


@st.composite
def pairing_layouts(draw):
    """An intermediate pool of 2-6 classes of unequal sizes, and a FewShotSet
    or LabeledPool target sharing at least one class with it."""
    num_classes = draw(st.integers(2, 6))
    dim = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(1, 12), min_size=num_classes, max_size=num_classes))
    labels = np.repeat(np.arange(num_classes), sizes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    inter = LabeledPool(rng.normal(size=(labels.size, dim)), labels)
    if draw(st.booleans()):
        n_t = draw(st.integers(1, 7))
        tgt_labels = np.repeat(np.arange(num_classes), n_t)
        target = FewShotSet(rng.normal(size=(tgt_labels.size, dim)).astype(np.float32),
                            tgt_labels, np.arange(tgt_labels.size), n_t, num_classes)
    else:
        tgt_labels = np.array(draw(st.lists(st.integers(0, num_classes + 1),
                                            min_size=1, max_size=20)) + [0])
        target = LabeledPool(rng.normal(size=(tgt_labels.size, dim)), tgt_labels)
    return inter, target


class TestDrawSequence:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(pairing_layouts(), st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_build_groups_matches_the_per_group_loop(self, layout, per_group, seed):
        inter, target = layout
        batch = assert_same_draws(inter, target, per_group, seed)
        assert np.array_equal(batch.group, np.repeat(ALL_GROUPS, per_group))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(pairing_layouts(), st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_one_cross_domain_draw_matches_two_group_calls(self, layout, count, seed):
        # the model update draws groups 2 and 4 in one call, as two calls did
        inter, target = layout
        rngs = [np.random.default_rng(seed) for _ in range(3)]
        ia, ib = draw_pairs(inter.labels, target.labels, (2, 4), count, rngs[0])
        rows = np.concatenate([inter.features, target.features])
        for rng, sample in zip(rngs[1:], (sample_group_pairs, reference_sample)):
            for j, group_id in enumerate((2, 4)):
                want = sample(inter, target, group_id, count, rng)
                part = slice(j * count, (j + 1) * count)
                assert inter.features[ia[part]].tobytes() == want.x1.tobytes()
                assert rows[ib[part]].tobytes() == want.x2.tobytes()
            assert rng.bit_generator.state == rngs[0].bit_generator.state

    @pytest.mark.parametrize("num_classes", range(2, 9))
    @pytest.mark.parametrize("k", [1, 7, 32, 33])
    def test_one_same_bound_draw_matches_two_integers_calls(self, num_classes, k):
        """A rejection round whose two index halves share a bound draws them
        in one integers call of 2k: the stream of two calls of k, odd k too.
        Groups 1 and 3 always share it; groups 2 and 4 do against a target of
        the pool's size."""
        n = num_classes * 5
        one, two = np.random.default_rng(k), np.random.default_rng(k)
        ia, ib = one.integers(0, n, size=(2, k))
        assert ia.tobytes() == two.integers(0, n, size=k).tobytes()
        assert ib.tobytes() == two.integers(0, n, size=k).tobytes()
        assert one.bit_generator.state == two.bit_generator.state
        inter, target = make_pools(num_classes=num_classes, inter_per_class=5,
                                   target_per_class=5)
        rows = np.concatenate([inter.features, target.features])
        for group_ids in ((1, 3), (2, 4)):
            rngs = [np.random.default_rng(n * k) for _ in range(2)]
            ia, ib = draw_pairs(inter.labels, target.labels, group_ids, k, rngs[0])
            for j, group_id in enumerate(group_ids):
                want = reference_sample(inter, target, group_id, k, rngs[1])
                part = slice(j * k, (j + 1) * k)
                assert inter.features[ia[part]].tobytes() == want.x1.tobytes()
                assert rows[ib[part]].tobytes() == want.x2.tobytes()
            assert rngs[1].bit_generator.state == rngs[0].bit_generator.state

    @pytest.mark.parametrize("per_group", [1, 16, 40])
    def test_second_rejection_rounds_match(self, per_group):
        # six equal classes: once need > 8, a round of 4 * need draws yields
        # about 2/3 * need same-label hits, so groups 1 and 2 take more rounds
        inter, target = make_pools(num_classes=6, inter_per_class=5, target_per_class=1)
        assert_same_draws(inter, target, per_group, seed=per_group)


# bounds where numpy's rejection branch fires often: 2**32 mod n is about
# n / 2 for 2**31 + 1 and n / 3 for 3 * 2**30; one value (1) reads no half
STREAM_BOUNDS = (2, 3, 6, 140, 255, 2**31 + 1, 3 * 2**30, 2**31, 2**32 - 1, 1)


class TestReadAheadStream:
    """pairing._ReadAhead returns, call after call, what a fresh Generator's
    integers(0, n, size) returns, across its raw-word reads."""

    CALLS = [(2, 7), (140, (2, 33)), (2**31 + 1, 64), (3 * 2**30, (2, 5)), (1, 9),
             (2**32 - 1, 3), (2**31, 1), (255, 5000), (6, (2, 1)), (2**31 + 1, (2, 4099)),
             (3 * 2**30, 2047), (97, 31)]

    @staticmethod
    def assert_same_stream(seed, calls):
        stream, rng = pairing._ReadAhead(seed), np.random.default_rng(seed)
        for n, size in calls:
            got, want = stream.integers(0, n, size), rng.integers(0, n, size=size)
            assert got.dtype == want.dtype == np.int64 and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (n, size)

    @pytest.mark.parametrize("seed", [0, 5, 2**63, 2**64 - 1, 3 * 2**70 + 1])
    def test_matches_generator_integers(self, seed):
        self.assert_same_stream(seed, self.CALLS * 2)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(0, 2**80), st.lists(st.tuples(
        st.one_of(st.sampled_from(STREAM_BOUNDS), st.integers(2, 2**32 - 1)),
        st.integers(1, 3000), st.booleans()), min_size=1, max_size=30))
    def test_mixed_bounds_and_sizes(self, seed, calls):
        self.assert_same_stream(seed, [(n, (2, k) if pair else k) for n, k, pair in calls])

    @pytest.mark.parametrize("low, high", [(1, 5), (0, 0), (0, 2**32)])
    def test_other_ranges_are_refused(self, low, high):
        with pytest.raises(ValueError):
            pairing._ReadAhead(0).integers(low, high, 4)


def _layout(name):
    inter, target = make_pools(num_classes=3)
    empty = LabeledPool(np.zeros((0, 2)), np.zeros(0, dtype=np.int64))
    one_class = LabeledPool(np.ones((6, 2)), np.zeros(6, dtype=np.int64))
    disjoint = LabeledPool(np.full((4, 2), 2000.0), np.full(4, 7, dtype=np.int64))
    wide = LabeledPool(np.zeros((3, 3)), np.array([0, 1, 2]))
    return {
        "empty intermediate": (empty, target),
        "one intermediate class": (one_class, target),
        "empty target": (inter, empty),
        "disjoint target labels": (inter, disjoint),
        "target of another width": (inter, wide),
        "empty intermediate and target": (empty, empty),
    }[name]


TWO_CLASSES = "pairing needs at least 2 classes in the intermediate pool"
# (layout, group id, count, error): sample_group_pairs raises the error for
# that group, and build_groups, drawing groups 1..4 with that count, too
UNSATISFIABLE = [
    ("empty intermediate", 1, 4, ProtocolError, "intermediate pool is empty"),
    ("empty intermediate", 1, 0, ConfigError, "pair count must be positive"),
    ("empty intermediate and target", 2, 4, ProtocolError, "intermediate pool is empty"),
    ("one intermediate class", 3, 4, ProtocolError, TWO_CLASSES),
    ("one intermediate class", 4, 4, ProtocolError, TWO_CLASSES),
    ("empty target", 2, 4, ProtocolError, "cross-domain groups need a non-empty target pool"),
    ("empty target", 4, 4, ProtocolError, "cross-domain groups need a non-empty target pool"),
    ("disjoint target labels", 2, 4, ProtocolError, "group 2 has no same-label combinations"),
    ("target of another width", 4, 4, ConfigError, "x1 and x2 must be equal-shape (P, d) arrays"),
]
UNSATISFIABLE_IDS = [f"{name.replace(' ', '_')}-group{g}-count{c}"
                     for name, g, c, *_ in UNSATISFIABLE]


class TestUnsatisfiableLayouts:
    @pytest.mark.parametrize("name,group_id,count,exc,message", UNSATISFIABLE,
                             ids=UNSATISFIABLE_IDS)
    def test_sample_group_pairs_raises(self, name, group_id, count, exc, message):
        inter, target = _layout(name)
        with pytest.raises(exc) as info:
            sample_group_pairs(inter, target, group_id, count, np.random.default_rng(0))
        assert type(info.value) is exc and str(info.value) == message

    @pytest.mark.parametrize("name,group_id,count,exc,message", UNSATISFIABLE,
                             ids=UNSATISFIABLE_IDS)
    def test_build_groups_raises(self, name, group_id, count, exc, message):
        inter, target = _layout(name)
        with pytest.raises(exc) as info:
            build_groups(inter, target, count, seed=0)
        assert type(info.value) is exc and str(info.value) == message

    @pytest.mark.parametrize("group_id", [0, 5, -1])
    def test_unknown_group_comes_first(self, group_id):
        empty = LabeledPool(np.zeros((0, 2)), np.zeros(0, dtype=np.int64))
        with pytest.raises(ConfigError, match=f"^unknown group id {group_id}$"):
            sample_group_pairs(empty, empty, group_id, 0, np.random.default_rng(0))

    @pytest.mark.parametrize("group_id", [1, 3])
    def test_intermediate_groups_ignore_the_target(self, group_id):
        inter, _ = make_pools()
        for name in ("empty target", "disjoint target labels", "target of another width"):
            batch = sample_group_pairs(inter, _layout(name)[1], group_id, 5,
                                       np.random.default_rng(0))
            assert batch.size == 5


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
