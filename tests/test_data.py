"""Tests for synthetic tasks, the few-shot protocol, and dataset I/O."""

import dataclasses
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fha.data import (
    MAX_SPLIT_ELEMENTS,
    Dataset,
    FewShotSet,
    TaskSpec,
    builtin_task,
    load_dataset,
    make_synthetic_task,
    sample_few_shot,
    save_dataset,
)
from fha.errors import (
    ConfigError,
    FormatError,
    InsufficientDataError,
    MissingClassError,
    ProtocolError,
)

RNG = np.random.default_rng(41)


def small_dataset(n=12, dim=2, num_classes=3, seed=0):
    rng = np.random.default_rng(seed)
    feats = rng.uniform(size=(n, dim)).astype(np.float32)
    labels = np.arange(n) % num_classes
    return Dataset(feats, labels, num_classes)


class TestDataset:
    def test_accessors(self):
        ds = small_dataset(n=9, dim=4)
        assert ds.n == 9
        assert ds.dim == 4
        assert np.array_equal(ds.class_indices(1), np.array([1, 4, 7]))

    def test_arrays_are_read_only(self):
        ds = small_dataset()
        with pytest.raises(ValueError):
            ds.features[0, 0] = 0.0
        with pytest.raises(ValueError):
            ds.labels[0] = 1

    def test_rejects_features_outside_unit_cube(self):
        with pytest.raises(ConfigError):
            Dataset(np.array([[0.5, 1.2]], dtype=np.float32), np.array([0]), 2)
        with pytest.raises(ConfigError):
            Dataset(np.array([[-0.1, 0.5]], dtype=np.float32), np.array([0]), 2)

    def test_rejects_bad_labels(self):
        feats = np.zeros((2, 2), dtype=np.float32)
        with pytest.raises(ConfigError):
            Dataset(feats, np.array([0, 2]), 2)
        with pytest.raises(ConfigError):
            Dataset(feats, np.array([0, -1]), 2)

    def test_rejects_misaligned_shapes(self):
        with pytest.raises(ConfigError):
            Dataset(np.zeros((2, 2), dtype=np.float32), np.array([0]), 2)
        with pytest.raises(ConfigError):
            Dataset(np.zeros(4, dtype=np.float32), np.array([0]), 2)

    def test_rejects_single_class(self):
        with pytest.raises(ConfigError):
            Dataset(np.zeros((2, 2), dtype=np.float32), np.array([0, 0]), 1)


class TestTaskSpec:
    def _kwargs(self, **overrides):
        kwargs = dict(
            name="t",
            num_classes=2,
            dim=2,
            class_means=((0.0, 0.0), (1.0, 1.0)),
            class_scales=(0.5, 0.5),
        )
        kwargs.update(overrides)
        return kwargs

    def test_valid_spec(self):
        spec = TaskSpec(**self._kwargs())
        assert spec.rotation_deg == 0.0
        assert spec.translation is None

    def test_default_scales_fill_in(self):
        spec = TaskSpec(**self._kwargs(class_scales=()))
        assert spec.class_scales == (1.0, 1.0)

    def test_vector_scales_accepted(self):
        spec = TaskSpec(**self._kwargs(class_scales=((0.5, 0.2), 0.4)))
        assert len(spec.class_scales) == 2

    @pytest.mark.parametrize(
        "overrides",
        [
            {"num_classes": 1, "class_means": ((0.0, 0.0),), "class_scales": (1.0,)},
            {"dim": 0},
            {"class_means": ((0.0, 0.0),)},
            {"class_means": ((0.0,), (1.0,))},
            {"class_scales": (0.5,)},
            {"class_scales": (0.5, -0.5)},
            {"class_scales": (0.5, (0.1, 0.2, 0.3))},
            {"rotation_deg": 30.0, "dim": 1, "class_means": ((0.0,), (1.0,)),
             "class_scales": (1.0, 1.0)},
            {"translation": (0.1,)},
            {"source_per_class": 0},
            {"class_means": (("a", "b"), (1.0, 1.0))},
            {"class_means": ((float("nan"), 0.0), (1.0, 1.0))},
            {"class_means": ((0.0, (0.0, 1.0)), (1.0, 1.0))},
            {"class_scales": (float("nan"), 0.5)},
            {"class_scales": ("0.5", 0.5)},
            {"class_scales": (0.5, (0.1, float("inf")))},
            {"rotation_deg": "x"},
            {"rotation_deg": "40"},
            {"rotation_deg": float("nan")},
            {"rotation_deg": (10.0, 20.0)},
            {"translation": (float("inf"), 0.0)},
            {"translation": ("a", 0.0)},
            {"translation": 3.0},
            {"class_means": 5},
            {"class_means": None},
            {"class_scales": 5},
            {"class_scales": 0.5},
            {"seed": -1},
        ],
    )
    def test_invalid_specs_rejected(self, overrides):
        with pytest.raises(ConfigError):
            TaskSpec(**self._kwargs(**overrides))

    @pytest.mark.parametrize("means,scales,translation", [
        (((1.0, -1.0), (-1.0, 1.0), (0.0, 0.0)), (0.0,) * 3, None),
        (((0.0, 0.0), (0.0, 0.0), (0.0, 0.0)), (1 / 16,) * 3, None),
        (((1 / 3, -1 / 3), (-1 / 3, 1 / 3), (0.0, 0.0)), (1 / 48,) * 3, (1 / 3, -1 / 3)),
    ])
    def test_largest_drawable_spec_draws_finite_splits(self, means, scales, translation):
        """Just inside the refusal bound, drawing, rotating and rescaling
        the splits raises no floating-point error; just outside it the spec
        is refused."""
        reach = 0.999 * sys.float_info.max / (64 * 3)
        kwargs = dict(name="t", num_classes=3, dim=2, rotation_deg=45.0, source_per_class=50,
                      target_per_class=50, test_per_class=50,
                      class_means=tuple(tuple(reach * v for v in m) for m in means),
                      class_scales=tuple(reach * s or 1.0 for s in scales),
                      translation=translation and tuple(reach * v for v in translation))
        with np.errstate(all="raise"):
            splits = make_synthetic_task(TaskSpec(**kwargs))
        assert all(np.all(np.isfinite(ds.features)) for ds in splits)
        grown = {key: tuple(np.multiply(v, 1.01).tolist() for v in kwargs[key])
                 for key in ("class_means", "class_scales")}
        with pytest.raises(ConfigError, match="would overflow float64"):
            TaskSpec(**{**kwargs, **grown})

    @pytest.mark.parametrize("field", ["source_per_class", "target_per_class", "test_per_class"])
    def test_split_beyond_the_size_bound_rejected(self, field):
        limit = MAX_SPLIT_ELEMENTS // 4  # 2 classes x 2 dims
        TaskSpec(**self._kwargs(**{field: limit}))
        with pytest.raises(ConfigError, match=f"^{field} gives a split too large"):
            TaskSpec(**self._kwargs(**{field: limit + 1}))


class TestMakeSyntheticTask:
    def _spec(self, **overrides):
        kwargs = dict(
            name="demo",
            num_classes=2,
            dim=2,
            class_means=((-0.7, 0.0), (0.7, 0.0)),
            class_scales=(0.25, 0.25),
            rotation_deg=180.0,
            source_per_class=400,
            target_per_class=100,
            test_per_class=50,
            seed=3,
        )
        kwargs.update(overrides)
        return TaskSpec(**kwargs)

    def test_shapes_and_ranges(self):
        src, tgt, tst = make_synthetic_task(self._spec())
        assert (src.n, tgt.n, tst.n) == (800, 200, 100)
        for ds in (src, tgt, tst):
            assert ds.dim == 2
            assert ds.features.dtype == np.float32
            assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0
            assert np.array_equal(np.unique(ds.labels), np.array([0, 1]))

    def test_deterministic(self):
        a = make_synthetic_task(self._spec())
        b = make_synthetic_task(self._spec())
        for x, y in zip(a, b):
            assert np.array_equal(x.features, y.features)
            assert np.array_equal(x.labels, y.labels)

    def test_seed_changes_draws(self):
        a = make_synthetic_task(self._spec())
        b = make_synthetic_task(self._spec(seed=4))
        assert not np.array_equal(a[0].features, b[0].features)

    def test_180_degree_rotation_swaps_antipodal_classes(self):
        # rotating antipodal means 180 degrees about their centroid maps the
        # class-0 cloud onto class-1 ground, so cross-domain centroids match
        src, tgt, _ = make_synthetic_task(self._spec(target_per_class=400))
        src_c0 = src.features[src.labels == 0].mean(axis=0)
        src_c1 = src.features[src.labels == 1].mean(axis=0)
        tgt_c0 = tgt.features[tgt.labels == 0].mean(axis=0)
        tgt_c1 = tgt.features[tgt.labels == 1].mean(axis=0)
        assert np.allclose(tgt_c0, src_c1, atol=0.05)
        assert np.allclose(tgt_c1, src_c0, atol=0.05)

    def test_zero_rotation_keeps_domains_aligned(self):
        src, tgt, _ = make_synthetic_task(
            self._spec(rotation_deg=0.0, target_per_class=400)
        )
        for c in (0, 1):
            assert np.allclose(
                src.features[src.labels == c].mean(axis=0),
                tgt.features[tgt.labels == c].mean(axis=0),
                atol=0.05,
            )

    def test_translation_shifts_target(self):
        spec = self._spec(rotation_deg=0.0, translation=(3.0, 0.0),
                          target_per_class=400)
        src, tgt, _ = make_synthetic_task(spec)
        # source sits left of the shifted target along the first feature
        assert src.features[:, 0].mean() < tgt.features[:, 0].mean() - 0.3


class TestFewShotProtocol:
    def test_exact_counts_for_each_budget(self):
        tgt = small_dataset(n=60, num_classes=3, seed=5)
        for n_t in range(1, 8):
            fs = sample_few_shot(tgt, n_t, seed=n_t)
            assert fs.n_t == n_t
            counts = np.bincount(fs.labels, minlength=3)
            assert np.all(counts == n_t)
            assert fs.features.shape == (3 * n_t, 2)

    def test_rejects_budget_outside_protocol(self):
        tgt = small_dataset(n=60, num_classes=3)
        for bad in (0, -1, 8, 20):
            with pytest.raises(ProtocolError):
                sample_few_shot(tgt, bad, seed=0)
        with pytest.raises(ProtocolError):
            sample_few_shot(tgt, 2.0, seed=0)

    def test_draws_without_replacement(self):
        tgt = small_dataset(n=21, num_classes=3, seed=2)
        fs = sample_few_shot(tgt, 7, seed=9)
        assert np.unique(fs.indices).size == fs.indices.size

    def test_samples_come_from_the_target_split(self):
        tgt = small_dataset(n=30, num_classes=3, seed=1)
        fs = sample_few_shot(tgt, 3, seed=4)
        assert np.array_equal(fs.features, tgt.features[fs.indices])
        assert np.array_equal(fs.labels, tgt.labels[fs.indices])

    def test_deterministic_under_seed(self):
        tgt = small_dataset(n=60, num_classes=3, seed=8)
        a = sample_few_shot(tgt, 5, seed=11)
        b = sample_few_shot(tgt, 5, seed=11)
        assert np.array_equal(a.indices, b.indices)
        assert not np.array_equal(
            a.indices, sample_few_shot(tgt, 5, seed=12).indices
        )

    def test_insufficient_class_population(self):
        tgt = small_dataset(n=6, num_classes=3)  # 2 per class
        with pytest.raises(InsufficientDataError):
            sample_few_shot(tgt, 3, seed=0)

    def test_missing_class(self):
        feats = RNG.uniform(size=(10, 2)).astype(np.float32)
        labels = np.zeros(10, dtype=np.int64)
        labels[5:] = 2  # class 1 absent
        tgt = Dataset(feats, labels, 3)
        with pytest.raises(MissingClassError):
            sample_few_shot(tgt, 2, seed=0)

    def test_fewshot_set_validation(self):
        feats = RNG.uniform(size=(4, 2)).astype(np.float32)
        with pytest.raises(ProtocolError):
            FewShotSet(feats, np.array([0, 0, 0, 1]), np.arange(4), 2, 2)
        with pytest.raises(ProtocolError):
            FewShotSet(feats, np.array([0, 0, 1, 1]), np.arange(4), 9, 2)


class TestDatasetIO:
    def test_roundtrip_bit_exact(self, tmp_path):
        ds = small_dataset(n=17, dim=3, num_classes=4, seed=6)
        path = tmp_path / "data.fhd"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert loaded.num_classes == 4
        assert np.array_equal(loaded.features, ds.features)
        assert np.array_equal(loaded.labels, ds.labels)

    def test_header_layout(self, tmp_path):
        ds = small_dataset(n=5, dim=2, num_classes=3)
        path = tmp_path / "data.fhd"
        save_dataset(ds, path)
        blob = path.read_bytes()
        assert blob[:4] == b"FHD1"
        n, dim, k = np.frombuffer(blob[4:16], dtype="<u4")
        assert (n, dim, k) == (5, 2, 3)
        assert len(blob) == 16 + 4 * 5 * 2 + 4 * 5

    def test_rejects_bad_magic(self, tmp_path):
        ds = small_dataset()
        path = tmp_path / "data.fhd"
        save_dataset(ds, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"FHD2"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load_dataset(path)

    def test_rejects_truncation_and_trailing_bytes(self, tmp_path):
        ds = small_dataset()
        path = tmp_path / "data.fhd"
        save_dataset(ds, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-3])
        with pytest.raises(FormatError):
            load_dataset(path)
        path.write_bytes(blob + b"xx")
        with pytest.raises(FormatError):
            load_dataset(path)

    def test_rejects_header_only_prefix(self, tmp_path):
        path = tmp_path / "tiny.fhd"
        path.write_bytes(b"FHD1\x01")
        with pytest.raises(FormatError):
            load_dataset(path)

    def test_rejects_out_of_range_label(self, tmp_path):
        ds = small_dataset(n=4, num_classes=3)
        path = tmp_path / "data.fhd"
        save_dataset(ds, path)
        blob = bytearray(path.read_bytes())
        blob[-4:] = np.array([7], dtype="<u4").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load_dataset(path)


    def test_rejects_nan_features(self, tmp_path):
        path = tmp_path / "data.fhd"
        save_dataset(small_dataset(), path)
        blob = bytearray(path.read_bytes())
        blob[16:20] = np.array([np.nan], dtype="<f4").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=r"\[0, 1\]"):
            load_dataset(path)

    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_corrupted_bytes_load_or_raise_format_error(self, tmp_path, data):
        path = tmp_path / "data.fhd"
        save_dataset(small_dataset(n=6, dim=2, num_classes=3), path)
        blob = _corrupt(data, path.read_bytes())
        path.write_bytes(blob)
        try:
            ds = load_dataset(path)
        except FormatError:
            return
        assert ds.features.shape == (ds.n, ds.dim)
        assert np.all((ds.features >= 0.0) & (ds.features <= 1.0))
        assert np.all((ds.labels >= 0) & (ds.labels < ds.num_classes))


def _corrupt(data, blob: bytes) -> bytes:
    """Flip a few bytes of ``blob`` (XOR with a non-zero mask), then cut it."""
    out = bytearray(blob)
    flips = data.draw(st.lists(st.tuples(st.integers(0, len(blob) - 1),
                                         st.integers(1, 255)), max_size=4))
    for pos, mask in flips:
        out[pos] ^= mask
    return bytes(out[:data.draw(st.integers(0, len(blob)))])


_CIRCLE3 = ((4.898587196589413e-17, 0.8), (-0.6928203230275509, -0.40000000000000013),
            (0.6928203230275507, -0.40000000000000036))  # three means on a radius-0.8 circle
_COUNTS = dict(dim=2, source_per_class=100, target_per_class=60, test_per_class=300)
BUILTIN_SPECS = {
    "rot40": dict(num_classes=3, class_means=_CIRCLE3, class_scales=(0.35, 0.35, 0.35),
                  rotation_deg=40.0, translation=None, **_COUNTS),
    "rot20": dict(num_classes=3, class_means=_CIRCLE3, class_scales=(0.35, 0.35, 0.35),
                  rotation_deg=20.0, translation=None, **_COUNTS),
    "rot180": dict(num_classes=2, class_means=((-0.7, 0.0), (0.7, 0.0)),
                   class_scales=(0.25, 0.25), rotation_deg=180.0, translation=None, **_COUNTS),
    "shift": dict(num_classes=2, class_means=((-0.6, -0.3), (0.6, 0.3)),
                  class_scales=(0.3, 0.3), rotation_deg=0.0, translation=(0.5, 0.5), **_COUNTS),
    "blobs": dict(num_classes=3, class_means=_CIRCLE3, class_scales=(0.3, 0.3, 0.3),
                  rotation_deg=0.0, translation=None, **_COUNTS),
}


class TestBuiltinTasks:
    def test_known_names_build_and_draw(self):
        for name in ("rot40", "rot20", "rot180", "shift", "blobs"):
            spec = builtin_task(name, seed=1)
            assert spec.name == name
            src, tgt, tst = make_synthetic_task(spec)
            assert src.n > 0 and tgt.n > 0 and tst.n > 0

    def test_rot40_is_the_ordering_benchmark(self):
        spec = builtin_task("rot40")
        assert spec.num_classes == 3
        assert spec.dim == 2
        assert spec.rotation_deg == 40.0

    @pytest.mark.parametrize("name", sorted(BUILTIN_SPECS))
    def test_spec_fields(self, name):
        """Each builtin spec, field by field; repr pins the value types too."""
        spec = builtin_task(name, seed=4)
        want = {**BUILTIN_SPECS[name], "name": name, "seed": 4}
        assert set(want) == {f.name for f in dataclasses.fields(TaskSpec)}
        for key, value in want.items():
            assert repr(getattr(spec, key)) == repr(value), key

    def test_seed_is_passed_through(self):
        assert builtin_task("rot40", seed=9).seed == 9

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError):
            builtin_task("rot41")
