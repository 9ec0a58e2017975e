"""Dataset format, synthetic task, split, and normalization tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ms4 import data
from ms4.errors import DataFormatError

import helpers


def make_dataset(n=6, length=4, n_feat=2, n_classes=3, seed=0):
    rng = np.random.default_rng(seed)
    return data.Dataset(
        x=rng.standard_normal((n, length, n_feat)),
        y=rng.integers(0, n_classes, size=n),
        n_classes=n_classes,
    )


class TestTscCsv:
    def test_roundtrip_value_identical(self, tmp_path):
        ds = make_dataset(seed=1)
        path = tmp_path / "d.csv"
        data.save_dataset(ds, path)
        back = data.load_dataset(path)
        np.testing.assert_array_equal(back.x, ds.x)
        np.testing.assert_array_equal(back.y, ds.y)
        assert back.n_classes == ds.n_classes

    def test_header_layout(self, tmp_path):
        ds = make_dataset(n=3, length=2, n_feat=2, seed=2)
        path = tmp_path / "d.csv"
        data.save_dataset(ds, path)
        text = path.read_text()
        lines = text.split("\n")
        assert lines[0] == "#tsc v1 n=3 L=2 F=2 classes=3"
        assert text.endswith("\n") and not text.endswith("\n\n")
        assert len(lines[1].split(",")) == 1 + 2 * 2

    def test_time_major_order(self, tmp_path):
        ds = data.Dataset(
            x=np.arange(6.0).reshape(1, 3, 2), y=np.array([1]), n_classes=2
        )
        path = tmp_path / "d.csv"
        data.save_dataset(ds, path)
        body = path.read_text().split("\n")[1]
        assert body == "1,0.0,1.0,2.0,3.0,4.0,5.0"

    def test_short_row_names_line(self, tmp_path):
        ds = make_dataset(n=3, seed=3)
        path = tmp_path / "d.csv"
        data.save_dataset(ds, path)
        lines = path.read_text().split("\n")
        lines[2] = ",".join(lines[2].split(",")[:-1])  # drop one value from sample 2
        path.write_text("\n".join(lines))
        with pytest.raises(DataFormatError, match=":3:"):
            data.load_dataset(path)

    def test_body_count_mismatch(self, tmp_path):
        ds = make_dataset(n=3, seed=4)
        path = tmp_path / "d.csv"
        data.save_dataset(ds, path)
        lines = path.read_text().rstrip("\n").split("\n")
        lines.append(lines[-1])  # 4 body rows vs n=3
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match="n=3 but body has 4"):
            data.load_dataset(path)

    def test_garbled_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("#tsc v2 n=1 L=1 F=1 classes=2\n0,1.0\n")
        with pytest.raises(DataFormatError, match=":1:"):
            data.load_dataset(path)

    def test_label_out_of_range(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("#tsc v1 n=1 L=2 F=1 classes=2\n5,1.0,2.0\n")
        with pytest.raises(DataFormatError, match=":2: label 5"):
            data.load_dataset(path)

    def test_unparsable_value(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("#tsc v1 n=1 L=2 F=1 classes=2\n0,1.0,oops\n")
        with pytest.raises(DataFormatError, match=":2:"):
            data.load_dataset(path)

    @settings(max_examples=200, deadline=None)
    @given(
        sizes=st.tuples(*[st.integers(0, 3)] * 4),
        huge_length=st.booleans(),
        rows=st.lists(
            st.tuples(st.integers(-1, 3), st.lists(st.floats(width=32), max_size=6)),
            max_size=4,
        ),
    )
    def test_fuzzed_file_loads_or_raises_format_error(self, tmp_path_factory, sizes,
                                                      huge_length, rows):
        n, length, n_feat, n_classes = sizes
        length = 10**12 if huge_length else length
        path = tmp_path_factory.mktemp("fuzz") / "d.csv"
        body = "".join(",".join([str(label)] + [repr(v) for v in values]) + "\n"
                       for label, values in rows)
        path.write_text(f"#tsc v1 n={n} L={length} F={n_feat} classes={n_classes}\n" + body)
        try:
            ds = data.load_dataset(path)
        except DataFormatError:
            return
        assert ds.x.shape == (n, length, n_feat)


class TestSynthFreqTask:
    def test_balanced_labels(self):
        ds = data.synth_freq_task(100, 32, seed=0)
        assert np.bincount(ds.y).tolist() == [50, 50]

    def test_deterministic(self):
        a = data.synth_freq_task(20, 16, seed=7)
        b = data.synth_freq_task(20, 16, seed=7)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)

    def test_noise_free_classified_by_spectral_peak(self):
        # discrete-spectrum argmax oracle: 0 errors without noise
        f_low, f_high = 0.0625, 0.1875
        ds = data.synth_freq_task(60, 64, f_low=f_low, f_high=f_high, noise_std=0.0, seed=1)
        predicted = helpers.spectral_peak_labels(ds, f_low, f_high)
        assert (predicted == ds.y).all()

    def test_multivariate_variant(self):
        ds = data.synth_freq_task(10, 16, n_features=3, seed=2)
        assert ds.x.shape == (10, 16, 3)
        # each feature is the same sinusoid at a fixed phase offset
        assert not np.allclose(ds.x[0, :, 0], ds.x[0, :, 1])

    def test_unit_amplitude_when_clean(self):
        ds = data.synth_freq_task(10, 256, noise_std=0.0, seed=3)
        assert np.abs(ds.x).max() <= 1.0 + 1e-12

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 5},
            {"n": 10, "f_low": 0.3, "f_high": 0.2},
            {"n": 10, "f_low": 0.1, "f_high": 0.6},
            {"n": 10, "noise_std": -0.5},
        ],
    )
    def test_parameter_errors(self, kwargs):
        with pytest.raises(ValueError):
            data.synth_freq_task(length=16, **{"n": 10, **kwargs})


class TestSplit:
    def test_sizes_90_10(self):
        ds = data.synth_freq_task(100, 8, seed=0)
        train_set, val_set = data.split(ds, 0.1, seed=0)
        assert train_set.n_samples == 90 and val_set.n_samples == 10

    def test_disjoint_union(self):
        ds = make_dataset(n=37, seed=5)
        fingerprint = ds.x[:, 0, 0]
        train_set, val_set = data.split(ds, 0.25, seed=3)
        merged = np.sort(np.concatenate([train_set.x[:, 0, 0], val_set.x[:, 0, 0]]))
        np.testing.assert_array_equal(merged, np.sort(fingerprint))
        assert train_set.n_samples + val_set.n_samples == 37
        assert not np.intersect1d(train_set.x[:, 0, 0], val_set.x[:, 0, 0]).size

    def test_stratified_when_possible(self):
        ds = data.synth_freq_task(100, 8, seed=1)
        _, val_set = data.split(ds, 0.2, seed=0)
        assert np.bincount(val_set.y).tolist() == [10, 10]

    def test_deterministic(self):
        ds = make_dataset(n=50, seed=6)
        a = data.split(ds, 0.2, seed=9)
        b = data.split(ds, 0.2, seed=9)
        np.testing.assert_array_equal(a[0].x, b[0].x)
        np.testing.assert_array_equal(a[1].y, b[1].y)

    def test_empty_side_rejected(self):
        ds = make_dataset(n=4, seed=7)
        with pytest.raises(ValueError):
            data.split(ds, 0.01, seed=0)
        with pytest.raises(ValueError):
            data.split(ds, 1.5, seed=0)


class TestNormalize:
    def test_train_statistics_bounds(self):
        ds = make_dataset(n=30, length=10, n_feat=4, seed=8)
        (norm,) = data.normalize(ds)
        assert np.abs(norm.x.mean(axis=(0, 1))).max() <= 1e-6
        assert np.abs(norm.x.std(axis=(0, 1)) - 1.0).max() <= 1e-6

    def test_constant_feature_maps_to_zero(self):
        ds = make_dataset(n=10, n_feat=3, seed=9)
        ds.x[:, :, 1] = 0.1  # dead channel
        (norm,) = data.normalize(ds)
        np.testing.assert_array_equal(norm.x[:, :, 1], 0.0)
        assert np.isfinite(norm.x).all()

    def test_applies_train_stats_to_others(self):
        train_set = make_dataset(n=20, seed=10)
        val_set = make_dataset(n=8, seed=11)
        norm_train, norm_val = data.normalize(train_set, val_set)
        expected = (val_set.x - train_set.x.mean(axis=(0, 1))) / train_set.x.std(axis=(0, 1))
        np.testing.assert_allclose(norm_val.x, expected, atol=1e-12)

    def test_no_leakage_from_validation(self):
        train_set = make_dataset(n=20, seed=12)
        val_a = make_dataset(n=8, seed=13)
        val_b = data.Dataset(x=val_a.x + 1000.0, y=val_a.y, n_classes=val_a.n_classes)
        norm_train_a, _ = data.normalize(train_set, val_a)
        norm_train_b, _ = data.normalize(train_set, val_b)
        np.testing.assert_array_equal(norm_train_a.x, norm_train_b.x)
        np.testing.assert_array_equal(norm_train_a.feature_mean, norm_train_b.feature_mean)

    def test_original_untouched(self):
        ds = make_dataset(n=5, seed=14)
        before = ds.x.copy()
        data.normalize(ds)
        np.testing.assert_array_equal(ds.x, before)


class TestDatasetValidation:
    def test_label_range_checked(self):
        with pytest.raises(ValueError):
            data.Dataset(x=np.zeros((2, 3, 1)), y=np.array([0, 5]), n_classes=2)

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            data.Dataset(x=np.zeros((2, 3)), y=np.array([0, 1]), n_classes=2)
