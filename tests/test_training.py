"""Training loop tests: loss, optimizer, early stopping, determinism."""

from dataclasses import replace

import numpy as np
import pytest

from ms4 import autodiff as ad
from ms4 import data, model, ssm, training
from ms4.errors import NumericError


def tiny_dataset(n=40, seed=0, noise=0.2):
    return data.synth_freq_task(n, 32, noise_std=noise, seed=seed)


def tiny_model(dataset, normalized=True, seed=0, dropout=0.0):
    return model.init_model(
        dataset.n_features, 8, 8, dataset.n_classes,
        normalized=normalized, dropout_rate=dropout, seed=seed,
    )


class TestCrossEntropy:
    def test_uniform_logits(self):
        assert training.cross_entropy(np.zeros(10), 3) == pytest.approx(np.log(10.0), abs=1e-12)

    def test_saturated_true_class(self):
        logits = np.zeros(5)
        logits[2] = 50.0
        assert training.cross_entropy(logits, 2) <= 1e-15

    def test_batch_mean(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0]])
        per_sample = [training.cross_entropy(logits[i], i) for i in range(2)]
        assert training.cross_entropy(logits, np.array([0, 1])) == pytest.approx(
            np.mean(per_sample)
        )

    def test_gradient_is_softmax_minus_onehot(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((4, 6))
        labels = np.array([0, 2, 5, 2])
        t = ad.Tensor(logits, requires_grad=True)
        grad = ad.gradients(training.cross_entropy_t(t, labels), {"logits": t})["logits"]
        onehot = np.zeros((4, 6))
        onehot[np.arange(4), labels] = 1.0
        probs = np.exp(logits) / np.exp(logits).sum(axis=-1, keepdims=True)
        expected = (probs - onehot) / 4.0
        np.testing.assert_allclose(grad, expected, rtol=0, atol=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            training.cross_entropy(np.zeros(3), 3)


class TestAdam:
    def test_first_step_magnitude_is_lr(self):
        config = training.TrainConfig(lr=0.001)
        for g0 in (1e-3, 0.5, 17.0):
            params = {"w": np.array([1.0, -2.0])}
            grads = {"w": np.array([g0, -g0])}
            zeros = {"w": np.zeros(2)}
            new_p, _, _ = training.adam_step(params, grads, zeros, zeros, 1, config)
            update = params["w"] - new_p["w"]
            np.testing.assert_allclose(np.abs(update), config.lr, rtol=1e-3)
            assert np.sign(update[0]) == np.sign(g0)

    def test_zero_gradients_fixed_point(self):
        config = training.TrainConfig()
        params = {"w": np.arange(4.0)}
        m = {"w": np.zeros(4)}
        v = {"w": np.zeros(4)}
        for t in range(1, 6):
            params, m, v = training.adam_step(params, {"w": np.zeros(4)}, m, v, t, config)
        np.testing.assert_array_equal(params["w"], np.arange(4.0))

    def test_step_index_validated(self):
        config = training.TrainConfig()
        with pytest.raises(ValueError):
            training.adam_step({}, {}, {}, {}, 0, config)


class TestTrainLoop:
    def test_two_runs_bit_identical(self):
        ds = tiny_dataset()
        config = training.TrainConfig(max_epochs=3, batch_size=8, seed=5)
        results = []
        for _ in range(2):
            mdl = tiny_model(ds, dropout=0.1, seed=1)
            best, history = training.train(mdl, ds, config)
            results.append((best.leaves(), history))
        for name, arr in results[0][0].items():
            np.testing.assert_array_equal(arr, results[1][0][name])
        assert results[0][1].val_loss == results[1][1].val_loss

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_sharded_steps_independent_of_cpu_count(self, monkeypatch, cpus):
        """Batch 64 is two TRAIN_SHARD shards; running them inline or on threads
        gives the same history and parameters, bit for bit."""
        ds = tiny_dataset(n=160, seed=7)
        config = training.TrainConfig(max_epochs=2, patience=2, batch_size=64, seed=8)
        native = training.train(tiny_model(ds, dropout=0.1, seed=9), ds, config)
        monkeypatch.setattr(model.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        sharded = training.train(tiny_model(ds, dropout=0.1, seed=9), ds, config)
        assert sharded[1] == native[1]
        for name, arr in native[0].leaves().items():
            np.testing.assert_array_equal(sharded[0].params[name], arr)

    def test_no_gradient_forward_exceeds_a_shard(self, monkeypatch):
        ds = tiny_dataset(n=160, seed=7)
        sizes, inner = [], model.forward_t

        def recording(x, leaves, *args, **kwargs):
            if any(t.requires_grad for t in leaves.values()):
                sizes.append(len(x.data))
            return inner(x, leaves, *args, **kwargs)

        monkeypatch.setattr(model, "forward_t", recording)
        config = training.TrainConfig(max_epochs=1, batch_size=64, seed=8)
        training.train(tiny_model(ds, dropout=0.1, seed=9), ds, config)
        assert sizes and max(sizes) <= model.TRAIN_SHARD
        assert sum(sizes) == data.split(ds, config.val_fraction, config.seed)[0].n_samples

    def test_repeated_run_builds_the_same_kernels(self, monkeypatch):
        """One run's validation scan arrays must not spare a later run with the same seed
        its work. A training step builds each block's scan maps in its forward and again
        in its backward; each validation builds them once."""
        ds = tiny_dataset()
        mdl = tiny_model(ds)
        config = training.TrainConfig(batch_size=16, max_epochs=2, patience=5, seed=3)
        maps, arrays = [], []
        inner_maps, inner_arrays = ssm.scan_maps, ssm.scan_arrays
        monkeypatch.setattr(ssm, "scan_maps", lambda *a: maps.append(1) or inner_maps(*a))
        monkeypatch.setattr(ssm, "scan_arrays", lambda p: arrays.append(1) or inner_arrays(p))
        counts = []
        for _ in range(2):
            training.train(mdl, ds, config)
            counts.append((len(maps), len(arrays)))
        assert counts[0][1] == 2  # one validation per epoch
        assert counts[1] == (2 * counts[0][0], 2 * counts[0][1])

    def test_float32_model_trains_in_float32(self):
        """Dropout masks and batches take the parameters' dtype, so no leaf is promoted."""
        ds = tiny_dataset()
        mdl = tiny_model(ds, dropout=0.1, seed=1)
        mdl = replace(mdl, params={k: v.astype(np.float32) for k, v in mdl.params.items()})
        best, _ = training.train(mdl, ds, training.TrainConfig(max_epochs=1, batch_size=8))
        assert {k: v.dtype.name for k, v in best.params.items()} == {
            k: "float32" for k in mdl.params}

    def test_patience_one_with_frozen_weights_stops_after_two_epochs(self):
        ds = tiny_dataset()
        config = training.TrainConfig(lr=0.0, patience=1, max_epochs=50, batch_size=8, seed=0)
        _, history = training.train(tiny_model(ds), ds, config)
        assert history.n_epochs == 2

    def test_best_checkpoint_is_min_val_loss(self):
        ds = tiny_dataset(n=60, seed=2)
        config = training.TrainConfig(max_epochs=6, batch_size=8, seed=3)
        best, history = training.train(tiny_model(ds, seed=4), ds, config)
        assert history.best_epoch == int(np.argmin(history.val_loss)) + 1
        _, val_set = data.split(ds, config.val_fraction, config.seed)
        loss, _ = training.evaluate(best, val_set)
        assert loss == pytest.approx(min(history.val_loss), abs=1e-12)

    def test_history_lengths_consistent(self):
        ds = tiny_dataset()
        config = training.TrainConfig(max_epochs=4, batch_size=16, seed=1)
        _, history = training.train(tiny_model(ds), ds, config)
        n = history.n_epochs
        assert n <= config.max_epochs
        assert len(history.train_loss) == len(history.train_acc) == n
        assert len(history.val_loss) == len(history.val_acc) == n

    def test_stability_invariant_after_training(self):
        ds = tiny_dataset(n=60, seed=4)
        config = training.TrainConfig(max_epochs=5, batch_size=8, seed=2)
        best, _ = training.train(tiny_model(ds, seed=3), ds, config)
        for i in range(best.n_layers):
            a_bar, _ = ssm.zoh_discretize(model.block_core(best.params, i))
            assert (np.abs(a_bar) < 1.0).all()

    def test_single_class_data_rejected(self):
        ds = tiny_dataset()
        ds.y[:] = 1
        with pytest.raises(ValueError):
            training.train(tiny_model(ds), ds, training.TrainConfig())

    def test_nan_input_raises_numeric_error(self):
        ds = tiny_dataset()
        ds.x[0, 0, 0] = np.nan
        config = training.TrainConfig(max_epochs=2, batch_size=40, seed=0)
        with pytest.raises(NumericError):
            training.train(tiny_model(ds), ds, config)

    def test_crossing_epoch_recorded(self, monkeypatch):
        """compare_convergence reports the first epoch at or above the threshold."""
        ds = tiny_dataset(n=80, seed=5, noise=0.05)
        config = training.TrainConfig(max_epochs=30, batch_size=16, patience=30)
        histories, inner = [], training.train

        def recording(*args):
            best, history = inner(*args)
            histories.append(history)
            return best, history

        monkeypatch.setattr(training, "train", recording)
        rows = training.compare_convergence(ds, config, [6], 8, 8, 0.75, dropout_rate=0.0)
        assert len(histories) == len(rows) == 2
        for row, history in zip(rows, histories):
            crossing = row["crossing_epoch"]
            if crossing is None:
                assert all(acc < 0.75 for acc in history.val_acc)
            else:
                assert history.val_acc[crossing - 1] >= 0.75
                assert all(acc < 0.75 for acc in history.val_acc[: crossing - 1])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            training.TrainConfig(val_fraction=0.0).validate()
        with pytest.raises(ValueError):
            training.TrainConfig(patience=0).validate()
        for lr in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="lr must be finite and >= 0"):
                training.TrainConfig(lr=lr).validate()


class TestHistoryCsv:
    def test_columns_and_roundtrip(self, tmp_path):
        history = training.TrainHistory(
            train_loss=[0.5, 0.4], train_acc=[0.6, 0.7],
            val_loss=[0.55, 0.45], val_acc=[0.58, 0.68],
            best_epoch=2,
        )
        path = tmp_path / "history.csv"
        training.write_history_csv(history, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,train_loss,train_acc,val_loss,val_acc"
        assert lines[1].split(",")[0] == "1"
        assert float(lines[2].split(",")[3]) == 0.45


class TestConvergenceComparison:
    def test_report_rows_structure(self):
        ds = tiny_dataset(n=40, seed=6, noise=0.1)
        config = training.TrainConfig(max_epochs=3, batch_size=16, patience=10)
        rows = training.compare_convergence(ds, config, [0, 1], 8, 8, threshold=0.6)
        assert len(rows) == 4
        assert {r["model"] for r in rows} == {"MS4", "MS4N"}
        assert {r["seed"] for r in rows} == {0, 1}
        for row in rows:
            assert row["epochs_run"] <= 3
            assert row["crossing_epoch"] is None or 1 <= row["crossing_epoch"] <= 3

    def test_csv_format(self, tmp_path):
        rows = [
            {"seed": 0, "model": "MS4", "crossing_epoch": None, "epochs_run": 3,
             "best_epoch": 2, "best_val_loss": 0.5},
            {"seed": 0, "model": "MS4N", "crossing_epoch": 2, "epochs_run": 3,
             "best_epoch": 3, "best_val_loss": 0.4},
        ]
        path = tmp_path / "report.csv"
        training.write_convergence_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "seed,model,crossing_epoch,epochs_run,best_epoch,best_val_loss"
        assert lines[1].startswith("0,MS4,,3,2,")
        assert lines[2].startswith("0,MS4N,2,3,3,")
