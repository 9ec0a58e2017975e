"""CLI tests: verbs, exit codes, determinism, machine-readable output."""

import hashlib
import json
import os
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ms4 import autodiff as ad
from ms4 import cli, data, evaluate, model, ssm

import helpers

FIXTURES = Path(evaluate.__file__).parent / "fixtures"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A generated dataset plus a briefly trained checkpoint, shared across tests."""
    root = tmp_path_factory.mktemp("cli")
    dataset = root / "d.csv"
    ckpt = root / "model.ckpt"
    history = root / "history.csv"
    assert cli.main([
        "gen", "--n", "60", "--len", "32", "--noise", "0.2",
        "--seed", "0", "--out", str(dataset),
    ]) == 0
    assert cli.main([
        "train", "--data", str(dataset), "--hidden", "8", "--state", "8",
        "--dropout", "0.0", "--epochs", "3", "--batch", "16", "--patience", "5",
        "--seed", "0", "--out", str(ckpt), "--history", str(history),
    ]) == 0
    return root


def nan_dataset(workdir, tmp_path):
    """Copy of the shared dataset with one value of its first sample set to nan."""
    lines = (workdir / "d.csv").read_text().splitlines(keepends=True)
    fields = lines[1].split(",")
    fields[3] = "nan"
    lines[1] = ",".join(fields)
    bad = tmp_path / "nan.csv"
    bad.write_text("".join(lines))
    return bad


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestUsageErrors:
    def test_unknown_verb(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1
        assert "usage" in err

    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "gen", "--n", "10", "--len", "8",
                           "--out", "x.csv", "--bogus", "1")
        assert code == 1
        assert "usage" in err

    def test_missing_required_flag(self, capsys):
        code, _, _ = run(capsys, "gen", "--n", "10")
        assert code == 1

    def test_bad_value_is_usage_error(self, capsys, tmp_path):
        out = tmp_path / "d.csv"
        code, _, err = run(capsys, "gen", "--n", "11", "--len", "8", "--out", str(out))
        assert code == 1  # odd n rejected by the task generator
        assert "error:" in err


class TestFileErrors:
    """A file that cannot be read or written exits 2 with an empty stdout."""

    def test_eval_through_a_regular_file(self, capsys, tmp_path):
        (tmp_path / "f").touch()
        code, out, err = run(capsys, "eval", "--model", str(tmp_path / "f" / "m.ckpt"),
                             "--data", str(tmp_path / "f" / "d.csv"))
        assert (code, out) == (2, "")
        assert err.splitlines()[-1].startswith("error: ")

    def test_gen_out_through_a_regular_file(self, capsys, tmp_path):
        (tmp_path / "f").touch()
        code, out, err = run(capsys, "gen", "--n", "2", "--len", "2",
                             "--out", str(tmp_path / "f" / "d.csv"))
        assert (code, out) == (2, "")
        assert err.splitlines()[-1].startswith("error: ")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    @pytest.mark.parametrize("argv", [
        ["gen", "--n", "2", "--len", "2"],
        ["rank", "--table", str(FIXTURES / "uea_errors.csv")],
    ], ids=["gen", "rank"])
    def test_full_device(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--out", "/dev/full")
        assert (code, out) == (2, "")
        assert "No space left on device" in err


class TestGen:
    def test_task_flag_is_gone(self, capsys, tmp_path):
        out = tmp_path / "d.csv"
        code, stdout, err = run(capsys, "gen", "--task", "freq", "--n", "2", "--len", "2",
                                "--out", str(out))
        assert (code, stdout) == (1, "")
        assert "unrecognized arguments: --task freq" in err
        assert not out.exists()

    def test_deterministic_and_loadable(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "gen", "--n", "20", "--len", "16", "--seed", "3", "--out", str(a))
        run(capsys, "gen", "--n", "20", "--len", "16", "--seed", "3", "--out", str(b))
        assert sha(a) == sha(b)
        ds = data.load_dataset(a)
        assert ds.n_samples == 20 and ds.length == 16

    def test_resolved_seed_printed(self, capsys, tmp_path):
        code, _, err = run(capsys, "gen", "--n", "10", "--len", "8", "--seed", "7",
                           "--out", str(tmp_path / "d.csv"))
        assert code == 0
        assert "seed=7" in err


    def test_zero_length_is_rejected_before_writing(self, capsys, tmp_path):
        out = tmp_path / "d.csv"
        code, stdout, err = run(capsys, "gen", "--n", "4", "--len", "0", "--out", str(out))
        assert (code, stdout) == (1, "")
        assert "length" in err
        assert not out.exists()

    @pytest.mark.parametrize("noise", ["nan", "inf"])
    def test_non_finite_noise_is_rejected_before_writing(self, capsys, tmp_path, noise):
        out = tmp_path / "d.csv"
        code, stdout, err = run(capsys, "gen", "--n", "4", "--len", "8", "--noise", noise,
                                "--out", str(out))
        assert (code, stdout) == (1, "")
        assert f"noise_std must be finite and >= 0, got {noise}" in err
        assert not out.exists()


    def test_noise_that_overflows_to_inf_is_rejected_before_writing(self, capsys, tmp_path):
        """Finite noise can still draw values no reader accepts; none are written."""
        out = tmp_path / "g.csv"
        code, stdout, err = run(capsys, "gen", "--n", "4", "--len", "64", "--noise", "1e308",
                                "--out", str(out))
        assert (code, stdout) == (1, "")
        assert re.search(r"error: sample \d+, step \d+, feature 0: non-finite value -?inf", err)
        assert not out.exists()

    def test_unallocatable_size_is_exit_1(self, capsys, tmp_path):
        out = tmp_path / "d.csv"
        code, stdout, err = run(capsys, "gen", "--n", "1000000000000", "--len", "10",
                                "--out", str(out))
        assert (code, stdout) == (1, "")
        assert "error: out of memory: Unable to allocate" in err
        assert not out.exists()


class TestTrainVerb:
    def test_end_to_end_determinism(self, capsys, tmp_path, workdir):
        """gen then train twice with the same seed: identical history files."""
        dataset = workdir / "d.csv"
        histories = []
        for name in ("h1.csv", "h2.csv"):
            out = tmp_path / name
            code, _, _ = run(
                capsys, "train", "--data", str(dataset), "--hidden", "8", "--state", "8",
                "--dropout", "0.1", "--epochs", "2", "--batch", "16", "--seed", "0",
                "--out", str(tmp_path / "m.ckpt"), "--history", str(out),
            )
            assert code == 0
            histories.append(sha(out))
        assert histories[0] == histories[1]

    def test_history_columns(self, workdir):
        lines = (workdir / "history.csv").read_text().splitlines()
        assert lines[0] == "epoch,train_loss,train_acc,val_loss,val_acc"
        assert len(lines) >= 2

    def test_input_file_not_mutated(self, capsys, workdir, tmp_path):
        dataset = workdir / "d.csv"
        before = sha(dataset)
        run(capsys, "train", "--data", str(dataset), "--hidden", "8", "--state", "8",
            "--epochs", "1", "--batch", "32", "--out", str(tmp_path / "m.ckpt"))
        assert sha(dataset) == before

    def test_missing_data_file_is_exit_2(self, capsys, tmp_path):
        code, _, _ = run(capsys, "train", "--data", str(tmp_path / "nope.csv"),
                         "--out", str(tmp_path / "m.ckpt"))
        assert code == 2

    def test_malformed_data_file_is_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("#tsc v1 n=2 L=2 F=1 classes=2\n0,1.0,2.0\n")
        code, _, _ = run(capsys, "train", "--data", str(bad), "--out", str(tmp_path / "m.ckpt"))
        assert code == 2

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    @pytest.mark.parametrize("verb", ["train", "converge"])
    def test_non_finite_lr_is_usage_error(self, capsys, workdir, tmp_path, verb, lr):
        out = tmp_path / "out"
        code, stdout, err = run(capsys, verb, "--data", str(workdir / "d.csv"), "--hidden", "4",
                                "--state", "4", "--epochs", "1", "--lr", lr, "--out", str(out))
        assert (code, stdout) == (1, "")
        assert f"error: lr must be finite and >= 0, got {lr}" in err
        assert "A_bar" not in err and not out.exists()


class TestEvalVerb:
    def test_prints_single_decimal(self, capsys, workdir):
        code, out, _ = run(capsys, "eval", "--model", str(workdir / "model.ckpt"),
                           "--data", str(workdir / "d.csv"))
        assert code == 0
        value = float(out.strip())
        assert 0.0 <= value <= 1.0

    @pytest.mark.parametrize("batch", ["-1", "0"])
    def test_non_positive_batch_is_usage_error(self, capsys, workdir, batch):
        code, out, err = run(capsys, "eval", "--model", str(workdir / "model.ckpt"),
                             "--data", str(workdir / "d.csv"), "--batch", batch)
        assert (code, out) == (1, "")
        assert "batch_size" in err


class TestStreamVerb:
    def test_check_prints_small_deviation(self, capsys, workdir):
        code, out, _ = run(capsys, "stream", "--model", str(workdir / "model.ckpt"),
                           "--data", str(workdir / "d.csv"), "--check")
        assert code == 0
        assert float(out.strip()) <= 1e-4

    def test_check_scores_in_bounded_forwards(self, capsys, workdir, tmp_path, monkeypatch):
        """The block scan scores forwards of `score_size(8, 256)` samples, and one of what
        is left; the per-step recurrence checks each block and runs no forward."""
        step = model.score_size(8, 256)
        many = tmp_path / "many.csv"
        assert cli.main(["gen", "--n", str(2 * step + 2), "--len", "8",
                         "--out", str(many)]) == 0
        sizes, inner = [], model.forward_t

        def recording(x, leaves, *args, **kwargs):
            sizes.append(x.shape[0])
            return inner(x, leaves, *args, **kwargs)

        monkeypatch.setattr(model, "forward_t", recording)
        capsys.readouterr()
        code, out, _ = run(capsys, "stream", "--model", str(workdir / "model.ckpt"),
                           "--data", str(many), "--check")
        assert code == 0 and float(out) <= 1e-4
        assert sizes == [step, step, 2]

    def test_without_check_prints_error_rate(self, capsys, workdir):
        code, out, _ = run(capsys, "stream", "--model", str(workdir / "model.ckpt"),
                           "--data", str(workdir / "d.csv"))
        assert code == 0
        assert 0.0 <= float(out.strip()) <= 1.0

    def test_impossible_tolerance_is_numeric_failure(self, capsys, workdir):
        """The block scan and the per-step recurrence round differently, so no deviation
        is within a tolerance of 0; the failure prints no number."""
        code, out, err = run(capsys, "stream", "--model", str(workdir / "model.ckpt"),
                             "--data", str(workdir / "d.csv"), "--check", "--tol", "0")
        assert (code, out) == (3, "")
        assert "the block scan and the per-step recurrence deviate by" in err

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_bad_tolerance_is_usage_error(self, capsys, workdir, tol):
        code, out, err = run(capsys, "stream", "--model", str(workdir / "model.ckpt"),
                             "--data", str(workdir / "d.csv"), "--check", "--tol", tol)
        assert (code, out) == (1, "")
        assert f"error: --tol must be >= 0, got {float(tol)}" in err

    def test_nan_in_data_fails_check(self, capsys, workdir, tmp_path):
        # the loader rejects the NaN, so no deviation is ever printed
        code, out, err = run(capsys, "stream", "--model", str(workdir / "model.ckpt"),
                             "--data", str(nan_dataset(workdir, tmp_path)), "--check")
        assert (code, out) == (2, "")
        assert "nan.csv:2" in err


class TestMalformedInputs:
    """Malformed data or checkpoints exit 2; non-finite logits exit 3."""

    @pytest.mark.parametrize("verb", ["eval", "stream"])
    def test_nan_in_data(self, capsys, workdir, tmp_path, verb):
        code, out, err = run(capsys, verb, "--model", str(workdir / "model.ckpt"),
                             "--data", str(nan_dataset(workdir, tmp_path)))
        assert (code, out) == (2, "")
        assert "nan.csv:2" in err and "non-finite" in err

    @pytest.mark.parametrize("header, line", [
        ("n=1 L=1 F=1 classes=1", 1), ("n=1 L=0 F=1 classes=2", 1),
        ("n=1 L=1 F=0 classes=2", 1), ("n=0 L=1 F=1 classes=2", 1),
        ("n=1 L=999999999999 F=1 classes=2", 2),
    ])
    def test_degenerate_header(self, capsys, workdir, tmp_path, header, line):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"#tsc v1 {header}\n" + ("0,1.0\n" if "n=1" in header else ""))
        code, out, err = run(capsys, "eval", "--model", str(workdir / "model.ckpt"),
                             "--data", str(bad))
        assert (code, out) == (2, "")
        assert f"bad.csv:{line}:" in err

    @pytest.mark.parametrize("verb", ["eval", "stream"])
    def test_feature_count_mismatch(self, capsys, workdir, tmp_path, verb):
        wide = tmp_path / "wide.csv"
        assert cli.main(["gen", "--n", "4", "--len", "8", "--features", "2",
                         "--out", str(wide)]) == 0
        capsys.readouterr()
        code, out, err = run(capsys, verb, "--model", str(workdir / "model.ckpt"),
                             "--data", str(wide))
        assert (code, out) == (2, "")
        assert "wide.csv" in err and "model.ckpt" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow under test
    @pytest.mark.parametrize("verb", ["eval", "stream"])
    def test_non_finite_logits(self, capsys, workdir, tmp_path, verb):
        lines = (workdir / "d.csv").read_text().splitlines(keepends=True)
        label, *values = lines[3].rstrip("\n").split(",")
        lines[3] = ",".join([label] + ["1e308"] * len(values)) + "\n"
        huge = tmp_path / "huge.csv"
        huge.write_text("".join(lines))
        code, out, err = run(capsys, verb, "--model", str(workdir / "model.ckpt"),
                             "--data", str(huge))
        assert (code, out) == (3, "")
        assert "huge.csv:4: sample 2" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow under test
    def test_near_overflow_row_fails_eval_and_streams_as_the_recurrence(self, capsys, tmp_path):
        """A finite row of 1e308 overflows the convolution form, but not the block scan's
        partial sums: eval and stream score it as the per-step recurrence does, and
        `stream --check`, whose reference is that recurrence, prints their deviation.
        With a projection that overflows on the row, eval and stream fail and name its
        line."""
        huge, ckpt = tmp_path / "huge.csv", tmp_path / "small.ckpt"
        assert cli.main(["gen", "--n", "20", "--len", "16", "--out", str(huge)]) == 0
        assert cli.main(["train", "--data", str(huge), "--hidden", "4", "--state", "4",
                         "--epochs", "3", "--out", str(ckpt)]) == 0
        lines = huge.read_text().splitlines(keepends=True)
        label, *values = lines[1].rstrip("\n").split(",")
        row = ",".join([label] + ["1e308"] * len(values))
        huge.write_text(lines[0].replace("n=20", "n=1") + row + "\n")  # the header and that row
        capsys.readouterr()
        mdl, x = model.load_checkpoint(ckpt), data.load_dataset(huge).x[0]
        h = x @ mdl.params["w1"] + mdl.params["b1"]
        for i in range(mdl.n_layers):
            y = ssm.stream_sequence(model.block_core(mdl.params, i), h)
            h = model.channel_mix_t(ad.gelu(ad.Tensor(y)), mdl.params, i).data
        mean = ad.Tensor(h.sum(axis=0).reshape(1, 1, -1) / len(x))
        expected = model.classify_t(mean, *(mdl.params[k] for k in ("w3", "b3", "w4", "b4")))
        assert np.isfinite(expected.data).all()
        np.testing.assert_allclose(model.batch_logits(x[None], mdl), expected.data,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(model.stream_logits(mdl, x), expected.data[0],
                                   rtol=0, atol=1e-12)
        for verb in ("eval", "stream"):
            code, out, err = run(capsys, verb, "--model", str(ckpt), "--data", str(huge))
            assert code == 0 and 0.0 <= float(out) <= 1.0, err
        code, out, err = run(capsys, "stream", "--model", str(ckpt), "--data", str(huge),
                             "--check")
        assert code == 0 and float(out) <= 1e-12, err
        # a model whose projection of the row overflows
        wide = model.ModelParams({**mdl.params, "w1": 4.0 * mdl.params["w1"]}, mdl.dropout_rate)
        assert not np.isfinite(x @ wide.params["w1"]).all()
        model.save_checkpoint(wide, ckpt)
        for verb in ("eval", "stream"):
            code, out, err = run(capsys, verb, "--model", str(ckpt), "--data", str(huge))
            assert (code, out) == (3, "")
            assert "huge.csv:2: sample 0" in err

    @pytest.mark.parametrize("text", [b"[1, 2]", b"[" * 100_000, b'{"hyper": "\xff"}'],
                             ids=["top-level-list", "deep-nesting", "non-utf8"])
    @pytest.mark.parametrize("verb", ["eval", "stream"])
    def test_unreadable_checkpoint(self, capsys, workdir, tmp_path, verb, text):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(text)
        code, out, err = run(capsys, verb, "--model", str(bad), "--data", str(workdir / "d.csv"))
        assert (code, out) == (2, "")
        assert "bad.ckpt" in err

    @pytest.mark.parametrize("verb", ["eval", "stream"])
    def test_non_utf8_data(self, capsys, workdir, tmp_path, verb):
        raw = (workdir / "d.csv").read_bytes()
        bad = tmp_path / "bad.csv"
        bad.write_bytes(raw[:60] + b"\xff" + raw[61:])
        code, out, err = run(capsys, verb, "--model", str(workdir / "model.ckpt"),
                             "--data", str(bad))
        assert (code, out) == (2, "")
        assert "bad.csv" in err

    @pytest.mark.parametrize("text", [b"0_5", "\u0661".encode()], ids=["underscore", "arabic"])
    @pytest.mark.parametrize("verb", ["eval", "stream"])
    def test_underscore_or_non_ascii_value(self, capsys, workdir, tmp_path, verb, text):
        """float reads both as a number; the loader names the line instead."""
        bad = with_line(workdir / "d.csv", tmp_path / "bad.csv", 3,
                        lambda line: re.sub(rb",[^,]*", b"," + text, line, count=1))
        code, out, err = run(capsys, verb, "--model", str(workdir / "model.ckpt"),
                             "--data", str(bad))
        assert (code, out) == (2, "")
        assert f"bad.csv:3: field {text.decode()!r} holds '_' or a non-ASCII character" in err

    @pytest.mark.parametrize("verb", ["eval", "stream"])
    def test_huge_hyper_size(self, capsys, workdir, tmp_path, verb):
        doc = json.loads((workdir / "model.ckpt").read_text())
        doc["hyper"]["n_hidden"] = 10**12
        bad = tmp_path / "bad.ckpt"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, verb, "--model", str(bad), "--data", str(workdir / "d.csv"))
        assert (code, out) == (2, "")
        assert "bad.ckpt" in err and "shape" in err

    @pytest.mark.parametrize("field, value", [("n_state", 9), ("n_classes", 1), ("n_layers", 0),
                                              ("head_hidden", 0)])
    def test_bad_hyper_size(self, capsys, workdir, tmp_path, field, value):
        doc = json.loads((workdir / "model.ckpt").read_text())
        doc["hyper"][field] = value
        bad = tmp_path / "bad.ckpt"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, "eval", "--model", str(bad), "--data", str(workdir / "d.csv"))
        assert (code, out) == (2, "")
        assert f"bad.ckpt: malformed checkpoint: {field}={value} must be" in err

    def _eval_with(self, capsys, workdir, tmp_path, name, edit):
        doc = json.loads((workdir / "model.ckpt").read_text())
        edit(doc["params"][name])
        bad = tmp_path / "bad.ckpt"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, "eval", "--model", str(bad),
                             "--data", str(workdir / "d.csv"))
        assert (code, out) == (2, "")
        assert "bad.ckpt" in err and repr(name) in err
        return err

    def test_wrong_shape_parameter(self, capsys, workdir, tmp_path):
        def drop_row(entry):
            rows, cols = entry["shape"]
            entry["shape"] = [rows - 1, cols]
            entry["data"] = entry["data"][cols:]

        err = self._eval_with(capsys, workdir, tmp_path, "w3", drop_row)
        assert "shape" in err

    def test_nan_parameter(self, capsys, workdir, tmp_path):
        def poison(entry):
            entry["data"][0] = float("nan")

        err = self._eval_with(capsys, workdir, tmp_path, "b4", poison)
        assert "non-finite" in err

    @pytest.mark.parametrize("value", ["0_5", True], ids=["string", "boolean"])
    def test_parameter_that_is_not_a_number(self, capsys, workdir, tmp_path, value):
        def poison(entry):
            entry["data"][0] = value

        err = self._eval_with(capsys, workdir, tmp_path, "b1", poison)
        assert "parameter 'b1' holds a value that is not a number" in err


def with_line(path, out, line, edit):
    """Write `path` to `out` with `edit` applied to the bytes of line number `line` (1-based)."""
    lines = path.read_bytes().split(b"\n")
    lines[line - 1] = edit(lines[line - 1])
    out.write_bytes(b"\n".join(lines))
    return out


def overflowing(line):
    """A data line whose values are all 1e308: finite, but its logits are not."""
    label, *values = line.split(b",")
    return b",".join([label] + [b"1e308"] * len(values))


class TestScoringInBlocks:
    """eval and stream score each parsed block in turn: with the outputs of scoring
    the whole file, format faults in any block still winning over numeric ones."""

    BLOCK = model.score_size(8, 256)  # a stream block at L=8
    N = 2 * BLOCK + 46  # three stream blocks, the last a partial one
    # blocks of BLOCK samples for both verbs
    BLOCK_ARGS = {"eval": ["--batch", str(BLOCK)], "stream": []}

    ODD_N = 2 * BLOCK + 1  # one sample past a block of 16, of BLOCK and of 256

    @pytest.fixture(scope="class")
    def long_csv(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("blocks") / "long.csv"
        data.save_dataset(data.synth_freq_task(self.N, 8, noise_std=0.5, seed=11), path)
        return path

    @pytest.fixture(scope="class")
    def odd_csv(self, tmp_path_factory):
        """A file whose last block holds one sample at a block size of 16, BLOCK or 256."""
        path = tmp_path_factory.mktemp("blocks") / "odd.csv"
        ds = data.synth_freq_task(self.ODD_N + 1, 8, noise_std=0.5, seed=12)  # n is even
        data.save_dataset(data.Dataset(ds.x[1:], ds.y[1:], ds.n_classes), path)
        return path

    @staticmethod
    def recorded_batch_logits(monkeypatch):
        """The logits of every `model.batch_logits` call from here on, in call order."""
        recorded, inner = [], model.batch_logits

        def recording(x, mdl, batch_size=model.SCORE_BATCH):
            recorded.append(inner(x, mdl, batch_size))
            return recorded[-1]

        monkeypatch.setattr(model, "batch_logits", recording)
        return recorded

    def eval_block_sizes(self, capsys, workdir, monkeypatch, path, batch):
        """`ms4 eval --batch batch` on `path`, checked to score the bits and print the
        error of scoring the whole file; returns its block sizes."""
        whole_file = model.batch_logits
        recorded = self.recorded_batch_logits(monkeypatch)
        code, out, _ = run(capsys, "eval", "--model", str(workdir / "model.ckpt"),
                           "--data", str(path), "--batch", str(batch))
        assert code == 0
        ds, mdl = data.load_dataset(path), model.load_checkpoint(workdir / "model.ckpt")
        whole = whole_file(ds.x, mdl, batch)
        assert np.concatenate(recorded).tobytes() == whole.tobytes()
        expected = evaluate.misclassification_error(np.argmax(whole, axis=-1), ds.y)
        assert out == f"{expected!r}\n"
        return [len(logits) for logits in recorded]

    @staticmethod
    def blocks(n, batch):
        """The sizes of `n` samples read in blocks of `batch`: full blocks, then what is left."""
        return [batch] * (n // batch) + [n % batch] * (n % batch > 0)

    @pytest.mark.parametrize("batch", [1, 10, 16, 100, BLOCK, 256])
    def test_eval_logits_equal_the_whole_file(self, capsys, workdir, long_csv, monkeypatch,
                                              batch):
        sizes = self.eval_block_sizes(capsys, workdir, monkeypatch, long_csv, batch)
        assert sizes == self.blocks(self.N, batch)

    @pytest.mark.parametrize("batch", [1, 10, 16, BLOCK, 256])
    def test_eval_scores_a_lone_last_sample_as_the_whole_file_does(self, capsys, workdir,
                                                                    odd_csv, monkeypatch,
                                                                    batch):
        """At a batch of 16, BLOCK or 256 the last block holds one sample, which is
        scored in a forward of its own and keeps the whole file's bits."""
        sizes = self.eval_block_sizes(capsys, workdir, monkeypatch, odd_csv, batch)
        assert sizes == self.blocks(self.ODD_N, batch)

    @pytest.mark.parametrize("check", [False, True])
    def test_stream_output_equals_the_whole_file(self, capsys, workdir, long_csv, check):
        code, out, _ = run(capsys, "stream", "--model", str(workdir / "model.ckpt"),
                           "--data", str(long_csv), *(["--check"] if check else []))
        assert code == 0
        ds, mdl = data.load_dataset(long_csv), model.load_checkpoint(workdir / "model.ckpt")
        streamed = np.stack([model.stream_logits(mdl, xi) for xi in ds.x])
        if check:  # against the per-step recurrence over the whole file
            expected = float(np.abs(streamed - cli._recurrence_logits(mdl, ds.x)).max())
        else:
            expected = evaluate.misclassification_error(np.argmax(streamed, axis=-1), ds.y)
        assert out == f"{expected!r}\n"

    def test_stream_check_reference_scores_a_lone_last_sample_alone(self, capsys, workdir,
                                                                    odd_csv, monkeypatch):
        """--check scores the bits of the whole file's `batch_logits`, the last sample
        in a forward of its own."""
        ds, mdl = data.load_dataset(odd_csv), model.load_checkpoint(workdir / "model.ckpt")
        whole = model.batch_logits(ds.x, mdl)
        recorded = self.recorded_batch_logits(monkeypatch)
        code, out, _ = run(capsys, "stream", "--model", str(workdir / "model.ckpt"),
                           "--data", str(odd_csv), "--check")
        assert code == 0 and float(out) <= 1e-4
        assert [len(logits) for logits in recorded] == [self.BLOCK, self.BLOCK, 1]
        assert np.concatenate(recorded).tobytes() == whole.tobytes()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("verb", ["eval", "stream"])
    def test_data_from_a_pipe(self, capsys, workdir, long_csv, tmp_path, verb):
        """A pipe, as `--data <(zcat d.csv.gz)` gives, scores as its file does."""
        args = ["--model", str(workdir / "model.ckpt"), *self.BLOCK_ARGS[verb]]
        code, out, _ = run(capsys, verb, *args, "--data", str(long_csv))
        assert code == 0
        fifo = helpers.piped(long_csv, tmp_path)
        assert run(capsys, verb, *args, "--data", str(fifo))[:2] == (0, out)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow under test
    @pytest.mark.parametrize("verb", ["eval", "stream"])
    def test_non_finite_logit_in_the_second_block(self, capsys, workdir, long_csv, tmp_path,
                                                  verb):
        i = self.BLOCK + 1
        huge = with_line(long_csv, tmp_path / "huge.csv", i + 2, overflowing)
        code, out, err = run(capsys, verb, "--model", str(workdir / "model.ckpt"),
                             "--data", str(huge), *self.BLOCK_ARGS[verb])
        assert (code, out) == (3, "")
        assert f"huge.csv:{i + 2}: sample {i} has non-finite logits" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow under test
    @pytest.mark.parametrize("fault, message", [
        (lambda line: line[:5] + b"\xff" + line[6:], "not UTF-8 text"),
        (lambda line: line.rsplit(b",", 1)[0], f"huge.csv:{BLOCK + 3}: expected"),
    ], ids=["non-utf8", "short-row"])
    @pytest.mark.parametrize("verb", ["eval", "stream"])
    def test_later_format_fault_wins_over_a_non_finite_logit(self, capsys, workdir, long_csv,
                                                             tmp_path, verb, fault, message):
        huge = with_line(long_csv, tmp_path / "huge.csv", 2, overflowing)  # sample 0
        with_line(huge, huge, self.BLOCK + 3, fault)  # the second block's second line
        code, out, err = run(capsys, verb, "--model", str(workdir / "model.ckpt"),
                             "--data", str(huge), *self.BLOCK_ARGS[verb])
        assert (code, out) == (2, "")
        assert message in err

    @pytest.mark.parametrize("verb", ["eval", "stream"])
    def test_feature_count_is_checked_before_scoring(self, capsys, workdir, tmp_path,
                                                     monkeypatch, verb):
        wide = tmp_path / "wide.csv"
        data.save_dataset(data.synth_freq_task(2 * self.BLOCK, 8, n_features=2), wide)
        scored = []
        monkeypatch.setattr(model, "batch_logits", lambda *a, **k: scored.append(a))
        monkeypatch.setattr(model, "stream_logits", lambda *a, **k: scored.append(a))
        code, out, err = run(capsys, verb, "--model", str(workdir / "model.ckpt"),
                             "--data", str(wide), *self.BLOCK_ARGS[verb])
        assert (code, out, scored) == (2, "", [])
        assert "F=2" in err

    def test_eval_peak_memory_does_not_grow_with_n(self, capsys, tmp_path, monkeypatch):
        """On one CPU, so that no two forwards overlap by chance. Reading the whole
        file first peaked at 7.5x the n=256 run at n=4096."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        ckpt = tmp_path / "small.ckpt"
        model.save_checkpoint(model.init_model(1, 4, 4, 2, dropout_rate=0.0, seed=0), ckpt)
        peaks = {}
        for n in (256, 256, 4096):  # the first run warms up
            path = tmp_path / f"{n}.csv"
            data.save_dataset(data.synth_freq_task(n, 16, seed=n), path)
            model.memo.cache_clear()
            tracemalloc.start()
            try:
                code = cli.main(["eval", "--model", str(ckpt), "--data", str(path)])
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0
        capsys.readouterr()
        assert peaks[4096] <= 1.5 * peaks[256]


class TestGradcheckVerb:
    def test_passes_and_prints_table(self, capsys):
        code, out, _ = run(capsys, "gradcheck", "--hidden", "4", "--state", "4",
                           "--features", "2", "--classes", "2", "--len", "8")
        assert code == 0
        assert "max" in out
        assert "w1" in out and "block0.ssm.c_re" in out

    def test_unreachable_tolerance_is_exit_3(self, capsys):
        code, _, err = run(capsys, "gradcheck", "--hidden", "4", "--state", "4",
                           "--features", "2", "--classes", "2", "--len", "8",
                           "--tol", "1e-18")
        assert code == 3
        assert "gradient check failed" in err

    def test_nan_error_is_exit_3(self, capsys, monkeypatch):
        monkeypatch.setattr(ad, "finite_diff_errors", lambda *a, **k: {"w": float("nan")})
        code, _, err = run(capsys, "gradcheck", "--hidden", "4", "--state", "4",
                           "--features", "2", "--classes", "2", "--len", "8")
        assert code == 3
        assert "gradient check failed" in err


    @pytest.mark.parametrize("flag, value, message", [
        pytest.param(flag, "0", f"{flag} must be >= 1", id=flag)
        for flag in ("--len", "--batch", "--features")
    ] + [
        pytest.param("--eps", eps, f"--eps must be finite and > 0, got {float(eps)}",
                     id=f"--eps={eps}")
        for eps in ("0", "-1e-4", "nan", "inf")
    ] + [
        pytest.param("--tol", tol, f"--tol must be >= 0, got {float(tol)}", id=f"--tol={tol}")
        for tol in ("nan", "-1")
    ])
    def test_zero_size_is_usage_error(self, capsys, flag, value, message):
        code, out, err = run(capsys, "gradcheck", "--hidden", "4", "--state", "4",
                             f"{flag}={value}")
        assert (code, out) == (1, "")
        assert f"error: {message}" in err
        assert "Traceback" not in err


class TestKernelDumpVerb:
    def test_writes_len_rows(self, capsys, workdir, tmp_path):
        out = tmp_path / "k.csv"
        code, _, _ = run(capsys, "kernel-dump", "--model", str(workdir / "model.ckpt"),
                         "--len", "12", "--out", str(out))
        assert code == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 12
        parsed = np.array([[float(v) for v in r.split(",")] for r in rows])
        loaded = model.load_checkpoint(workdir / "model.ckpt")
        assert parsed.shape == (12, loaded.n_hidden)

    def test_unallocatable_length_is_exit_1(self, capsys, tmp_path):
        # one channel of one mode: the kernel fails at its (1, 10**6, 10**6) product,
        # after about 100 MB of smaller arrays
        ckpt, out = tmp_path / "tiny.ckpt", tmp_path / "k.csv"
        model.save_checkpoint(model.init_model(1, 1, 2, 2, seed=0), ckpt)
        code, stdout, err = run(capsys, "kernel-dump", "--model", str(ckpt),
                                "--len", "1000000000000", "--out", str(out))
        assert (code, stdout) == (1, "")
        assert "error: out of memory: Unable to allocate" in err
        assert not out.exists()

    def test_bad_block_index(self, capsys, workdir, tmp_path):
        code, _, _ = run(capsys, "kernel-dump", "--model", str(workdir / "model.ckpt"),
                         "--len", "4", "--block", "5", "--out", str(tmp_path / "k.csv"))
        assert code == 1


class TestRankVerb:
    def test_fixture_roundtrip(self, capsys, tmp_path):
        table = evaluate.load_fixture("monster")
        errors = tmp_path / "errors.csv"
        stds = tmp_path / "stds.csv"
        evaluate.write_error_matrix(table, errors)
        evaluate.write_error_matrix(table, stds, matrix=table.stds)
        out = tmp_path / "summary.csv"
        code, _, _ = run(capsys, "rank", "--table", str(errors), "--std", str(stds),
                         "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "model,mean_error,mean_rank,mean_std"
        ms4n = next(line for line in lines if line.startswith("MS4N,"))
        assert abs(float(ms4n.split(",")[1]) - 0.185) <= 0.003

    def test_seed_is_usage_error(self, capsys, tmp_path):
        # rank draws no random numbers, so it takes no --seed
        out = tmp_path / "s.csv"
        code, stdout, err = run(capsys, "rank", "--table", str(tmp_path / "t.csv"),
                                "--out", str(out), "--seed", "0")
        assert (code, stdout) == (1, "")
        assert "unrecognized arguments: --seed 0" in err
        assert not out.exists()

    def test_malformed_table_is_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("model,d1\nA,0.5,0.9\n")
        code, _, _ = run(capsys, "rank", "--table", str(bad), "--out", str(tmp_path / "s.csv"))
        assert code == 2

    def test_non_utf8_table_is_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"model,d1\nA,\xff0.5\n")
        code, out, err = run(capsys, "rank", "--table", str(bad), "--out", str(tmp_path / "s.csv"))
        assert (code, out) == (2, "")
        assert "bad.csv" in err


    @pytest.mark.parametrize(
        "text, where",
        [("model,d1,d2\nA,0.5,nan\nB,0.1,0.2\n", ":2: column 3 ('d2')"),
         ("model,d1,d2\nA,0.5,0.4\nB,inf,0.2\n", ":3: column 2 ('d1')"),
         ("model,d1,d2\nA,0.5,0.4\nA,0.1,0.2\n", ":3: column 1 repeats model 'A'"),
         ("model,d1,d1\nA,0.5,0.4\nB,0.1,0.2\n", ":1: column 3 repeats dataset 'd1'")],
        ids=["nan", "inf", "repeated-model", "repeated-dataset"],
    )
    def test_incomplete_or_duplicated_table_is_exit_2(self, capsys, tmp_path, text, where):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        out = tmp_path / "s.csv"
        code, stdout, err = run(capsys, "rank", "--table", str(bad), "--out", str(out))
        assert (code, stdout) == (2, "")
        assert f"bad.csv{where}" in err
        assert not out.exists()


class TestConvergeVerb:
    def test_report_format(self, capsys, tmp_path, workdir):
        out = tmp_path / "report.csv"
        code, _, err = run(
            capsys, "converge", "--data", str(workdir / "d.csv"), "--seeds", "0,1",
            "--threshold", "0.6", "--hidden", "8", "--state", "8", "--epochs", "2",
            "--batch", "16", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "seed,model,crossing_epoch,epochs_run,best_epoch,best_val_loss"
        assert len(lines) == 1 + 4  # 2 seeds x 2 variants
        assert "MS4N" in err and "MS4" in err

    @pytest.mark.parametrize("threshold", ["nan", "2"])
    def test_threshold_outside_unit_interval_is_usage_error(
        self, capsys, tmp_path, workdir, threshold
    ):
        out = tmp_path / "report.csv"
        code, stdout, err = run(capsys, "converge", "--data", str(workdir / "d.csv"),
                                "--threshold", threshold, "--out", str(out))
        assert (code, stdout) == (1, "")
        assert f"error: threshold must be in [0, 1], got {float(threshold)}" in err
        assert not out.exists()

    def test_bad_seed_list(self, capsys, tmp_path, workdir):
        code, _, _ = run(capsys, "converge", "--data", str(workdir / "d.csv"),
                         "--seeds", "0,x", "--out", str(tmp_path / "r.csv"))
        assert code == 1
