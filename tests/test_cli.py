"""CLI tests: verbs, exit codes, determinism, machine-readable output."""

import hashlib
import json

import numpy as np
import pytest

from ms4 import autodiff as ad
from ms4 import cli, data, evaluate, model


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
        "gen", "--task", "freq", "--n", "60", "--len", "32", "--noise", "0.2",
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
        code, _, err = run(capsys, "gen", "--task", "freq", "--n", "10", "--len", "8",
                           "--out", "x.csv", "--bogus", "1")
        assert code == 1
        assert "usage" in err

    def test_missing_required_flag(self, capsys):
        code, _, _ = run(capsys, "gen", "--task", "freq", "--n", "10")
        assert code == 1

    def test_bad_value_is_usage_error(self, capsys, tmp_path):
        out = tmp_path / "d.csv"
        code, _, err = run(capsys, "gen", "--n", "11", "--len", "8", "--out", str(out))
        assert code == 1  # odd n rejected by the task generator
        assert "error:" in err


class TestGen:
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


class TestEvalVerb:
    def test_prints_single_decimal(self, capsys, workdir):
        code, out, _ = run(capsys, "eval", "--model", str(workdir / "model.ckpt"),
                           "--data", str(workdir / "d.csv"))
        assert code == 0
        value = float(out.strip())
        assert 0.0 <= value <= 1.0


class TestStreamVerb:
    def test_check_prints_small_deviation(self, capsys, workdir):
        code, out, _ = run(capsys, "stream", "--model", str(workdir / "model.ckpt"),
                           "--data", str(workdir / "d.csv"), "--check")
        assert code == 0
        assert float(out.strip()) <= 1e-4

    def test_without_check_prints_error_rate(self, capsys, workdir):
        code, out, _ = run(capsys, "stream", "--model", str(workdir / "model.ckpt"),
                           "--data", str(workdir / "d.csv"))
        assert code == 0
        assert 0.0 <= float(out.strip()) <= 1.0

    def test_impossible_tolerance_is_numeric_failure(self, capsys, workdir):
        code, _, _ = run(capsys, "stream", "--model", str(workdir / "model.ckpt"),
                         "--data", str(workdir / "d.csv"), "--check", "--tol", "0")
        assert code == 3

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
    def test_near_overflow_row_fails_both_paths(self, capsys, tmp_path):
        """A finite row of 1e308 overflows the batch and the streaming path alike."""
        huge, ckpt = tmp_path / "huge.csv", tmp_path / "small.ckpt"
        assert cli.main(["gen", "--n", "20", "--len", "16", "--out", str(huge)]) == 0
        assert cli.main(["train", "--data", str(huge), "--hidden", "4", "--state", "4",
                         "--epochs", "3", "--out", str(ckpt)]) == 0
        lines = huge.read_text().splitlines(keepends=True)
        label, *values = lines[1].rstrip("\n").split(",")
        lines[1] = ",".join([label] + ["1e308"] * len(values)) + "\n"
        huge.write_text("".join(lines))
        capsys.readouterr()
        for verb in ("eval", "stream"):
            code, out, err = run(capsys, verb, "--model", str(ckpt), "--data", str(huge))
            assert (code, out) == (3, ""), verb
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

    def test_bad_seed_list(self, capsys, tmp_path, workdir):
        code, _, _ = run(capsys, "converge", "--data", str(workdir / "d.csv"),
                         "--seeds", "0,x", "--out", str(tmp_path / "r.csv"))
        assert code == 1
