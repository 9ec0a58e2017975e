"""Dataset format, synthetic task, split, and normalization tests."""

import os
import tracemalloc

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

    def test_exact_text(self, tmp_path):
        ds = data.Dataset(x=np.array([[[-0.0], [5e-324]], [[1e308], [0.1]]]),
                          y=np.array([1, 0]), n_classes=2)
        path = tmp_path / "d.csv"
        data.save_dataset(ds, path)
        assert path.read_text() == "#tsc v1 n=2 L=2 F=1 classes=2\n1,-0.0,5e-324\n0,1e+308,0.1\n"
        back = data.load_dataset(path)
        assert back.x.tobytes() == ds.x.tobytes()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_is_not_written(self, tmp_path, value):
        ds = make_dataset(n=3, length=4, n_feat=2, seed=5)
        ds.x[1, 2, 1] = value
        ds.x[2, 0, 0] = np.nan  # a later one is not the one named
        path = tmp_path / "d.csv"
        with pytest.raises(ValueError, match=f"^sample 1, step 2, feature 1: non-finite value "
                                             f"{value}; "):
            data.save_dataset(ds, path)
        assert not path.exists()

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


def outcome(read):
    """What `read()` gives, or the text of the DataFormatError it raises."""
    try:
        return read()
    except DataFormatError as exc:
        return str(exc)


# Each edits the fields of a data line of a file with L=2, F=2.
EDGE_FAULTS = {
    "short row": (lambda f: f[:-1], "expected 5 comma-separated fields, got 4"),
    "bad label": (lambda f: ["x"] + f[1:], "label 'x' is not an integer"),
    "unparsable value": (lambda f: f[:2] + ["oops"] + f[3:],
                         "unparsable value: could not convert string to float: 'oops'"),
    "non-finite value": (lambda f: f[:2] + ["inf"] + f[3:], "non-finite value 'inf'"),
}


class TestBlocks:
    """iter_dataset yields validated blocks; load_dataset writes each line into x."""

    @staticmethod
    def edit(path, line, edit):
        """Apply `edit` to the fields of line number `line` (1-based) of `path`."""
        lines = path.read_text(encoding="utf-8").split("\n")
        lines[line - 1] = ",".join(edit(lines[line - 1].split(",")))
        path.write_text("\n".join(lines), encoding="utf-8")

    def test_blocks_in_file_order(self, tmp_path):
        ds = make_dataset(n=8, seed=20)
        path = tmp_path / "d.csv"
        data.save_dataset(ds, path)
        blocks = list(data.iter_dataset(path, 3))
        assert [b.n_samples for b in blocks] == [3, 3, 2]
        assert all(b.n_classes == ds.n_classes for b in blocks)
        assert np.concatenate([b.x for b in blocks]).tobytes() == ds.x.tobytes()
        np.testing.assert_array_equal(np.concatenate([b.y for b in blocks]), ds.y)

    @pytest.mark.parametrize("n, rows, sizes", [(7, 3, [3, 3, 1]), (3, 2, [2, 1]),
                                                (4, 3, [3, 1]), (2, 1, [1, 1])])
    def test_a_lone_last_sample_is_a_block_of_its_own(self, tmp_path, n, rows, sizes):
        """The last block holds what is left, also when that is one sample."""
        ds = make_dataset(n=n, seed=20)
        path = tmp_path / "d.csv"
        data.save_dataset(ds, path)
        for read in (path, helpers.piped(path, tmp_path)):
            blocks = list(data.iter_dataset(read, rows))
            assert [b.n_samples for b in blocks] == sizes
            assert np.concatenate([b.x for b in blocks]).tobytes() == ds.x.tobytes()

    def test_rows_may_be_a_function_of_the_length(self, tmp_path):
        path = tmp_path / "d.csv"
        data.save_dataset(make_dataset(n=6, length=4), path)
        lengths = []
        blocks = list(data.iter_dataset(path, lambda length: lengths.append(length) or 2))
        assert lengths == [4] and [b.n_samples for b in blocks] == [2, 2, 2]

    @pytest.mark.parametrize("rows", [0, -1])
    def test_rows_must_be_positive(self, tmp_path, rows):
        path = tmp_path / "d.csv"
        data.save_dataset(make_dataset(n=2), path)
        with pytest.raises(ValueError, match="rows must be >= 1"):
            next(data.iter_dataset(path, rows))

    @pytest.mark.parametrize("fault", list(EDGE_FAULTS))
    @pytest.mark.parametrize("line", [4, 5], ids=["last-of-a-block", "first-of-the-next"])
    def test_fault_at_a_block_edge_names_its_line(self, tmp_path, fault, line):
        """With rows=3, lines 2-4 are the first block and 5-7 the second. Both
        readers name the faulty line, and the blocks before it are yielded."""
        path = tmp_path / "d.csv"
        data.save_dataset(make_dataset(n=7, length=2, n_feat=2, seed=21), path)
        edit, message = EDGE_FAULTS[fault]
        self.edit(path, line, edit)
        expected = f"{path}:{line}: {message}"
        with pytest.raises(DataFormatError) as whole:
            data.load_dataset(path)
        assert str(whole.value) == expected
        yielded = []
        with pytest.raises(DataFormatError) as blocked:
            for block in data.iter_dataset(path, 3):
                yielded.append(block.n_samples)
        assert str(blocked.value) == expected
        assert yielded == [3] * (line - 4)

    @pytest.mark.parametrize("rows", [1, 2, 3, 4, 5, None])
    def test_first_faulty_line_wins(self, tmp_path, rows):
        """A bad label on line 2 is named before a short row on line 4 and the
        header's wrong count, whatever the block size."""
        path = tmp_path / "d.csv"
        data.save_dataset(make_dataset(n=5, length=2, n_feat=2, seed=22), path)
        self.edit(path, 4, EDGE_FAULTS["short row"][0])
        self.edit(path, 2, EDGE_FAULTS["bad label"][0])
        text = path.read_text()
        path.write_text(text.replace("n=5", "n=6", 1))
        read = (lambda: data.load_dataset(path)) if rows is None else (
            lambda: list(data.iter_dataset(path, rows)))
        assert outcome(read) == f"{path}:2: label 'x' is not an integer"

    def test_count_mismatch_is_named_after_the_last_line(self, tmp_path):
        path = tmp_path / "d.csv"
        data.save_dataset(make_dataset(n=5, seed=23), path)
        path.write_text(path.read_text().replace("n=5", "n=4", 1))
        yielded = []
        with pytest.raises(DataFormatError, match="n=4 but body has 5 data lines"):
            for block in data.iter_dataset(path, 2):
                yielded.append(block.n_samples)
        assert yielded == [2]  # the last block is never yielded

    def test_lines_past_n_are_counted_not_parsed(self, tmp_path):
        path = tmp_path / "d.csv"
        data.save_dataset(make_dataset(n=2, seed=24), path)
        with open(path, "a") as fh:
            fh.write("garbage\nmore garbage\n")
        with pytest.raises(DataFormatError, match="n=2 but body has 4 data lines"):
            data.load_dataset(path)

    def test_non_utf8_in_a_later_line(self, tmp_path):
        """The message names the line, the first bad byte and its column, and an
        earlier faulty line is still named first."""
        path = tmp_path / "d.csv"
        data.save_dataset(make_dataset(n=6, seed=25), path)
        lines = path.read_bytes().split(b"\n")
        lines[3] = lines[3][:5] + b"\xe2\x82" + lines[3][7:]  # line 4
        path.write_bytes(b"\n".join(lines))
        expected = f"{path}:4: not UTF-8 text: byte 0xe2 in column 6"
        for rows in (1, 2, 4):
            assert outcome(lambda: list(data.iter_dataset(path, rows))) == expected
        assert outcome(lambda: data.load_dataset(path)) == expected
        fields = lines[2].split(b",")  # line 3
        lines[2] = b",".join([fields[0], b"inf", *fields[2:]])
        path.write_bytes(b"\n".join(lines))
        assert outcome(lambda: data.load_dataset(path)) == f"{path}:3: non-finite value 'inf'"

    def test_non_utf8_in_the_header(self, tmp_path):
        path = tmp_path / "d.csv"
        data.save_dataset(make_dataset(n=2, seed=25), path)
        path.write_bytes(path.read_bytes().replace(b"v1", b"v\xff", 1))
        expected = f"{path}:1: not UTF-8 text: byte 0xff in column 7"
        assert outcome(lambda: data.load_dataset(path)) == expected
        assert outcome(lambda: list(data.iter_dataset(path, 1))) == expected

    @pytest.mark.parametrize("field, text", [(0, "0_1"), (2, "0_5"), (1, "\u0661"),
                                             (3, "\u00a01")],
                             ids=["label-underscore", "value-underscore", "arabic-digit",
                                  "no-break-space"])
    def test_underscore_or_non_ascii_field_names_its_line(self, tmp_path, field, text):
        """int and float read these as numbers; the reader does not."""
        path = tmp_path / "d.csv"
        data.save_dataset(make_dataset(n=4, length=2, n_feat=2, seed=28), path)
        self.edit(path, 3, lambda f: f[:field] + [text] + f[field + 1:])
        expected = f"{path}:3: field {text!r} holds '_' or a non-ASCII character"
        assert outcome(lambda: data.load_dataset(path)) == expected
        assert outcome(lambda: list(data.iter_dataset(path, 1))) == expected

    def test_blanks_around_a_field_are_accepted(self, tmp_path):
        ds = make_dataset(n=2, length=2, n_feat=1, seed=29)
        path = tmp_path / "d.csv"
        data.save_dataset(ds, path)
        self.edit(path, 2, lambda f: [f" {f[0]}", f"{f[1]} ", *f[2:]])
        assert data.load_dataset(path).x.tobytes() == ds.x.tobytes()

    @pytest.mark.parametrize("size, reason", [("\u0661", " '#tsc"), ("1" * 5000, ": Exceeds")],
                             ids=["non-ascii-digit", "too-many-digits"])
    def test_header_size_that_int_misreads_or_refuses(self, tmp_path, size, reason):
        path = tmp_path / "d.csv"
        path.write_text(f"#tsc v1 n={size} L=1 F=1 classes=2\n0,1.0\n", encoding="utf-8")
        message = outcome(lambda: data.load_dataset(path))
        assert message.startswith(f"{path}:1: malformed header{reason}")

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_crlf_and_cr_lines(self, tmp_path, newline):
        """Lines split as a text-mode read splits them."""
        ds = make_dataset(n=4, seed=26)
        path = tmp_path / "d.csv"
        data.save_dataset(ds, path)
        path.write_bytes(path.read_bytes().replace(b"\n", newline.encode()))
        back = data.load_dataset(path)
        assert back.x.tobytes() == ds.x.tobytes()
        np.testing.assert_array_equal(back.y, ds.y)
        blocks = list(data.iter_dataset(path, 3))
        assert np.concatenate([b.x for b in blocks]).tobytes() == ds.x.tobytes()

    def test_header_larger_than_its_file_allocates_nothing_for_it(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("#tsc v1 n=1000000000000 L=1000 F=1000 classes=2\n")
        tracemalloc.start()
        try:
            message = outcome(lambda: data.load_dataset(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert message == f"{path}: header declares n=1000000000000 but body has 0 data lines"
        assert peak < 1_000_000

    def test_peak_memory_is_the_array_and_a_line(self, tmp_path):
        """On a 512-line file (8 blocks of 64), load_dataset peaks at 1.06x its array:
        each line is written into x as it is parsed. Reading the whole text first
        peaked at 4.97x."""
        path = tmp_path / "d.csv"
        data.save_dataset(data.synth_freq_task(512, 64, seed=27, n_features=2), path)
        tracemalloc.start()
        try:
            ds = data.load_dataset(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * ds.x.nbytes

    def test_blocks_are_not_held_two_at_a_time(self, tmp_path):
        """iter_dataset drops a block before it allocates the next, so a consumer
        that deletes each block peaks at one block's array and a line: 1.08x on
        4096 x 256 x 4 in blocks of 256. Holding the last block while the next
        was filled peaked at 2.05x."""
        path = tmp_path / "d.csv"
        data.save_dataset(data.synth_freq_task(4096, 256, seed=30, n_features=4), path)
        rows = 256
        tracemalloc.start()
        try:
            for block in data.iter_dataset(path, rows):
                del block
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * rows * 256 * 4 * 8

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_a_pipe_reads_as_its_file(self, tmp_path):
        """A pipe has no size to check the header against; both readers still
        return the file's arrays, and a fault still names its line."""
        ds = make_dataset(n=7, seed=31)
        path = tmp_path / "d.csv"
        data.save_dataset(ds, path)
        assert data.load_dataset(helpers.piped(path, tmp_path)).x.tobytes() == ds.x.tobytes()
        for rows, sizes in ((1, [1] * 7), (2, [2, 2, 2, 1]), (4, [4, 3]), (7, [7])):
            blocks = list(data.iter_dataset(helpers.piped(path, tmp_path), rows))
            assert [len(b.y) for b in blocks] == sizes
            assert np.concatenate([b.x for b in blocks]).tobytes() == ds.x.tobytes()
            assert np.concatenate([b.y for b in blocks]).tolist() == ds.y.tolist()
        self.edit(path, 5, EDGE_FAULTS["bad label"][0])
        fifo = helpers.piped(path, tmp_path)
        assert outcome(lambda: data.load_dataset(fifo)) == f"{fifo}:5: label 'x' is not an integer"

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("piped", [False, True], ids=["file", "pipe"])
    def test_header_larger_than_its_body_allocates_for_the_body(self, tmp_path, piped):
        path = tmp_path / "d.csv"
        path.write_text("#tsc v1 n=1000000000000 L=1000 F=1 classes=2\n"
                        + ("0" + ",1.5" * 1000 + "\n") * 3)
        fifo = helpers.piped(path, tmp_path) if piped else path
        tracemalloc.start()
        try:
            message = outcome(lambda: data.load_dataset(fifo))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert message == f"{fifo}: header declares n=1000000000000 but body has 3 data lines"
        assert peak < 1_000_000

    def test_non_utf8_column_counts_bytes(self, tmp_path):
        path = tmp_path / "d.csv"
        data.save_dataset(make_dataset(n=2, seed=32), path)
        lines = path.read_bytes().split(b"\n")
        lines[2] = b"0,\xc3\xa9\xff" + lines[2][5:]
        path.write_bytes(b"\n".join(lines))
        expected = f"{path}:3: not UTF-8 text: byte 0xff in column 5"
        assert outcome(lambda: data.load_dataset(path)) == expected

    @settings(max_examples=200, deadline=None)
    @given(fuzz=st.data())
    def test_fuzzed_blocks_concatenate_to_load_dataset(self, tmp_path_factory, fuzz):
        """Blocks of 1, 2 or 3 rows, joined, are load_dataset's arrays, or raise its message."""
        n, length, n_feat, n_classes = fuzz.draw(st.tuples(
            st.integers(0, 4), st.integers(0, 2), st.integers(0, 2), st.integers(1, 3)))
        value = st.one_of(st.floats(width=32).map(repr),
                          st.sampled_from(["oops", "", " 1", "0_5", "\u0661"]))
        lines = [f"#tsc v1 n={n} L={length} F={n_feat} classes={n_classes}"]
        for _ in range(max(0, n + fuzz.draw(st.sampled_from([0, 0, 0, -1, 1])))):
            width = max(0, length * n_feat + fuzz.draw(st.sampled_from([0, 0, 0, 0, -1, 1])))
            label = fuzz.draw(st.sampled_from(["0", "1", "2", "-1", "x"]))
            lines.append(",".join([label] + fuzz.draw(st.lists(value, min_size=width,
                                                               max_size=width))))
        newline = fuzz.draw(st.sampled_from(["\n", "\r\n", "\r"]))
        raw = (newline.join(lines) + newline).encode("utf-8")
        if fuzz.draw(st.booleans()):
            at = fuzz.draw(st.integers(0, len(raw)))
            raw = raw[:at] + fuzz.draw(st.sampled_from([b"\xff", b"\xe2\x82"])) + raw[at:]
        path = tmp_path_factory.mktemp("blocks") / "d.csv"
        path.write_bytes(raw)
        whole = outcome(lambda: data.load_dataset(path))
        for rows in (1, 2, 3):
            blocks = outcome(lambda: list(data.iter_dataset(path, rows)))
            if isinstance(whole, str):
                assert blocks == whole
            else:
                sizes = [b.n_samples for b in blocks]
                assert sizes[:-1] == [rows] * (len(sizes) - 1)
                assert 0 < sizes[-1] <= rows
                assert np.concatenate([b.x for b in blocks]).tobytes() == whole.x.tobytes()
                assert np.concatenate([b.y for b in blocks]).tobytes() == whole.y.tobytes()


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


class TestDatasetValidation:
    def test_label_range_checked(self):
        with pytest.raises(ValueError):
            data.Dataset(x=np.zeros((2, 3, 1)), y=np.array([0, 5]), n_classes=2)

    @pytest.mark.parametrize("y, index, value", [
        ([0.5, 1.7, 1.0], 0, "0.5"), ([1.0, 1.7, 0.0], 1, "1.7"), ([0.0, 1.0, np.nan], 2, "nan"),
        ([0.0, np.inf, 1.0], 1, "inf"),
    ])
    def test_labels_that_are_not_whole_numbers_rejected(self, y, index, value):
        """A cast to int64 alone stored [0.5, 1.7, 1.0] as [0, 1, 1]."""
        with pytest.raises(ValueError, match=f"^label {index} is {value}, not a whole number$"):
            data.Dataset(x=np.zeros((3, 4, 1)), y=y, n_classes=2)

    def test_whole_number_float_labels_kept(self):
        ds = data.Dataset(x=np.zeros((3, 4, 1)), y=[0.0, 1.0, 1.0], n_classes=np.int64(2))
        assert ds.y.dtype == np.int64 and ds.y.tolist() == [0, 1, 1]

    @pytest.mark.parametrize("n_classes", [2.0, 2.5, "2", None, 1])
    def test_n_classes_must_be_an_integer_of_two_or_more(self, n_classes):
        with pytest.raises(ValueError, match="^n_classes=.* must be an integer >= 2$"):
            data.Dataset(x=np.zeros((2, 3, 1)), y=[0, 1], n_classes=n_classes)

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            data.Dataset(x=np.zeros((2, 3)), y=np.array([0, 1]), n_classes=2)
