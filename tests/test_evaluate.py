"""Evaluation harness tests, including the published-table fixtures."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ms4 import evaluate
from ms4.errors import DataFormatError


def small_table():
    return evaluate.EvalTable(
        models=["A", "B", "C"],
        datasets=["d1", "d2"],
        errors=np.array([[0.1, 0.3], [0.2, 0.3], [0.3, 0.1]]),
    )


class TestMisclassificationError:
    def test_all_correct(self):
        assert evaluate.misclassification_error([1, 2, 3], [1, 2, 3]) == 0.0

    def test_all_wrong(self):
        assert evaluate.misclassification_error([0, 0, 0], [1, 2, 3]) == 1.0

    def test_half_wrong(self):
        assert evaluate.misclassification_error([1, 1, 0, 0], [1, 1, 1, 1]) == 0.5

    def test_complements_accuracy(self):
        rng = np.random.default_rng(0)
        pred = rng.integers(0, 3, 50)
        labels = rng.integers(0, 3, 50)
        err = evaluate.misclassification_error(pred, labels)
        assert err == pytest.approx(1.0 - (pred == labels).mean())

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            evaluate.misclassification_error([], [])


class TestAverageRank:
    def test_two_models_one_dataset(self):
        table = evaluate.EvalTable(["A", "B"], ["d"], np.array([[0.1], [0.2]]))
        np.testing.assert_array_equal(evaluate.average_rank(table), [1.0, 2.0])

    def test_exact_tie_averaged(self):
        table = evaluate.EvalTable(["A", "B"], ["d"], np.array([[0.2], [0.2]]))
        np.testing.assert_array_equal(evaluate.average_rank(table), [1.5, 1.5])

    def test_mean_across_datasets(self):
        ranks = evaluate.average_rank(small_table())
        # d1 ranks: A=1, B=2, C=3; d2 ranks: C=1, A=2.5, B=2.5 (tie)
        np.testing.assert_allclose(ranks, [(1 + 2.5) / 2, (2 + 2.5) / 2, (3 + 1) / 2])

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), scale=st.floats(0.1, 0.9))
    def test_invariance_under_monotone_column_maps(self, seed, scale):
        rng = np.random.default_rng(seed)
        errors = rng.uniform(0.0, 1.0, (4, 3))
        base = evaluate.EvalTable(list("ABCD"), ["x", "y", "z"], errors)
        warped = errors.copy()
        warped[:, 1] = scale * warped[:, 1] ** 2  # strictly increasing on [0, 1]
        table2 = evaluate.EvalTable(list("ABCD"), ["x", "y", "z"], warped)
        np.testing.assert_allclose(
            evaluate.average_rank(base), evaluate.average_rank(table2)
        )

    def test_permutation_equivariance(self):
        table = small_table()
        perm = [2, 0, 1]
        shuffled = evaluate.EvalTable(
            [table.models[i] for i in perm], table.datasets, table.errors[perm]
        )
        base = dict(zip(table.models, evaluate.average_rank(table)))
        after = dict(zip(shuffled.models, evaluate.average_rank(shuffled)))
        assert base == after

    def test_incomplete_matrix_rejected(self):
        table = evaluate.EvalTable(["A", "B"], ["d"], np.array([[0.1], [np.nan]]))
        with pytest.raises(ValueError):
            evaluate.average_rank(table)


class TestFoldStd:
    def test_identical_folds(self):
        assert evaluate.fold_std([0.2, 0.2, 0.2]) == 0.0

    def test_two_point_formula(self):
        assert evaluate.fold_std([0.0, 1.0]) == pytest.approx(np.sqrt(0.5), abs=1e-12)

    def test_single_fold_rejected(self):
        with pytest.raises(ValueError):
            evaluate.fold_std([0.3])


class TestSummarize:
    def test_report_fields(self):
        table = small_table()
        table.stds = np.full((3, 2), 0.01)
        rows = evaluate.summarize(table, params={"A": 100}, mmacs={"A": 1.5})
        assert rows[0] == {
            "model": "A",
            "mean_error": pytest.approx(0.2),
            "mean_rank": pytest.approx(1.75),
            "mean_std": pytest.approx(0.01),
            "params": 100,
            "mmac": 1.5,
        }
        assert rows[1]["params"] is None


class TestCsvInterchange:
    def test_matrix_roundtrip(self, tmp_path):
        table = small_table()
        path = tmp_path / "m.csv"
        evaluate.write_error_matrix(table, path)
        back = evaluate.read_error_matrix(path)
        assert back.models == table.models and back.datasets == table.datasets
        np.testing.assert_array_equal(back.errors, table.errors)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("nope,d1\nA,0.5\n")
        with pytest.raises(DataFormatError):
            evaluate.read_error_matrix(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("model,d1,d2\nA,0.5\n")
        with pytest.raises(DataFormatError, match=":2:"):
            evaluate.read_error_matrix(path)

    def test_out_of_range_value(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("model,d1\nA,1.5\n")
        with pytest.raises(DataFormatError):
            evaluate.read_error_matrix(path)

    def test_oversized_field(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("model,d1\nA," + "1" * 200_000 + "\n")
        with pytest.raises(DataFormatError, match="m.csv"):
            evaluate.read_error_matrix(path)

    @settings(max_examples=300, deadline=None)
    @given(raw=st.one_of(
        st.binary(max_size=64),
        st.lists(
            st.lists(st.text(alphabet='model0123456789.-+eEnaif"x \x00\r', max_size=6),
                     max_size=4),
            max_size=4,
        ).map(lambda rows: "\n".join(",".join(row) for row in rows).encode()),
    ))
    def test_fuzzed_file_loads_or_raises_format_error(self, tmp_path_factory, raw):
        path = tmp_path_factory.mktemp("fuzz") / "m.csv"
        path.write_bytes(raw)
        try:
            table = evaluate.read_error_matrix(path)
        except DataFormatError:
            return
        assert table.errors.shape == (len(table.models), len(table.datasets))

    def test_summary_format(self, tmp_path):
        rows = evaluate.summarize(small_table())
        path = tmp_path / "s.csv"
        evaluate.write_summary_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "model,mean_error,mean_rank,mean_std"
        assert lines[1].split(",")[0] == "A"
        assert lines[1].endswith(",")  # no stds supplied


class TestFixtures:
    """The bundled benchmark tables reproduce the published aggregates."""

    def test_monster_shape(self):
        table = evaluate.load_fixture("monster")
        assert len(table.datasets) == 29 and len(table.models) == 14
        assert table.stds is not None and table.stds.shape == table.errors.shape

    def test_uea_shape(self):
        table = evaluate.load_fixture("uea")
        assert len(table.datasets) == 30 and len(table.models) == 12

    def test_monster_headline_means(self):
        table = evaluate.load_fixture("monster")
        assert abs(table.row("MS4N").mean() - 0.185) <= 0.003
        assert abs(table.row("MS4").mean() - 0.191) <= 0.003

    def test_ssm_family_rank_order(self):
        table = evaluate.load_fixture("monster")
        family = table.subset(["MS4N", "MS4", "Mamba1", "Mamba2"])
        ranks = dict(zip(family.models, evaluate.average_rank(family)))
        assert ranks["MS4N"] == min(ranks.values())

    def test_uea_headline_means(self):
        table = evaluate.load_fixture("uea")
        assert table.row("MS4N").mean() == pytest.approx(0.2826, abs=0.0005)
        assert table.row("MS4").mean() == pytest.approx(0.2907, abs=0.0005)

    def test_unknown_fixture(self):
        with pytest.raises(ValueError):
            evaluate.load_fixture("nonexistent")
