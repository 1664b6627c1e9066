import numpy as np
import pytest

from nnprune import (
    CANCER1,
    DIABETES,
    GLASS,
    DatasetError,
    DatasetSpec,
    ParseError,
    Split,
    load_raw,
    prepare,
)
from nnprune.data import split_counts


class TestLoadRaw:
    def test_cancer_count(self, cancer_file):
        assert len(load_raw(cancer_file, CANCER1)) == 699

    def test_diabetes_count(self, diabetes_file):
        assert len(load_raw(diabetes_file, DIABETES)) == 768

    def test_glass_count(self, glass_file):
        assert len(load_raw(glass_file, GLASS)) == 214

    def test_id_and_class_stripped(self, cancer_file):
        records = load_raw(cancer_file, CANCER1)
        attrs, label = records[0]
        assert len(attrs) == 9
        assert label in ("2", "4")

    def test_missing_marker_preserved(self, cancer_file):
        records = load_raw(cancer_file, CANCER1)
        n_missing = sum(1 for attrs, _ in records for a in attrs if a == "?")
        assert n_missing >= 1

    def test_wrong_column_count_names_line(self, tmp_path):
        path = tmp_path / "bad.data"
        path.write_text("1,2,3\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 1"):
            load_raw(path, DIABETES)

    def test_non_numeric_attribute_rejected(self, tmp_path):
        path = tmp_path / "bad.data"
        good = ",".join(["1"] * 9)
        path.write_text(f"{good}\n1,2,x,4,5,6,7,8,0\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 2"):
            load_raw(path, DIABETES)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "Infinity", "NaN"])
    def test_non_finite_attribute_rejected(self, tmp_path, value):
        path = tmp_path / "bad.data"
        good = ",".join(["1"] * 9)
        path.write_text(f"{good}\n1,2,{value},4,5,6,7,8,0\n", encoding="utf-8")
        with pytest.raises(ParseError, match=f"bad.data line 2: non-finite attribute '{value}'"):
            load_raw(path, DIABETES)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "ok.data"
        row = ",".join(["1"] * 8) + ",0"
        path.write_text(f"{row}\n\n{row}\n", encoding="utf-8")
        assert len(load_raw(path, DIABETES)) == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_raw(tmp_path / "nope.data", DIABETES)


class TestSplitCounts:
    # the first three rows are the PROBEN1 partitions of the benchmark files
    @pytest.mark.parametrize(
        "name,total,expected",
        [
            ("cancer1", 699, (350, 175, 174)),
            ("diabetes", 768, (384, 192, 192)),
            ("glass", 214, (107, 54, 53)),
            ("cancer1", 100, (50, 25, 25)),
        ],
    )
    def test_counts(self, name, total, expected):
        assert split_counts(total) == expected, name

    def test_counts_partition_total(self):
        for total in range(4, 60):
            a, b, c = split_counts(total)
            assert a + b + c == total
            assert a >= b >= c


class TestPrepare:
    def test_cancer_split_sizes(self, cancer_file):
        bundle = prepare(load_raw(cancer_file, CANCER1), CANCER1, split_seed=3)
        assert (len(bundle.train), len(bundle.validation), len(bundle.test)) == (350, 175, 174)

    def test_diabetes_split_sizes(self, diabetes_file):
        bundle = prepare(load_raw(diabetes_file, DIABETES), DIABETES, split_seed=3)
        assert (len(bundle.train), len(bundle.validation), len(bundle.test)) == (384, 192, 192)

    def test_values_normalized(self, cancer_file):
        bundle = prepare(load_raw(cancer_file, CANCER1), CANCER1, split_seed=1)
        for split in (bundle.train, bundle.validation, bundle.test):
            assert np.all(split.examples >= 0.0)
            assert np.all(split.examples <= 1.0)
            assert np.all(np.isfinite(split.examples))

    def test_targets_encode_class_indices(self, glass_file):
        bundle = prepare(load_raw(glass_file, GLASS), GLASS, split_seed=1)
        for split in (bundle.train, bundle.validation, bundle.test):
            assert np.all(split.targets.sum(axis=1) == 1.0)
            assert set(np.unique(split.targets)) <= {0.0, 1.0}
            assert np.array_equal(split.targets.argmax(axis=1), split.class_indices)

    def test_deterministic(self, cancer_file):
        raw = load_raw(cancer_file, CANCER1)
        a = prepare(raw, CANCER1, split_seed=9)
        b = prepare(raw, CANCER1, split_seed=9)
        assert np.array_equal(a.train.examples, b.train.examples)
        assert np.array_equal(a.test.class_indices, b.test.class_indices)

    def test_seed_changes_assignment(self, cancer_file):
        raw = load_raw(cancer_file, CANCER1)
        a = prepare(raw, CANCER1, split_seed=1)
        b = prepare(raw, CANCER1, split_seed=2)
        assert not np.array_equal(a.train.examples, b.train.examples)

    def test_partition_disjoint_and_exhaustive(self):
        # encode record identity in the class label: across the three splits
        # the indices must be exactly a permutation of all records
        k = 30
        spec = DatasetSpec(
            name="identity",
            n_attributes=1,
            n_classes=k,
            class_column=1,
            class_label_map={str(i): i for i in range(k)},
        )
        raw = [((str(i % 7),), str(i)) for i in range(k)]
        bundle = prepare(raw, spec, split_seed=5)
        seen = np.concatenate(
            [
                bundle.train.class_indices,
                bundle.validation.class_indices,
                bundle.test.class_indices,
            ]
        )
        assert sorted(seen.tolist()) == list(range(k))

    def test_no_leakage_of_statistics(self, cancer_file):
        # the bundle's statistics must equal a train-only recomputation on
        # the raw values, and differ from an all-records computation
        raw = load_raw(cancer_file, CANCER1)
        seed = 4
        bundle = prepare(raw, CANCER1, split_seed=seed)

        values = np.zeros((len(raw), 9))
        missing = np.zeros((len(raw), 9), dtype=bool)
        for i, (attrs, _) in enumerate(raw):
            for j, a in enumerate(attrs):
                if a == "?":
                    missing[i, j] = True
                else:
                    values[i, j] = float(a)
        order = np.random.default_rng(seed).permutation(len(raw))
        train_idx = order[:350]

        tv, tm = values[train_idx], missing[train_idx]
        means = np.where(tm, 0.0, tv).sum(axis=0) / (~tm).sum(axis=0)
        assert np.allclose(bundle.imputation, means, rtol=0, atol=0)
        imputed = np.where(tm, means, tv)
        assert np.array_equal(bundle.normalization[0], imputed.min(axis=0))
        assert np.array_equal(bundle.normalization[1], imputed.max(axis=0))

        all_means = np.where(missing, 0.0, values).sum(axis=0) / (~missing).sum(axis=0)
        assert not np.allclose(bundle.imputation, all_means)

    def test_constant_attribute_normalizes_to_zero(self):
        spec = DatasetSpec(
            name="const",
            n_attributes=2,
            n_classes=2,
            class_column=2,
            class_label_map={"0": 0, "1": 1},
        )
        raw = [((str(i), "7"), str(i % 2)) for i in range(12)]
        bundle = prepare(raw, spec, split_seed=1)
        for split in (bundle.train, bundle.validation, bundle.test):
            assert np.all(split.examples[:, 1] == 0.0)

    def test_unmapped_label_rejected(self):
        spec = DatasetSpec(
            name="bad",
            n_attributes=1,
            n_classes=2,
            class_column=1,
            class_label_map={"0": 0, "1": 1},
        )
        raw = [(("1.0",), "0"), (("2.0",), "7")]
        with pytest.raises(DatasetError):
            prepare(raw, spec, split_seed=1)

    def test_empty_raw_rejected(self):
        with pytest.raises(DatasetError):
            prepare([], CANCER1, split_seed=1)

    def test_imputed_values_finite(self, cancer_file):
        bundle = prepare(load_raw(cancer_file, CANCER1), CANCER1, split_seed=1)
        assert np.all(np.isfinite(bundle.imputation))


def split_parts():
    """Examples, one-hot targets and class indices of a valid 3-row split."""
    classes = np.array([0, 1, 1])
    return np.full((3, 2), 0.5), np.eye(2)[classes], classes


class TestSplitInvariants:
    def test_valid_and_empty_splits_accepted(self):
        x, t, c = split_parts()
        assert len(Split(examples=x, targets=t, class_indices=c)) == 3
        empty = Split(np.zeros((0, 2)), np.zeros((0, 2)), np.zeros(0, dtype=np.int64))
        assert len(empty) == 0

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_examples_rejected(self, value):
        x, t, c = split_parts()
        x[1, 0] = value
        with pytest.raises(DatasetError, match="finite"):
            Split(examples=x, targets=t, class_indices=c)

    @pytest.mark.parametrize(
        "row", [[0.0, 0.0], [1.0, 1.0], [0.5, 0.5], [2.0, -1.0], [np.nan, 1.0]]
    )
    def test_non_one_hot_targets_rejected(self, row):
        x, t, c = split_parts()
        t[2] = row
        with pytest.raises(DatasetError, match="one-hot"):
            Split(examples=x, targets=t, class_indices=c)

    def test_targets_disagreeing_with_class_indices_rejected(self):
        x, t, c = split_parts()
        c[0] = 1
        with pytest.raises(DatasetError, match="class indices"):
            Split(examples=x, targets=t, class_indices=c)

    def test_mismatched_shapes_rejected(self):
        x, t, c = split_parts()
        with pytest.raises(DatasetError, match="shapes"):
            Split(examples=x, targets=t, class_indices=c[:2])
