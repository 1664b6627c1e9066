import tracemalloc
from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np
import pytest

from nnprune import (
    CANCER1,
    DIABETES,
    GLASS,
    ConfigurationError,
    DatasetError,
    DatasetSpec,
    ParseError,
    Split,
    load_bundle,
    load_raw,
    prepare,
)
from nnprune.data import MIN_RECORDS, MISSING_MARKER, SPECS, split_counts
from nnprune.synth import write_all


class TestLoadRaw:
    def test_cancer_count(self, cancer_file):
        assert len(load_raw(cancer_file, CANCER1)[0]) == 699

    def test_diabetes_count(self, diabetes_file):
        assert len(load_raw(diabetes_file, DIABETES)[0]) == 768

    def test_glass_count(self, glass_file):
        assert len(load_raw(glass_file, GLASS)[0]) == 214

    def test_id_and_class_stripped(self, cancer_file):
        values, class_indices = load_raw(cancer_file, CANCER1)
        assert values.shape == (699, 9) and values.dtype == np.float64
        assert class_indices.shape == (699,) and class_indices.dtype == np.int64
        assert set(class_indices.tolist()) <= {0, 1}

    def test_missing_marker_preserved(self, cancer_file):
        values, _ = load_raw(cancer_file, CANCER1)
        assert np.isnan(values).sum() == 16

    def test_unmapped_label_rejected(self, tmp_path):
        spec = DatasetSpec(
            name="bad",
            n_attributes=1,
            n_classes=2,
            class_label_map={"0": 0, "1": 1},
        )
        path = tmp_path / "bad.data"
        path.write_text("1.0,0\n2.0,7\n", encoding="utf-8")
        message = "bad.data line 2: class label '7' not in the label map"
        with pytest.raises(ParseError, match=message):
            load_raw(path, spec)

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
        path.write_text(f"{row}\n\n{row}\n{row}\n\n\n{row}\n", encoding="utf-8")
        assert len(load_raw(path, DIABETES)[0]) == 4

    @pytest.mark.parametrize("records", [0, 1, 3])
    def test_too_few_records_rejected(self, tmp_path, records):
        path = tmp_path / "short.data"
        row = ",".join(["1"] * 8) + ",0"
        path.write_text("\n" + f"{row}\n\n" * records, encoding="utf-8")
        message = rf"short.data: too few records \({records}\); .* at least 4 "
        with pytest.raises(DatasetError, match=message):
            load_raw(path, DIABETES)

    def test_fewest_records_leave_every_split_non_empty(self, tmp_path):
        assert min(split_counts(MIN_RECORDS)) == 1
        assert min(split_counts(MIN_RECORDS - 1)) == 0
        path = tmp_path / "four.data"
        path.write_text("".join(",".join(["1"] * 8) + f",{c}\n" for c in "0110"), encoding="utf-8")
        bundle = prepare(load_raw(path, DIABETES), DIABETES, split_seed=1)
        assert (len(bundle.train), len(bundle.validation), len(bundle.test)) == (2, 1, 1)

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

    @pytest.mark.parametrize("split_seed", [-1, 1.5, True])
    def test_bad_split_seed_rejected(self, cancer_file, split_seed):
        with pytest.raises(ConfigurationError, match="split_seed must be"):
            load_bundle(cancer_file, CANCER1, split_seed)

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
            class_label_map={str(i): i for i in range(k)},
        )
        raw = ((np.arange(k) % 7.0)[:, None], np.arange(k))
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

        values = raw[0]
        missing = np.isnan(values)
        order = np.random.default_rng(seed).permutation(len(values))
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
            class_label_map={"0": 0, "1": 1},
        )
        raw = (np.column_stack([np.arange(12.0), np.full(12, 7.0)]), np.arange(12) % 2)
        bundle = prepare(raw, spec, split_seed=1)
        for split in (bundle.train, bundle.validation, bundle.test):
            assert np.all(split.examples[:, 1] == 0.0)

    def test_empty_raw_rejected(self):
        with pytest.raises(DatasetError, match=r"too few records \(0\)"):
            prepare((np.zeros((0, 9)), np.zeros(0, dtype=np.int64)), CANCER1, split_seed=1)

    @pytest.mark.parametrize("records", range(1, MIN_RECORDS))
    def test_too_few_records_rejected(self, records):
        raw = (np.ones((records, 8)), np.arange(records) % 2)
        with pytest.raises(DatasetError, match=rf"too few records \({records}\); .* at least 4$"):
            prepare(raw, DIABETES, split_seed=1)

    @pytest.mark.parametrize(
        "values,class_indices,match",
        [
            (np.ones((4, 1)), [0, 1, 2, 0], "class indices"),
            (np.ones((4, 1)), [0, 1, -1, 0], "class indices"),
            (np.ones((4, 1)), [0.0, 1.0, 1.0, 0.0], "class indices"),
            (np.ones((4, 2)), [0, 1, 1, 0], "expected values"),
            (np.ones(4), [0, 1, 1, 0], "expected values"),
            (np.ones((4, 1)), [0, 1, 1], "expected values"),
            (np.array([[1.0], [np.inf], [2.0], [3.0]]), [0, 1, 1, 0], "finite"),
            (np.ones(2), [0, 1], "expected values"),
            (np.float64(1.0), np.int64(0), "expected values"),
        ],
    )
    def test_malformed_raw_rejected(self, values, class_indices, match):
        spec = DatasetSpec(
            name="two", n_attributes=1, n_classes=2,
            class_label_map={"0": 0, "1": 1},
        )
        with pytest.raises(DatasetError, match=match):
            prepare((values, np.array(class_indices)), spec, split_seed=1)

    def test_imputed_values_finite(self, cancer_file):
        bundle = prepare(load_raw(cancer_file, CANCER1), CANCER1, split_seed=1)
        assert np.all(np.isfinite(bundle.imputation))


def reference_load_raw(path, spec):
    """The former parser: (attribute strings, label string) records."""
    records = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        fields = [f.strip() for f in line.strip().split(",")]
        if fields != [""]:
            attrs = tuple(f for i, f in enumerate(fields[:-1]) if i != spec.id_column)
            records.append((attrs, fields[-1]))
    return records


def reference_prepare(raw, spec, split_seed):
    """The former ``prepare``: a per-cell parse and a per-split encoding."""
    k = len(raw)
    values = np.zeros((k, spec.n_attributes), dtype=np.float64)
    missing = np.zeros((k, spec.n_attributes), dtype=bool)
    labels = []
    for i, (attrs, label) in enumerate(raw):
        labels.append(label)
        for j, f in enumerate(attrs):
            if f == MISSING_MARKER:
                missing[i, j] = True
            else:
                values[i, j] = float(f)
    order = np.random.default_rng(split_seed).permutation(k)
    n_train, n_val, _ = split_counts(k)
    parts = (order[:n_train], order[n_train : n_train + n_val], order[n_train + n_val :])
    train_vals, train_miss = values[parts[0]], missing[parts[0]]
    sums = np.where(train_miss, 0.0, train_vals).sum(axis=0)
    counts = (~train_miss).sum(axis=0)
    means = np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)
    imputed_train = np.where(train_miss, means, train_vals)
    lo, hi = imputed_train.min(axis=0), imputed_train.max(axis=0)
    splits = []
    for idx in parts:
        x = np.where(missing[idx], means, values[idx])
        span = hi - lo
        with np.errstate(invalid="ignore", divide="ignore"):
            x = (x - lo) / span
        x[:, span == 0] = 0.0
        x = np.clip(x, 0.0, 1.0)
        class_indices = np.array([spec.class_label_map[labels[i]] for i in idx], dtype=np.int64)
        targets = np.zeros((len(idx), spec.n_classes))
        targets[np.arange(len(idx)), class_indices] = 1.0
        splits.append((x, targets, class_indices))
    return splits, (lo, hi), means, parts, missing


# id column, a constant column, blank lines, and missing markers in 9 of 12
# records, so that every split of split seeds 1 and 2 holds some
HAND_SPEC = DatasetSpec(
    name="hand",
    n_attributes=3,
    n_classes=3,
    class_label_map={"a": 0, "b": 1, "c": 2},
    id_column=0,
)
HAND_TEXT = """
101, 0.5, ?, 5, a
102, -1.25, 3e-1, 5, b

103, ?, 0.75, 5, c
104, 2, ?, 5, a
105, ?, ?, 5, b
106, 1e-3, 0.125, 5, c
107, 3.5, ?, 5, a

108, ?, -0.5, 5, b
109, 0.25, ?, 5, c
110, ?, 1.5, 5, a
111, 4, 2.25, 5, b
112, -0.75, ?, 5, c

"""


@pytest.fixture(scope="module")
def differential_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("differential")
    files = {
        (seed, name): (path, SPECS[name])
        for seed in (20240901, 7)
        for name, path in write_all(root / str(seed), seed=seed).items()
    }
    hand = root / "hand.data"
    hand.write_text(HAND_TEXT, encoding="utf-8")
    files[(None, "hand")] = (hand, HAND_SPEC)
    return files


class TestDifferential:
    """``load_raw`` + ``prepare`` equal the former string-record pipeline."""

    @pytest.mark.parametrize("split_seed", [1, 2])
    @pytest.mark.parametrize(
        "data_seed,name",
        [(s, n) for s in (20240901, 7) for n in ("cancer1", "diabetes", "glass")]
        + [(None, "hand")],
    )
    def test_bundle_equals_reference(self, differential_files, data_seed, name, split_seed):
        path, spec = differential_files[(data_seed, name)]
        bundle = prepare(load_raw(path, spec), spec, split_seed)
        splits, normalization, imputation, parts, missing = reference_prepare(
            reference_load_raw(path, spec), spec, split_seed
        )
        if name == "hand":
            assert all(missing[idx].any() for idx in parts)
            assert normalization[0][2] == normalization[1][2]  # constant column
        for split, (examples, targets, class_indices) in zip(
            (bundle.train, bundle.validation, bundle.test), splits
        ):
            assert np.array_equal(split.examples, examples)
            assert np.array_equal(split.targets, targets)
            assert np.array_equal(split.class_indices, class_indices)
        assert np.array_equal(bundle.normalization[0], normalization[0])
        assert np.array_equal(bundle.normalization[1], normalization[1])
        assert np.array_equal(bundle.imputation, imputation)


def split_parts():
    """Examples and class indices of a valid 3-row, 2-class split."""
    return np.full((3, 2), 0.5), np.array([0, 1, 1])


def reference_one_hot(class_indices, n_classes):
    """The former hand-built targets: zeros with a 1.0 at each class index."""
    targets = np.zeros((len(class_indices), n_classes))
    targets[np.arange(len(class_indices)), class_indices] = 1.0
    return targets


class TestSplitInvariants:
    def test_valid_splits_accepted(self):
        x, c = split_parts()
        assert len(Split(x, c, 2)) == 3
        assert len(Split(x[:1], c[:1], 2)) == 1

    @pytest.mark.parametrize("n_attributes", [0, 2])
    @pytest.mark.parametrize("n_classes", [1, 3])
    def test_empty_split_rejected(self, n_attributes, n_classes):
        with pytest.raises(DatasetError, match="a split needs at least one example"):
            Split(np.zeros((0, n_attributes)), np.zeros(0, dtype=np.int64), n_classes)

    @pytest.mark.parametrize(
        "class_indices,n_classes",
        [
            (np.random.default_rng(3).integers(0, 6, size=40), 6),
            (np.random.default_rng(4).integers(0, 2, size=7), 2),
            (np.zeros(5, dtype=np.int64), 1),
        ],
    )
    def test_targets_are_the_one_hot_class_indices(self, class_indices, n_classes):
        split = Split(np.zeros((len(class_indices), 2)), class_indices, n_classes)
        expected = reference_one_hot(class_indices, n_classes)
        assert split.targets.dtype == np.float64
        assert np.array_equal(split.targets, expected)
        assert split.targets.shape == expected.shape

    def test_targets_allocate_only_their_own_size(self):
        # 24 kB of targets; an n_classes x n_classes identity would take 72 MB
        tracemalloc.start()
        try:
            split = Split(np.zeros((1, 9)), [2999], 3000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert split.targets.nbytes == 24_000
        assert peak < 1_000_000

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_examples_rejected(self, value):
        x, c = split_parts()
        x[1, 0] = value
        with pytest.raises(DatasetError, match="finite"):
            Split(x, c, 2)

    @pytest.mark.parametrize(
        "class_indices",
        [
            np.array([0.0, 1.0, 1.0]),
            np.array([0, -1, 1]),
            np.array([0, 2, 1]),
            np.array([True, False, True]),
            np.array(["0", "1", "1"]),
        ],
    )
    def test_bad_class_indices_rejected(self, class_indices):
        x, _ = split_parts()
        with pytest.raises(DatasetError, match=r"class indices must be integers in \[0, 2\)"):
            Split(x, class_indices, 2)

    def test_mismatched_shapes_rejected(self):
        x, c = split_parts()
        with pytest.raises(DatasetError, match="shapes"):
            Split(x, c[:2], 2)

    @pytest.mark.parametrize("shape", [(4,), (3, 1), ()])
    def test_mis_shaped_class_indices_rejected(self, shape):
        x, _ = split_parts()
        with pytest.raises(DatasetError, match="shapes"):
            Split(x, np.zeros(shape, dtype=np.int64), 2)

    def test_targets_are_not_a_constructor_argument(self):
        x, c = split_parts()
        with pytest.raises(TypeError):
            Split(x, c, 2, targets=np.eye(2)[c])

    def test_lists_accepted(self):
        split = Split([[0.5, 0.5], [0.0, 1.0]], [1, 0], 2)
        assert np.array_equal(split.targets, [[0.0, 1.0], [1.0, 0.0]])

    @pytest.mark.parametrize("n_classes", [2.0, True, 0, -1, "2"])
    def test_bad_class_count_rejected(self, n_classes):
        x, c = split_parts()
        with pytest.raises(ConfigurationError, match="n_classes must be"):
            Split(x, np.zeros_like(c), n_classes)

    @pytest.mark.parametrize("name", ["examples", "class_indices", "n_classes", "targets"])
    def test_fields_cannot_be_rebound(self, name):
        split = Split(*split_parts(), 2)
        with pytest.raises(FrozenInstanceError):
            setattr(split, name, getattr(split, name))

    def test_arrays_are_read_only_copies(self):
        x, c = split_parts()
        split = Split(x, c, 2)
        for array in (split.examples, split.class_indices, split.targets):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1
        x[0, 0], c[0] = 1.0, 1  # the caller's arrays stay its own
        assert split.examples[0, 0] == 0.5 and split.class_indices[0] == 0
