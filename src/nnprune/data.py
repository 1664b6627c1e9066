"""Benchmark dataset ingestion: parsing, imputation, normalization, splits.

Three comma-separated benchmark formats are supported:

* ``cancer1``  - id, 9 integer attributes in 1..10 (``?`` marks missing),
  class label 2 (benign) or 4 (malignant);
* ``glass``    - id, 9 real attributes, class label in {1,2,3,5,6,7};
* ``diabetes`` - 8 real attributes, class label 0 or 1.

Records are shuffled with a seeded generator and partitioned 50/25/25,
rounding the training and validation sizes up; this gives the PROBEN1
partition sizes (Prechelt, 1994) of all three files: 350/175/174 for the
699 cancer records, 384/192/192 for the 768 diabetes records and 107/54/53
for the 214 glass records.
Imputation (attribute mean) and min-max normalization to [0,1] are fitted
on the training split only; validation and test values are clamped into
[0,1] with the training statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DatasetError, ParseError


@dataclass(frozen=True)
class DatasetSpec:
    """Column layout and label mapping of one benchmark file."""

    name: str
    n_attributes: int
    n_classes: int
    class_column: int                  # index into the raw comma-separated fields
    class_label_map: dict[str, int]    # label text -> class index
    id_column: int | None = None
    missing_marker: str = "?"

    @property
    def n_columns(self) -> int:
        return self.n_attributes + 1 + (1 if self.id_column is not None else 0)


CANCER1 = DatasetSpec(
    name="cancer1",
    n_attributes=9,
    n_classes=2,
    class_column=10,
    class_label_map={"2": 0, "4": 1},
    id_column=0,
)

GLASS = DatasetSpec(
    name="glass",
    n_attributes=9,
    n_classes=6,
    class_column=10,
    class_label_map={"1": 0, "2": 1, "3": 2, "5": 3, "6": 4, "7": 5},
    id_column=0,
)

DIABETES = DatasetSpec(
    name="diabetes",
    n_attributes=8,
    n_classes=2,
    class_column=8,
    class_label_map={"0": 0, "1": 1},
    id_column=None,
)

SPECS = {s.name: s for s in (CANCER1, GLASS, DIABETES)}


@dataclass
class Split:
    """Normalized examples with one-hot targets for one partition."""

    examples: np.ndarray       # float64 [k, n], values in [0, 1]
    targets: np.ndarray        # float64 [k, o], one-hot rows
    class_indices: np.ndarray  # int64 [k]

    def __len__(self) -> int:
        return self.examples.shape[0]


@dataclass
class DatasetBundle:
    """Train/validation/test splits plus the statistics fitted on train."""

    train: Split
    validation: Split
    test: Split
    normalization: tuple[np.ndarray, np.ndarray]  # per-attribute (min, max)
    imputation: np.ndarray                        # per-attribute train mean


def load_raw(path: str | Path, spec: DatasetSpec) -> list[tuple[tuple[str, ...], str]]:
    """Parse a benchmark file into (attribute strings, label string) records.

    Missing markers are preserved as-is; the id column, when configured, is
    dropped.  Lines with the wrong field count or non-numeric or non-finite
    attribute values are rejected with their line number.  Blank lines are
    skipped.
    """
    path = Path(path)
    records: list[tuple[tuple[str, ...], str]] = []
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = [f.strip() for f in line.split(",")]
            if len(fields) != spec.n_columns:
                raise ParseError(
                    f"{path.name} line {lineno}: expected {spec.n_columns} "
                    f"fields, got {len(fields)}"
                )
            label = fields[spec.class_column]
            attrs = tuple(
                f
                for i, f in enumerate(fields)
                if i != spec.class_column and i != spec.id_column
            )
            for value in attrs:
                if value == spec.missing_marker:
                    continue
                try:
                    number = float(value)
                except ValueError:
                    raise ParseError(
                        f"{path.name} line {lineno}: non-numeric attribute {value!r}"
                    ) from None
                if not math.isfinite(number):
                    raise ParseError(f"{path.name} line {lineno}: non-finite attribute {value!r}")
            records.append((attrs, label))
    return records


def split_counts(total: int) -> tuple[int, int, int]:
    """50/25/25 partition sizes, training and validation rounded up."""
    n_train = math.ceil(total / 2)
    n_val = math.ceil((total - n_train) / 2)
    return n_train, n_val, total - n_train - n_val


def _encode(
    values: np.ndarray,
    missing: np.ndarray,
    labels: list[str],
    spec: DatasetSpec,
    means: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
) -> Split:
    x = np.where(missing, means, values)
    span = hi - lo
    with np.errstate(invalid="ignore", divide="ignore"):
        x = (x - lo) / span
    x[:, span == 0] = 0.0  # attribute constant on train: normalize to 0.0
    x = np.clip(x, 0.0, 1.0)
    class_indices = np.empty(len(labels), dtype=np.int64)
    for i, label in enumerate(labels):
        if label not in spec.class_label_map:
            raise DatasetError(f"class label {label!r} not in the label map")
        class_indices[i] = spec.class_label_map[label]
    targets = np.zeros((len(labels), spec.n_classes), dtype=np.float64)
    targets[np.arange(len(labels)), class_indices] = 1.0
    return Split(examples=x, targets=targets, class_indices=class_indices)


def prepare(
    raw: list[tuple[tuple[str, ...], str]],
    spec: DatasetSpec,
    split_seed: int,
) -> DatasetBundle:
    """Shuffle, partition, impute, normalize, and one-hot encode records."""
    if not raw:
        raise DatasetError("no records to prepare")
    k = len(raw)
    values = np.zeros((k, spec.n_attributes), dtype=np.float64)
    missing = np.zeros((k, spec.n_attributes), dtype=bool)
    labels: list[str] = []
    for i, (attrs, label) in enumerate(raw):
        labels.append(label)
        for j, f in enumerate(attrs):
            if f == spec.missing_marker:
                missing[i, j] = True
            else:
                values[i, j] = float(f)

    order = np.random.default_rng(split_seed).permutation(k)
    n_train, n_val, _ = split_counts(k)
    parts = (
        order[:n_train],
        order[n_train : n_train + n_val],
        order[n_train + n_val :],
    )

    train_idx = parts[0]
    train_vals = values[train_idx]
    train_miss = missing[train_idx]
    with np.errstate(invalid="ignore"):
        sums = np.where(train_miss, 0.0, train_vals).sum(axis=0)
        counts = (~train_miss).sum(axis=0)
    means = np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)
    imputed_train = np.where(train_miss, means, train_vals)
    lo = imputed_train.min(axis=0)
    hi = imputed_train.max(axis=0)

    splits = [
        _encode(values[idx], missing[idx], [labels[i] for i in idx], spec, means, lo, hi)
        for idx in parts
    ]
    return DatasetBundle(
        train=splits[0],
        validation=splits[1],
        test=splits[2],
        normalization=(lo, hi),
        imputation=means,
    )


def load_bundle(path: str | Path, spec: DatasetSpec, split_seed: int) -> DatasetBundle:
    """Convenience wrapper: parse a file and prepare its bundle."""
    return prepare(load_raw(path, spec), spec, split_seed)
