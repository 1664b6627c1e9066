"""Benchmark dataset ingestion: parsing, imputation, normalization, splits.

Three comma-separated benchmark formats are supported, each with the class
label as the last field of a record:

* ``cancer1``  - id, 9 integer attributes in 1..10 (``?`` marks missing),
  class label 2 (benign) or 4 (malignant);
* ``glass``    - id, 9 real attributes, class label in {1,2,3,5,6,7};
* ``diabetes`` - 8 real attributes, class label 0 or 1.

Each file is parsed once into a float array of attribute values, with NaN
where the missing marker stood, and an integer array of class indices.
Records are shuffled with a seeded generator and partitioned 50/25/25,
rounding the training and validation sizes up; this gives the PROBEN1
partition sizes (Prechelt, 1994) of all three files: 350/175/174 for the
699 cancer records, 384/192/192 for the 768 diabetes records and 107/54/53
for the 214 glass records.
Imputation (attribute mean) and min-max normalization to [0,1] are fitted
on the training split only; validation and test values are clamped into
[0,1] with the training statistics.  Each :class:`Split` derives its
one-hot training targets from its class indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DatasetError, ParseError, check_int

# the fewest records whose split_counts leave no split empty: (2, 1, 1)
MIN_RECORDS = 4
# the attribute text that marks a missing value, in every benchmark file
MISSING_MARKER = "?"


@dataclass(frozen=True)
class DatasetSpec:
    """Column layout and label mapping of one benchmark file."""

    name: str
    n_attributes: int
    n_classes: int
    class_label_map: dict[str, int]    # label text -> class index
    id_column: int | None = None


CANCER1 = DatasetSpec(
    name="cancer1",
    n_attributes=9,
    n_classes=2,
    class_label_map={"2": 0, "4": 1},
    id_column=0,
)

GLASS = DatasetSpec(
    name="glass",
    n_attributes=9,
    n_classes=6,
    class_label_map={"1": 0, "2": 1, "3": 2, "5": 3, "6": 4, "7": 5},
    id_column=0,
)

DIABETES = DatasetSpec(
    name="diabetes",
    n_attributes=8,
    n_classes=2,
    class_label_map={"0": 0, "1": 1},
    id_column=None,
)

SPECS = {s.name: s for s in (CANCER1, GLASS, DIABETES)}


@dataclass(frozen=True, eq=False)
class Split:
    """Normalized examples and their class indices for one partition.

    Construction copies both arrays, checks that there is at least one
    example, that the examples are real numbers (bool, integer or float;
    stored as float64) and finite, and that every class index is an
    integer in ``[0, n_classes)``, then derives ``targets``, one one-hot
    row of 0.0 and 1.0 per index; training relies on all of this.  The
    three arrays are read-only and no field can be rebound, so the checks
    and the targets hold for the life of the split.  The feature-major
    copies that training reads are the trainer's, made once per call.
    """

    examples: np.ndarray       # float64 [k, n], values in [0, 1]
    class_indices: np.ndarray  # int64 [k], each in [0, n_classes)
    n_classes: int
    targets: np.ndarray = field(init=False, repr=False)  # float64 [k, n_classes], one-hot

    def __post_init__(self) -> None:
        check_int("n_classes", self.n_classes, 1)
        examples, class_indices = np.array(self.examples), np.array(self.class_indices)
        if examples.ndim != 2 or class_indices.shape != examples.shape[:1]:
            raise DatasetError(
                f"split shapes disagree: examples {examples.shape}, "
                f"class indices {class_indices.shape}"
            )
        if len(examples) == 0:
            raise DatasetError("a split needs at least one example")
        if examples.dtype.kind not in "biuf":
            raise DatasetError(f"split examples must be real numbers, got dtype {examples.dtype}")
        examples = examples.astype(np.float64, copy=False)
        if not np.isfinite(examples).all():
            raise DatasetError("split examples must be finite")
        if not (
            np.issubdtype(class_indices.dtype, np.integer)
            and ((class_indices >= 0) & (class_indices < self.n_classes)).all()
        ):
            raise DatasetError(f"class indices must be integers in [0, {self.n_classes})")
        targets = np.zeros((len(class_indices), self.n_classes))
        targets[np.arange(len(class_indices)), class_indices] = 1.0
        for array in (examples, class_indices, targets):
            array.flags.writeable = False
        vars(self).update(examples=examples, class_indices=class_indices, targets=targets)

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


def load_raw(path: str | Path, spec: DatasetSpec) -> tuple[np.ndarray, np.ndarray]:
    """Parse a benchmark file into attribute values and class indices.

    Returns ``(values, class_indices)``: a float64 ``[k, n_attributes]``
    array with NaN where the missing marker stood (the id column, when
    configured, is dropped) and an int64 ``[k]`` array of labels mapped
    through ``spec.class_label_map``.  Each value is parsed once.  Lines
    with the wrong field count, a non-numeric or non-finite attribute, or a
    label outside the map are rejected with their file and line number.
    Blank lines are skipped.  A file with fewer than MIN_RECORDS records
    is rejected with DatasetError naming the file and the count.
    """
    path = Path(path)
    n_columns = spec.n_attributes + 1 + (spec.id_column is not None)  # the label is last
    rows: list[list[float]] = []
    class_indices: list[int] = []
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path.name} line {lineno}"
            fields = [f.strip() for f in line.split(",")]
            if len(fields) != n_columns:
                raise ParseError(f"{where}: expected {n_columns} fields, got {len(fields)}")
            row = []
            for i, value in enumerate(fields[:-1]):
                if i == spec.id_column:
                    continue
                if value == MISSING_MARKER:
                    row.append(math.nan)
                    continue
                try:
                    number = float(value)
                except ValueError:
                    raise ParseError(f"{where}: non-numeric attribute {value!r}") from None
                if not math.isfinite(number):
                    raise ParseError(f"{where}: non-finite attribute {value!r}")
                row.append(number)
            label = fields[-1]
            if label not in spec.class_label_map:
                raise ParseError(f"{where}: class label {label!r} not in the label map")
            rows.append(row)
            class_indices.append(spec.class_label_map[label])
    if len(rows) < MIN_RECORDS:
        raise DatasetError(
            f"{path.name}: too few records ({len(rows)}); the 50/25/25 split "
            f"needs at least {MIN_RECORDS} to leave every split non-empty"
        )
    values = np.array(rows, dtype=np.float64).reshape(len(rows), spec.n_attributes)
    return values, np.array(class_indices, dtype=np.int64)


def split_counts(total: int) -> tuple[int, int, int]:
    """50/25/25 partition sizes, training and validation rounded up."""
    n_train = math.ceil(total / 2)
    n_val = math.ceil((total - n_train) / 2)
    return n_train, n_val, total - n_train - n_val


def prepare(
    raw: tuple[np.ndarray, np.ndarray],
    spec: DatasetSpec,
    split_seed: int,
) -> DatasetBundle:
    """Shuffle, partition, impute and normalize records into three splits.

    ``raw`` is the ``(values, class_indices)`` pair of :func:`load_raw`;
    NaN in ``values`` marks a missing attribute.  Fewer than MIN_RECORDS
    records, which would leave a split empty, raise DatasetError.
    """
    check_int("split_seed", split_seed, 0)
    values, class_indices = np.asarray(raw[0], dtype=np.float64), np.asarray(raw[1])
    if values.shape[1:] != (spec.n_attributes,) or class_indices.shape != values.shape[:1]:
        raise DatasetError(
            f"expected values [k, {spec.n_attributes}] and class indices [k], got "
            f"{values.shape} and {class_indices.shape}"
        )
    k = len(values)
    if k < MIN_RECORDS:
        raise DatasetError(f"too few records ({k}); a 50/25/25 split needs at least {MIN_RECORDS}")
    if np.isinf(values).any():
        raise DatasetError("attribute values must be finite, or NaN where missing")

    order = np.random.default_rng(split_seed).permutation(k)
    values, class_indices = values[order], class_indices[order]
    missing = np.isnan(values)
    n_train, n_val, _ = split_counts(k)

    train_vals, train_miss = values[:n_train], missing[:n_train]
    sums = np.where(train_miss, 0.0, train_vals).sum(axis=0)
    counts = (~train_miss).sum(axis=0)
    means = np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)
    imputed_train = np.where(train_miss, means, train_vals)
    lo = imputed_train.min(axis=0)
    hi = imputed_train.max(axis=0)

    x = np.where(missing, means, values)
    span = hi - lo
    with np.errstate(invalid="ignore", divide="ignore"):
        x = (x - lo) / span
    x[:, span == 0] = 0.0  # attribute constant on train: normalize to 0.0
    x = np.clip(x, 0.0, 1.0)
    splits = (
        Split(x[part], class_indices[part], spec.n_classes)
        for part in (slice(n_train), slice(n_train, n_train + n_val), slice(n_train + n_val, k))
    )
    return DatasetBundle(*splits, normalization=(lo, hi), imputation=means)


def load_bundle(path: str | Path, spec: DatasetSpec, split_seed: int) -> DatasetBundle:
    """Convenience wrapper: parse a file and prepare its bundle."""
    return prepare(load_raw(path, spec), spec, split_seed)
