"""Deterministic stand-in benchmark files for offline runs.

The three generators write files with exactly the schema of the canonical
benchmark files (column layout, value ranges, missing markers, record
counts, class balance) and a difficulty profile calibrated so that the
library's reference experiments land near their published accuracy bands.
They exist so the experiment pipeline and its acceptance tests can run on
machines without the real files; results on the real files will differ
slightly.  Every generator is a pure function of its seed.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import ConfigurationError, check_int

FILENAMES = {
    "cancer1": "breast-cancer-wisconsin.data",
    "glass": "glass.data",
    "diabetes": "pima-indians-diabetes.data",
}

DEFAULT_SEED = 20240901

# The attributes each generator makes informative, 1-based as in the
# generators' comments: cancer1's four strong attributes, and diabetes's
# glucose-like one, which dominates.  Glass has no such split.
SIGNAL = {"cancer1": (1, 2, 6, 9), "diabetes": (2,)}


def _clip_round(values: np.ndarray, lo: int, hi: int) -> np.ndarray:
    return np.clip(np.rint(values), lo, hi).astype(int)


# Per-attribute (benign center, benign spread, malignant center, malignant
# spread) on the 1..10 scale.  Attributes 1, 6, 9 rise strongly with
# malignancy and attribute 2 falls with it (the network has no bias units,
# so separability must come from value directions, not a shared offset);
# the rest are weak correlates, mirroring how redundant the real
# attributes are.
_CANCER_PROFILE = (
    (2.2, 1.2, 7.0, 1.7),  # 1: strong
    (6.4, 1.7, 2.9, 1.5),  # 2: strong, reversed direction
    (3.0, 2.0, 3.8, 2.2),  # 3: weak
    (3.0, 2.0, 3.8, 2.2),  # 4: weak
    (3.1, 2.1, 3.7, 2.2),  # 5: weak
    (2.1, 1.2, 7.1, 1.8),  # 6: strong
    (3.0, 2.0, 3.9, 2.3),  # 7: weak
    (3.1, 2.0, 3.7, 2.2),  # 8: weak
    (2.3, 1.3, 6.8, 1.7),  # 9: strong
)


def write_cancer_like(path: str | Path, seed: int = DEFAULT_SEED) -> Path:
    """Write a 699-record file shaped like the breast-cytology benchmark.

    Nine integer attributes in 1..10 following ``_CANCER_PROFILE``; 8
    labels of each class are flipped (class totals preserved) so the
    achievable accuracy tops out near 97.7%.  16 records have a missing
    marker in attribute 6.  Classes: 458 benign (2), 241 malignant (4).
    """
    rng = np.random.default_rng(seed)
    n_total, n_malignant, n_flips_each = 699, 241, 8
    labels = np.zeros(n_total, dtype=int)
    labels[rng.choice(n_total, size=n_malignant, replace=False)] = 1

    attrs = np.zeros((n_total, 9), dtype=int)
    for j, (c0, s0, c1, s1) in enumerate(_CANCER_PROFILE):
        center = np.where(labels == 1, c1, c0)
        spread = np.where(labels == 1, s1, s0)
        attrs[:, j] = _clip_round(rng.normal(center, spread), 1, 10)

    for cls in (0, 1):
        members = np.flatnonzero(labels == cls)
        flip = rng.choice(members, size=n_flips_each, replace=False)
        labels[flip] = 1 - cls

    cells = attrs.astype(object)
    missing_rows = rng.choice(n_total, size=16, replace=False)
    cells[missing_rows, 5] = "?"

    ids = rng.integers(1_000_000, 9_999_999, size=n_total)
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for i in range(n_total):
            row = ",".join(str(c) for c in cells[i])
            fh.write(f"{ids[i]},{row},{2 if labels[i] == 0 else 4}\n")
    return path


def write_diabetes_like(path: str | Path, seed: int = DEFAULT_SEED) -> Path:
    """Write a 768-record file shaped like the diabetes-screening benchmark.

    Eight numeric attributes (counts, pressures, a body-mass index, an age)
    with heavily overlapping class-conditional distributions: the
    glucose-like attribute dominates, two attributes run mildly against the
    class, and the rest add weak signal, so the task is moderately hard and
    no input is fully redundant.  Classes: 500 negative (0), 268 positive (1).
    """
    rng = np.random.default_rng(seed)
    n_total, n_positive = 768, 268
    labels = np.zeros(n_total, dtype=int)
    labels[rng.choice(n_total, size=n_positive, replace=False)] = 1
    pos = labels == 1

    pregnancies = _clip_round(rng.gamma(2.0, 1.7, n_total) + 1.2 * pos, 0, 17)
    glucose = _clip_round(rng.normal(np.where(pos, 144.0, 108.0), 26.0), 44, 199)
    pressure = _clip_round(rng.normal(np.where(pos, 65.0, 72.0), 13.0), 24, 122)
    skin = _clip_round(rng.normal(np.where(pos, 17.0, 23.0), 11.0), 0, 99)
    insulin = _clip_round(np.abs(rng.normal(68.0 + 30.0 * pos, 95.0)), 0, 846)
    bmi = np.round(np.clip(rng.normal(np.where(pos, 34.6, 30.8), 6.6), 18.2, 67.1), 1)
    pedigree = np.round(np.clip(rng.gamma(2.2, np.where(pos, 0.24, 0.19)), 0.078, 2.42), 3)
    age = _clip_round(21 + rng.gamma(np.where(pos, 2.6, 1.7), 7.5), 21, 81)

    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for i in range(n_total):
            fh.write(
                f"{pregnancies[i]},{glucose[i]},{pressure[i]},{skin[i]},"
                f"{insulin[i]},{bmi[i]},{pedigree[i]},{age[i]},{labels[i]}\n"
            )
    return path


# Per-class attribute means for the glass-like generator: refractive index,
# then oxide percentages (Na, Mg, Al, Si, K, Ca, Ba, Fe).  Rows follow the
# label order 1, 2, 3, 5, 6, 7; heavy overlap keeps the task hard.
_GLASS_MEANS = np.array(
    [
        [1.5197, 12.97, 4.41, 0.93, 72.56, 0.40, 8.62, 0.00, 0.07],
        [1.5188, 12.81, 3.53, 1.33, 72.56, 0.51, 9.10, 0.00, 0.10],
        [1.5172, 13.29, 4.39, 0.99, 72.24, 0.34, 8.59, 0.00, 0.07],
        [1.5192, 12.33, 0.01, 2.32, 72.08, 2.03, 10.70, 0.17, 0.07],
        [1.5189, 15.21, 0.81, 1.25, 73.52, 0.00, 9.50, 0.00, 0.00],
        [1.5163, 14.89, 0.00, 2.46, 73.04, 0.21, 8.12, 1.53, 0.00],
    ]
)

_GLASS_SPREADS = np.array([0.0018, 0.52, 0.67, 0.34, 0.52, 0.36, 0.92, 0.20, 0.06])

_GLASS_LABELS = (1, 2, 3, 5, 6, 7)
_GLASS_COUNTS = (70, 76, 17, 13, 9, 29)  # 214 records total


def write_glass_like(path: str | Path, seed: int = DEFAULT_SEED) -> Path:
    """Write a 214-record file shaped like the glass-identification benchmark.

    Six imbalanced classes of oxide compositions with heavily overlapping
    class-conditional distributions; a hard task by construction.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for cls, count in zip(range(6), _GLASS_COUNTS):
        means = _GLASS_MEANS[cls]
        samples = rng.normal(means, _GLASS_SPREADS, size=(count, 9))
        samples[:, 0] = np.clip(samples[:, 0], 1.5112, 1.5339)
        samples[:, 1:] = np.clip(samples[:, 1:], 0.0, None)
        samples[:, 4] = np.clip(samples[:, 4], 69.8, 75.4)
        for row in samples:
            rows.append((row, _GLASS_LABELS[cls]))
    order = rng.permutation(len(rows))

    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for ident, idx in enumerate(order, start=1):
            row, label = rows[idx]
            ri = f"{row[0]:.5f}"
            rest = ",".join(f"{x:.2f}" for x in row[1:])
            fh.write(f"{ident},{ri},{rest},{label}\n")
    return path


_WRITERS = {
    "cancer1": write_cancer_like,
    "glass": write_glass_like,
    "diabetes": write_diabetes_like,
}


def write_benchmark(name: str, path: str | Path, seed: int = DEFAULT_SEED) -> Path:
    """Write the named stand-in benchmark file to ``path``."""
    if name not in _WRITERS:
        raise ConfigurationError(f"unknown benchmark {name!r}; choose from {sorted(_WRITERS)}")
    check_int("seed", seed, 0)
    return _WRITERS[name](path, seed=seed)


def write_all(out_dir: str | Path, seed: int = DEFAULT_SEED) -> dict[str, Path]:
    """Write all three stand-in files into ``out_dir`` under their usual names."""
    check_int("seed", seed, 0)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return {
        name: write_benchmark(name, out_dir / FILENAMES[name], seed=seed)
        for name in sorted(_WRITERS)
    }
