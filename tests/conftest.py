"""Shared fixtures: benchmark data files, prepared bundles and one run of
each shipped experiment.

Benchmark-shaped data is resolved in this order:

1. ``$NNPRUNE_DATA_DIR/<canonical filename>`` when the variable is set,
2. ``<repo root>/data/<canonical filename>`` when present,
3. a deterministic stand-in file generated into the session tmp dir.

The resolved source ("real" or "synthetic") is echoed once per session so
it is always visible which data a run used.  Benchmark experiments are
configured from the shipped ``configs/<name>.conf`` files.

``shipped_runs`` runs each of ``configs/{cancer1,diabetes,glass}.conf``
once per session, at its split seeds 1-5, through ``run_shipped``.  The
acceptance criteria, the golden comparison and the ``run_experiment``
tests all read that one run; ``tests/test_golden.py`` rewrites the goldens
through the same function.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from nnprune import (
    CANCER1,
    DIABETES,
    GLASS,
    ExperimentConfig,
    ExperimentReport,
    load_bundle,
    load_config,
    run_experiment,
)
from nnprune.synth import FILENAMES, write_benchmark

_REPO = Path(__file__).resolve().parent.parent
_REPO_DATA = _REPO / "data"
_CONFIG_DIR = _REPO / "configs"
SHIPPED = ("cancer1", "diabetes", "glass")


def shipped_config(name, data_path, output_dir, split_seeds=None) -> ExperimentConfig:
    """``configs/<name>.conf`` with its data and output paths, and optionally
    its split seeds, replaced."""
    config = load_config(_CONFIG_DIR / f"{name}.conf")
    config = replace(config, data_path=Path(data_path), output_dir=Path(output_dir))
    if split_seeds is not None:
        config = replace(config, split_seeds=tuple(split_seeds))
    return config


def masked_logistic(z: np.ndarray) -> np.ndarray:
    """The boolean-mask form of the stable logistic: the tests' reference
    for the output stage of the forward pass, written apart from the
    package's one kernel."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@dataclass(frozen=True)
class ShippedRun:
    """One run of a shipped config: what it ran, what it returned, where its
    files are (an absolute path), how long it took and which data it read."""

    config: ExperimentConfig
    report: ExperimentReport
    out: Path
    elapsed: float
    source: str


def run_shipped(workdir: Path, files: dict[str, tuple[Path, str]]) -> dict[str, ShippedRun]:
    """Run every shipped config, at its own split seeds, under ``workdir``.

    ``files`` maps each dataset name to ``(path, source)``, as
    ``benchmark_files`` does.  Each file is copied to ``data/<its usual
    name>`` and each config writes ``out/<name>``, both relative to
    ``workdir``, so the path strings inside ``report.json`` do not depend on
    where the run happens.  ``workdir`` is the working directory during the
    runs; the previous one is restored afterwards, even if a run raises.
    """
    workdir = workdir.resolve()
    (workdir / "data").mkdir(parents=True, exist_ok=True)
    runs: dict[str, ShippedRun] = {}
    old = os.getcwd()
    os.chdir(workdir)
    try:
        for name in SHIPPED:
            path, source = files[name]
            data = Path("data") / FILENAMES[name]
            shutil.copyfile(path, data)
            config = shipped_config(name, data, Path("out") / name)
            start = time.perf_counter()
            report = run_experiment(config)
            elapsed = time.perf_counter() - start
            runs[name] = ShippedRun(config, report, workdir / config.output_dir, elapsed, source)
    finally:
        os.chdir(old)
    return runs


@pytest.fixture(scope="session")
def benchmark_files(tmp_path_factory) -> dict[str, tuple[Path, str]]:
    """Map dataset name -> (path, source) for all three benchmarks."""
    out: dict[str, tuple[Path, str]] = {}
    synth_dir = tmp_path_factory.mktemp("benchmark-data")
    for name, filename in FILENAMES.items():
        env_dir = os.environ.get("NNPRUNE_DATA_DIR")
        candidates = []
        if env_dir:
            candidates.append(Path(env_dir) / filename)
        candidates.append(_REPO_DATA / filename)
        real = next((p for p in candidates if p.is_file()), None)
        if real is not None:
            out[name] = (real, "real")
        else:
            out[name] = (write_benchmark(name, synth_dir / filename), "synthetic")
    sources = {name: src for name, (_, src) in out.items()}
    print(f"\n[benchmark data sources: {sources}]")
    return out


@pytest.fixture(scope="session")
def shipped_runs(benchmark_files, tmp_path_factory) -> dict[str, ShippedRun]:
    """Each shipped config, run once per session on ``benchmark_files``."""
    return run_shipped(tmp_path_factory.mktemp("shipped"), benchmark_files)


@pytest.fixture(name="shipped_config", scope="session")
def shipped_config_fixture():
    """:func:`shipped_config`, for tests that build their own run."""
    return shipped_config


@pytest.fixture(scope="session")
def cancer_file(benchmark_files) -> Path:
    return benchmark_files["cancer1"][0]


@pytest.fixture(scope="session")
def glass_file(benchmark_files) -> Path:
    return benchmark_files["glass"][0]


@pytest.fixture(scope="session")
def diabetes_file(benchmark_files) -> Path:
    return benchmark_files["diabetes"][0]


@pytest.fixture(scope="session")
def cancer_bundle(cancer_file):
    return load_bundle(cancer_file, CANCER1, split_seed=1)


@pytest.fixture(scope="session")
def glass_bundle(glass_file):
    return load_bundle(glass_file, GLASS, split_seed=1)


@pytest.fixture(scope="session")
def diabetes_bundle(diabetes_file):
    return load_bundle(diabetes_file, DIABETES, split_seed=1)
