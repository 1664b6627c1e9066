"""Shared fixtures: benchmark data files and prepared bundles.

Benchmark-shaped data is resolved in this order:

1. ``$NNPRUNE_DATA_DIR/<canonical filename>`` when the variable is set,
2. ``<repo root>/data/<canonical filename>`` when present,
3. a deterministic stand-in file generated into the session tmp dir.

The resolved source ("real" or "synthetic") is echoed once per session so
it is always visible which data a run used.  Benchmark experiments are
configured from the shipped ``configs/<name>.conf`` files.
"""

from __future__ import annotations

import os
from dataclasses import replace
from pathlib import Path

import pytest

from nnprune import CANCER1, DIABETES, GLASS, load_bundle, load_config
from nnprune.synth import FILENAMES, write_benchmark

_REPO = Path(__file__).resolve().parent.parent
_REPO_DATA = _REPO / "data"
_CONFIG_DIR = _REPO / "configs"


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
def shipped_config():
    """Factory: ``configs/<name>.conf`` with its data and output paths, and
    optionally its split seeds, replaced."""

    def make(name, data_path, output_dir, split_seeds=None):
        config = load_config(_CONFIG_DIR / f"{name}.conf")
        config = replace(config, data_path=Path(data_path), output_dir=Path(output_dir))
        if split_seeds is not None:
            config = replace(config, split_seeds=tuple(split_seeds))
        return config

    return make


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
