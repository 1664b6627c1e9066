"""Inputs, one experiment, output checks and summary statistics.

Each workload is one of the paper's experiments, run exactly as
``configs/<workload>.conf`` says; only ``data_path`` and ``output_dir`` are
pointed into the benchmark's work directory.  The inputs are stand-in data
files written by ``nnprune.synth.write_all`` from a data seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from nnprune import cli, synth
from nnprune.data import SPECS, load_bundle
from nnprune.network import deserialize

WORK_DIR = Path(".bench_work")

# Stand-in data sets per run, each written by its own fresh interpreter.
# The work an experiment does (restarts, elimination batches) depends on its
# data, so one data set per run would make the figures follow the seed; each
# run averages over several (diabetes: 3.7 to 9.5 s per experiment across
# data sets).  cancer1 experiments are short, so it affords more.  glass
# varies most (17.9k to 52k updates per experiment), more than a run of
# reasonable length can average out.
DATA_SETS = {"cancer1": 14, "diabetes": 7, "glass": 5}

# Aggregate accuracy bands (reference, half-width) from
# tests/test_acceptance.py; they hold on the default data seed only.
BANDS = {
    "cancer1": {"full": (0.97143, 0.025), "pruned": (0.96644, 0.030)},
    "diabetes": {"full": (0.77344, 0.030), "pruned": (0.75260, 0.035)},
    "glass": {"full": (0.65277, 0.050), "pruned": (0.63289, 0.050)},
}

_SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import nnprune, nnprune.cli; from nnprune import synth; "
    "synth.write_all(sys.argv[2], seed=int(sys.argv[3]))"
)


def data_seeds(seed: int, count: int) -> list[int]:
    """The run's data seeds: ``seed`` itself, then seeds derived from it."""
    derived = np.random.SeedSequence(entropy=seed).generate_state(count - 1)
    return [seed] + [int(s) for s in derived]


class Case:
    """Work directory of one (workload, data seed): data, config, output."""

    def __init__(self, workload: str, data_seed: int) -> None:
        self.workload = workload
        self.data_seed = data_seed
        self.dir = WORK_DIR / workload / str(data_seed)
        self.data_dir = self.dir / "data"
        self.config = self.dir / f"{workload}.conf"
        self.out = self.dir / "out"

    def write_config(self) -> None:
        """Copy ``configs/<workload>.conf`` with data_path and output_dir
        pointed at this case (paths relative to the copy)."""
        replaced = {
            "data_path": f"data/{synth.FILENAMES[self.workload]}",
            "output_dir": "out",
        }
        lines = []
        for raw in Path("configs", f"{self.workload}.conf").read_text(encoding="utf-8").splitlines():
            key = raw.split("#", 1)[0].partition("=")[0].strip()
            lines.append(f"{key} = {replaced[key]}" if key in replaced else raw)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.config.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def write_data(self) -> float:
        """Write the stand-in files in this process; returns seconds."""
        start = time.perf_counter()
        synth.write_all(self.data_dir, seed=self.data_seed)
        return time.perf_counter() - start

    def setup_probe(self, src: Path) -> float:
        """Time a fresh interpreter that imports nnprune and nnprune.cli and
        writes the stand-in files."""
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(src), str(self.data_dir), str(self.data_seed)],
            check=True,
        )
        return time.perf_counter() - start

    def run(self) -> tuple[int, float]:
        """One ``nnprune run`` in this process; returns (exit code, wall s)."""
        shutil.rmtree(self.out, ignore_errors=True)
        argv = ["run", "--config", str(self.config), "--out", str(self.out), "--jobs", "1"]
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = cli.main(argv)
            wall = time.perf_counter() - start
        return code, wall

    def check(self) -> tuple[list[str], dict[str, float], str]:
        """Check the outputs of the last run.

        Returns (problems, quality metrics, sha256 of report.json).
        """
        problems = []
        report_bytes = (self.out / "report.json").read_bytes()
        doc = json.loads(report_bytes)
        spec = SPECS[self.workload]
        kept = []
        for row in doc["per_seed"]:
            split_seed = row["split_seed"]
            net = deserialize(
                (self.out / "networks" / f"pruned_seed{split_seed}.json").read_text(encoding="utf-8")
            )
            kept.append(net.n_unmasked())
            test = load_bundle(self.data_dir / synth.FILENAMES[self.workload], spec, split_seed).test
            acc = outside_accuracy(net, test)
            if acc != row["pruned_test_accuracy"]:
                problems.append(
                    f"split seed {split_seed}: pruned network scores {acc} on the test split, "
                    f"report says {row['pruned_test_accuracy']}"
                )
        agg = doc["aggregate"]
        quality = {
            "full_test_acc": agg["full_test_accuracy"]["mean"],
            "pruned_test_acc": agg["pruned_test_accuracy"]["mean"],
            "connections_kept": statistics.fmean(kept),
        }
        if self.data_seed == synth.DEFAULT_SEED:
            for kind, metric in (("full", "full_test_acc"), ("pruned", "pruned_test_acc")):
                center, half = BANDS[self.workload][kind]
                if abs(quality[metric] - center) > half:
                    problems.append(f"{metric} {quality[metric]} outside {center} +/- {half}")
        return problems, quality, hashlib.sha256(report_bytes).hexdigest()


def outside_accuracy(net, split) -> float:
    """Test accuracy recomputed with plain numpy, not through the package."""
    z = np.tanh(split.examples @ net.w.T) @ net.v.T
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.where(z >= 0, 1.0 / (1.0 + np.exp(-z)), np.exp(z) / (1.0 + np.exp(z)))
    return float(np.mean(np.argmax(out, axis=1) == split.class_indices))


class DigestStore:
    """report.json digests per (workload, data seed), kept across runs in
    the work directory, so a later run can check byte identity."""

    def __init__(self, path: Path = WORK_DIR / "digests.json") -> None:
        self.path = path
        self.known = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}

    def check(self, case: Case, digest: str) -> list[str]:
        key = f"{case.workload}/{case.data_seed}"
        expected = self.known.setdefault(key, digest)
        if expected != digest:
            return [f"report.json of {key} differs from an earlier run"]
        return []

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(json.dumps(self.known, sort_keys=True, indent=1) + "\n", encoding="utf-8")


def calibrate_ms() -> float:
    """Wall time of a fixed numpy loop shaped like one training epoch."""
    rng = np.random.default_rng(0)
    x, w, v = rng.random((384, 8)), rng.random((3, 8)), rng.random((2, 3))
    start = time.perf_counter()
    for _ in range(2000):
        h = np.tanh(x @ w.T)
        (h @ v.T).T @ h
    return 1e3 * (time.perf_counter() - start)


def tail(samples: list[float]) -> tuple[float, float] | None:
    """Highest nearest-rank percentile with at least ten samples above it,
    as (percentile, value); None with fewer than eleven samples."""
    ordered = sorted(samples)
    rank = len(ordered) - 10
    if rank < 1:
        return None
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def children_peak_kb() -> int:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def peak_rss_mb(children_before_kb: int) -> float:
    """Peak resident memory of this process, or of a child started since
    ``children_before_kb`` was read if one peaked higher (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = children_peak_kb()
    return max(own, children if children > children_before_kb else 0) / 1024.0


def run_metadata() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }

