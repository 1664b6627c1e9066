"""Tests of the benchmark itself.

    python -m pytest bench -q

They check that the generated inputs depend only on the seed, that every
metric name is well formed and emitted, and that the traced run's wrappers
count exactly the calls a (cut-down) experiment makes.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import spans  # noqa: E402
import workload  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# small enough to run in about a second, large enough to eliminate weights,
# roll batches back and restart
CUT_DOWN = "split_seeds = 1,2\nepochs = 30\nretrain_max_epochs = 5\nmax_restarts = 2\n"


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    """A scratch checkout root holding a copy of the experiment configs."""
    root = tmp_path_factory.mktemp("bench")
    shutil.copytree(ROOT / "configs", root / "configs")
    old = os.getcwd()
    os.chdir(root)
    try:
        yield root
    finally:
        os.chdir(old)


def _files(directory: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(directory)): p.read_bytes()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


def test_data_seeds_depend_only_on_the_seed():
    seeds = workload.data_seeds(7, 5)
    assert seeds == workload.data_seeds(7, 5)
    assert seeds[0] == 7 and len(set(seeds)) == 5
    assert set(workload.data_seeds(8, 5)).isdisjoint(seeds)


def test_inputs_are_deterministic_for_a_seed(work_dir):
    case = workload.Case("glass", 7)
    case.write_config()
    case.write_data()
    first = _files(case.dir)
    shutil.rmtree(case.dir)
    case.write_config()
    case.setup_probe(ROOT / "src")  # a fresh interpreter writes the same bytes
    assert _files(case.dir) == first

    other = workload.Case("glass", 8)
    other.write_data()
    assert _files(other.data_dir) != _files(case.data_dir)


def test_config_copy_changes_only_the_paths(work_dir):
    case = workload.Case("diabetes", 1)
    case.write_config()
    original = (work_dir / "configs" / "diabetes.conf").read_text().splitlines()
    copied = case.config.read_text().splitlines()
    changed = [b for a, b in zip(original, copied) if a != b]
    assert len(original) == len(copied)
    assert sorted(line.split("=")[0].strip() for line in changed) == ["data_path", "output_dir"]


def test_metric_names_are_well_formed_and_unique():
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in DECLARED[kind]]
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(names) == len(set(names))


def _profile_counts(run) -> Counter:
    """Calls to every hooked function, counted by the interpreter's profile
    hook (independent of the wrappers), keyed by span name.  A module hook
    counts only calls made from that module, i.e. through its attribute."""
    targets: dict = {}
    for owner, attr, name in spans.HOOKS:
        module = owner.__name__ if isinstance(owner, types.ModuleType) else None
        targets.setdefault(vars(owner)[attr].__code__, []).append((module, name))
    counts: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in targets:
            caller = frame.f_back.f_globals.get("__name__")
            for module, name in targets[frame.f_code]:
                if module in (None, caller):
                    counts[name] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return counts


@pytest.fixture(scope="module")
def cut_down_runs(work_dir):
    """The cut-down cancer1 experiment, once profiled and once traced."""
    case = workload.Case("cancer1", 3)
    case.write_config()
    with case.config.open("a", encoding="utf-8") as fh:
        fh.write(CUT_DOWN)
    case.write_data()
    results = {}

    def untraced():
        results["untraced"] = case.run()

    counts = _profile_counts(untraced)
    untraced_check = case.check()
    tracer = spans.Tracer()
    with spans.installed(tracer):
        code, wall = case.run()
    return {
        "counts": counts,
        "untraced": results["untraced"],
        "untraced_check": untraced_check,
        "tracer": tracer,
        "traced": (code, wall),
        "traced_check": case.check(),
        "leftover": spans.leftover_wrappers(),
    }


def test_wrappers_count_exactly_the_calls_made(cut_down_runs):
    traced = Counter(cut_down_runs["tracer"].names)
    expected = cut_down_runs["counts"]
    assert expected["objective.data_gradients"] > 0
    assert expected["pruning.retrain"] > 0
    assert traced == expected


def test_wrappers_are_restored_and_change_no_output(cut_down_runs):
    assert cut_down_runs["leftover"] == []
    assert cut_down_runs["untraced"][0] == cut_down_runs["traced"][0] == 0
    problems, _, digest = cut_down_runs["traced_check"]
    assert problems == []
    assert digest == cut_down_runs["untraced_check"][2]


def test_layer_metrics_add_up_and_match_the_declared_names(cut_down_runs):
    tracer = cut_down_runs["tracer"]
    metrics = spans.layer_metrics(tracer, cut_down_runs["traced"][1])
    declared = {m["name"] for m in DECLARED["per_layer"]}
    assert set(metrics) | {"synth.write_s"} == declared
    assert metrics["objective.grad_calls"] == (
        metrics["training.train_updates"] + metrics["training.retrain_updates"]
    )
    assert metrics["harness.reference_updates"] == 30 * 2  # one per split seed
    assert metrics["training.train_updates"] == 30 * (
        metrics["pruning.trains"] + metrics["harness.reference_updates"] // 30
    )
    assert metrics["data.loads"] == 2


def test_quality_metrics_match_the_declared_names(cut_down_runs):
    _, quality, _ = cut_down_runs["untraced_check"]
    declared = {m["name"] for m in DECLARED["end_to_end"]}
    assert set(quality) | {"wall_s", "setup_s", "peak_rss_mb"} == declared
