"""Golden outputs: the three shipped experiments and ``nnprune prune``, byte
for byte.

Each ``configs/<name>.conf`` runs once per session, at split seeds 1-5, on
the default-seed stand-in files, through ``run_shipped`` in conftest (the
run the acceptance criteria read too).  Its ``report.json``,
``report.txt``, ten ``networks/*.json`` and five ``traces/*.jsonl`` must
equal the files under ``tests/golden/<name>/``.  Data and output paths are
relative to a scratch directory, so the path strings inside the reports do
not depend on where the test runs.  When real data files were found the comparison is
skipped: the goldens are outputs of the stand-in data.

``test_goldens_cover_the_pinned_paths`` checks that the goldens still hold
the rows and traces that take the restart and rollback paths, so a config
or golden change cannot drop them unnoticed.

The CLI case runs ``nnprune train`` and ``nnprune prune --trace-out`` on
split seed 1 with ``configs/cancer1.conf``, its ``epochs`` line set to 200;
the pruned network, the audit log and the printed summary line must equal
``tests/golden/prune/``.
It covers the floor ``nnprune prune`` takes from the accuracy of the network
it is given, and the CLI's dead-node step, which the experiment runs never
reach.

A golden file changes only with a declared change of behaviour.  To rewrite
them from the current code:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from nnprune.cli import main
from nnprune.pruning import PruneTrace
from nnprune.synth import write_all

_REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIGS = ("cancer1", "diabetes", "glass")
PATTERNS = ("report.json", "report.txt", "networks/*.json", "traces/*.jsonl")
PRUNE_PATTERNS = ("pruned.json", "prune.jsonl", "stdout.txt")


def run_prune(workdir: Path) -> Path:
    """Train and prune a cancer1 network with the CLI under ``workdir``;
    returns the output directory, which also holds the prune command's
    stdout as ``stdout.txt``."""
    write_all(workdir / "data")
    # configs/cancer1.conf finds its data at ../data, relative to itself
    conf = workdir / "configs" / "cancer1.conf"
    conf.parent.mkdir()
    text = (_REPO / "configs" / "cancer1.conf").read_text(encoding="utf-8")
    assert "\nepochs = 500\n" in text
    conf.write_text(text.replace("\nepochs = 500\n", "\nepochs = 200\n"), encoding="utf-8")
    out = workdir / "out" / "prune"
    out.mkdir(parents=True)
    split = ["--config", str(conf), "--split-seed", "1"]
    assert main(["train", *split, "--out", str(out / "net.json")]) == 0
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main([
            "prune", *split, "--net", str(out / "net.json"),
            "--out", str(out / "pruned.json"), "--trace-out", str(out / "prune.jsonl"),
        ]) == 0
    (out / "stdout.txt").write_text(stdout.getvalue(), encoding="utf-8")
    return out


def output_files(out: Path, patterns=PATTERNS) -> dict[str, bytes]:
    return {
        p.relative_to(out).as_posix(): p.read_bytes()
        for pattern in patterns
        for p in sorted(out.glob(pattern))
    }


def first_difference(a, b, where: str = "") -> str | None:
    """Path of the first JSON field at which ``a`` and ``b`` differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                return f"{where}.{key}: missing on one side"
            found = first_difference(a[key], b[key], f"{where}.{key}")
            if found is not None:
                return found
        return None
    if isinstance(a, list) and isinstance(b, list):
        for i, (x, y) in enumerate(zip(a, b)):
            found = first_difference(x, y, f"{where}[{i}]")
            if found is not None:
                return found
        return f"{where or '<root>'}: length {len(a)} != {len(b)}" if len(a) != len(b) else None
    if type(a) is not type(b) or a != b:
        return f"{where or '<root>'}: {a!r} != {b!r}"
    return None


def describe_mismatch(name: str, got: bytes, want: bytes) -> str:
    """Name the file and the first differing JSON field (per line for JSONL)
    or, for a text file, the first differing line."""
    got_lines, want_lines = got.decode().splitlines(), want.decode().splitlines()
    if name.endswith(".json"):
        found = first_difference(json.loads(got), json.loads(want))
        if found is not None:
            return f"{name}: {found}"
    else:
        for lineno, (g, w) in enumerate(zip(got_lines, want_lines), start=1):
            if name.endswith(".jsonl"):
                found = first_difference(json.loads(g), json.loads(w))
            else:
                found = None if g == w else f"{g!r} != {w!r}"
            if found is not None:
                return f"{name} line {lineno}: {found}"
        if len(got_lines) != len(want_lines):
            return f"{name}: {len(got_lines)} lines, golden has {len(want_lines)}"
    return f"{name}: same values, different bytes"


def assert_matches_golden(name: str, got: dict[str, bytes], want: dict[str, bytes]) -> None:
    assert sorted(got) == sorted(want)
    mismatches = [describe_mismatch(f, got[f], want[f]) for f in want if got[f] != want[f]]
    assert not mismatches, f"{name}: " + "; ".join(mismatches)


@pytest.mark.parametrize("name", CONFIGS)
def test_outputs_match_golden(name, shipped_runs):
    run = shipped_runs[name]
    if run.source != "synthetic":
        pytest.skip(f"{name} ran on real data files; the goldens are outputs of the stand-in data")
    assert_matches_golden(name, output_files(run.out), output_files(GOLDEN / name))


def test_prune_cli_matches_golden(tmp_path):
    got = output_files(run_prune(tmp_path), PRUNE_PATTERNS)
    assert_matches_golden("prune", got, output_files(GOLDEN / "prune", PRUNE_PATTERNS))


def test_first_difference_names_the_field():
    assert first_difference({"a": [1, {"b": 2}]}, {"a": [1, {"b": 3}]}) == ".a[1].b: 2 != 3"
    assert first_difference({"a": 1}, {"a": 1, "c": 0}) == ".c: missing on one side"
    assert first_difference([1, 2], [1]) == "<root>: length 2 != 1"
    assert first_difference(1, 1.0) == "<root>: 1 != 1.0"
    assert first_difference({"a": [0.5]}, {"a": [0.5]}) is None


# Each path the goldens were widened to pin, as a test of a report.json row
# given the config's max_restarts.
PINNED_ROW_PATHS = {
    "no attempt converged and an earlier one was kept":
        lambda row, max_restarts: not row["converged"] and row["restarts_used"] < max_restarts,
    "no attempt converged and the last one was kept":
        lambda row, max_restarts: not row["converged"] and row["restarts_used"] == max_restarts,
    "an attempt after the first converged":
        lambda row, max_restarts: row["converged"] and row["restarts_used"] > 1,
}


def batch_0_rolled_back(trace: PruneTrace) -> bool:
    """Every removal of batch 0 was rolled back, so no weight was removed."""
    first = [e for e in trace.events if e.batch == 0]
    return bool(first) and all(e.rolled_back for e in first) and trace.n_removed_weights() == 0


def test_goldens_cover_the_pinned_paths():
    found = {path: [] for path in (*PINNED_ROW_PATHS, "batch 0 rolled back")}
    for name in CONFIGS:
        doc = json.loads((GOLDEN / name / "report.json").read_text(encoding="utf-8"))
        max_restarts = doc["config"]["prune"]["max_restarts"]
        for row in doc["per_seed"]:
            for path, takes in PINNED_ROW_PATHS.items():
                if takes(row, max_restarts):
                    found[path].append(f"{name} seed {row['split_seed']}")
        for trace_file in sorted((GOLDEN / name / "traces").glob("*.jsonl")):
            if batch_0_rolled_back(PruneTrace.from_jsonl(trace_file.read_text(encoding="utf-8"))):
                found["batch 0 rolled back"].append(f"{name} {trace_file.stem}")
    missing = [path for path, where in found.items() if not where]
    assert not missing, f"no golden takes these paths: {missing}"


def _write_golden(name: str, files: dict[str, bytes]) -> None:
    shutil.rmtree(GOLDEN / name, ignore_errors=True)
    for rel, data in files.items():
        (GOLDEN / name / rel).parent.mkdir(parents=True, exist_ok=True)
        (GOLDEN / name / rel).write_bytes(data)
    print(f"wrote {len(files)} golden files for {name}", file=sys.stderr)


def _regenerate() -> None:
    from conftest import run_shipped  # tests/ is on sys.path when run as a script

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        files = {name: (path, "synthetic") for name, path in write_all(tmp / "stand-ins").items()}
        for name, run in run_shipped(tmp / "shipped", files).items():
            _write_golden(name, output_files(run.out))
        _write_golden("prune", output_files(run_prune(tmp / "prune"), PRUNE_PATTERNS))


if __name__ == "__main__":
    _regenerate()
