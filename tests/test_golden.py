"""Golden outputs: the three shipped experiments, byte for byte.

Each ``configs/<name>.conf`` runs on the default-seed stand-in files from
``synth.write_all`` with split seed 1 only, and its ``report.json``,
``networks/*.json`` and ``traces/*.jsonl`` must equal the files under
``tests/golden/<name>/``.  Data and output paths are relative to a scratch
directory, so the path strings inside the report do not depend on where the
test runs.

A golden file changes only with a declared change of behaviour.  To rewrite
them from the current code:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest

from nnprune import load_config, run_experiment
from nnprune.synth import FILENAMES, write_all

_REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIGS = ("cancer1", "diabetes", "glass")
PATTERNS = ("report.json", "networks/*.json", "traces/*.jsonl")


def run_config(name: str, workdir: Path) -> Path:
    """Run ``configs/<name>.conf`` on stand-in data under ``workdir`` (which
    must be the current directory); returns the output directory."""
    write_all(workdir / "data")
    config = replace(
        load_config(_REPO / "configs" / f"{name}.conf"),
        data_path=Path("data") / FILENAMES[name],
        output_dir=Path("out") / name,
        split_seeds=(1,),
    )
    run_experiment(config)
    return workdir / config.output_dir


def output_files(out: Path) -> dict[str, bytes]:
    return {
        p.relative_to(out).as_posix(): p.read_bytes()
        for pattern in PATTERNS
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
    """Name the file and the first differing JSON field (per line for JSONL)."""
    got_lines, want_lines = got.decode().splitlines(), want.decode().splitlines()
    if name.endswith(".jsonl"):
        for lineno, (g, w) in enumerate(zip(got_lines, want_lines), start=1):
            found = first_difference(json.loads(g), json.loads(w))
            if found is not None:
                return f"{name} line {lineno}: {found}"
        if len(got_lines) != len(want_lines):
            return f"{name}: {len(got_lines)} lines, golden has {len(want_lines)}"
    else:
        found = first_difference(json.loads(got), json.loads(want))
        if found is not None:
            return f"{name}: {found}"
    return f"{name}: same JSON values, different bytes"


@pytest.mark.parametrize("name", CONFIGS)
def test_outputs_match_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = output_files(run_config(name, tmp_path))
    want = output_files(GOLDEN / name)
    assert sorted(got) == sorted(want)
    mismatches = [describe_mismatch(f, got[f], want[f]) for f in want if got[f] != want[f]]
    assert not mismatches, f"{name}: " + "; ".join(mismatches)


def test_first_difference_names_the_field():
    assert first_difference({"a": [1, {"b": 2}]}, {"a": [1, {"b": 3}]}) == ".a[1].b: 2 != 3"
    assert first_difference({"a": 1}, {"a": 1, "c": 0}) == ".c: missing on one side"
    assert first_difference([1, 2], [1]) == "<root>: length 2 != 1"
    assert first_difference(1, 1.0) == "<root>: 1 != 1.0"
    assert first_difference({"a": [0.5]}, {"a": [0.5]}) is None


def _regenerate() -> None:
    for name in CONFIGS:
        with tempfile.TemporaryDirectory() as tmp:
            old = os.getcwd()
            os.chdir(tmp)
            try:
                files = output_files(run_config(name, Path(tmp)))
            finally:
                os.chdir(old)
        shutil.rmtree(GOLDEN / name, ignore_errors=True)
        for rel, data in files.items():
            (GOLDEN / name / rel).parent.mkdir(parents=True, exist_ok=True)
            (GOLDEN / name / rel).write_bytes(data)
        print(f"wrote {len(files)} golden files for {name}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
