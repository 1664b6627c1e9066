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

The last bits of the weights depend on the BLAS kernel and on numpy's SIMD
loops, so a golden mismatch names the numerics it ran on, the numpy
version, the SIMD targets enabled and the OpenBLAS core, next to those the
goldens were written on, which ``tests/golden/numerics.txt`` records.  What must not
depend on them is checked by ``test_report_is_portable_across_blas_kernels``:
cancer1 re-run under a second OpenBLAS core gives the same ``report.json``
and ``report.txt``, and the same masks, activity flags and removal
decisions.

A golden file changes only with a declared change of behaviour.  To rewrite
them from the current code:

    PYTHONPATH=src python tests/test_golden.py

Before it writes a golden set, it prints whether the set's report files
keep their bytes, whether ``structure`` of its networks and traces is
unchanged, and the largest move of a float field, so a rewrite that moves
only float bits shows itself as one.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import os
import platform
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from nnprune.cli import main
from nnprune.pruning import PruneTrace
from nnprune.synth import write_all

_REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
# the numerics() of the host the goldens were written on
GOLDEN_NUMERICS = GOLDEN / "numerics.txt"
CONFIGS = ("cancer1", "diabetes", "glass")
PATTERNS = ("report.json", "report.txt", "networks/*.json", "traces/*.jsonl")
PRUNE_PATTERNS = ("pruned.json", "prune.jsonl", "stdout.txt")
# the fields no BLAS kernel may change: of every network, and of every removal event
NETWORK_STRUCTURE = ("w_mask", "v_mask", "input_active", "hidden_active")
EVENT_STRUCTURE = ("kind", "indices", "trigger", "batch", "rolled_back")
# OpenBLAS cores to re-run under, the first that differs from the detected one
OTHER_CORES = ("Haswell", "Prescott")


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


def openblas_core() -> str:
    """The core OpenBLAS dispatches to, read from the library bundled with
    numpy; "unknown" when there is none or it does not name its core."""
    libs = sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob(
        "libscipy_openblas*"
    ))
    try:
        corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
        return "unknown"
    corename.restype = ctypes.c_char_p
    return corename().decode()


def numerics() -> str:
    """The numpy version, its enabled SIMD targets and the OpenBLAS core."""
    from numpy._core._multiarray_umath import __cpu_features__

    simd = " ".join(name for name, enabled in __cpu_features__.items() if enabled)
    return f"numpy {np.__version__}; SIMD {simd}; OpenBLAS core {openblas_core()}"


def assert_matches_golden(name: str, got: dict[str, bytes], want: dict[str, bytes]) -> None:
    assert sorted(got) == sorted(want)
    mismatches = [describe_mismatch(f, got[f], want[f]) for f in want if got[f] != want[f]]
    recorded = GOLDEN_NUMERICS.read_text(encoding="utf-8").strip()
    assert not mismatches, f"{name}: " + "; ".join(mismatches) + (
        f" [numerics: {numerics()}; goldens written on: {recorded}]"
    )


def test_golden_numerics_recorded():
    recorded = GOLDEN_NUMERICS.read_text(encoding="utf-8")
    assert re.fullmatch(r"numpy \d\S*; SIMD [A-Z0-9_ ]+; OpenBLAS core \w+\n", recorded), recorded


@pytest.mark.parametrize("name", CONFIGS)
def test_outputs_match_golden(name, shipped_runs):
    run = shipped_runs[name]
    if run.source != "synthetic":
        pytest.skip(f"{name} ran on real data files; the goldens are outputs of the stand-in data")
    assert_matches_golden(name, output_files(run.out), output_files(GOLDEN / name))


def test_prune_cli_matches_golden(tmp_path):
    got = output_files(run_prune(tmp_path), PRUNE_PATTERNS)
    assert_matches_golden("prune", got, output_files(GOLDEN / "prune", PRUNE_PATTERNS))


def structure(name: str, data: bytes) -> list[dict]:
    """The masks and activity flags of the networks in an output file, and
    the decision of each removal event in it, in file order."""
    docs = [json.loads(data)] if name.endswith(".json") else [
        json.loads(line) for line in data.decode().splitlines()
    ]
    return [
        {key: doc[key] for key in EVENT_STRUCTURE} if doc.get("type") == "removal"
        else {key: doc.get("network", doc)[key] for key in NETWORK_STRUCTURE}
        for doc in docs
    ]


# Runs configs/cancer1.conf as run_shipped does, in the working directory,
# on the data file named by argv[1]; prints the OpenBLAS core it ran on.
RERUN = """\
import sys
from conftest import shipped_config
from nnprune import run_experiment
from test_golden import openblas_core
run_experiment(shipped_config("cancer1", sys.argv[1], "out/cancer1"))
print(openblas_core())
"""


def test_report_is_portable_across_blas_kernels(shipped_runs, tmp_path):
    run = shipped_runs["cancer1"]
    if run.source != "synthetic":
        pytest.skip("cancer1 ran on real data files; the goldens are outputs of the stand-in data")
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    if not (
        platform.machine().lower() in ("x86_64", "amd64")
        and blas.get("name") == "scipy-openblas"
        and "DYNAMIC_ARCH" in blas.get("openblas configuration", "")
    ):
        pytest.skip("the BLAS kernel can be chosen only in scipy-openblas built with DYNAMIC_ARCH")
    detected = openblas_core()
    core = next(name for name in OTHER_CORES if name != detected)
    data = tmp_path / run.config.data_path
    data.parent.mkdir(parents=True)
    shutil.copyfile(run.out.parent.parent / run.config.data_path, data)
    path = [str(_REPO / "src"), str(_REPO / "tests"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, OPENBLAS_CORETYPE=core, PYTHONPATH=os.pathsep.join(filter(None, path)))
    rerun = subprocess.run(
        [sys.executable, "-c", RERUN, str(run.config.data_path)],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert rerun.returncode == 0, rerun.stderr
    assert rerun.stdout.split()[-1] != detected, f"OPENBLAS_CORETYPE={core} was not taken"
    got, want = output_files(tmp_path / run.config.output_dir), output_files(run.out)
    assert sorted(got) == sorted(want)
    for name in ("report.json", "report.txt"):
        assert got[name] == want[name], describe_mismatch(name, got[name], want[name])
    for name in want:
        if name.startswith(("networks/", "traces/")):
            assert structure(name, got[name]) == structure(name, want[name]), name


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


@pytest.mark.parametrize(
    "trace_file",
    [f"{name}/traces/seed{seed}.jsonl" for name in CONFIGS for seed in range(1, 6)]
    + ["prune/prune.jsonl"],
)
def test_golden_traces_read_back_to_their_own_bytes(trace_file):
    # the writer and the reader agree on every trace the package has written
    text = (GOLDEN / trace_file).read_text(encoding="utf-8")
    assert PruneTrace.from_jsonl(text).to_jsonl() == text


# the files of a golden set that hold reports, not networks or traces
REPORT_FILES = ("report.json", "report.txt", "stdout.txt")


def float_moves(a, b):
    """``|x - y|`` for each pair of float fields found at one place in the
    JSON values ``a`` and ``b``."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in a.keys() & b.keys():
            yield from float_moves(a[key], b[key])
    elif isinstance(a, list) and isinstance(b, list):
        for x, y in zip(a, b):
            yield from float_moves(x, y)
    elif type(a) is float and type(b) is float:
        yield abs(a - b)


def describe_regeneration(name: str, got: dict[str, bytes], want: dict[str, bytes]) -> str:
    """What rewriting the golden set ``want`` with ``got`` changes: the bytes
    of each report file, the ``structure`` of the networks and traces, and
    the largest move of a float field in them."""
    parts = [
        f"{f} {'unchanged' if got.get(f) == want.get(f) else 'CHANGED'}"
        for f in REPORT_FILES if f in got or f in want
    ]
    others = sorted((got.keys() | want.keys()) - set(REPORT_FILES))
    both = [f for f in others if f in got and f in want]
    same = len(both) == len(others) and all(
        structure(f, got[f]) == structure(f, want[f]) for f in both
    )
    moves = [
        move
        for f in both
        for line_got, line_want in zip(got[f].splitlines(), want[f].splitlines())
        for move in float_moves(json.loads(line_got), json.loads(line_want))
    ]
    changed = sum(got.get(f) != want.get(f) for f in others)
    parts += [
        f"structure() {'unchanged' if same else 'CHANGED'}",
        f"{changed} of {len(others)} network and trace files change bytes",
        f"largest float move {max(moves, default=0.0):.3g}",
    ]
    return f"{name}: " + "; ".join(parts)


def test_regeneration_report_names_what_moved():
    want = output_files(GOLDEN / "prune", PRUNE_PATTERNS)
    assert describe_regeneration("prune", want, want) == (
        "prune: stdout.txt unchanged; structure() unchanged; "
        "0 of 2 network and trace files change bytes; largest float move 0"
    )
    net = json.loads(want["pruned.json"])
    net["v"][0] += 0.25
    moved = dict(want, **{"pruned.json": json.dumps(net).encode()})
    assert describe_regeneration("prune", moved, want) == (
        "prune: stdout.txt unchanged; structure() unchanged; "
        "1 of 2 network and trace files change bytes; largest float move 0.25"
    )
    net["v_mask"][0] = not net["v_mask"][0]
    changed = dict(moved, **{"pruned.json": json.dumps(net).encode(), "stdout.txt": b""})
    assert describe_regeneration("prune", changed, want).startswith(
        "prune: stdout.txt CHANGED; structure() CHANGED; "
    )


def _write_golden(name: str, files: dict[str, bytes], patterns=PATTERNS) -> None:
    print(describe_regeneration(name, files, output_files(GOLDEN / name, patterns)),
          file=sys.stderr)
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
        prune = output_files(run_prune(tmp / "prune"), PRUNE_PATTERNS)
        _write_golden("prune", prune, PRUNE_PATTERNS)
    GOLDEN_NUMERICS.write_text(numerics() + "\n", encoding="utf-8")


if __name__ == "__main__":
    _regenerate()
