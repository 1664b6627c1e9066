"""The README's CLI and Library examples run as written against stand-in
data, the package names it mentions exist, its results and removal-trigger
tables match the shipped runs, and every cross-reference in the package's
docstrings resolves."""

from __future__ import annotations

import dataclasses
import importlib
import re
import shlex
import shutil
from collections import Counter
from pathlib import Path

import pytest

import nnprune
from nnprune.cli import main
from nnprune.pruning import (
    KIND_WEIGHT_V,
    KIND_WEIGHT_W,
    TRIGGER_MAGNITUDE,
    TRIGGER_PRODUCT,
    TRIGGER_SMALLEST,
    PruneTrace,
)
from nnprune.synth import write_all

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_cli_examples_run(tmp_path, monkeypatch):
    cli_section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = re.search(r"^```bash\n(.*?)^```", cli_section, re.M | re.S).group(1)
    lines = [line.split("#", 1)[0].strip() for line in block.replace("\\\n", " ").splitlines()]
    commands = [shlex.split(line) for line in lines if line]
    assert [argv[:2] for argv in commands] == [
        ["nnprune", name]
        for name in ("synth-data", "run", "train", "prune", "eval", "export-dot", "gradcheck")
    ]
    shutil.copytree(ROOT / "configs", tmp_path / "configs")
    monkeypatch.chdir(tmp_path)
    for argv in commands:  # later commands read what earlier ones wrote
        assert main(argv[1:]) == 0, shlex.join(argv)
    assert (tmp_path / "out" / "cancer1" / "report.json").is_file()


def test_library_examples_run(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 3
    write_all(tmp_path / "data")
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    for block in blocks:  # later blocks use names the first one defines
        exec(compile(block, str(README), "exec"), namespace)
    printed = capsys.readouterr().out.splitlines()
    # two results, the simplified network, then epochs 100..500 with theta
    assert len(printed) == 2 + 1 + 5
    small = namespace["small"]
    assert namespace["score"] == namespace["accuracy"](small, namespace["bundle"].validation)


def resolve(name: str) -> object:
    """The object a dotted name such as ``nnprune.harness.CONFIG_DEFAULTS``
    or ``Network.weights`` (an export of the package, then attributes)
    refers to; raises if there is none.  A dataclass field resolves to its
    ``dataclasses.Field``."""
    parts = name.split(".")
    obj = nnprune
    if parts[0] == "nnprune":
        # import the longest module prefix first: ``nnprune.objective`` is
        # also the name of a function the package exports
        for cut in range(len(parts), 0, -1):
            try:
                obj = importlib.import_module(".".join(parts[:cut]))
            except ModuleNotFoundError:
                continue
            parts = parts[cut:]
            break
    for attr in parts:
        fields = dataclasses.fields(obj) if dataclasses.is_dataclass(obj) else ()
        obj = next((f for f in fields if f.name == attr), None) or getattr(obj, attr)
    return obj


def test_dotted_names_resolve():
    text = README.read_text(encoding="utf-8")
    names = {
        name
        for name in re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", text)
        if name.split(".")[0] in ("nnprune", *nnprune.__all__)
    }
    assert {"nnprune.objective.theta_certainly_finite", "Network.weights"} <= names
    for name in sorted(names):
        resolve(name)


# a Sphinx cross-reference in a docstring, such as :func:`~nnprune.objective.objective`
REFERENCE = re.compile(r":(func|class|meth|attr):`~?([\w.]+)`")


def docstring_references() -> list[tuple[str, str, str]]:
    """(module, role, target) of every cross-reference in ``src/nnprune``."""
    references = []
    for path in sorted((ROOT / "src" / "nnprune").glob("*.py")):
        module = "nnprune" if path.stem == "__init__" else f"nnprune.{path.stem}"
        text = path.read_text(encoding="utf-8")
        references += [(module, role, target) for role, target in REFERENCE.findall(text)]
    return references


def resolve_reference(module: str, role: str, target: str) -> object:
    """The object ``target`` names from ``module``: a name that starts with
    ``nnprune`` is absolute, any other is looked up in ``module``, and a bare
    ``:meth:`` or ``:attr:`` name on one of ``module``'s own classes."""
    if target.split(".")[0] == "nnprune":
        return resolve(target)
    if role not in ("meth", "attr") or "." in target:
        return resolve(f"{module}.{target}")
    own = importlib.import_module(module)
    for cls in vars(own).values():
        if isinstance(cls, type) and cls.__module__ == module:
            try:
                return resolve(f"{module}.{cls.__name__}.{target}")
            except AttributeError:
                pass
    raise AttributeError(f"no class of {module} has {target!r}")


def test_docstring_references_resolve():
    references = docstring_references()
    assert ("nnprune.objective", "func", "theta_certainly_finite") in references
    assert ("nnprune.network", "meth", "views") in references
    unresolved = []
    for module, role, target in references:
        try:
            resolve_reference(module, role, target)
        except AttributeError as exc:
            unresolved.append(f"{module} :{role}:`{target}`: {exc}")
    assert not unresolved, "\n".join(unresolved)


def markdown_table(text: str, header: str) -> dict[str, list[str]]:
    """The first table in ``text`` whose header row has a cell ``header``:
    each row's cells after the first, keyed by its first cell, header row
    included."""
    rows: dict[str, list[str]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line.startswith("|"):
            if rows:
                break
            continue
        first, *cells = (cell.strip() for cell in line.strip("|").split("|"))
        if rows or header in cells:
            if not set(first) <= set("-:"):  # the separator row
                rows[first] = cells
    return rows


def stand_in(shipped_runs):
    """``shipped_runs``; skips the test unless every run read the stand-in
    files, which the README's figures describe."""
    if any(run.source != "synthetic" for run in shipped_runs.values()):
        pytest.skip("the README's figures describe the stand-in files, not the real ones")
    return shipped_runs


def test_results_table_matches_the_shipped_runs(shipped_runs):
    table = markdown_table(README.read_text(encoding="utf-8"), "fully connected")
    assert table.pop("dataset")[:2] == ["fully connected", "simplified"]
    runs = stand_in(shipped_runs)
    assert table.keys() == runs.keys()
    for name, run in runs.items():
        aggregate = run.report.aggregate()
        assert table[name][:2] == [
            f"{100 * aggregate[key]['mean']:.1f}%"
            for key in ("full_test_accuracy", "pruned_test_accuracy")
        ], name


def test_removal_trigger_table_matches_the_shipped_traces(shipped_runs):
    table = markdown_table(README.read_text(encoding="utf-8"), TRIGGER_SMALLEST)
    assert table.pop("dataset") == [TRIGGER_SMALLEST, TRIGGER_PRODUCT, TRIGGER_MAGNITUDE]
    runs = stand_in(shipped_runs)
    assert table.keys() == runs.keys()
    for name, run in runs.items():
        kept = Counter()
        for seed in run.config.split_seeds:
            text = (run.out / "traces" / f"seed{seed}.jsonl").read_text(encoding="utf-8")
            kept.update(
                event.trigger
                for event in PruneTrace.from_jsonl(text).events
                if event.kind in (KIND_WEIGHT_W, KIND_WEIGHT_V) and not event.rolled_back
            )
        assert table[name] == [
            f"{kept[TRIGGER_SMALLEST]} of {sum(kept.values())}",
            str(kept[TRIGGER_PRODUCT]),
            str(kept[TRIGGER_MAGNITUDE]),
        ], name
