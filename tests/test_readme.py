"""The README's CLI and Library examples run as written against stand-in
data, and the package names it mentions exist."""

from __future__ import annotations

import dataclasses
import importlib
import re
import shlex
import shutil
from pathlib import Path

import nnprune
from nnprune.cli import main
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
    assert len(blocks) == 2
    write_all(tmp_path / "data")
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    for block in blocks:  # the second block uses names the first one defines
        exec(compile(block, str(README), "exec"), namespace)
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2 + 5  # two results, then epochs 100..500 with theta


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
