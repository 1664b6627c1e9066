"""The README's Library examples run as written against stand-in data."""

from __future__ import annotations

import re
from pathlib import Path

from nnprune.synth import write_all

README = Path(__file__).resolve().parent.parent / "README.md"


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
