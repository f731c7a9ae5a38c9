"""README's library examples run as written, and every exported name resolves."""

from __future__ import annotations

import re
from pathlib import Path

import reeskit

README = Path(__file__).resolve().parent.parent / "README.md"


def library_blocks() -> list[str]:
    """The ```python blocks of README's "Library" section, in order."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, re.S | re.M)


def test_library_examples_run_in_order(capsys):
    """The blocks share one namespace, as a reader runs them; a print with a
    comment prints the comment's text up to its first ": "."""
    blocks = library_blocks()
    assert len(blocks) == 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
        printed = capsys.readouterr().out.splitlines()
        prints = [line for line in block.splitlines() if line.startswith("print(")]
        assert len(printed) == len(prints), block
        for line, out in zip(prints, printed):
            if "  # " in line:
                assert out == line.split("  # ", 1)[1].split(": ")[0], line


def test_every_exported_name_resolves():
    assert len(set(reeskit.__all__)) == len(reeskit.__all__)
    missing = [name for name in reeskit.__all__ if not hasattr(reeskit, name)]
    assert missing == []
    namespace: dict = {}
    exec("from reeskit import *", namespace)
    assert set(reeskit.__all__) <= set(namespace)
