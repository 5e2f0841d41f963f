from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_blocks() -> list[str]:
    """The ``python`` code blocks of README's "Library" section, in order."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, re.MULTILINE | re.DOTALL)


def test_library_examples_run_as_written(capsys):
    # one namespace, as a reader who pastes the blocks in turn would have
    blocks = _library_blocks()
    assert len(blocks) == 6
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    # the results the examples state in their comments
    assert namespace["found"] == [(0, 2), (0, 2)]
    assert namespace["first"] == (0, 2)
    assert capsys.readouterr().out == "(0, 2)\n[a,c]\n[a,c]\n"
