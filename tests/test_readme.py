"""The README's library example runs and prints what its comments say."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_prints_the_values_in_its_comments(capsys):
    text = README.read_text()
    block = re.search(r"^## Library example\n\n```python\n(.*?)^```", text, re.S | re.M)
    assert block is not None, "README has no library example block"
    exec(compile(block.group(1), str(README), "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "13"
    assert "total 13 in 6 rows" in out  # six disjoint wildcard rows
    assert out[-2:] == ["13 True", "7 4 3 True"]
