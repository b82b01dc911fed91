"""The README's examples match what the code runs and prints."""

from __future__ import annotations

import json
import re
import shlex
from pathlib import Path

from modlat.cli import PARSER
from modlat.wildcard import EnumStats

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


def test_stats_sample_lists_every_enum_stats_field_in_order():
    text = README.read_text()
    block = re.search(r"--count --stats\n((?:# .*\n)+)", text)
    assert block is not None, "README has no --stats example"
    sample = "".join(line[2:] for line in block.group(1).splitlines(True))
    sample = sample[: sample.rindex("}") + 1]
    assert list(json.loads(sample)) == list(EnumStats._fields)


def test_every_documented_command_parses():
    # a flag that the parser no longer has must not stay documented
    blocks = re.findall(r"^```\w*\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)
    commands = [line for block in blocks for line in block.splitlines()
                if line.startswith("modlat ")]
    assert commands
    for line in commands:
        PARSER.parse_args(shlex.split(line)[1:])
