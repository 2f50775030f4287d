"""The README's examples run as documented.

Every ```python block is executed, and each `print(...)  # output` line
in it must print what its comment says (`...` stands for any text).
Every `mwl ...` line of a code block runs through `mwl.cli.run` from the
repository root and must exit 0, or N where the line says `# exits N`.
"""

import contextlib
import io
import re
from pathlib import Path

import pytest

from mwl.cli import run

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"),
                    re.S | re.M)
PYTHON_BLOCKS = [body for lang, body in BLOCKS if lang == "python"]
MWL_LINES = [line for _, body in BLOCKS for line in body.splitlines()
             if line.startswith("mwl ")]


def _output_pattern(comment: str):
    return re.compile(".*".join(re.escape(part) for part in comment.split("...")))


def test_readme_has_examples():
    assert PYTHON_BLOCKS and MWL_LINES


@pytest.mark.parametrize("block", PYTHON_BLOCKS, ids=lambda b: b.splitlines()[0][:40])
def test_python_block_prints_its_comments(block):
    expected = [line.split("#", 1)[1].strip() for line in block.splitlines()
                if line.startswith("print(") and "#" in line]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(expected)
    for line, comment in zip(printed, expected):
        assert _output_pattern(comment).fullmatch(line), (line, comment)


@pytest.mark.parametrize("line", MWL_LINES, ids=lambda line: line.split("#")[0].strip())
def test_command_line_exits_as_documented(line, monkeypatch, capsys):
    command, _, comment = line.partition("#")
    documented = re.match(r"\s*exits (\d+)", comment)
    monkeypatch.chdir(ROOT)
    assert run(command.split()[1:]) == (int(documented.group(1)) if documented else 0)
