"""README.md's Python examples run, and each ``print(...)  # X`` line
prints ``X``."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def test_the_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS)
def test_each_print_prints_its_comment(block):
    expected = re.findall(r"^print\(.*\)\s+# (.*?)\s*$", block, re.M)
    assert expected, "a README example that prints nothing checks nothing"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
