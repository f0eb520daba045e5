"""The README's library quick start runs and prints what it says it prints."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert len(blocks) == 1
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(blocks[0], str(README), "exec"), {})
    first, second = printed.getvalue().splitlines()
    assert "POWER_LAW" in first
    exponent = float(re.search(r"exponent=(-?[0-9.]+)", first).group(1))
    assert exponent == pytest.approx(-6.296, abs=1e-3)
    assert "SLIM_TAIL" in second
