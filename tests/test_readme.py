"""The README's library quick start runs and prints what it says it prints."""

import contextlib
import io
import re
from pathlib import Path

import pytest

from kinctrl.cli import RUNNERS, SCALES, bundled_config_path, list_bundled_scenarios, load_config

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


def leaves(node, path=()):
    """Dotted paths of the values in nested dicts that are not dicts; a list is one leaf."""
    for key, value in node.items():
        if isinstance(value, dict):
            yield from leaves(value, path + (key,))
        else:
            yield ".".join(path + (key,))


def field_rows():
    """The fields that the README's field table names, per kind."""
    rows = {}
    for line in README.read_text().splitlines():
        if (m := re.match(r"\| `(\w+)` \|(.*)\|$", line)) is not None:
            rows[m.group(1)] = set(re.findall(r"`([\w.]+)`", m.group(2)))
    return rows


def test_field_table_names_every_bundled_leaf():
    # one row per kind; a leaf of a bundled config must be named in its kind's row
    rows = field_rows()
    assert set(rows) == set(RUNNERS)
    for name in list_bundled_scenarios():
        cfg = load_config(bundled_config_path(name))
        missing = set(leaves(cfg)) - rows[cfg["kind"]]
        assert not missing, (name, missing)


def test_field_table_names_the_seed_and_scales_a_kind_reads():
    for kind, row in field_rows().items():
        reads = {f"kinetic.{name}" for name in SCALES.get(kind, ())}
        reads |= {"seed"} if kind == "dsmc_equilibrium" else set()
        assert row & {"seed", "kinetic.epsilon", "kinetic.tau"} == reads, kind
