"""The README's library quick start runs and prints what it says it prints."""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from kinctrl.cli import RUNNERS, SCALES, bundled_config_path, list_bundled_scenarios, load_config, main

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


def test_field_table_marks_the_fields_classical_sir_does_not_read(tmp_path, capsys):
    # a macro_compare config that gives macro.beta runs classical SIR, and a
    # field its row marks "not with `macro.beta`" makes such a config exit 2
    row = next(line for line in README.read_text().splitlines() if line.startswith("| `macro_compare` |"))
    marked = {name for name, note in re.findall(r"`([\w.]+)`(?: \(([^)]*)\))?", row)
              if "not with `macro.beta`" in note}
    assert marked == {"kinetic.alpha", "kinetic.sigma2", "kinetic.delta", "epidemic.betas", "epidemic.beta0"}
    for name in sorted(marked):
        cfg = load_config(bundled_config_path("closure_l1_gamma.json"))
        kinetic = cfg.pop("kinetic")
        cfg["macro"] = {"beta": 0.1}
        cfg["epidemic"] = {"gamma_i": cfg["epidemic"]["gamma_i"]}
        block, key = name.split(".")
        cfg.setdefault(block, {})[key] = {**kinetic, "betas": [1e-3], "beta0": 0.0}[key]
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out", str(tmp_path / name)]) == 2, name
        assert f"field '{name}'" in capsys.readouterr().err
