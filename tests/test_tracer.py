"""The benchmark tracer (perfbench/spans.py) against the names it patches in kinctrl.

The tracer wraps module attributes from outside the package, so renaming or
removing one of them breaks the traced benchmark run without failing any
other test.
"""

import importlib
import json
import time
from pathlib import Path

from kinctrl import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def bundled(tmp_path, name, **time_fields):
    cfg = cli.load_config(cli.bundled_config_path(name + ".json"))
    cfg["time"].update(time_fields)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return path


def test_traced_runs_report_every_layer_and_restore_the_patches(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")

    tracer = spans.Tracer()
    tracer.install()
    patched = list(tracer._saved)
    try:
        assert all(getattr(owner, attr) is not original for owner, attr, original in patched)
        start = time.perf_counter()
        cli.execute(bundled(tmp_path, "closure_l1_gamma", t_final=5.0, output_every=10),
                    tmp_path / "macro")
        cli.execute(bundled(tmp_path, "test4_control_b", t_final=0.05), tmp_path / "kinetic")
        run_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is original for owner, attr, original in patched)

    layers, _shares = tracer.summary(1, run_s)
    # trace.overhead_frac compares a traced with an untraced run; perfbench/run.py adds it
    expected = {name for name, _unit in spans.LAYER_METRICS} - {"trace.overhead_frac"}
    assert expected <= set(layers)
    # rk4_integrate returns only the 51 output rows of these 500 steps, and
    # spans.py counts RK4 steps as len(times) - 1, so the count reads the 50
    # output intervals; a tracer that counts steps would read 500 here
    assert tracer.counts["macro.rk4_steps"] == 50
    # the RK4 stages call the model's bound derivative, not the counted macro.rhs
    assert layers["macro.rhs.calls"] == 0
    assert layers["macro.rk4_integrate.calls"] == 1
    assert layers["macro.rk4_integrate.us_per_step"] > 0
    assert layers["kinetic.split_step.calls"] == 5
    assert layers["kinetic.epidemic_substep.calls"] == 5
    # each contact substep reads the rule's operator and its weights at the three means
    # once; the run builds the operator once before its steps, so they all hit the cache
    assert layers["fp.build_operator.calls"] == 6
    assert layers["fp.interface_log_ratios.calls"] == 5
    assert layers["cli.execute.calls"] == 2


def test_traced_fp_and_equilibria_paths(tmp_path, monkeypatch):
    # the tracer patches fp.SpStepper (and reads its _degenerate attribute),
    # fp.build_operator, fp.interface_log_ratios, cli.steady_state_solve and
    # the equilibria entry points; only these two scenarios reach them
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")

    tracer = spans.Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        cli.execute(bundled(tmp_path, "test1_fp_control_b", t_final=0.1), tmp_path / "fp")
        cli.execute(cli.bundled_config_path("test2_nu_sweep.json"), tmp_path / "sweep")
        run_s = time.perf_counter() - start
    finally:
        tracer.uninstall()

    layers, _shares = tracer.summary(1, run_s)
    for name in (
        "fp.SpStepper.step.calls",
        "fp.build_operator.calls",
        "fp.interface_log_ratios.calls",
        "fp.steady_state_solve.calls",
        "equilibria.EquilibriumDensity.calls",
        "equilibria.controlled_steady_state.calls",
    ):
        assert layers[name] > 0, name
    # execute writes every table through io.write_csv: two fp densities and sweep.csv
    assert layers["io.write_csv.calls"] == 3
