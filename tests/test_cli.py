import contextlib
import functools
import io
import json
import operator
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from kinctrl import ParticleEnsemble, cli
from kinctrl.cli import (
    RUNNERS,
    bundled_config_path,
    compare_runs,
    execute,
    list_bundled_scenarios,
    load_config,
    main,
)
from kinctrl.errors import ConfigError, NumericsError
from kinctrl.io import read_csv
from kinctrl.macro import MacroModel
from kinctrl.params import EpidemicParams, KineticParams, closure_kind


def small_dsmc_config(tmp_path, seed=7, sigma2=0.2, name="small.json"):
    cfg = {
        "schema_version": 1,
        "kind": "dsmc_equilibrium",
        "seed": seed,
        "kinetic": {"alpha": 1.0, "sigma2": sigma2, "delta": -1.0, "epsilon": 0.01},
        "grid": {"x_max": 100.0, "n_cells": 100},
        "dsmc": {"n_particles": 3000, "mean_reference": 5.0, "kernel_bound": 1.0},
        "time": {"dt": 0.01, "t_final": 1.0},
        "initial": {"low": 6.0, "high": 8.0},
    }
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def small_macro_config(tmp_path, name="macro.json", dt=0.01, beta1=1e-3):
    cfg = {
        "schema_version": 1,
        "kind": "macro_compare",
        "kinetic": {"alpha": 1.0, "sigma2": 0.2, "delta": -1.0},
        "epidemic": {"betas": [beta1], "gamma_i": 0.07142857142857142},
        "time": {"dt": dt, "t_final": 5.0, "output_every": 10},
        "initial": {"rho": [0.99998, 1e-5, 1e-5], "mean": 10.0},
    }
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestConfigValidation:
    def test_rejects_bad_json_with_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"schema_version": 1,\n  "kind": }')
        with pytest.raises(ConfigError, match="line 2"):
            load_config(path)

    def test_rejects_unknown_kind(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"schema_version": 1, "kind": "nope"}))
        with pytest.raises(ConfigError, match="kind"):
            load_config(path)

    def test_names_invalid_field(self, tmp_path):
        path = small_dsmc_config(tmp_path, sigma2=-0.2)
        with pytest.raises(ConfigError, match="sigma2"):
            execute(path, tmp_path / "out")

    def test_exit_code_two_for_config_error(self, tmp_path):
        path = small_dsmc_config(tmp_path, sigma2=-0.2)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2

    def test_partial_final_step_is_config_error(self, tmp_path, capsys):
        cfg = json.loads(small_dsmc_config(tmp_path).read_text())
        cfg["time"] = {"dt": 0.003, "t_final": 1.0}
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "time.t_final" in capsys.readouterr().err

    def test_missing_field_is_named(self, tmp_path):
        cfg = json.loads(small_dsmc_config(tmp_path).read_text())
        del cfg["dsmc"]["n_particles"]
        path = tmp_path / "missing.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(ConfigError, match="dsmc.n_particles"):
            execute(path, tmp_path / "out")


def controlled_epidemic_config(tmp_path, edit=None, name="ctrl.json"):
    cfg = {
        "schema_version": 1,
        "kind": "controlled_epidemic",
        "kinetic": {"alpha": 1.0, "sigma2": 0.2, "delta": -1.0, "tau": 1e-4},
        "epidemic": {"betas": [0.02, 2e-6], "gamma_i": 0.07142857142857142},
        "control": {"strategy": "interaction_b", "nu": 1.0, "x_target": 3.0},
        "grid": {"x_max": 100.0, "n_cells": 2000},
        "time": {"dt": 0.01, "t_final": 0.5, "output_every": 10},
        "initial": {"mean": 10.0, "rho": [0.98, 0.01, 0.01]},
        "tail_window": [5.0, 10.0],
    }
    if edit is not None:
        edit(cfg)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def consistency_config():
    return {
        "schema_version": 1,
        "kind": "kinetic_macro_consistency",
        "kinetic": {"alpha": 1.0, "sigma2": 0.2, "delta": -1.0, "tau": 1e-4},
        "epidemic": {"betas": [0.02, 2e-6], "gamma_i": 0.07142857142857142},
        "grid": {"x_max": 100.0, "n_cells": 2000},
        "time": {"dt": 0.01, "t_final": 0.5, "output_every": 10},
        "initial": {"mean": 10.0, "rho": [0.98, 0.01, 0.01]},
    }


def set_field(path, value):
    """Config edit that sets the dotted path (list index as last part) to value."""
    def edit(cfg):
        *parents, last = path.split(".")
        node = cfg
        for key in parents:
            node = node[key]
        node[int(last) if isinstance(node, list) else last] = value
    return edit


def tiny_config(name):
    """Bundled config name cut to 3 steps, 2 000 particles and at most 500 cells."""
    cfg = load_config(bundled_config_path(f"{name}.json"))
    if "dsmc" in cfg:
        cfg["dsmc"]["n_particles"] = 2000
    if "grid" in cfg:
        cfg["grid"]["n_cells"] = min(cfg["grid"]["n_cells"], 500)
    if "time" in cfg:
        cfg["time"]["t_final"] = 3 * cfg["time"]["dt"]
    return cfg


def numeric_leaves(node, path=()):
    """Key paths of the numbers, bools aside, in nested dicts and lists."""
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        if isinstance(value, (dict, list)):
            yield from numeric_leaves(value, path + (key,))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield path + (key,)


FUZZ_VALUES = (1e300, 1e-300, -1, 0, 1e-9, 1e9)
REMOVE = "remove"  # the edit that deletes the leaf
FUZZ_ALARM_S = 0.5  # a tiny run that is not stuck takes at most about 50 ms


def fuzz_edits():
    """(name, leaf path, value) for each bundled config: every numeric leaf set
    to each of FUZZ_VALUES, and each mean_reference removed."""
    edits = []
    for name in (n.removesuffix(".json") for n in list_bundled_scenarios()):
        cfg = tiny_config(name)
        edits += [(name, leaf, value) for leaf in numeric_leaves(cfg) for value in FUZZ_VALUES]
        edits += [(name, (section, "mean_reference"), REMOVE) for section in ("dsmc", "fp")
                  if "mean_reference" in cfg.get(section, {})]
    return edits


class Alarm(BaseException):
    """Raised by SIGALRM in a fuzzed run that outlives FUZZ_ALARM_S."""


def run_fuzzed(edit_lists, max_examples):
    """Run the tiny bundled config of each drawn list of fuzz_edits() entries,
    all of one config, with every edit applied, under an alarm of
    FUZZ_ALARM_S; assert it exits 0, 2 or 3 and return the config kinds run.
    An example that hits the alarm is rejected, and printed.  The alarm
    repeats every tenth of FUZZ_ALARM_S until the run ends: an Alarm raised
    inside a gc callback or a __del__ is ignored, and a one-shot alarm lost
    there would let a run of 3e7 steps fill the memory."""
    kinds, alarms, armed = set(), [], [False]

    def on_alarm(signum, frame):
        if armed[0]:
            raise Alarm

    @settings(max_examples=max_examples, deadline=None, derandomize=True, database=None)
    @given(edits=edit_lists)
    def run(edits):
        name = edits[0][0]
        cfg = tiny_config(name)
        for _, (*parents, last), value in edits:
            node = functools.reduce(operator.getitem, parents, cfg)
            if value == REMOVE:
                del node[last]
            else:
                node[last] = value
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(cfg))
            try:
                try:
                    armed[0] = True
                    signal.setitimer(signal.ITIMER_REAL, FUZZ_ALARM_S, FUZZ_ALARM_S / 10)
                    code = main(["run", str(path), "--out", str(Path(tmp) / "out")])
                finally:
                    armed[0] = False
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except Alarm:
                alarms.append(edits)
                reject()
        assert code in (0, 2, 3), edits
        kinds.add(cfg["kind"])

    previous = signal.signal(signal.SIGALRM, on_alarm)
    try:
        run()
    finally:
        signal.signal(signal.SIGALRM, previous)
    print(f"{len(alarms)} examples hit the {FUZZ_ALARM_S} s alarm and were rejected: {alarms}")
    return kinds


class TestExitCodes:
    @pytest.mark.parametrize(
        "path, value, named",
        [
            ("control.x_target", float("nan"), "control.x_target"),
            ("control.strategy", "additive", "control.strategy"),
            ("control.nu", float("inf"), "control.nu"),
            ("epidemic.betas.1", float("nan"), "epidemic.betas[1]"),
            ("epidemic.gamma_i", float("inf"), "epidemic.gamma_i"),
            ("kinetic.epsilon", float("inf"), "kinetic.epsilon"),
            ("grid.x_max", float("inf"), "grid.x_max"),
            ("grid.n_cells", 10.5, "grid.n_cells"),
            ("tail_window", ["5", "10"], "tail_window[0]"),
            ("initial.rho", [0.98, "0.01", 0.01], "initial.rho[1]"),
            ("kinetic.tau", float("inf"), "kinetic.tau"),
        ],
    )
    def test_bad_field_exits_two_naming_it(self, tmp_path, capsys, path, value, named):
        # only a particle run reads kinetic.epsilon
        make = small_dsmc_config if path == "kinetic.epsilon" else controlled_epidemic_config
        cfg = make(tmp_path)
        edited = json.loads(cfg.read_text())
        set_field(path, value)(edited)
        cfg.write_text(json.dumps(edited))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert named in err
        assert err.count("field '") == 1  # named once, not inside its block's name too

    def test_gamma_profile_with_an_underflowing_lam_exits_two(self, tmp_path, capsys):
        # alpha / sigma2 underflows to 0, so the initial gamma profile has no shape
        def edit(cfg):
            cfg["kinetic"].update(alpha=1e-300, sigma2=1e300)

        cfg = controlled_epidemic_config(tmp_path, edit)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "field 'kinetic'" in err and "lam = 0.0" in err

    @pytest.mark.parametrize("field", ["window_slim", "window_power_law"])
    def test_sweep_window_element_types_exit_two(self, tmp_path, capsys, field):
        cfg = load_config(bundled_config_path("test2_nu_sweep.json"))
        cfg["sweep"][field] = ["20", "40"]
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"sweep.{field}[0]" in capsys.readouterr().err

    # each kind builds exactly one initial profile, so initial.type is no
    # field of any kind, whichever profile it names
    @pytest.mark.parametrize(
        "make, wrong",
        [(controlled_epidemic_config, "uniform"), (small_dsmc_config, "gamma_profile"),
         (controlled_epidemic_config, "gamma_profile"), (small_dsmc_config, "uniform")],
    )
    def test_initial_type_of_another_profile_exits_two(self, tmp_path, capsys, make, wrong):
        cfg = json.loads(make(tmp_path).read_text())
        cfg["initial"]["type"] = wrong
        path = tmp_path / "wrong_type.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "initial.type" in capsys.readouterr().err

    def test_initial_type_may_be_omitted(self, tmp_path):
        # each kind builds one initial profile, so no config names it
        def edit(cfg):
            assert "type" not in cfg["initial"]
            cfg["time"]["t_final"] = 0.02

        execute(controlled_epidemic_config(tmp_path, edit), tmp_path / "out")

    @pytest.mark.parametrize("kind", ["dsmc_equilibrium", "fp_equilibrium"])
    def test_uniform_profile_beyond_the_grid_exits_two(self, tmp_path, capsys, kind):
        # particles past x_max would fall outside the histogram, which would
        # then be renormalised over the rest
        cfg = json.loads(small_dsmc_config(tmp_path).read_text())
        cfg["kind"] = kind
        cfg["grid"]["x_max"] = 10.0
        cfg["initial"] = {"low": 6.0, "high": 30.0}
        path = tmp_path / "beyond.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "field 'initial'" in capsys.readouterr().err

    def test_one_histogram_bin_exits_two(self, tmp_path, monkeypatch, capsys):
        # one bin holds every particle inside [0, x_max], so the density
        # would match any equilibrium; the check comes before any step
        def never(*args, **kwargs):
            raise AssertionError("the particles ran before grid.n_cells was checked")

        monkeypatch.setattr("kinctrl.cli.run_to_equilibrium", never)
        cfg = load_config(bundled_config_path("test1_control_b.json"))
        cfg["grid"]["n_cells"] = 1
        path = tmp_path / "one_bin.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "grid.n_cells" in capsys.readouterr().err

    def test_consistency_closure_needs_delta_plus_or_minus_one(self, tmp_path, capsys):
        cfg = consistency_config()
        cfg["kinetic"]["delta"] = 0.5
        path = tmp_path / "cons.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "kinetic.delta" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value, control",
        [
            pytest.param("beta0", 5.0, None, id="beta0-5.0"),
            pytest.param("betas", [0.02, 2e-6, 1e-8], None, id="betas-value1"),
            pytest.param("betas", [0.02, 2e-6, 1e-8],
                         {"strategy": "additive_a", "nu": 1.0, "x_target": 3.0},
                         id="betas-controlled"),
        ],
    )
    def test_consistency_rejects_terms_the_macro_model_drops(
        self, tmp_path, capsys, field, value, control
    ):
        # the kinetic incidence keeps beta0 and every beta_l; the macro
        # reference closes at beta_2, so it would compare a different model
        cfg = consistency_config()
        cfg["epidemic"][field] = value
        if control is not None:
            cfg["control"] = control
        path = tmp_path / "cons.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"epidemic.{field}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [("betas", [1e-3, 1e-6, 1e-8]), ("beta0", 5.0)],
        ids=["three_betas", "beta0"],
    )
    def test_macro_compare_rejects_terms_the_closed_system_drops(
        self, tmp_path, capsys, field, value
    ):
        cfg = json.loads(small_macro_config(tmp_path).read_text())
        cfg["epidemic"][field] = value
        path = tmp_path / "closed.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"epidemic.{field}" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["macro_compare", "kinetic_macro_consistency"])
    @pytest.mark.parametrize(
        "edits, field",
        [({"epidemic.betas": [1e-3, 1e-6, 1e-8]}, "epidemic.betas"),
         ({"epidemic.beta0": 5.0}, "epidemic.beta0"),
         # lam = 1 / 0.6 = 5/3: the inverse-gamma profile at delta = -1 has
         # no third moment, which the L2 system needs
         ({"epidemic.betas": [1e-3, 1e-6], "kinetic.sigma2": 0.6}, "kinetic.sigma2")],
        ids=["three_betas", "beta0", "invgamma_lam_5_3"],
    )
    def test_closed_system_rejection_names_its_config_field(self, tmp_path, kind, edits, field):
        if kind == "macro_compare":
            cfg = load_config(bundled_config_path("closure_l1_invgamma.json"))
        else:
            cfg = consistency_config()
        for path, value in edits.items():
            set_field(path, value)(cfg)
        code, err, made = run_quietly(cfg, tmp_path)
        assert code == 2 and f"field '{field}'" in err and not made, err

    def test_macro_compare_closure_needs_delta_plus_or_minus_one(self, tmp_path, capsys):
        # the closure is the local equilibrium, which has a closed form at delta = +/-1 only
        cfg = json.loads(small_macro_config(tmp_path).read_text())
        cfg["kinetic"]["delta"] = 0.3
        path = tmp_path / "delta.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "field 'kinetic.delta'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "macro",
        [{"variant": "l1"}, {"closure": "gamma"}, {"variant": "l1", "closure": "inverse_gamma"},
         {"variant": "classical_sir", "closure": "dirac", "beta": 0.1}],
    )
    def test_macro_variant_or_closure_exits_two_naming_it(self, tmp_path, capsys, macro):
        # the number of betas sets L1 or L2, kinetic.delta the closure, and
        # macro.beta classical SIR: no run reads either field
        cfg = json.loads(small_macro_config(tmp_path).read_text())
        cfg["macro"] = macro
        if "beta" in macro:
            del cfg["epidemic"]["betas"]
        path = tmp_path / "macro.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"field 'macro.{next(iter(macro))}': a macro_compare run does not read it" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field, value", [("betas", [1e-3]), ("beta0", 5.0)])
    def test_classical_sir_rejects_an_epidemic_field_it_ignores(
        self, tmp_path, monkeypatch, capsys, field, value
    ):
        # classical SIR reads macro.beta and epidemic.gamma_i only
        def never(*args, **kwargs):
            raise AssertionError("classical SIR ran with a field unread")

        monkeypatch.setattr("kinctrl.cli.rk4_integrate", never)
        cfg = json.loads(small_macro_config(tmp_path).read_text())
        cfg["macro"] = {"beta": 0.1}
        cfg["epidemic"] = {"gamma_i": 0.07142857142857142, field: value}
        path = tmp_path / "sir.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"field 'epidemic.{field}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_classical_sir_needs_a_non_negative_beta(self, tmp_path, capsys):
        cfg = json.loads(small_macro_config(tmp_path).read_text())
        cfg["macro"] = {"beta": -0.1}
        del cfg["epidemic"]["betas"]
        path = tmp_path / "sir.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "field 'macro.beta'" in capsys.readouterr().err

    @pytest.mark.parametrize("t_final", [0.0, 1e-300])
    def test_particle_run_of_no_steps_exits_two(self, tmp_path, capsys, t_final):
        # 1e-300 is a whole number of steps, 0, so it passes the step check
        cfg = json.loads(small_dsmc_config(tmp_path).read_text())
        cfg["time"]["t_final"] = t_final
        path = tmp_path / "no_steps.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "time.t_final" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["test4_uncontrolled", "closure_l1_gamma"])
    def test_more_than_max_steps_exits_two_before_any_step(self, tmp_path, capsys, name):
        # 1e302 steps: uncapped, the kinetic run's output-step list overflows
        # and the macro run keeps every RK4 state, without end
        cfg = load_config(bundled_config_path(f"{name}.json"))
        cfg["time"]["t_final"] = 1e300
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "time.t_final" in err and "MAX_STEPS" in err

    @pytest.mark.parametrize("kind", ["dsmc_equilibrium", "fp_equilibrium", "controlled_epidemic"])
    def test_controlled_operator_at_other_delta_exits_two(self, tmp_path, capsys, kind):
        # the controlled rules are derived at delta = -1 only, at every level
        if kind == "controlled_epidemic":
            cfg = json.loads(controlled_epidemic_config(tmp_path).read_text())
        else:
            cfg = json.loads(small_dsmc_config(tmp_path).read_text())
            cfg.update(kind=kind, control={"strategy": "interaction_b", "nu": 1.0, "x_target": 3.0})
            cfg["time"] = {"dt": 0.001, "t_final": 0.01}  # a valid particle step at delta = +1
            cfg["dsmc"]["kernel_bound"] = 10.0
        cfg["kinetic"]["delta"] = 1.0
        path = tmp_path / "delta.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "kinetic.delta" in capsys.readouterr().err

    def test_numerical_failure_exits_three(self, tmp_path, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise NumericsError("tridiagonal solve failed")

        monkeypatch.setattr("kinctrl.cli.run_scenario", fail)
        cfg = controlled_epidemic_config(tmp_path)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 3
        assert "NumericsError" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, edits, failure",
        [
            # NaN mass after the first step; the drift test must not let NaN through
            ("test4_uncontrolled",
             [("epidemic.betas.0", 1e300), ("grid.n_cells", 500), ("time.t_final", 0.05)],
             "InvariantViolationError"),
            # every particle leaves [0, x_max]
            ("test1_control_b",
             [("control.x_target", 1e300), ("dsmc.n_particles", 1000), ("time.t_final", 0.05)],
             "NumericsError"),
            # the fp relaxation loses its mass, or its positivity
            ("test1_fp_control_b", [("kinetic.sigma2", 1e300), ("time.t_final", 0.1)],
             "InvariantViolationError"),
            ("test1_fp_uncontrolled_deltam1", [("kinetic.tau", 1e-300), ("time.t_final", 0.1)],
             "InvariantViolationError"),
            ("test1_fp_control_b",
             [("kinetic.sigma2", 1e300), ("time.t_final", 0.1), ("fp", {})],
             "InvariantViolationError"),
            # the macro RK4 step overflows
            ("closure_l1_gamma", [("epidemic.betas.0", 1e300), ("time.t_final", 1.0)],
             "InvariantViolationError"),
            # alpha^2 or m^2 of the interaction control overflows to inf
            ("test2_nu_sweep", [("kinetic.alpha", 1e300)], "NumericsError"),
            ("test1_fp_control_b", [("kinetic.alpha", 1e300), ("time.t_final", 0.01)],
             "NumericsError"),
            # the first contact moment of the additive steady state overflows beta
            ("test3_consistency_control_a",
             [("control.nu", 1e-9), ("grid.x_max", 1e300), ("grid.n_cells", 500),
              ("time.t_final", 0.03)],
             "NumericsError"),
            # tau dx^2 of the contact step underflows to 0
            ("test4_control_b",
             [("kinetic.sigma2", 1e9), ("grid.x_max", 1e-300), ("grid.n_cells", 500),
              ("time.t_final", 0.03)],
             "NumericsError"),
            # sigma2 nu of the additive control underflows to 0
            ("test1_control_a",
             [("kinetic.sigma2", 1e-300), ("control.nu", 1e-300), ("dsmc.n_particles", 1000),
              ("time.t_final", 0.03)],
             "NumericsError"),
            ("test3_consistency_control_b",
             [("initial.mean", 1e300), ("grid.n_cells", 500), ("time.t_final", 0.01)],
             "NumericsError"),
            # a closure ratio of the L1/L2 model overflows: c2^2 of the gamma
            # profile at a tiny lam, lam^2 of the inverse gamma one at a huge lam
            ("closure_l1_gamma", [("kinetic.alpha", 1e-300), ("time.t_final", 0.03)],
             "NumericsError"),
            ("closure_l1_gamma", [("kinetic.sigma2", 1e300), ("time.t_final", 0.03)],
             "NumericsError"),
            ("test3_consistency",
             [("kinetic.alpha", 1e300), ("grid.n_cells", 500), ("time.t_final", 0.03)],
             "NumericsError"),
            ("test3_consistency",
             [("kinetic.sigma2", 1e-300), ("grid.n_cells", 500), ("time.t_final", 0.03)],
             "NumericsError"),
            ("test3_consistency_tau1",
             [("kinetic.alpha", 1e300), ("grid.n_cells", 500), ("time.t_final", 0.03)],
             "NumericsError"),
        ],
    )
    def test_numerical_blowup_exits_three(self, tmp_path, capsys, name, edits, failure):
        cfg = load_config(bundled_config_path(f"{name}.json"))
        for path, value in edits:
            set_field(path, value)(cfg)
        path = tmp_path / "blowup.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
        assert failure in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["test1_uncontrolled_deltam1", "test1_control_a",
                                      "test1_control_b"])
    def test_lost_ensemble_mean_exits_three_naming_the_step(self, tmp_path, capsys, name):
        # with no dsmc.mean_reference each step runs at the ensemble mean,
        # which alpha = 1e300 sends to inf or nan within 3 steps
        cfg = load_config(bundled_config_path(f"{name}.json"))
        del cfg["dsmc"]["mean_reference"]
        for path, value in [("kinetic.alpha", 1e300), ("dsmc.n_particles", 2000),
                            ("time.t_final", 0.03)]:
            set_field(path, value)(cfg)
        path = tmp_path / "lost_mean.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "NumericsError" in err and "ensemble mean" in err and "at step" in err

    def test_fuzzed_bundled_configs_exit_zero_two_or_three(self):
        # one leaf of a tiny bundled config set to an extreme value, or a
        # mean_reference removed: a run may succeed, reject its config or fail
        # numerically, and any other exception is a bug.  time.dt = 1e-9 makes
        # 3e7 steps, under MAX_STEPS, so every run has an alarm; an example
        # that hits it is rejected, and counted
        kinds = run_fuzzed(st.sampled_from(fuzz_edits()).map(lambda edit: [edit]), 300)
        assert kinds == set(RUNNERS)

    def test_two_fuzzed_leaves_exit_zero_two_or_three(self):
        # two leaves of the same tiny bundled config edited at once, so an
        # extreme value meets another one that a single edit never pairs it with
        by_name = {}
        for edit in fuzz_edits():
            by_name.setdefault(edit[0], []).append(edit)
        pairs = st.sampled_from(sorted(by_name)).flatmap(lambda name: st.lists(
            st.sampled_from(by_name[name]), min_size=2, max_size=2, unique_by=lambda e: e[1]))
        run_fuzzed(pairs, 200)

    def test_non_finite_metric_exits_three_without_a_manifest(self, tmp_path, monkeypatch, capsys):
        def nan_metric(cfg, p, seed, clock):
            metrics = {"tails": {"a": {"window": [1.0, 2.0], "exponent": float("nan")}}}
            return metrics, {}, {"sweep.csv": {"strategy": ["a"], "nu": [1.0]}}

        monkeypatch.setitem(RUNNERS, "tail_sweep", nan_metric)
        path = bundled_config_path("test2_nu_sweep.json")
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
        assert "metrics['tails']['a']['exponent']" in capsys.readouterr().err
        assert not (tmp_path / "out" / "manifest.json").exists()
        assert not (tmp_path / "out").exists()

    def test_failed_equilibrium_metric_exits_three_leaving_no_output(
        self, tmp_path, monkeypatch, capsys
    ):
        # the particle run has its histogram when the equilibrium metric fails
        def fail(*args, **kwargs):
            raise NumericsError("equilibrium density overflows")

        monkeypatch.setattr("kinctrl.cli.EquilibriumDensity", fail)
        assert main(["run", str(small_dsmc_config(tmp_path)), "--out", str(tmp_path / "out")]) == 3
        assert "equilibrium density overflows" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_macro_output_every_is_checked_before_step_0(self, tmp_path, monkeypatch, capsys):
        # checked before step 0, not after the 60 000 RK4 steps of closure_l1_gamma
        def never(*args, **kwargs):
            raise AssertionError("the macro model ran before time.output_every was checked")

        monkeypatch.setattr("kinctrl.cli.rk4_integrate", never)
        cfg = load_config(bundled_config_path("closure_l1_gamma.json"))
        cfg["time"]["output_every"] = 0
        path = tmp_path / "every0.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "time.output_every" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "path, value",
        [("kinetic.alpha", "1.0"), ("time.output_everi", 10)],
        ids=["read_first", "found_last_unread"],
    )
    def test_config_error_leaves_no_output_directory(self, tmp_path, capsys, path, value):
        cfg = load_config(bundled_config_path("closure_l1_gamma.json"))
        set_field(path, value)(cfg)
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        assert f"field '{path}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_code_bug_propagates(self, tmp_path, monkeypatch):
        def bug(*args, **kwargs):
            raise TypeError("unsupported operand")

        monkeypatch.setattr("kinctrl.cli.run_scenario", bug)
        cfg = controlled_epidemic_config(tmp_path)
        with pytest.raises(TypeError):
            main(["run", str(cfg), "--out", str(tmp_path / "out")])


def key_paths(node, path=()):
    """Key paths of every key in nested dicts, blocks and leaves alike."""
    for key, value in node.items():
        yield path + (key,)
        if isinstance(value, dict):
            yield from key_paths(value, path + (key,))


def run_quietly(cfg, tmp):
    """(exit code, stderr, whether --out exists) of `kinctrl run` on cfg, in directory tmp."""
    path = Path(tmp) / "cfg.json"
    path.write_text(json.dumps(cfg))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["run", str(path), "--out", str(Path(tmp) / "out")])
    return code, err.getvalue(), (Path(tmp) / "out").exists()


def names(err, path):
    """Whether the message err names the field at path, or a field inside it."""
    return f"field '{path}'" in err or f"field '{path}." in err


# Keys that a run of some kind may lack; a run of another kind may require them.
OPTIONAL = {"kinetic.epsilon", "kinetic.tau", "control", "dsmc.mean_reference", "fp",
            "fp.mean_reference", "time.output_every", "tail_window", "sweep.window_power_law",
            "sweep.window_slim"}


# For one bundled config of each of the six kinds, the seed and kinetic scale
# fields that its kind does not read, at values that would change a run that
# read them.
UNREAD_SCALES = {
    "test1_control_b": {"kinetic.tau": 1e-5},
    "test1_fp_control_b": {"seed": 12345, "kinetic.epsilon": 0.5},
    "test2_nu_sweep": {"seed": 12345, "kinetic.epsilon": 0.5, "kinetic.tau": 1e-7},
    "closure_l1_gamma": {"seed": 12345, "kinetic.epsilon": 0.5, "kinetic.tau": 1e-7},
    "test3_consistency": {"seed": 99, "kinetic.epsilon": 0.9},
    "test4_control_b": {"seed": 99, "kinetic.epsilon": 0.9},
}


class TestClosedSchema:
    """A run reads every key of its config before step 0.  A key copied or
    moved to a new name, or dropped, at every level of every tiny bundled
    config exits 2 naming it, unless the dropped key is optional, and leaves
    no output directory.  All 4 x 346 edits run, in under a second, so none
    is sampled."""

    @staticmethod
    def edited_runs(edit):
        """(dotted key path, exit code, stderr) of each tiny bundled config with
        edit(node, key) applied at each of its key paths."""
        for name in list_bundled_scenarios():
            for path in key_paths(tiny_config(name.removesuffix(".json"))):
                cfg = tiny_config(name.removesuffix(".json"))
                *parents, key = path
                edit(functools.reduce(operator.getitem, parents, cfg), key)
                with tempfile.TemporaryDirectory() as tmp:
                    code, err, made = run_quietly(cfg, tmp)
                assert not (code != 0 and made), (name, path, err)
                yield ".".join(path), code, err

    def test_added_key_exits_two_naming_it(self):
        def add(node, key):
            node[key + "_added"] = node[key]

        wrong = [(path, code, err) for path, code, err in self.edited_runs(add)
                 if not (code == 2 and names(err, path + "_added"))]
        assert wrong == []

    def test_added_empty_block_exits_two_naming_it(self):
        # an empty block holds no value for a run to read, and is a key of its own
        def add_empty(node, key):
            node[key + "_empty"] = {}

        wrong = [(path, code, err) for path, code, err in self.edited_runs(add_empty)
                 if not (code == 2 and names(err, path + "_empty"))]
        assert wrong == []

    def test_renamed_key_exits_two_naming_it(self):
        def rename(node, key):
            node[key + "_renamed"] = node.pop(key)

        wrong = [(path, code, err) for path, code, err in self.edited_runs(rename)
                 if not (code == 2 and (names(err, path) or names(err, path + "_renamed")))]
        assert wrong == []

    def test_dropped_key_exits_two_naming_it_unless_optional(self):
        def drop(node, key):
            del node[key]

        wrong = [(path, code, err) for path, code, err in self.edited_runs(drop)
                 if not (code == 2 and f"field '{path}'" in err or code == 0 and path in OPTIONAL)]
        assert wrong == []

    def test_misspelled_mean_reference_exits_two_before_any_step(self, tmp_path, monkeypatch):
        # read as absent, it would run the particles at the ensemble mean, not at 5.0
        def never(*args, **kwargs):
            raise AssertionError("the particles ran with a field unread")

        monkeypatch.setattr("kinctrl.cli.run_to_equilibrium", never)
        cfg = load_config(bundled_config_path("test1_control_b.json"))
        cfg["dsmc"]["mean_referense"] = cfg["dsmc"].pop("mean_reference")
        code, err, made = run_quietly(cfg, tmp_path)
        assert code == 2 and "field 'dsmc.mean_referense'" in err and not made

    @pytest.mark.parametrize(
        "name, path, value",
        [(name, path, value) for name, fields in UNREAD_SCALES.items()
         for path, value in fields.items()],
    )
    def test_seed_or_scale_the_kind_does_not_read_exits_two_before_step_0(
        self, monkeypatch, tmp_path, name, path, value
    ):
        phases, enter = [], cli.PhaseClock.enter

        def enter_phase(clock, phase):
            phases.append(phase)
            return enter(clock, phase)

        monkeypatch.setattr(cli.PhaseClock, "enter", enter_phase)
        cfg = tiny_config(name)
        *parents, last = path.split(".")
        assert last not in functools.reduce(operator.getitem, parents, cfg)  # bundled without it
        set_field(path, value)(cfg)
        code, err, made = run_quietly(cfg, tmp_path)
        assert code == 2 and f"field '{path}'" in err and not made, err
        assert "steps_s" not in phases

    @pytest.mark.parametrize("name", [n for n in UNREAD_SCALES if "seed" in UNREAD_SCALES[n]])
    def test_seed_option_on_a_deterministic_kind_exits_two(self, tmp_path, capsys, name):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(tiny_config(name)))
        assert main(["run", str(path), "--seed", "3", "--out", str(tmp_path / "out")]) == 2
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_reads_do_not_leak_into_the_next_run(self):
        # a stray key fails only its own run, and a key that a particle run
        # reads is still stray in an fp run
        particle, fp = tiny_config("test1_control_b"), tiny_config("test1_fp_control_b")
        fp["dsmc"] = {"mean_reference": 5.0}
        for cfg, stray in [({**particle, "stray": 1}, "stray"), (particle, None),
                           (fp, "dsmc.mean_reference"), (particle, None)]:
            with tempfile.TemporaryDirectory() as tmp:
                code, err, _ = run_quietly(cfg, tmp)
            assert (code, names(err, stray)) == ((0, False) if stray is None else (2, True)), err

    def test_no_field_is_read_once_the_steps_start(self, monkeypatch):
        stepping = [False]
        enter, get = cli.PhaseClock.enter, cli._get

        def enter_phase(clock, phase):
            stepping[0] = stepping[0] or phase == "steps_s"
            return enter(clock, phase)

        def get_before_steps(cfg, path, *args, **kwargs):
            assert not stepping[0], f"a {cfg['kind']} run reads {path} after its steps start"
            return get(cfg, path, *args, **kwargs)

        configs = [tiny_config(name.removesuffix(".json")) for name in list_bundled_scenarios()]
        for cfg in configs[:]:
            for section in ("dsmc", "fp"):
                if cfg["kind"] != "tail_sweep" and "mean_reference" in cfg.get(section, {}):
                    block = {k: v for k, v in cfg[section].items() if k != "mean_reference"}
                    configs.append({**cfg, section: block})  # the run at the running mean
        monkeypatch.setattr(cli.PhaseClock, "enter", enter_phase)
        monkeypatch.setattr(cli, "_get", get_before_steps)
        for cfg in configs:
            stepping[0] = False
            with tempfile.TemporaryDirectory() as tmp:
                code, err, _ = run_quietly(cfg, tmp)
            assert code == 0, err


class TestRun:
    def test_dsmc_run_writes_artifacts(self, tmp_path):
        path = small_dsmc_config(tmp_path)
        out = execute(path, tmp_path / "out")
        assert (out / "density_t1.0.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 7
        assert manifest["derived"]["lam"] == pytest.approx(5.0)
        assert manifest["derived"]["moment_ratio"] == pytest.approx(1.25)
        assert manifest["code_version"]

    @pytest.mark.parametrize(
        "name, t_final",
        [("test4_control_b", 0.05), ("test1_fp_control_b", 0.1), ("closure_l1_gamma", 5.0),
         ("test2_nu_sweep", None), ("test3_consistency", 0.05),
         ("test3_consistency_control_b", 0.05)],
    )
    def test_manifest_timings_cover_the_run(self, tmp_path, name, t_final):
        cfg = load_config(bundled_config_path(name + ".json"))
        if t_final is not None:
            cfg["time"]["t_final"] = t_final
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        manifest = json.loads((execute(path, tmp_path / "out") / "manifest.json").read_text())
        timings = manifest["timings"]
        assert set(timings) == {"setup_s", "steps_s", "output_s"}
        assert all(t >= 0.0 for t in timings.values())
        total = sum(timings.values())
        assert 0.95 * manifest["wall_clock_s"] <= total <= manifest["wall_clock_s"] * (1 + 1e-9)
        stepped = cfg["kind"] not in ("macro_compare", "tail_sweep")
        assert manifest["diagnostics"] == ({"steps": round(t_final / cfg["time"]["dt"])} if stepped else {})
        assert manifest["seed"] is None  # a deterministic run takes no seed

    def test_dsmc_manifest_timings(self, tmp_path):
        out = execute(small_dsmc_config(tmp_path), tmp_path / "out")
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["timings"]) == {"setup_s", "steps_s", "output_s"}
        assert sum(manifest["timings"].values()) >= 0.95 * manifest["wall_clock_s"]

    def test_particles_beyond_x_max_are_counted(self, tmp_path, monkeypatch):
        # 500 of 3 000 particles start at 2 x_max and stay past x_max for the
        # one step; the histogram leaves them out and the manifest counts them
        from_uniform = ParticleEnsemble.from_uniform

        def some_beyond(n, low, high, seed):
            ens = from_uniform(n, low, high, seed)
            ens.samples[:500] = 200.0
            return ens

        monkeypatch.setattr(ParticleEnsemble, "from_uniform", some_beyond)
        path = small_dsmc_config(tmp_path)
        cfg = json.loads(path.read_text())
        cfg["time"]["t_final"] = 0.01
        path.write_text(json.dumps(cfg))
        out = execute(path, tmp_path / "out")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["diagnostics"]["particles_outside"] == 500
        density = read_csv(out / "density_t0.01.csv")
        counts = density["f"] * (density["x"][1] - density["x"][0]) * 2_500
        assert np.allclose(counts, np.round(counts)) and np.round(counts).sum() == 2_500

    def test_bad_tail_window_fails_before_the_run(self, tmp_path, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the scenario ran before its config was checked")

        monkeypatch.setattr("kinctrl.cli.run_scenario", never)
        cfg = controlled_epidemic_config(tmp_path, set_field("tail_window", [10.0, 5.0]))
        with pytest.raises(ConfigError, match="tail_window"):
            execute(cfg, tmp_path / "out")

    @pytest.mark.parametrize("delta, dt, bound", [(-1.0, 0.01, 1.0), (1.0, 0.001, 10.0)])
    def test_dsmc_manifest_accept_ratio(self, tmp_path, delta, dt, bound):
        # transitions / (particles x steps): every particle fires each step at
        # delta = -1 with dt = epsilon, only some do at delta = +1
        cfg = json.loads(small_dsmc_config(tmp_path).read_text())
        cfg["kinetic"]["delta"] = delta
        cfg["dsmc"]["kernel_bound"] = bound
        cfg["time"] = {"dt": dt, "t_final": 0.1}
        path = tmp_path / "ratio.json"
        path.write_text(json.dumps(cfg))
        out = execute(path, tmp_path / "out")
        manifest = json.loads((out / "manifest.json").read_text())
        ratio = manifest["metrics"]["accept_ratio"]
        if delta == -1.0:
            assert ratio == 1.0
        else:
            assert 0.0 < ratio < 1.0
        # 3 000 particles fill one block, so the dense step runs as one chunk too
        assert manifest["diagnostics"] == {
            "steps": round(0.1 / dt), "threads": 1, "particles_outside": 0}

    def test_byte_identical_reruns(self, tmp_path):
        path = small_dsmc_config(tmp_path)
        out_a = execute(path, tmp_path / "a")
        out_b = execute(path, tmp_path / "b")
        name = "density_t1.0.csv"
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_manifest_suffices_to_rerun(self, tmp_path):
        path = small_dsmc_config(tmp_path)
        out_a = execute(path, tmp_path / "a")
        manifest = json.loads((out_a / "manifest.json").read_text())
        replay = tmp_path / "replay.json"
        replay.write_text(json.dumps(manifest["config"]))
        out_b = execute(replay, tmp_path / "b", seed=manifest["seed"])
        name = "density_t1.0.csv"
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        path = small_dsmc_config(tmp_path)
        out_a = execute(path, tmp_path / "a")
        out_b = execute(path, tmp_path / "b", seed=8)
        name = "density_t1.0.csv"
        assert (out_a / name).read_bytes() != (out_b / name).read_bytes()

    def test_out_dir_env_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KINCTRL_OUT_DIR", str(tmp_path / "envroot"))
        monkeypatch.chdir(tmp_path)
        path = small_dsmc_config(tmp_path)
        out = execute(path)
        assert out == tmp_path / "envroot" / "small"

    def test_macro_run_trajectory_columns(self, tmp_path):
        path = small_macro_config(tmp_path)
        out = execute(path, tmp_path / "out")
        traj = read_csv(out / "trajectory.csv")
        assert list(traj) == ["t", "rho_S", "rho_I", "rho_R", "m_S", "m_I", "m_R"]
        assert traj["t"][-1] == pytest.approx(5.0)

    @pytest.mark.parametrize("name", ["closure_l1_gamma", "closure_l1_invgamma"])
    def test_closure_manifest_moment_ratio_is_the_models_c2(self, tmp_path, name):
        # the closure follows kinetic.delta, so derived.moment_ratio is the c2 it closes with
        cfg = load_config(bundled_config_path(f"{name}.json"))
        cfg["time"]["t_final"] = 0.1
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        derived = json.loads((execute(path, tmp_path / "out") / "manifest.json").read_text())[
            "derived"]
        p = KineticParams(**cfg["kinetic"])
        model = MacroModel(closure_kind(p.delta), p, EpidemicParams(**cfg["epidemic"]))
        assert derived["moment_ratio"] == model.rate_constants[4]

    def test_classical_sir_run_holds_the_means(self, tmp_path):
        # macro.beta makes the run classical SIR, which closes no moments
        cfg = json.loads(small_macro_config(tmp_path).read_text())
        cfg["macro"] = {"beta": 0.1}
        del cfg["epidemic"]["betas"]
        path = tmp_path / "sir.json"
        path.write_text(json.dumps(cfg))
        traj = read_csv(execute(path, tmp_path / "out") / "trajectory.csv")
        assert set(traj["m_S"]) == set(traj["m_I"]) == {10.0}
        assert traj["rho_I"][-1] > traj["rho_I"][0]

    def test_macro_trajectory_ends_at_t_final(self, tmp_path):
        # 500 steps recorded every 7: steps 0, 7, ..., 497 and then 500
        cfg = load_config(bundled_config_path("closure_l1_gamma.json"))
        cfg["time"].update(t_final=5.0, output_every=7)
        path = tmp_path / "closure.json"
        path.write_text(json.dumps(cfg))
        traj = read_csv(execute(path, tmp_path / "out") / "trajectory.csv")
        assert len(traj["t"]) == 73
        assert traj["t"][-2] == pytest.approx(4.97)
        assert traj["t"][-1] == 5.0

    def fp_config(self, tmp_path, **fp):
        cfg = {
            "schema_version": 1,
            "kind": "fp_equilibrium",
            "kinetic": {"alpha": 1.0, "sigma2": 0.2, "delta": -1.0, "tau": 1.0},
            "grid": {"x_max": 100.0, "n_cells": 500},
            "fp": fp,
            "time": {"dt": 0.05, "t_final": 30.0},
            "initial": {"low": 6.0, "high": 8.0},
        }
        path = tmp_path / "fp.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_fp_run(self, tmp_path):
        out = execute(self.fp_config(tmp_path, mean_reference=5.0), tmp_path / "out")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["metrics"]["l1_to_equilibrium"] < 0.05
        assert (out / "steady_state.csv").exists()

    def test_fp_run_at_the_running_mean(self, tmp_path):
        # without fp.mean_reference every step relaxes toward the density's
        # own mean, and the run ends near the steady state at its final mean
        # (measured 5.2e-5)
        out = tmp_path / "out"
        assert main(["run", str(self.fp_config(tmp_path)), "--out", str(out)]) == 0
        metrics = json.loads((out / "manifest.json").read_text())["metrics"]
        assert abs(metrics["final_mass"] - 1.0) <= 1e-10
        assert "l1_to_equilibrium" not in metrics
        assert metrics["l1_to_steady_state"] < 1e-4


class TestScenarioRunners:
    def test_tail_sweep(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "kind": "tail_sweep",
            "kinetic": {"alpha": 0.4, "sigma2": 0.2, "delta": -1.0},
            "grid": {"x_max": 200.0, "n_cells": 4000},
            "fp": {"mean_reference": 10.0},
            "sweep": {"x_target": 3.0, "nu_values": [1.0, 10.0]},
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        out = execute(path, tmp_path / "out")
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "strategy,nu,m_inf,m2_inf"
        assert len(lines) == 1 + 1 + 2 * 2  # header, uncontrolled, two strategies x two nus
        tails = json.loads((out / "manifest.json").read_text())["metrics"]["tails"]
        assert tails["additive_a"]["1.0"]["kind"] == "power_law"
        assert tails["interaction_b"]["1.0"]["kind"] == "slim_tail"

    def test_kinetic_macro_consistency(self, tmp_path):
        path = tmp_path / "cons.json"
        path.write_text(json.dumps(consistency_config()))
        out = execute(path, tmp_path / "out")
        assert (out / "trajectory.csv").exists()
        assert (out / "trajectory_macro.csv").exists()
        gaps = json.loads((out / "manifest.json").read_text())["metrics"]["sup_gaps"]
        assert gaps["rho_I"] < 1e-2

    @pytest.mark.parametrize("t_final", [0.0, 0.5])
    def test_controlled_consistency_against_classical_sir(self, tmp_path, t_final):
        # the reference is classical SIR at the derived beta, started at m*:
        # its means stay at m*, and the kinetic t = 0 row (the gamma profile
        # at initial.mean) is left out of the mean gaps
        cfg = consistency_config()
        cfg["control"] = {"strategy": "interaction_b", "nu": 1.0, "x_target": 3.0}
        cfg["time"]["t_final"] = t_final
        path = tmp_path / "cons.json"
        path.write_text(json.dumps(cfg))
        out = execute(path, tmp_path / "out")
        macro = read_csv(out / "trajectory_macro.csv")
        kinetic = read_csv(out / "trajectory.csv")
        assert (macro["rho_S"][0], macro["rho_I"][0]) == (kinetic["rho_S"][0], kinetic["rho_I"][0])
        assert len(set(macro["m_S"])) == 1 and macro["m_S"][0] < 3.0
        gaps = json.loads((out / "manifest.json").read_text())["metrics"]["sup_gaps"]
        if t_final == 0.0:
            assert gaps["m_S_rel"] == gaps["m_I_rel"] == 0.0
        else:
            assert 0.0 < gaps["m_S_rel"] < 0.1
            assert gaps["rho_I"] < 1e-3

    def test_consistency_with_an_empty_compartment_writes_strict_json(self, tmp_path):
        # rho_R = 0 at t = 0 gives m_R = 0 in both models there; that gap is
        # absolute, not 0/0
        cfg = consistency_config()
        cfg["initial"]["rho"] = [0.99, 0.01, 0.0]
        path = tmp_path / "cons.json"
        path.write_text(json.dumps(cfg))
        out = execute(path, tmp_path / "out")

        def reject(constant):
            raise ValueError(f"non-finite JSON value {constant}")

        manifest = json.loads((out / "manifest.json").read_text(), parse_constant=reject)
        gaps = manifest["metrics"]["sup_gaps"]
        assert gaps["m_R_rel"] >= 0.0

    def test_missing_kernel_bound_exits_two_before_any_step(self, tmp_path, monkeypatch, capsys):
        # a default bound taken from the histogram's cells would let the
        # output binning change the particle dynamics
        def never(*args, **kwargs):
            raise AssertionError("the particles ran without dsmc.kernel_bound")

        monkeypatch.setattr("kinctrl.cli.run_to_equilibrium", never)
        cfg = load_config(bundled_config_path("test1_uncontrolled_deltap1.json"))
        del cfg["dsmc"]["kernel_bound"]
        path = tmp_path / "no_bound.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "field 'dsmc.kernel_bound'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_controlled_epidemic(self, tmp_path):
        out = execute(controlled_epidemic_config(tmp_path), tmp_path / "out")
        traj = read_csv(out / "trajectory.csv")
        assert "m2_I" in traj
        assert (out / "density_t0.5.csv").exists()
        metrics = json.loads((out / "manifest.json").read_text())["metrics"]
        assert metrics["final_s_tail"]["kind"] == "slim_tail"


class TestCompare:
    def test_identical_runs_give_zero(self, tmp_path):
        path = small_macro_config(tmp_path)
        out_a = execute(path, tmp_path / "a")
        out_b = execute(path, tmp_path / "b")
        report = compare_runs(out_a, out_b, "sup_trajectory")
        assert report["value"] == 0.0

    def test_sup_trajectory_detects_difference(self, tmp_path):
        out_a = execute(small_macro_config(tmp_path, name="m1.json"), tmp_path / "a")
        out_b = execute(small_macro_config(tmp_path, name="m2.json", beta1=2e-3), tmp_path / "b")
        report = compare_runs(out_a, out_b, "sup_trajectory")
        assert report["value"] > 0.0

    def test_mismatched_axes_error(self, tmp_path):
        out_a = execute(small_macro_config(tmp_path, name="m1.json"), tmp_path / "a")
        out_b = execute(small_macro_config(tmp_path, name="m2.json", dt=0.005), tmp_path / "b")
        with pytest.raises(NumericsError):
            compare_runs(out_a, out_b, "sup_trajectory")

    @pytest.mark.parametrize(
        "metric, name, text",
        [
            ("sup_trajectory", None, None),
            ("sup_trajectory", "trajectory.csv", ""),
            ("sup_trajectory", "trajectory.csv", "t,rho_S\n0.0,1.0\n0.1\n"),
            ("L1_density", "density_t1.0.csv", ""),
            ("L1_density", "density_t1.0.csv", "x,f\n0.5,1.0,2.0\n"),
            ("L1_density", "density_t1.0.csv", "x,f\n0.5,1.0\n"),
        ],
        ids=["trajectory_missing", "trajectory_empty", "trajectory_ragged",
             "density_empty", "density_ragged", "density_one_row"],
    )
    def test_unreadable_csv_is_a_failed_comparison(self, tmp_path, capsys, metric, name, text):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            d.mkdir()
            if name is not None:
                (d / name).write_text(text)
        assert main(["compare", *map(str, dirs), "--metric", metric]) == 3
        err = capsys.readouterr().err
        assert "comparison failed" in err
        assert (name or "trajectory.csv") in err

    @pytest.mark.parametrize(
        "metric, name, text, column",
        [
            ("sup_trajectory", "trajectory.csv", "t,rho_S,rho_I\n0.0,0.9,{}\n0.1,0.8,0.2\n", "rho_I"),
            ("L1_density", "density_t1.0.csv", "x,f\n0.5,{}\n1.5,0.5\n", "f"),
        ],
        ids=["trajectory", "density"],
    )
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_value_is_a_failed_comparison(
        self, tmp_path, capsys, metric, name, text, column, value
    ):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d, v in zip(dirs, ["0.1", value]):
            d.mkdir()
            (d / name).write_text(text.format(v))
        assert main(["compare", *map(str, dirs), "--metric", metric]) == 3
        err = capsys.readouterr().err
        assert "comparison failed" in err
        assert str(dirs[1] / name) in err and repr(column) in err
        assert not (dirs[1] / "compare_report.json").exists()

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf", "-1e-9"])
    def test_threshold_must_be_finite_and_non_negative(self, tmp_path, capsys, threshold):
        # identical runs: a nan threshold used to pass them and a negative one to fail them
        path = small_macro_config(tmp_path)
        runs = [str(execute(path, tmp_path / d)) for d in "ab"]
        args = ["compare", *runs, "--metric", "sup_trajectory"]
        assert main([*args, f"--threshold={threshold}"]) == 2
        assert "--threshold" in capsys.readouterr().err
        assert main([*args, "--threshold=0"]) == 0

    def test_threshold_exit_code(self, tmp_path):
        out_a = execute(small_macro_config(tmp_path, name="m1.json"), tmp_path / "a")
        out_b = execute(small_macro_config(tmp_path, name="m2.json", beta1=2e-3), tmp_path / "b")
        assert main(["compare", str(out_a), str(out_b), "--metric", "sup_trajectory",
                     "--threshold", "1e-12"]) == 1
        assert main(["compare", str(out_a), str(out_b), "--metric", "sup_trajectory",
                     "--threshold", "1.0"]) == 0


def checkout_env():
    """os.environ with src first on PYTHONPATH: a subprocess does not see
    pytest's pythonpath, so a checkout that is not installed needs it."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


class TestBundledScenarios:
    def test_listing_contains_reference_scenarios(self):
        names = list_bundled_scenarios()
        assert "test1_uncontrolled_deltam1.json" in names
        assert "test2_nu_sweep.json" in names
        assert "test3_consistency.json" in names
        assert "test4_control_b.json" in names

    def test_bundled_configs_validate(self):
        for name in list_bundled_scenarios():
            load_config(bundled_config_path(name))

    def test_cli_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "kinctrl.cli", "list-scenarios"],
            capture_output=True,
            text=True,
            env=checkout_env(),
        )
        assert proc.returncode == 0
        assert "test1_uncontrolled_deltam1.json" in proc.stdout


# Run in a fresh interpreter: pytest's own process has imported scipy long
# before.  Records the solver modules of scipy loaded after each import,
# when each run's steps start, and after each run.
IMPORT_PROBE = """
import json, sys
from pathlib import Path

def loaded():
    return [name for name in ("scipy.linalg", "scipy.special") if name in sys.modules]

found = {}
import kinctrl
found["import kinctrl"] = loaded()
from kinctrl import cli
found["import kinctrl.cli"] = loaded()
start_steps = cli._start_steps

def recording_start_steps(cfg, clock):
    found[cfg["kind"] + " steps"] = loaded()
    start_steps(cfg, clock)

cli._start_steps = recording_start_steps
for path in map(Path, sys.argv[2:]):
    cli.execute(path, Path(sys.argv[1]) / path.stem)
    found[path.stem + " run"] = loaded()
print(json.dumps(found))
"""


def probe_imports(tmp_path, names):
    """IMPORT_PROBE's record for tiny configs of the bundled names, run in turn in one process."""
    paths = []
    for name in names:
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(tiny_config(name)))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(tmp_path / "out"), *paths],
                          capture_output=True, text=True, env=checkout_env())
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestScipyImports:
    """Only the runs that solve import scipy's solvers: LAPACK's tridiagonal
    solves (scipy.linalg) for an operator, gammaln (scipy.special) for the
    kinetic runs' gamma profile."""

    def test_particle_macro_and_sweep_runs_load_neither(self, tmp_path):
        found = probe_imports(tmp_path, ["test1_control_b", "closure_l1_gamma", "test2_nu_sweep"])
        assert len(found) == 8  # two imports, three step starts, three runs
        assert found == {stage: [] for stage in found}

    @pytest.mark.parametrize(
        "name, uses",
        [("test1_fp_control_b", ["scipy.linalg"]),
         ("test4_control_b", ["scipy.linalg", "scipy.special"]),
         ("test3_consistency", ["scipy.linalg", "scipy.special"])],
    )
    def test_solving_runs_load_what_they_use_before_their_steps(self, tmp_path, name, uses):
        found = probe_imports(tmp_path, [name])
        kind = tiny_config(name)["kind"]
        assert found["import kinctrl.cli"] == []
        assert set(uses) <= set(found[f"{kind} steps"])
