import json
import subprocess
import sys

import pytest

from kinctrl.cli import (
    bundled_config_path,
    compare_runs,
    execute,
    list_bundled_scenarios,
    load_config,
    main,
)
from kinctrl.errors import ConfigError, NumericsError
from kinctrl.io import read_csv


def small_dsmc_config(tmp_path, seed=7, sigma2=0.2, name="small.json"):
    cfg = {
        "schema_version": 1,
        "kind": "dsmc_equilibrium",
        "seed": seed,
        "kinetic": {"alpha": 1.0, "sigma2": sigma2, "delta": -1.0, "epsilon": 0.01, "tau": 1.0},
        "grid": {"x_max": 100.0, "n_cells": 1000},
        "dsmc": {"n_particles": 3000, "n_bins": 100, "mean_reference": 5.0, "kernel_bound": 1.0},
        "time": {"dt": 0.01, "t_final": 1.0},
        "initial": {"type": "uniform", "low": 6.0, "high": 8.0},
    }
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def small_macro_config(tmp_path, name="macro.json", dt=0.01, beta1=1e-3):
    cfg = {
        "schema_version": 1,
        "kind": "macro_compare",
        "seed": 0,
        "kinetic": {"alpha": 1.0, "sigma2": 0.2, "delta": -1.0, "epsilon": 0.01, "tau": 1.0},
        "epidemic": {"betas": [beta1], "gamma_i": 0.07142857142857142},
        "macro": {"variant": "l1", "closure": "inverse_gamma"},
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
        "seed": 0,
        "kinetic": {"alpha": 1.0, "sigma2": 0.2, "delta": -1.0, "epsilon": 0.01, "tau": 1e-4},
        "epidemic": {"betas": [0.02, 2e-6], "gamma_i": 0.07142857142857142},
        "control": {"strategy": "interaction_b", "nu": 1.0, "x_target": 3.0},
        "grid": {"x_max": 100.0, "n_cells": 2000},
        "time": {"dt": 0.01, "t_final": 0.5, "output_every": 10},
        "initial": {"type": "gamma_profile", "mean": 10.0, "rho": [0.98, 0.01, 0.01]},
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
        "seed": 0,
        "kinetic": {"alpha": 1.0, "sigma2": 0.2, "delta": -1.0, "epsilon": 0.01, "tau": 1e-4},
        "epidemic": {"betas": [0.02, 2e-6], "gamma_i": 0.07142857142857142},
        "grid": {"x_max": 100.0, "n_cells": 2000},
        "time": {"dt": 0.01, "t_final": 0.5, "output_every": 10},
        "initial": {"type": "gamma_profile", "mean": 10.0, "rho": [0.98, 0.01, 0.01]},
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


class TestExitCodes:
    @pytest.mark.parametrize(
        "path, value, named",
        [
            ("control.x_target", float("nan"), "control.x_target"),
            ("control.nu", float("inf"), "control.nu"),
            ("epidemic.betas.1", float("nan"), "epidemic.betas[1]"),
            ("epidemic.gamma_i", float("inf"), "epidemic.gamma_i"),
            ("kinetic.epsilon", float("inf"), "kinetic.epsilon"),
            ("grid.x_max", float("inf"), "grid.x_max"),
            ("grid.n_cells", 10.5, "grid.n_cells"),
            ("tail_window", ["5", "10"], "tail_window[0]"),
            ("initial.rho", [0.98, "0.01", 0.01], "initial.rho[1]"),
        ],
    )
    def test_bad_field_exits_two_naming_it(self, tmp_path, capsys, path, value, named):
        cfg = controlled_epidemic_config(tmp_path, set_field(path, value))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert named in err
        assert err.count("field '") == 1  # named once, not inside its block's name too

    @pytest.mark.parametrize("field", ["window_slim", "window_power_law"])
    def test_sweep_window_element_types_exit_two(self, tmp_path, capsys, field):
        cfg = load_config(bundled_config_path("test2_nu_sweep.json"))
        cfg["sweep"][field] = ["20", "40"]
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"sweep.{field}[0]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "make, wrong",
        [(controlled_epidemic_config, "uniform"), (small_dsmc_config, "gamma_profile")],
    )
    def test_initial_type_of_another_profile_exits_two(self, tmp_path, capsys, make, wrong):
        cfg = json.loads(make(tmp_path).read_text())
        cfg["initial"]["type"] = wrong
        path = tmp_path / "wrong_type.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "initial.type" in capsys.readouterr().err

    def test_initial_type_may_be_omitted(self, tmp_path):
        def edit(cfg):
            del cfg["initial"]["type"]
            cfg["time"]["t_final"] = 0.02

        execute(controlled_epidemic_config(tmp_path, edit), tmp_path / "out")

    def test_consistency_closure_needs_delta_plus_or_minus_one(self, tmp_path, capsys):
        cfg = consistency_config()
        cfg["kinetic"]["delta"] = 0.5
        path = tmp_path / "cons.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "kinetic.delta" in capsys.readouterr().err

    def test_controlled_operator_at_other_delta_exits_two(self, tmp_path, capsys):
        cfg = controlled_epidemic_config(tmp_path, set_field("kinetic.delta", 1.0))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "kinetic.delta" in capsys.readouterr().err

    def test_numerical_failure_exits_three(self, tmp_path, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise NumericsError("tridiagonal solve failed")

        monkeypatch.setattr("kinctrl.cli.run_scenario", fail)
        cfg = controlled_epidemic_config(tmp_path)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 3
        assert "NumericsError" in capsys.readouterr().err

    def test_code_bug_propagates(self, tmp_path, monkeypatch):
        def bug(*args, **kwargs):
            raise TypeError("unsupported operand")

        monkeypatch.setattr("kinctrl.cli.run_scenario", bug)
        cfg = controlled_epidemic_config(tmp_path)
        with pytest.raises(TypeError):
            main(["run", str(cfg), "--out", str(tmp_path / "out")])


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

    def test_fp_run(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "kind": "fp_equilibrium",
            "seed": 0,
            "kinetic": {"alpha": 1.0, "sigma2": 0.2, "delta": -1.0, "epsilon": 0.01, "tau": 1.0},
            "grid": {"x_max": 100.0, "n_cells": 500},
            "fp": {"mean_reference": 5.0},
            "time": {"dt": 0.05, "t_final": 30.0},
            "initial": {"type": "uniform", "low": 6.0, "high": 8.0},
        }
        path = tmp_path / "fp.json"
        path.write_text(json.dumps(cfg))
        out = execute(path, tmp_path / "out")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["metrics"]["l1_to_equilibrium"] < 0.05
        assert (out / "steady_state.csv").exists()


class TestScenarioRunners:
    def test_tail_sweep(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "kind": "tail_sweep",
            "seed": 0,
            "kinetic": {"alpha": 0.4, "sigma2": 0.2, "delta": -1.0, "epsilon": 0.01, "tau": 1.0},
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

    def test_dsmc_default_kernel_bound(self, tmp_path):
        # without dsmc.kernel_bound the bound is the kernel x^-1 (delta = +1)
        # at half a histogram bin
        path = small_dsmc_config(tmp_path)
        cfg = json.loads(path.read_text())
        cfg["kinetic"]["delta"] = 1.0
        del cfg["dsmc"]["kernel_bound"]
        cfg["time"].update(dt=0.005, t_final=0.05)
        path.write_text(json.dumps(cfg))
        metrics = json.loads((execute(path, tmp_path / "out") / "manifest.json").read_text())[
            "metrics"
        ]
        x_max, n_bins = cfg["grid"]["x_max"], cfg["dsmc"]["n_bins"]
        assert metrics["kernel_bound"] == (0.5 * x_max / n_bins) ** -1

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

    def test_threshold_exit_code(self, tmp_path):
        out_a = execute(small_macro_config(tmp_path, name="m1.json"), tmp_path / "a")
        out_b = execute(small_macro_config(tmp_path, name="m2.json", beta1=2e-3), tmp_path / "b")
        assert main(["compare", str(out_a), str(out_b), "--metric", "sup_trajectory",
                     "--threshold", "1e-12"]) == 1
        assert main(["compare", str(out_a), str(out_b), "--metric", "sup_trajectory",
                     "--threshold", "1.0"]) == 0


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
        )
        assert proc.returncode == 0
        assert "test1_uncontrolled_deltam1.json" in proc.stdout
