"""Benchmark workloads: generated scenario configs, work counts and output checks.

Every workload is a list of bundled kinctrl configs with a few fields
overridden (mostly `time.t_final`, to cap the step count).  The configs are
written to a scratch directory and validated with `kinctrl.cli.load_config`
before the first scenario runs, so that cost is part of set-up.

Checks use the repository's pinned tolerances where one exists (mass drift
1e-10, fp L1 to equilibrium 0.02, control ordering).  Deterministic
scenarios are also compared with reference outputs recorded from the
package (see `record_reference.py`); the comparison threshold is 1e-8 of
the column scale, loose enough for round-off from reordered arithmetic and
tight enough to catch any change of scheme.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from kinctrl import cli
from kinctrl.io import read_csv

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# relative (to max(1, column scale)) agreement with the recorded reference
REFERENCE_RTOL = 1e-8
MASS_TOL = 1e-10
FP_L1_TOL = 0.02


@dataclass(frozen=True)
class Scenario:
    config: str                                   # bundled config stem
    overrides: dict = field(default_factory=dict)  # dotted path -> value

    def build(self) -> dict:
        cfg = json.loads(cli.bundled_config_path(self.config + ".json").read_text())
        for path, value in self.overrides.items():
            node = cfg
            *parents, leaf = path.split(".")
            for key in parents:
                node = node[key]
            node[leaf] = value
        return cfg


WORKLOADS: dict[str, list[Scenario]] = {
    # fp + kinetic on the 25 000-cell grid, 200 split steps per config
    "epidemic_kinetic": [
        Scenario("test4_uncontrolled", {"time.t_final": 2.0}),
        Scenario("test4_control_a", {"time.t_final": 2.0}),
        Scenario("test4_control_b", {"time.t_final": 2.0}),
    ],
    # dsmc at 1M particles, delta = -1, every particle fires every step
    "particle_dense": [Scenario("test1_control_b", {"time.t_final": 1.0})],
    # dsmc at 1M particles, delta = +1, about 2.3 % of particles fire per step
    "particle_sparse": [Scenario("test1_uncontrolled_deltap1", {"time.t_final": 0.2})],
    # macro RK4, the penalization sweep and frozen-operator fp relaxations
    "reference_solutions": [
        Scenario("closure_l1_gamma"),
        Scenario("closure_l1_invgamma"),
        Scenario("test2_nu_sweep"),
        Scenario("test1_fp_control_b"),
        Scenario("test1_fp_uncontrolled_deltam1"),
    ],
}


def is_stochastic(cfg: dict) -> bool:
    return cfg["kind"] == "dsmc_equilibrium"


def n_steps(cfg: dict) -> int:
    return int(round(cfg["time"]["t_final"] / cfg["time"]["dt"]))


def updates(cfg: dict) -> int:
    """State values advanced one step by the scenario.

    controlled_epidemic: one cell of one compartment per split step;
    dsmc_equilibrium: one particle per dsmc_step, fired or not;
    macro_compare: one of the six state components per RK4 step;
    fp_equilibrium: one cell per implicit step;
    tail_sweep: one cell of each equilibrium density built.
    """
    kind = cfg["kind"]
    if kind == "controlled_epidemic":
        return 3 * cfg["grid"]["n_cells"] * n_steps(cfg)
    if kind == "dsmc_equilibrium":
        return cfg["dsmc"]["n_particles"] * n_steps(cfg)
    if kind == "macro_compare":
        return 6 * n_steps(cfg)
    if kind == "fp_equilibrium":
        return cfg["grid"]["n_cells"] * n_steps(cfg)
    if kind == "tail_sweep":
        return cfg["grid"]["n_cells"] * (1 + 2 * len(cfg["sweep"]["nu_values"]))
    raise ValueError(f"no work count for scenario kind {kind!r}")


def write_configs(workload: str, directory: Path) -> list[tuple[Path, dict]]:
    """Write the workload's configs and validate them as the CLI would."""
    directory.mkdir(parents=True, exist_ok=True)
    out = []
    for sc in WORKLOADS[workload]:
        path = directory / f"{sc.config}.json"
        path.write_text(json.dumps(sc.build(), indent=2))
        out.append((path, cli.load_config(path)))
    return out


# ---------------------------------------------------------------------------
# checks: each returns a list of problems, empty when the output is correct


def _metrics(out: Path) -> dict:
    return json.loads((out / cli.MANIFEST_FILE).read_text())["metrics"]


def _compare_reference(cfg_path: Path, out: Path) -> list[str]:
    ref = REFERENCE_DIR / cfg_path.stem
    if not ref.is_dir():
        return [f"no reference recorded for {cfg_path.stem}"]
    problems = []
    if (ref / cli.TRAJECTORY_FILE).exists():
        report = cli.compare_runs(ref, out, "sup_trajectory")
        scale = {k: max(1.0, float(np.max(np.abs(v)))) for k, v in read_csv(ref / cli.TRAJECTORY_FILE).items()}
        for col, gap in report["per_column"].items():
            if not gap <= REFERENCE_RTOL * scale[col]:
                problems.append(f"trajectory column {col} differs from reference by {gap:.3e}")
    if any(ref.glob("density_t*.csv")):
        report = cli.compare_runs(ref, out, "L1_density")
        if not report["value"] <= REFERENCE_RTOL:
            problems.append(f"density differs from reference by L1 {report['value']:.3e}")
    if (ref / "sweep.csv").exists():
        a, b = _read_sweep(ref / "sweep.csv"), _read_sweep(out / "sweep.csv")
        if a[0] != b[0] or a[1].shape != b[1].shape:
            problems.append("sweep rows differ from reference")
        elif not np.all(np.abs(a[1] - b[1]) <= REFERENCE_RTOL * np.maximum(1.0, np.abs(a[1]))):
            problems.append("sweep moments differ from reference")
    return problems


def _read_sweep(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return [r[0] for r in rows], np.array([[float(v) for v in r[1:]] for r in rows])


def _check_particles(cfg: dict, out: Path) -> list[str]:
    """Checks that hold at any run length: particle count, support, sane moments."""
    problems = []
    n = cfg["dsmc"]["n_particles"]
    hist = read_csv(out / cli.density_filename(cfg["time"]["t_final"]))
    width = float(hist["x"][1] - hist["x"][0])
    counts = hist["f"] * width * n
    if np.any(hist["f"] < 0):
        problems.append("histogram has negative density")
    if not np.all(np.abs(counts - np.round(counts)) < 1e-6) or int(np.round(counts).sum()) != n:
        problems.append(f"histogram does not hold all {n} particles inside [0, x_max]")
    m = _metrics(out)
    if not 0.0 <= m["clamped_fraction"] <= 1.0:
        problems.append(f"clamped fraction {m['clamped_fraction']} outside [0, 1]")
    if not (math.isfinite(m["ensemble_mean"]) and m["ensemble_mean"] > 0):
        problems.append(f"ensemble mean {m['ensemble_mean']} is not positive")
    if not 0.0 <= m["l1_to_equilibrium"] <= 2.0:
        problems.append(f"L1 to equilibrium {m['l1_to_equilibrium']} outside [0, 2]")
    return problems


def _check_fp(cfg: dict, out: Path) -> list[str]:
    m = _metrics(out)
    problems = []
    if not abs(m["final_mass"] - 1.0) <= MASS_TOL:
        problems.append(f"fp mass drifted to {m['final_mass']!r}")
    if not m["l1_to_equilibrium"] <= FP_L1_TOL:
        problems.append(f"fp L1 to equilibrium {m['l1_to_equilibrium']:.3e} > {FP_L1_TOL}")
    return problems


def _check_epidemic(cfg: dict, out: Path) -> list[str]:
    dens = read_csv(out / cli.density_filename(cfg["time"]["t_final"]))
    if any(np.any(dens[k] < 0) for k in ("f_S", "f_I", "f_R")):
        return ["epidemic density has negative cells"]
    return []


_KIND_CHECKS = {
    "dsmc_equilibrium": _check_particles,
    "fp_equilibrium": _check_fp,
    "controlled_epidemic": _check_epidemic,
}


def check_scenario(cfg_path: Path, cfg: dict, out: Path) -> list[str]:
    """Problems with one scenario's outputs.

    Mass conservation of the kinetic and macro runs is enforced inside
    run_scenario and rk4_integrate, which raise when it fails.
    """
    check = _KIND_CHECKS.get(cfg["kind"])
    problems = check(cfg, out) if check else []
    if not is_stochastic(cfg):
        problems += _compare_reference(cfg_path, out)
    return problems


def check_round(outputs: dict[str, Path]) -> dict[str, list[str]]:
    """Cross-scenario checks; problems keyed by the scenario they count against.

    Control ordering: the interaction control B must hold the infected peak
    below both the additive control A and the uncontrolled epidemic.
    """
    names = ("test4_uncontrolled", "test4_control_a", "test4_control_b")
    if not all(n in outputs for n in names):
        return {}
    peak = {n: _metrics(outputs[n])["peak_rho_i"] for n in names}
    b = peak["test4_control_b"]
    if b < peak["test4_control_a"] and b < peak["test4_uncontrolled"]:
        return {}
    return {"test4_control_b": [f"control ordering violated: peaks {peak}"]}
