"""Config-driven experiment runner.

Subcommands:
  run <config.json>   execute one scenario; writes CSVs and a manifest
  compare <a> <b>     metric between two run directories
  list-scenarios      bundled scenario configs

Exit codes: 2 for configuration errors (message names the offending field),
3 for numerical failures, 1 for a compare metric above the given threshold.
Any other exception is a bug and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import csv
import importlib.resources
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .dsmc import ParticleEnsemble, check_step_size, run_to_equilibrium
from .equilibria import (
    EquilibriumDensity,
    EquilibriumKind,
    controlled_steady_state,
    tail_classify,
)
from .errors import ConfigError, InvariantViolationError, NumericsError, TailInconclusiveError
from .fp import (
    ContactDensity,
    Grid,
    SpStepper,
    build_operator,
    check_operator_domain,
    interface_weights,
    sp_step_batch,
    steady_state_solve,
    uniform_density,
)
from .io import (
    MANIFEST_FILE,
    TRAJECTORY_FILE,
    density_filename,
    read_csv,
    resolve_out_dir,
    write_density,
    write_manifest,
    write_trajectory,
)
from .kinetic import OBSERVABLES, gamma_profile_state, run_scenario
from .macro import MacroModel, MacroState, MacroVariant, rk4_integrate
from .params import (
    ClosureKind,
    ControlSpec,
    EpidemicParams,
    KineticParams,
    Strategy,
    closure_kind,
    collision_kernel,
    moment_ratio,
    output_steps,
    step_count,
)

SCHEMA_VERSION = 1

# Exceptions reported as exit 3; any other exception is a bug and propagates.
NUMERICAL_FAILURES = (
    NumericsError,
    InvariantViolationError,
    np.linalg.LinAlgError,
    FloatingPointError,
)

# ---------------------------------------------------------------------------
# config parsing


def _get(cfg: dict, path: str, expected, required=True, default=None):
    node = cfg
    parts = path.split(".")
    for i, key in enumerate(parts):
        if not isinstance(node, dict) or key not in node:
            if required:
                raise ConfigError(f"missing field '{'.'.join(parts[: i + 1])}'")
            return default
        node = node[key]
    if node is None and not required:
        return default
    if expected is float and isinstance(node, (int, float)) and not isinstance(node, bool):
        if not math.isfinite(node):
            raise ConfigError(f"field '{path}': expected a finite number, got {node!r}")
        return float(node)
    if expected is int and isinstance(node, int) and not isinstance(node, bool):
        return node
    if not isinstance(node, expected) or (isinstance(node, bool) and expected is not bool):
        raise ConfigError(f"field '{path}': expected {expected.__name__}, got {node!r}")
    return node


def _choice(cfg: dict, path: str, enum_cls, what: str):
    """Enum member named by the string at path."""
    name = _get(cfg, path, str)
    try:
        return enum_cls(name)
    except ValueError:
        raise ConfigError(
            f"field '{path}': unknown {what} {name!r}; "
            f"choose from {[e.value for e in enum_cls]}"
        ) from None


def _positive(cfg: dict, path: str, required=True, default=None):
    value = _get(cfg, path, float, required=required, default=default)
    if value is not None and not value > 0:
        raise ConfigError(f"field '{path}': must be > 0, got {value}")
    return value


def _count(cfg: dict, path: str, required=True, default=None):
    value = _get(cfg, path, int, required=required, default=default)
    if value is not None and value < 1:
        raise ConfigError(f"field '{path}': must be >= 1, got {value}")
    return value


def _numbers(cfg: dict, path: str, length=None, required=True, default=None, low=None):
    """List of finite numbers at path; length and lower bound (inclusive) optional."""
    node = _get(cfg, path, list, required=required, default=default)
    if node is None:
        return None
    if length is not None and len(node) != length:
        raise ConfigError(f"field '{path}': expected {length} numbers, got {len(node)}")
    for i, value in enumerate(node):
        is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if not (is_number and math.isfinite(value)):
            raise ConfigError(f"field '{path}[{i}]': expected a finite number, got {value!r}")
        if low is not None and value < low:
            raise ConfigError(f"field '{path}[{i}]': must be >= {low}, got {value}")
    return [float(v) for v in node]


def _window(cfg: dict, path: str, required=True, default=None):
    """(lo, hi) with 0 < lo < hi."""
    window = _numbers(cfg, path, length=2, required=required, default=default)
    if window is None:
        return None
    lo, hi = window
    if not 0 < lo < hi:
        raise ConfigError(f"field '{path}': need 0 < lo < hi, got {window}")
    return lo, hi


def _initial_profile(cfg: dict, name: str) -> None:
    """Reject an initial.type that does not name the profile the scenario builds."""
    kind = _get(cfg, "initial.type", str, required=False)
    if kind is not None and kind != name:
        raise ConfigError(f"field 'initial.type': this scenario starts from {name!r}, got {kind!r}")


def _interval(cfg: dict) -> tuple[float, float]:
    """(initial.low, initial.high) of the uniform initial profile, with 0 <= low < high."""
    _initial_profile(cfg, "uniform")
    low = _get(cfg, "initial.low", float)
    high = _get(cfg, "initial.high", float)
    if not 0 <= low < high:
        raise ConfigError(f"field 'initial': need 0 <= low < high, got [{low}, {high}]")
    return low, high


def _build(field: str, make, *args, **kwargs):
    """make(*args, **kwargs), with its validation errors reported against field.

    The arguments are read from the config before the call, so an error
    there keeps its own, more precise field name.
    """
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"field '{field}': {exc}") from exc


def _kinetic_params(cfg: dict) -> KineticParams:
    return _build(
        "kinetic",
        KineticParams,
        alpha=_get(cfg, "kinetic.alpha", float),
        sigma2=_get(cfg, "kinetic.sigma2", float),
        delta=_get(cfg, "kinetic.delta", float),
        epsilon=_get(cfg, "kinetic.epsilon", float, required=False, default=0.01),
        tau=_get(cfg, "kinetic.tau", float, required=False, default=1.0),
    )


def _epidemic_params(cfg: dict) -> EpidemicParams:
    return _build(
        "epidemic",
        EpidemicParams,
        betas=tuple(_numbers(cfg, "epidemic.betas")),
        gamma_i=_get(cfg, "epidemic.gamma_i", float),
        beta0=_get(cfg, "epidemic.beta0", float, required=False, default=0.0),
    )


def _control_spec(cfg: dict) -> ControlSpec:
    block = cfg.get("control")
    if block is None:
        return ControlSpec.uncontrolled()
    strategy = _choice(cfg, "control.strategy", Strategy, "strategy")
    if strategy is Strategy.UNCONTROLLED:
        return ControlSpec.uncontrolled()
    return _build(
        "control",
        ControlSpec,
        strategy,
        nu=_get(cfg, "control.nu", float),
        x_target=_get(cfg, "control.x_target", float),
    )


def _grid(cfg: dict) -> Grid:
    return _build("grid", Grid, _get(cfg, "grid.x_max", float), _get(cfg, "grid.n_cells", int))


def _time(cfg: dict) -> tuple[float, float]:
    """(dt, t_final); t_final must be a whole number of steps."""
    dt = _get(cfg, "time.dt", float)
    t_final = _get(cfg, "time.t_final", float)
    if not dt > 0:
        raise ConfigError(f"field 'time.dt': must be > 0, got {dt}")
    _build("time.t_final", step_count, t_final, dt)
    return dt, t_final


def load_config(path: Path) -> dict:
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path} is not valid JSON: {exc.msg} at line {exc.lineno}, column {exc.colno}"
        ) from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    version = _get(cfg, "schema_version", int)
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"field 'schema_version': expected {SCHEMA_VERSION}, got {version}"
        )
    kind = _get(cfg, "kind", str)
    if kind not in RUNNERS:
        raise ConfigError(f"field 'kind': unknown scenario {kind!r}; choose from {tuple(RUNNERS)}")
    return cfg


# ---------------------------------------------------------------------------
# scenario runners


def _reference_density(
    p: KineticParams, c: ControlSpec, m_ref: float, edges: np.ndarray
) -> np.ndarray:
    """Bin-averaged equilibrium density on histogram bins (16 panels per bin)."""
    refine = 16
    n_bins = len(edges) - 1
    fine = Grid(float(edges[-1]), n_bins * refine)
    eq = EquilibriumDensity(p, m_ref, fine, control=c)
    return eq.values.reshape(n_bins, refine).mean(axis=1)


def run_dsmc_equilibrium(cfg: dict, out: Path, seed: int) -> dict:
    p = _kinetic_params(cfg)
    c = _control_spec(cfg)
    n = _count(cfg, "dsmc.n_particles")
    n_bins = _count(cfg, "dsmc.n_bins", required=False, default=400)
    x_max = _positive(cfg, "grid.x_max")
    dt, t_final = _time(cfg)
    if t_final == 0:
        raise ConfigError("field 'time.t_final': particle runs need t_final > 0")
    m_ref = _positive(cfg, "dsmc.mean_reference", required=False)
    low, high = _interval(cfg)

    bound = _positive(cfg, "dsmc.kernel_bound", required=False)
    if bound is None:
        bound = collision_kernel(0.5 * x_max / n_bins, p)
    _build("time.dt", check_step_size, dt, p.epsilon, bound)

    ens = ParticleEnsemble.from_uniform(n, low, high, seed)
    hist = run_to_equilibrium(
        ens, p, c.micro_scaled(p.epsilon), t_final, dt, bound,
        m_ref=m_ref, x_max=x_max, n_bins=n_bins,
    )
    write_density(out / density_filename(t_final), hist.centers, {"f": hist.density})

    metrics = {
        "kernel_bound": bound,
        "clamped_fraction": ens.n_clamped / max(ens.n_transitions, 1),
        "ensemble_mean": ens.mean(),
        "ensemble_second_moment": ens.second_moment(),
    }
    eq_kind = EquilibriumKind.for_model(p, c)
    if eq_kind is not None and m_ref is not None:
        ref = _reference_density(p, c, m_ref, hist.bin_edges)
        metrics["l1_to_equilibrium"] = hist.l1_distance(ref)
        metrics["equilibrium_kind"] = eq_kind.value
    return metrics


def run_fp_equilibrium(cfg: dict, out: Path, seed: int) -> dict:
    p = _kinetic_params(cfg)
    c = _control_spec(cfg)
    _build("kinetic.delta", check_operator_domain, p, c)
    grid = _grid(cfg)
    dt, t_final = _time(cfg)
    m_ref = _positive(cfg, "fp.mean_reference", required=False)
    f = _build("initial", uniform_density, grid, *_interval(cfg))
    n_steps = step_count(t_final, dt)
    if m_ref is not None:
        op = build_operator(p, c, m_ref)
        stepper = SpStepper(grid, op, dt, p.tau)
        vals = f.values
        for _ in range(n_steps):
            vals = stepper.step(vals)
        f = ContactDensity(grid, vals)
    else:
        weights = interface_weights(grid, p, c)
        for _ in range(n_steps):
            f = ContactDensity(grid, sp_step_batch(weights, [f.values], [f.mean()], dt, p.tau)[0])
        op = build_operator(p, c, f.mean())

    steady = steady_state_solve(op, grid)
    x = grid.centers()
    write_density(out / density_filename(t_final), x, {"f": f.values})
    write_density(out / "steady_state.csv", x, {"f": steady.values})

    metrics = {
        "final_mass": f.mass(),
        "final_mean": f.mean(),
        "l1_to_steady_state": float(np.abs(f.values - steady.values).sum() * grid.dx),
    }
    eq_kind = EquilibriumKind.for_model(p, c)
    if eq_kind is not None and m_ref is not None:
        eq = EquilibriumDensity(p, m_ref, grid, control=c)
        metrics["l1_to_equilibrium"] = float(np.abs(f.values - eq.values).sum() * grid.dx)
        metrics["equilibrium_kind"] = eq_kind.value
    return metrics


def _tail(f: ContactDensity, window: tuple[float, float]) -> dict:
    """tail_classify(f, window) as a manifest entry; "inconclusive" with the reason if it fails."""
    try:
        tc = tail_classify(f, window)
    except (TailInconclusiveError, ValueError) as exc:
        return {"kind": "inconclusive", "detail": str(exc)}
    return {"kind": tc.kind.value, "exponent": tc.exponent}


def run_tail_sweep(cfg: dict, out: Path, seed: int) -> dict:
    p = _kinetic_params(cfg)
    grid = _grid(cfg)
    m_ref = _positive(cfg, "fp.mean_reference")
    x_target = _get(cfg, "sweep.x_target", float)
    if x_target < 0:
        raise ConfigError(f"field 'sweep.x_target': must be >= 0, got {x_target}")
    nus = _numbers(cfg, "sweep.nu_values")
    if any(nu <= 0 for nu in nus):
        raise ConfigError(f"field 'sweep.nu_values': every nu must be > 0, got {nus}")
    win_power = _window(cfg, "sweep.window_power_law", required=False, default=[50.0, 100.0])
    win_slim = _window(cfg, "sweep.window_slim", required=False, default=[20.0, 40.0])
    if p.delta != -1.0:
        raise ConfigError("field 'kinetic.delta': tail_sweep requires delta = -1")

    u = EquilibriumDensity(p, m_ref, grid)
    rows = [("uncontrolled", 0.0, u.raw_moment(1), u.raw_moment(2))]
    tails: dict[str, dict] = {"additive_a": {}, "interaction_b": {}}
    for nu in nus:
        for strategy, make, window in (
            ("additive_a", ControlSpec.additive, win_power),
            ("interaction_b", ControlSpec.interaction, win_slim),
        ):
            c = make(nu, x_target)
            f = controlled_steady_state(p, c, m_ref, grid)
            rows.append((strategy, float(nu), f.raw_moment(1), f.raw_moment(2)))
            tails[strategy][str(nu)] = {**_tail(f, window), "window": list(window)}

    sweep_path = out / "sweep.csv"
    sweep_path.parent.mkdir(parents=True, exist_ok=True)
    with open(sweep_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["strategy", "nu", "m_inf", "m2_inf"])
        for strategy, nu, m1, m2 in rows:
            writer.writerow([strategy, *(repr(float(v)) for v in (nu, m1, m2))])
    return {"tails": tails}


def _macro_model(cfg: dict) -> MacroModel:
    p = _kinetic_params(cfg)
    variant = _choice(cfg, "macro.variant", MacroVariant, "variant")
    closure = _choice(cfg, "macro.closure", ClosureKind, "closure")
    beta = _get(cfg, "macro.beta", float, required=False)
    return _build("macro", MacroModel, variant, closure, p, _epidemic_params(cfg), beta=beta)


def _macro_initial(cfg: dict) -> MacroState:
    rho = _numbers(cfg, "initial.rho", length=3, low=0.0)
    mean = _positive(cfg, "initial.mean")
    return MacroState(*rho, mean, mean, mean)


def _write_trajectory(path: Path, times: np.ndarray, table: np.ndarray) -> None:
    """Write the table's columns under the first table.shape[1] OBSERVABLES names."""
    write_trajectory(path, times, dict(zip(OBSERVABLES[: table.shape[1]], table.T)))


def _output_every(cfg: dict) -> int:
    return _count(cfg, "time.output_every", required=False, default=1)


def run_macro_compare(cfg: dict, out: Path, seed: int) -> dict:
    model = _macro_model(cfg)
    s0 = _macro_initial(cfg)
    dt, t_final = _time(cfg)
    times, states = rk4_integrate(model, s0, dt, t_final)
    steps = output_steps(len(states) - 1, _output_every(cfg))
    table = np.array([states[k] for k in steps])
    _write_trajectory(out / TRAJECTORY_FILE, np.array([times[k] for k in steps]), table)
    return {
        "peak_rho_i": float(table[:, 1].max()),
        "peak_m_i": float(table[:, 4].max()),
    }


def _kinetic_pieces(cfg: dict):
    p = _kinetic_params(cfg)
    e = _epidemic_params(cfg)
    c = _control_spec(cfg)
    grid = _grid(cfg)
    _build("kinetic.delta", check_operator_domain, p, c)
    _initial_profile(cfg, "gamma_profile")
    rho = _numbers(cfg, "initial.rho", length=3, low=0.0)
    mean0 = _positive(cfg, "initial.mean")
    lam = _positive(cfg, "initial.lam", required=False)
    ic = gamma_profile_state(grid, lam if lam is not None else p.lam, mean0, tuple(rho))
    return p, e, c, grid, ic


def run_kinetic_macro_consistency(cfg: dict, out: Path, seed: int) -> dict:
    p, e, c, grid, ic = _kinetic_pieces(cfg)
    if c.active:
        raise ConfigError("field 'control': consistency scenario is uncontrolled")
    dt, t_final = _time(cfg)
    every = _output_every(cfg)
    closure = _build("kinetic.delta", closure_kind, p.delta)
    variant = MacroVariant.L2 if e.order >= 2 else MacroVariant.L1
    model = _build("kinetic/epidemic", MacroModel, variant, closure, p, e)

    result = run_scenario(ic, p, c, e, t_final, dt, output_every=every)
    _write_trajectory(out / TRAJECTORY_FILE, result.times, result.observables)

    s0 = MacroState(*result.observables[0, :6].tolist())
    times, states = rk4_integrate(model, s0, dt, t_final)
    steps = output_steps(len(states) - 1, every)
    ref = np.array([states[k] for k in steps])
    _write_trajectory(out / "trajectory_macro.csv", np.array([times[k] for k in steps]), ref)

    # the means' gaps are relative where the reference mean is non-zero
    # (an empty compartment has mean 0) and absolute where it is 0
    gaps = np.abs(result.observables[:, :6] - ref)
    means = np.abs(ref[:, 3:])
    np.divide(gaps[:, 3:], means, out=gaps[:, 3:], where=means != 0)
    names = [*OBSERVABLES[:3], *(name + "_rel" for name in OBSERVABLES[3:6])]
    return {
        "sup_gaps": dict(zip(names, gaps.max(axis=0).tolist())),
        "clipped_mass": result.final_state.clipped_mass,
    }


def run_controlled_epidemic(cfg: dict, out: Path, seed: int) -> dict:
    p, e, c, grid, ic = _kinetic_pieces(cfg)
    dt, t_final = _time(cfg)

    result = run_scenario(ic, p, c, e, t_final, dt, output_every=_output_every(cfg))
    _write_trajectory(out / TRAJECTORY_FILE, result.times, result.observables)

    final = result.final_state
    columns = dict(zip(("f_S", "f_I", "f_R"), final.values))
    write_density(out / density_filename(t_final), grid.centers(), columns)
    metrics = {
        "peak_rho_i": float(result.column("rho_I").max()),
        "final_m_s": float(result.column("m_S")[-1]),
        "clipped_mass": final.clipped_mass,
    }
    window = _window(cfg, "tail_window", required=False)
    if window is not None:
        metrics["final_s_tail"] = _tail(ContactDensity(grid, final.values[0]), window)
    return metrics


RUNNERS = {
    "dsmc_equilibrium": run_dsmc_equilibrium,
    "fp_equilibrium": run_fp_equilibrium,
    "tail_sweep": run_tail_sweep,
    "macro_compare": run_macro_compare,
    "kinetic_macro_consistency": run_kinetic_macro_consistency,
    "controlled_epidemic": run_controlled_epidemic,
}


def execute(config_path: Path, out_dir: Path | None = None, seed: int | None = None) -> Path:
    """Run one scenario config; returns the output directory."""
    cfg = load_config(config_path)
    kind = cfg["kind"]
    eff_seed = seed if seed is not None else _get(cfg, "seed", int, required=False, default=0)
    if kind == "dsmc_equilibrium" and _get(cfg, "seed", int, required=False) is None and seed is None:
        raise ConfigError("field 'seed': required for stochastic scenarios")
    if eff_seed < 0:
        raise ConfigError(f"field 'seed': must be >= 0, got {eff_seed}")
    config_out = _get(cfg, "out_dir", str, required=False)
    out = resolve_out_dir(str(out_dir) if out_dir else None, config_out, config_path.stem)
    out.mkdir(parents=True, exist_ok=True)

    start = time.perf_counter()
    metrics = RUNNERS[kind](cfg, out, eff_seed)
    elapsed = time.perf_counter() - start

    p = _kinetic_params(cfg) if "kinetic" in cfg else None
    derived = {}
    if p is not None:
        derived["lam"] = p.lam
        try:
            derived["moment_ratio"] = moment_ratio(p.lam, p.delta)
        except ValueError:
            pass  # delta is not +/-1, or the inverse-gamma profile has no second moment
    write_manifest(
        out / MANIFEST_FILE,
        {
            "schema_version": SCHEMA_VERSION,
            "code_version": __version__,
            "config": cfg,
            "config_path": str(config_path),
            "derived": derived,
            "seed": eff_seed,
            "wall_clock_s": elapsed,
            "metrics": metrics,
        },
    )
    return out


# ---------------------------------------------------------------------------
# compare


def compare_runs(dir_a: Path, dir_b: Path, metric: str) -> dict:
    """Metric between two run directories; raises on incompatible axes."""
    if metric == "sup_trajectory":
        ta = read_csv(dir_a / TRAJECTORY_FILE)
        tb = read_csv(dir_b / TRAJECTORY_FILE)
        if not np.array_equal(ta["t"], tb["t"]):
            raise NumericsError("trajectories have different time axes")
        shared = [k for k in ta if k != "t" and k in tb]
        if not shared:
            raise NumericsError("trajectories share no columns")
        per_column = {k: float(np.max(np.abs(ta[k] - tb[k]))) for k in shared}
        return {"metric": metric, "per_column": per_column, "value": max(per_column.values())}
    if metric == "L1_density":
        names_a = {f.name for f in dir_a.glob("density_t*.csv")}
        names_b = {f.name for f in dir_b.glob("density_t*.csv")}
        common = sorted(names_a & names_b)
        if not common:
            raise NumericsError("run directories share no density snapshots")
        per_file = {}
        for name in common:
            da = read_csv(dir_a / name)
            db = read_csv(dir_b / name)
            if not np.array_equal(da["x"], db["x"]):
                raise NumericsError(f"{name}: x grids differ")
            cols = [k for k in da if k != "x" and k in db]
            if not cols:
                raise NumericsError(f"{name}: no shared density columns")
            dx = float(da["x"][1] - da["x"][0])
            per_file[name] = max(
                float(np.abs(da[k] - db[k]).sum() * dx) for k in cols
            )
        return {"metric": metric, "per_file": per_file, "value": max(per_file.values())}
    raise ConfigError(f"unknown metric {metric!r}; choose L1_density or sup_trajectory")


def list_bundled_scenarios() -> list[str]:
    root = importlib.resources.files("kinctrl") / "configs"
    return sorted(p.name for p in root.iterdir() if p.name.endswith(".json"))


def bundled_config_path(name: str) -> Path:
    path = importlib.resources.files("kinctrl") / "configs" / name
    return Path(str(path))


# ---------------------------------------------------------------------------
# entry point


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="kinctrl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config")
    p_run.add_argument("config", type=Path)
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--out", type=Path, default=None, help="output directory")

    p_cmp = sub.add_parser("compare", help="compare two run directories")
    p_cmp.add_argument("dir_a", type=Path)
    p_cmp.add_argument("dir_b", type=Path)
    p_cmp.add_argument("--metric", choices=["L1_density", "sup_trajectory"], required=True)
    p_cmp.add_argument("--threshold", type=float, default=None)

    sub.add_parser("list-scenarios", help="list bundled scenario configs")

    args = parser.parse_args(argv)

    if args.command == "list-scenarios":
        for name in list_bundled_scenarios():
            print(name)
        return 0

    if args.command == "run":
        try:
            out = execute(args.config, args.out, args.seed)
        except ConfigError as exc:
            print(f"configuration error: {exc}", file=sys.stderr)
            return 2
        except NUMERICAL_FAILURES as exc:
            print(f"numerical failure [{type(exc).__name__}]: {exc}", file=sys.stderr)
            return 3
        print(f"run complete: {out}")
        return 0

    if args.command == "compare":
        try:
            report = compare_runs(args.dir_a, args.dir_b, args.metric)
        except ConfigError as exc:
            print(f"configuration error: {exc}", file=sys.stderr)
            return 2
        except NumericsError as exc:
            print(f"comparison failed: {exc}", file=sys.stderr)
            return 3
        print(json.dumps(report, indent=2, sort_keys=True))
        report_path = args.dir_b / "compare_report.json"
        write_manifest(report_path, report)
        if args.threshold is not None and report["value"] > args.threshold:
            print(
                f"metric {report['value']:.6g} exceeds threshold {args.threshold:.6g}",
                file=sys.stderr,
            )
            return 1
        return 0

    return 2  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
