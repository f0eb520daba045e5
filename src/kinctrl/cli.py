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
import importlib.resources
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, io
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
    write_manifest,
)
from .kinetic import OBSERVABLES, check_mass, gamma_profile_state, run_scenario
from .macro import ClassicalSIR, MacroModel, MacroState, controlled_sir, rk4_integrate
from .params import (
    ControlSpec,
    EpidemicParams,
    KineticParams,
    Strategy,
    check_operator_domain,
    closure_kind,
    moment_ratio,
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


class PhaseClock:
    """Seconds of a run's consecutive phases, read from one time.perf_counter clock.

    The clock starts in phase "setup_s"; enter(name) ends the current phase
    and starts the next, so the phases cover the run without gaps.
    """

    def __init__(self):
        self.seconds: dict[str, float] = {}
        self._phase = "setup_s"
        self._start = self._lap = time.perf_counter()

    def enter(self, phase: str | None) -> float:
        """End the current phase and start phase (None: stop); returns the
        seconds since the clock started."""
        now = time.perf_counter()
        self.seconds[self._phase] = now - self._lap
        self._phase, self._lap = phase, now
        return now - self._start

# ---------------------------------------------------------------------------
# config parsing

# Key paths of the config values that _get has read during this execute; a
# block whose key _get found missing counts as read, so an empty block that
# only holds optional keys is read.
_read: set[tuple[str, ...]] = set()


def _get(cfg: dict, path: str, expected, required=True, default=None):
    node = cfg
    parts = path.split(".")
    for i, key in enumerate(parts):
        if not isinstance(node, dict) or key not in node:
            if isinstance(node, dict):
                _read.add(tuple(parts[:i]))
            if required:
                raise ConfigError(f"missing field '{'.'.join(parts[: i + 1])}'")
            return default
        node = node[key]
    if not isinstance(node, dict):
        _read.add(tuple(parts))
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


def _interval(cfg: dict, x_max: float) -> tuple[float, float]:
    """(initial.low, initial.high) of the uniform initial profile, with 0 <= low < high <= x_max."""
    low = _get(cfg, "initial.low", float)
    high = _get(cfg, "initial.high", float)
    if not 0 <= low < high <= x_max:
        raise ConfigError(
            f"field 'initial': need 0 <= low < high <= grid.x_max = {x_max}, got [{low}, {high}]"
        )
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


def _epidemic_params(cfg: dict) -> EpidemicParams:
    return _build(
        "epidemic",
        EpidemicParams,
        betas=tuple(_numbers(cfg, "epidemic.betas")),
        gamma_i=_get(cfg, "epidemic.gamma_i", float),
        beta0=_get(cfg, "epidemic.beta0", float, required=False, default=0.0),
    )


def _control_spec(cfg: dict, p: KineticParams) -> ControlSpec:
    """The control block's rule, uncontrolled if absent or null, checked against p.delta."""
    c = ControlSpec.uncontrolled()
    if _get(cfg, "control", dict, required=False) is not None:
        name = _get(cfg, "control.strategy", str)
        if name not in (names := [s.value for s in Strategy]):
            raise ConfigError(f"field 'control.strategy': unknown strategy {name!r}; "
                              f"choose from {names}")
        strategy = Strategy(name)
        if strategy is not Strategy.UNCONTROLLED:
            c = _build("control", ControlSpec, strategy, nu=_get(cfg, "control.nu", float),
                       x_target=_get(cfg, "control.x_target", float))
    _build("kinetic.delta", check_operator_domain, p, c)
    return c


def _grid(cfg: dict) -> Grid:
    return _build("grid.n_cells", Grid, _positive(cfg, "grid.x_max"), _get(cfg, "grid.n_cells", int))


def _time(cfg: dict) -> tuple[float, float]:
    """(dt, t_final); t_final must be a whole number of steps."""
    dt = _positive(cfg, "time.dt")
    t_final = _get(cfg, "time.t_final", float)
    _build("time.t_final", step_count, t_final, dt)
    return dt, t_final


def _leaves(node: dict, path: tuple[str, ...] = ()):
    """Key paths of the values in nested dicts that are not non-empty dicts;
    a list or an empty dict is one leaf."""
    for key, value in node.items():
        if isinstance(value, dict) and value:
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,)


def _start_steps(cfg: dict, clock: PhaseClock) -> None:
    """Enter the steps phase; a config leaf that no _get has read by now sets
    nothing, so it stops the run first."""
    for leaf in _leaves(cfg):
        if leaf not in _read:
            raise ConfigError(f"field '{'.'.join(leaf)}': a {cfg['kind']} run does not read it")
    clock.enter("steps_s")


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
        raise ConfigError(f"field 'schema_version': expected {SCHEMA_VERSION}, got {version}")
    kind = _get(cfg, "kind", str)
    if kind not in RUNNERS:
        raise ConfigError(f"field 'kind': unknown scenario {kind!r}; choose from {tuple(RUNNERS)}")
    return cfg


# ---------------------------------------------------------------------------
# scenario runners


def _equilibrium_metrics(
    p: KineticParams, c: ControlSpec, m_ref: float | None, f: ContactDensity, refine: int
) -> dict:
    """l1_to_equilibrium and equilibrium_kind of f at the fixed mean m_ref,
    against the closed-form steady state averaged over refine panels per
    cell; empty for a run at its own mean or a rule with no closed form."""
    eq_kind = EquilibriumKind.for_model(p, c)
    if eq_kind is None or m_ref is None:
        return {}
    n = f.grid.n_cells
    eq = EquilibriumDensity(p, m_ref, Grid(f.grid.x_max, n * refine), control=c)
    ref = eq.values.reshape(n, refine).mean(axis=1)
    return {"l1_to_equilibrium": f.l1_distance(ref), "equilibrium_kind": eq_kind.value}


def run_dsmc_equilibrium(
    cfg: dict, p: KineticParams, seed: int, clock: PhaseClock
) -> tuple[dict, dict, dict]:
    c = _control_spec(cfg, p)
    n = _count(cfg, "dsmc.n_particles")
    grid = _grid(cfg)  # the histogram's cells
    dt, t_final = _time(cfg)
    if step_count(t_final, dt) == 0:
        raise ConfigError(f"field 'time.t_final': {t_final} is 0 steps of time.dt; "
                          "a particle run needs at least one")
    m_ref = _positive(cfg, "dsmc.mean_reference", required=False)
    low, high = _interval(cfg, grid.x_max)

    bound = _positive(cfg, "dsmc.kernel_bound")
    _build("time.dt", check_step_size, dt, p.epsilon, bound)

    ens = ParticleEnsemble.from_uniform(n, low, high, seed)
    _start_steps(cfg, clock)
    run_to_equilibrium(ens, p, c, t_final, dt, bound, m_ref=m_ref)
    clock.enter("output_s")
    f = ContactDensity.from_samples(grid, ens.samples)
    metrics = {
        "kernel_bound": bound,
        "clamped_fraction": ens.n_clamped / max(ens.n_transitions, 1),
        "accept_ratio": ens.n_transitions / (ens.size * ens.n_steps),
        "ensemble_mean": ens.mean(),
        "ensemble_second_moment": ens.second_moment(),
        **_equilibrium_metrics(p, c, m_ref, f, refine=16),
    }
    return metrics, {
        "steps": ens.n_steps,
        "threads": ens.threads,
        "particles_outside": int(np.count_nonzero(ens.samples > grid.x_max)),
    }, {density_filename(t_final): {"x": grid.centers(), "f": f.values}}


def run_fp_equilibrium(
    cfg: dict, p: KineticParams, seed: None, clock: PhaseClock
) -> tuple[dict, dict, dict]:
    c = _control_spec(cfg, p)
    grid = _grid(cfg)
    dt, t_final = _time(cfg)
    m_ref = _positive(cfg, "fp.mean_reference", required=False)
    f = _build("initial", uniform_density, grid, *_interval(cfg, grid.x_max))
    n_steps = step_count(t_final, dt)
    op = build_operator(p, c, grid)
    mass0 = f.mass()
    _start_steps(cfg, clock)
    if m_ref is not None:
        stepper = SpStepper(op, m_ref, dt, p.tau)
        vals = f.values
        for _ in range(n_steps):
            vals = stepper.step(vals)
        f = ContactDensity(grid, vals)
    else:
        for k in range(n_steps):
            check_mass(f.mass(), mass0, k * dt)  # before the mean, which needs mass > 0
            f = ContactDensity(grid, sp_step_batch(op, [f.values], [f.mean()], dt, p.tau)[0])
    check_mass(f.mass(), mass0, t_final)

    clock.enter("output_s")
    steady = steady_state_solve(op, m_ref or f.mean())
    metrics = {
        "final_mass": f.mass(),
        "final_mean": f.mean(),
        "l1_to_steady_state": f.l1_distance(steady.values),
        **_equilibrium_metrics(p, c, m_ref, f, refine=1),
    }
    x = grid.centers()
    tables = {density_filename(t_final): {"x": x, "f": f.values},
              "steady_state.csv": {"x": x, "f": steady.values}}
    return metrics, {"steps": n_steps}, tables


def _tail(f: ContactDensity, window: tuple[float, float]) -> dict:
    """tail_classify(f, window) as a manifest entry; "inconclusive" with the reason if it fails."""
    try:
        tc = tail_classify(f, window)
    except (TailInconclusiveError, ValueError) as exc:
        return {"kind": "inconclusive", "detail": str(exc)}
    return {"kind": tc.kind.value, "exponent": tc.exponent}


def run_tail_sweep(
    cfg: dict, p: KineticParams, seed: None, clock: PhaseClock
) -> tuple[dict, dict, dict]:
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

    _start_steps(cfg, clock)
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

    clock.enter("output_s")
    sweep = dict(zip(("strategy", "nu", "m_inf", "m2_inf"), zip(*rows)))
    return {"tails": tails}, {}, {"sweep.csv": sweep}


def _closed_model(p: KineticParams, e: EpidemicParams) -> MacroModel:
    """The moment system closed with the local equilibrium at p.delta: L1 or
    L2 by the number of betas.  MacroModel checks the number of betas, then
    beta0, then that the closure has the moments the order needs, which
    lam = alpha / sigma2 decides."""
    closure = _build("kinetic.delta", closure_kind, p.delta)
    field = ("epidemic.betas" if e.order not in (1, 2) else
             "epidemic.beta0" if e.beta0 > 0 else "kinetic.sigma2")
    return _build(field, MacroModel, closure, p, e)


def _macro_initial(cfg: dict) -> MacroState:
    rho = _numbers(cfg, "initial.rho", length=3, low=0.0)
    mean = _positive(cfg, "initial.mean")
    return MacroState(*rho, mean, mean, mean)


def _trajectory(times, table: np.ndarray) -> dict:
    """t, then the table's columns under the first table.shape[1] OBSERVABLES names."""
    return {"t": times, **dict(zip(OBSERVABLES, table.T))}


def _output_every(cfg: dict) -> int:
    return _count(cfg, "time.output_every", required=False, default=1)


def run_macro_compare(
    cfg: dict, p: KineticParams | None, seed: None, clock: PhaseClock
) -> tuple[dict, dict, dict]:
    if p is not None:
        model = _closed_model(p, _epidemic_params(cfg))
    else:  # classical SIR reads no kinetic and no other epidemic field
        model = _build("macro.beta", ClassicalSIR, _get(cfg, "macro.beta", float),
                       _positive(cfg, "epidemic.gamma_i"))
    s0 = _macro_initial(cfg)
    dt, t_final = _time(cfg)
    every = _output_every(cfg)
    _start_steps(cfg, clock)
    times, states = rk4_integrate(model, s0, dt, t_final, every)
    clock.enter("output_s")
    table = np.array(states)
    metrics = {"peak_rho_i": float(table[:, 1].max()), "peak_m_i": float(table[:, 4].max())}
    return metrics, {}, {TRAJECTORY_FILE: _trajectory(times, table)}


def _kinetic_pieces(cfg: dict, p: KineticParams):
    e = _epidemic_params(cfg)
    c = _control_spec(cfg, p)
    grid = _grid(cfg)
    s0 = _macro_initial(cfg)
    ic = _build("kinetic", gamma_profile_state, grid, p.lam, s0.m_s, s0[:3])
    return e, c, grid, ic, s0.m_s


def _kinetic_diagnostics(result, t_final: float, dt: float) -> dict:
    """Steps and the numerical health of a kinetic run, from its final state."""
    final = result.final_state
    return {"steps": step_count(t_final, dt),
            "min_cell_before_clip": final.min_cell_before_clip,
            "max_contact_mass_drift": final.max_contact_mass_drift}


def run_kinetic_macro_consistency(
    cfg: dict, p: KineticParams, seed: None, clock: PhaseClock
) -> tuple[dict, dict, dict]:
    """Kinetic run against its macro reference: the closed L1/L2 system, or
    under a control classical SIR at the derived beta, started at m*."""
    e, c, grid, ic, mean = _kinetic_pieces(cfg, p)
    dt, t_final = _time(cfg)
    every = _output_every(cfg)
    if c.active:
        model, m_star = _build("epidemic", controlled_sir, p, e, c, grid, mean)
    else:
        model = _closed_model(p, e)

    # built once every field is read, so the LAPACK import falls in setup_s; the steps hit the cache
    _build("kinetic.delta", build_operator, p, c, grid)
    _start_steps(cfg, clock)
    result = run_scenario(ic, p, c, e, t_final, dt, output_every=every)
    row0 = result.observables[0, :6].tolist()
    s0 = MacroState(*row0[:3], m_star, m_star, m_star) if c.active else MacroState(*row0)
    _, states = rk4_integrate(model, s0, dt, t_final, every)
    ref = np.array(states)

    clock.enter("output_s")
    # the means' gaps are relative where the reference mean is non-zero
    # (an empty compartment has mean 0) and absolute where it is 0; a
    # controlled run's t = 0 row holds the gamma profile at initial.mean,
    # not m*, so it is left out of the mean gaps
    gaps = np.abs(result.observables[:, :6] - ref)
    means = np.abs(ref[:, 3:])
    np.divide(gaps[:, 3:], means, out=gaps[:, 3:], where=means != 0)
    if c.active:
        gaps[0, 3:] = 0.0
    names = [*OBSERVABLES[:3], *(name + "_rel" for name in OBSERVABLES[3:6])]
    metrics = {
        "sup_gaps": dict(zip(names, gaps.max(axis=0).tolist())),
        "clipped_mass": result.final_state.clipped_mass,
    }
    if c.active:
        metrics["m_star"] = m_star
    tables = {TRAJECTORY_FILE: _trajectory(result.times, result.observables),
              "trajectory_macro.csv": _trajectory(result.times, ref)}
    return metrics, _kinetic_diagnostics(result, t_final, dt), tables


def run_controlled_epidemic(
    cfg: dict, p: KineticParams, seed: None, clock: PhaseClock
) -> tuple[dict, dict, dict]:
    e, c, grid, ic, _ = _kinetic_pieces(cfg, p)
    dt, t_final = _time(cfg)
    every = _output_every(cfg)
    window = _window(cfg, "tail_window", required=False)

    _build("kinetic.delta", build_operator, p, c, grid)  # as in run_kinetic_macro_consistency
    _start_steps(cfg, clock)
    result = run_scenario(ic, p, c, e, t_final, dt, output_every=every)
    clock.enter("output_s")
    final = result.final_state
    metrics = {
        "peak_rho_i": float(result.column("rho_I").max()),
        "final_m_s": float(result.column("m_S")[-1]),
        "clipped_mass": final.clipped_mass,
    }
    if window is not None:
        metrics["final_s_tail"] = _tail(ContactDensity(grid, final.values[0]), window)
    tables = {TRAJECTORY_FILE: _trajectory(result.times, result.observables),
              density_filename(t_final): {"x": grid.centers(),
                                          **dict(zip(("f_S", "f_I", "f_R"), final.values))}}
    return metrics, _kinetic_diagnostics(result, t_final, dt), tables


# Each runner takes the config, its parsed kinetic block (None for classical
# SIR), the seed (None for a deterministic kind) and the phase clock, reads
# every field it uses before _start_steps, and returns the manifest's metrics
# and diagnostics and the tables that execute writes, file name -> {column:
# values}; it writes no file.
RUNNERS = {
    "dsmc_equilibrium": run_dsmc_equilibrium,
    "fp_equilibrium": run_fp_equilibrium,
    "tail_sweep": run_tail_sweep,
    "macro_compare": run_macro_compare,
    "kinetic_macro_consistency": run_kinetic_macro_consistency,
    "controlled_epidemic": run_controlled_epidemic,
}

# The kinetic scales a kind reads besides alpha, sigma2 and delta: epsilon of
# the particle interactions, tau of the fp and kinetic contact relaxation.  A
# kind runs at the KineticParams default of a scale it does not read.
SCALES = {"dsmc_equilibrium": ("epsilon",), "fp_equilibrium": ("tau",),
          "kinetic_macro_consistency": ("tau",), "controlled_epidemic": ("tau",)}


def _kinetic_params(cfg: dict) -> KineticParams | None:
    """The kinetic block with the scales the kind reads; None, reading none of
    it, for classical SIR (a macro_compare config that gives macro.beta)."""
    kind = cfg["kind"]
    if kind == "macro_compare" and _get(cfg, "macro.beta", float, required=False) is not None:
        return None
    scales = {name: _get(cfg, f"kinetic.{name}", float, required=False,
                         default=getattr(KineticParams, name)) for name in SCALES.get(kind, ())}
    return _build(
        "kinetic",
        KineticParams,
        alpha=_get(cfg, "kinetic.alpha", float),
        sigma2=_get(cfg, "kinetic.sigma2", float),
        delta=_get(cfg, "kinetic.delta", float),
        **scales,
    )


def _first_non_finite(value, name: str) -> str | None:
    """Name of the first NaN or infinite float in value and the dicts and lists it nests."""
    if isinstance(value, list):
        value = dict(enumerate(value))
    if not isinstance(value, dict):
        return name if isinstance(value, float) and not math.isfinite(value) else None
    found = (_first_non_finite(item, f"{name}[{key!r}]") for key, item in value.items())
    return next(filter(None, found), None)


def execute(config_path: Path, out_dir: Path | None = None, seed: int | None = None) -> Path:
    """Run one scenario config; returns the output directory, made only by a run that succeeds."""
    _read.clear()
    cfg = load_config(config_path)
    kind = cfg["kind"]
    if kind == "dsmc_equilibrium":
        # a particle run is stochastic: it needs a seed, from the config or --seed
        cfg_seed = _get(cfg, "seed", int, required=seed is None)
        seed = cfg_seed if seed is None else seed
        if seed < 0:
            raise ConfigError(f"field 'seed': must be >= 0, got {seed}")
    elif seed is not None:
        raise ConfigError(f"--seed: a {kind} run is deterministic and takes no seed")
    config_out = _get(cfg, "out_dir", str, required=False)
    out = resolve_out_dir(str(out_dir) if out_dir else None, config_out, config_path.stem)

    clock = PhaseClock()
    p = _kinetic_params(cfg)
    metrics, diagnostics, tables = RUNNERS[kind](cfg, p, seed, clock)
    if (bad := _first_non_finite(metrics, "metrics")) is not None:
        raise NumericsError(f"{bad} is not finite; no output written")
    for name, columns in tables.items():  # io.write_csv looked up here, so a wrapper on io sees it
        io.write_csv(out / name, list(columns), list(columns.values()))
    elapsed = clock.enter(None)

    manifest = {
        "schema_version": SCHEMA_VERSION,
        "code_version": __version__,
        "config": cfg,
        "config_path": str(config_path),
        "seed": seed,
        "wall_clock_s": elapsed,
        "timings": clock.seconds,
        "metrics": metrics,
        "diagnostics": diagnostics,
    }
    if p is not None:  # classical SIR reads no kinetic block, so it derives nothing
        manifest["derived"] = {"lam": p.lam}
        try:
            manifest["derived"]["moment_ratio"] = moment_ratio(p.lam, p.delta)
        except ValueError:
            pass  # delta is not +/-1, or the inverse-gamma profile has no second moment
    write_manifest(out / MANIFEST_FILE, manifest)
    return out


# ---------------------------------------------------------------------------
# compare


def _read_run_csv(path: Path, axis: str, min_rows: int) -> dict[str, np.ndarray]:
    """read_csv(path), as a NumericsError naming the file if it is missing,
    empty or ragged, or has fewer than min_rows values of the axis column,
    and naming the column too if one holds a NaN or infinite value."""
    try:
        data = read_csv(path)
    except StopIteration:
        raise NumericsError(f"{path}: empty file") from None
    except (OSError, ValueError) as exc:
        raise NumericsError(f"{path}: {exc}") from exc
    if len(data.get(axis, ())) < min_rows:
        raise NumericsError(f"{path}: needs column {axis!r} with at least {min_rows} rows")
    for name, column in data.items():
        if not np.isfinite(column).all():
            raise NumericsError(f"{path}: column {name!r} holds a value that is not finite")
    return data


def compare_runs(dir_a: Path, dir_b: Path, metric: str) -> dict:
    """Metric between two run directories; raises on incompatible axes."""
    if metric == "sup_trajectory":
        ta = _read_run_csv(dir_a / TRAJECTORY_FILE, "t", 1)
        tb = _read_run_csv(dir_b / TRAJECTORY_FILE, "t", 1)
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
            da = _read_run_csv(dir_a / name, "x", 2)
            db = _read_run_csv(dir_b / name, "x", 2)
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
        threshold = args.threshold
        if threshold is not None and not (math.isfinite(threshold) and threshold >= 0):
            print(f"configuration error: --threshold must be finite and >= 0, got {threshold}",
                  file=sys.stderr)
            return 2
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
        if threshold is not None and report["value"] > threshold:
            print(
                f"metric {report['value']:.6g} exceeds threshold {threshold:.6g}",
                file=sys.stderr,
            )
            return 1
        return 0

    return 2  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
