"""Coupled system: contact-formation dynamics plus epidemic mass exchange.

One time step is a first-order (Lie) splitting: each compartment density
first relaxes under its contact operator (implicit structure-preserving
solve, scaled by 1/tau), then the three densities exchange mass pointwise in
x through the incidence and recovery terms (one classical Runge-Kutta step
with the infected moments refreshed at every stage).  The state keeps the
three densities as the rows S, I, R of one array.

gamma_profile_state imports scipy.special's gammaln when called, so only
the kinetic runs load scipy.special.  math.lgamma will not do: it differs
from gammaln in the last bit at lam = 5 and would change every bundled
kinetic output.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvariantViolationError
from .fp import Grid, build_operator, sp_step_batch, support_end
from .params import ControlSpec, EpidemicParams, KineticParams, output_steps, step_count

# Compartments with less mass than this skip their contact substep (their
# mean is not defined) and report mean 0 in trajectories.
MASS_FLOOR = 1e-300

NEGATIVITY_WARN = -1e-12

# Largest drift of the total mass over a run, relative to max(initial mass, 1).
MASS_DRIFT_TOL = 1e-10

# Columns of ScenarioResult.observables (and of the kinetic trajectory CSV).
OBSERVABLES = ("rho_S", "rho_I", "rho_R", "m_S", "m_I", "m_R", "m2_S", "m2_I", "m2_R")


@functools.lru_cache(maxsize=1)
def moment_powers(grid: Grid) -> np.ndarray:
    """(n_cells, 3) columns dx, x dx, x^2 dx: values @ moment_powers gives
    each row's mass, first and second raw moment."""
    x = grid.centers()
    powers = x[:, None] ** np.arange(3) * grid.dx
    powers.flags.writeable = False
    return powers


@functools.lru_cache(maxsize=1)
def cell_centers(grid: Grid) -> np.ndarray:
    """grid.centers(), computed once per grid; read-only."""
    x = grid.centers()
    x.flags.writeable = False
    return x


@dataclass
class KineticSIRState:
    """Contact densities of S, I and R: the rows of one (3, n_cells) array on one grid.

    The numerical-health diagnostics accumulate over the steps that led to
    the state: the mass the epidemic substep clipped, the smallest cell it
    left before clipping (None before the first), and the largest relative
    per-row mass gap that the contact substep's rescale corrected.
    """

    values: np.ndarray
    grid: Grid
    clipped_mass: float = 0.0
    min_cell_before_clip: float | None = None
    max_contact_mass_drift: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (3, self.grid.n_cells):
            raise ValueError(f"values shape {self.values.shape} is not (3, {self.grid.n_cells})")

    def masses(self) -> np.ndarray:
        return self.values.sum(axis=1) * self.grid.dx

    def total_mass(self) -> float:
        return float(self.masses().sum())

    def observables(self) -> np.ndarray:
        """The OBSERVABLES: masses, means and second moments of S, I and R.

        A compartment at or below MASS_FLOOR reports mean and second moment 0.
        """
        raw = self.values @ moment_powers(self.grid)
        mass = raw[:, :1]
        ratios = np.divide(raw[:, 1:], mass, out=np.zeros((3, 2)), where=mass > MASS_FLOOR)
        return np.concatenate([mass[:, 0], ratios.T.ravel()])


def gamma_profile_state(
    grid: Grid, lam: float, mean0: float, rho: tuple[float, float, float]
) -> KineticSIRState:
    """Initial condition: every compartment carries a gamma-shaped profile.

    f_J(x, 0) = rho_J * lam^lam / (mean0^lam Gamma(lam)) x^(lam-1) e^(-lam x / mean0)
    """
    if not lam > 0 or not mean0 > 0:
        raise ValueError(f"lam and mean0 must be > 0, got lam = {lam}, mean0 = {mean0}")
    from scipy.special import gammaln

    x = grid.centers()
    log_profile = (
        lam * math.log(lam)
        - lam * math.log(mean0)
        - gammaln(lam)
        + (lam - 1.0) * np.log(x)
        - lam * x / mean0
    )
    return KineticSIRState(np.asarray(rho, dtype=float)[:, None] * np.exp(log_profile), grid)


def contact_powers(x: np.ndarray, order: int) -> np.ndarray:
    """Rows x^1, ..., x^order of the contact moments entering the incidence."""
    return x ** np.arange(1, order + 1)[:, None]


@functools.lru_cache(maxsize=1)
def center_powers(grid: Grid, order: int) -> np.ndarray:
    """contact_powers at the cell centers, computed once per (grid, order); read-only."""
    x_pows = contact_powers(grid.centers(), order)
    x_pows.flags.writeable = False
    return x_pows


def exchange_rate(
    vs: np.ndarray, vi: np.ndarray, x_pows: np.ndarray, dx: float, e: EpidemicParams,
    out=None, rate=None,
) -> np.ndarray:
    """Pointwise rows (df_S, df_I, df_R)/dt = (-K, K - gamma f_I, gamma f_I).

    K(x) = f_S(x) [beta0 rho_I + sum_l beta_l x^l (rho_I m_{l,I})] >= 0 is the
    local infection rate; x_pows = contact_powers(x, e.order) at the cell
    centers, and the infected moments rho_I m_{l,I} are taken from vi itself
    by midpoint quadrature with cell width dx.  vs may cover only the first
    cells, and the rows returned cover the same cells; vi is the whole row.
    The rows go into out, a (3, len(vs)) array, and the rate is formed in
    rate, a row as long as vi; the caller owns both, neither may alias vs
    or vi, and each is a new array when not given.
    """
    n = vs.shape[-1]
    rate = np.matmul(np.asarray(e.betas) * ((x_pows @ vi) * dx), x_pows, out=rate)[:n]
    if e.beta0 > 0:
        rate += e.beta0 * vi.sum() * dx
    if out is None:
        out = np.empty((3, n))
    np.multiply(vs, rate, out=out[0])
    np.multiply(e.gamma_i, vi[:n], out=out[2])
    np.subtract(out[0], out[2], out=out[1])
    np.negative(out[0], out=out[0])
    return out


@functools.lru_cache(maxsize=1)
def _rk4_workspace(n_cells: int) -> tuple[np.ndarray, np.ndarray]:
    """The stage rates k (3, n_cells) and the rows stage S, stage I and rate
    of epidemic_substep, reused from step to step."""
    return np.empty((3, n_cells)), np.empty((3, n_cells))


def epidemic_substep(
    state: KineticSIRState, e: EpidemicParams, dt: float, out=None
) -> KineticSIRState:
    """One Runge-Kutta step of the pointwise mass-exchange dynamics.

    The infected moments entering the incidence are recomputed at every
    stage.  Total mass is conserved pointwise; cells that land below zero
    are clipped (warned about when below the -1e-12 threshold) and the
    clipped amount accumulates in the state diagnostics, as does the
    smallest cell before the clip.

    Past the compartments' common support every value is +0.0, and so is
    every stage and the result there, so the pointwise arithmetic runs on
    the support only; the moments are still summed over whole rows.

    The new values go into out, a (3, n_cells) array that the caller owns
    and that may not alias state.values, or into a new array.  The stages
    share one rate buffer k, kept from step to step, and the update sums
    into the new values: each k_j enters doubled (exactly, in place) once
    the next stage has been formed from it, so every bit is that of
    dt/6 (k1 + 2 k2 + 2 k3 + k4) + values.
    """
    if not dt > 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    grid = state.grid
    x_pows = center_powers(grid, e.order)
    n = max(support_end(v) for v in state.values)
    values = state.values[:, :n]
    vs, vi, _ = values
    k, (stage_s, stage_i, rate) = _rk4_workspace(grid.n_cells)
    k, stage_s = k[:, :n], stage_s[:n]
    stage_i[n:] = 0.0  # whole-row f_I stage for the moments
    new = np.empty_like(state.values) if out is None else out
    new[:, n:] = 0.0
    total = new[:, :n]

    exchange_rate(vs, state.values[1], x_pows, grid.dx, e, out=k, rate=rate)
    total[...] = k
    for j, h in enumerate((0.5 * dt, 0.5 * dt, dt)):
        # the rates do not depend on f_R, so its stage values are never formed
        np.add(vs, np.multiply(k[0], h, out=stage_s), out=stage_s)
        np.add(vi, np.multiply(k[1], h, out=stage_i[:n]), out=stage_i[:n])
        if j:  # k2 and k3 enter doubled; k1 entered above
            k *= 2.0
            total += k
        exchange_rate(stage_s, stage_i, x_pows, grid.dx, e, out=k, rate=rate)
    total += k
    total *= dt / 6.0
    total += values

    # one pass finds the smallest cell; every cell past the support holds +0.0
    low = float(total.min(initial=0.0 if n < grid.n_cells else np.inf))
    clipped = state.clipped_mass
    if low < 0:
        neg = total < 0
        if low < NEGATIVITY_WARN:
            warnings.warn(
                f"epidemic substep produced a cell at {low:.3e}; clipping",
                RuntimeWarning,
                stacklevel=2,
            )
        clipped -= float(total[neg].sum() * grid.dx)
        total[neg] = 0.0
    if state.min_cell_before_clip is not None:
        low = min(low, state.min_cell_before_clip)
    return replace(state, values=new, clipped_mass=clipped, min_cell_before_clip=low)


def _contact_substep(
    state: KineticSIRState, p: KineticParams, c: ControlSpec, dt: float, out=None
) -> KineticSIRState:
    """Implicit contact relaxation of each compartment at its own current mean.

    The compartments are stepped in one fp.sp_step_batch call, with the
    interface weights of the rule integrated once per run
    (fp.build_operator).  Compartments with mass at or below MASS_FLOOR
    keep their values.  Each stepped compartment is rescaled back to its
    pre-step mass: the scheme conserves mass exactly in exact arithmetic,
    but at stiff dt/tau the tridiagonal solve leaves roundoff at the 1e-9
    level that would otherwise accumulate over thousands of steps.  The
    largest relative gap that the rescale corrects accumulates in the state
    diagnostics.  The new values go into out, a (3, n_cells) array that the
    caller owns and that may not alias state.values, or into a new array.
    """
    grid = state.grid
    masses = state.masses()
    live = masses > MASS_FLOOR
    all_live = live.all()
    if not all_live:  # the rows at or below MASS_FLOOR keep their values
        if out is None:
            out = state.values.copy()
        else:
            out[...] = state.values
        if not live.any():
            return replace(state, values=out)
    x = cell_centers(grid)
    rows = state.values if all_live else state.values[live]
    masses = masses[live]
    means = [float(x @ v) * grid.dx / mass for v, mass in zip(rows, masses)]
    # every row is solved into out; a subset of the rows into a new array
    stepped = sp_step_batch(build_operator(p, c, grid), rows, means, dt, p.tau,
                            out=out if all_live else None)
    stepped_masses = stepped.sum(axis=1) * grid.dx
    drift = float(np.max(np.abs(stepped_masses - masses) / masses))
    stepped *= (masses / stepped_masses)[:, None]
    if not all_live:
        out[live] = stepped
        stepped = out
    return replace(state, values=stepped,
                   max_contact_mass_drift=max(state.max_contact_mass_drift, drift))


def split_step(
    state: KineticSIRState, p: KineticParams, c: ControlSpec, e: EpidemicParams, dt: float,
    out=None,
) -> KineticSIRState:
    """One splitting step: contact relaxation, then epidemic exchange.

    out is a pair (mid, new) of (3, n_cells) arrays that the caller owns:
    the contact substep writes mid and the epidemic substep writes new,
    whose values are then the new state's.  mid may alias neither
    state.values nor new.  new may be state.values itself, which the
    contact substep has read in full before the epidemic substep writes.
    Without out, each substep writes a new array.
    """
    mid, new = (None, None) if out is None else out
    return epidemic_substep(_contact_substep(state, p, c, dt, out=mid), e, dt, out=new)


@dataclass
class ScenarioResult:
    """Output times, the OBSERVABLES at each of them (one row per time) and the final state."""

    times: np.ndarray
    observables: np.ndarray
    final_state: KineticSIRState

    def column(self, name: str) -> np.ndarray:
        """One observable over time, by its OBSERVABLES name in any letter case."""
        names = [n.lower() for n in OBSERVABLES]
        return self.observables[:, names.index(name.lower())]


def check_mass(mass: float, mass0: float, t: float) -> None:
    """Raise InvariantViolationError unless |mass - mass0| <= MASS_DRIFT_TOL max(mass0, 1)."""
    drift = abs(mass - mass0)
    if not drift <= MASS_DRIFT_TOL * max(mass0, 1.0):
        raise InvariantViolationError(f"total mass drifted by {drift:.3e} at t = {t}", t=t)


def run_scenario(
    initial: KineticSIRState, p: KineticParams, c: ControlSpec, e: EpidemicParams,
    t_final: float, dt: float, output_every: int = 1,
) -> ScenarioResult:
    """Integrate the coupled system, recording observables at output_steps(n_steps, output_every).

    Total mass over the three compartments must stay within MASS_DRIFT_TOL
    of its initial value for the whole run.  t_final must be a whole number
    of steps and output_every an int >= 1, or ValueError is raised before
    step 0.

    The run owns two (3, n_cells) buffers, split_step's out; the final
    state's values are the second, and initial.values is only read.  The
    RK4 stages, the interface weights and the bands live in workspaces that
    kinetic and fp keep from step to step, so a step allocates no array
    that grows with the grid.
    """
    n_steps = step_count(t_final, dt)
    times = np.asarray(output_steps(n_steps, output_every)) * dt
    state = initial
    mass0 = state.total_mass()
    rows = [state.observables()]
    buffers = np.empty((2, *initial.values.shape))
    for k in range(1, n_steps + 1):
        state = split_step(state, p, c, e, dt, out=buffers)
        check_mass(state.total_mass(), mass0, k * dt)
        if k % output_every == 0 or k == n_steps:
            rows.append(state.observables())
    return ScenarioResult(times, np.array(rows), state)
