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
from dataclasses import dataclass

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


@dataclass
class KineticSIRState:
    """Contact densities of S, I and R: the rows of one (3, n_cells) array on one grid."""

    values: np.ndarray
    grid: Grid
    clipped_mass: float = 0.0

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
    vs: np.ndarray, vi: np.ndarray, x_pows: np.ndarray, dx: float, e: EpidemicParams
) -> np.ndarray:
    """Pointwise rows (df_S, df_I, df_R)/dt = (-K, K - gamma f_I, gamma f_I).

    K(x) = f_S(x) [beta0 rho_I + sum_l beta_l x^l (rho_I m_{l,I})] >= 0 is the
    local infection rate; x_pows = contact_powers(x, e.order) at the cell
    centers, and the infected moments rho_I m_{l,I} are taken from vi itself
    by midpoint quadrature with cell width dx.  vs may cover only the first
    cells, and the rows returned cover the same cells; vi is the whole row.
    """
    n = vs.shape[-1]
    rate = ((np.asarray(e.betas) * ((x_pows @ vi) * dx)) @ x_pows)[:n]
    if e.beta0 > 0:
        rate += e.beta0 * vi.sum() * dx
    out = np.empty((3, n))
    np.multiply(vs, rate, out=out[0])
    np.multiply(e.gamma_i, vi[:n], out=out[2])
    np.subtract(out[0], out[2], out=out[1])
    np.negative(out[0], out=out[0])
    return out


def epidemic_substep(state: KineticSIRState, e: EpidemicParams, dt: float) -> KineticSIRState:
    """One Runge-Kutta step of the pointwise mass-exchange dynamics.

    The infected moments entering the incidence are recomputed at every
    stage.  Total mass is conserved pointwise; cells that land below zero
    are clipped (warned about when below the -1e-12 threshold) and the
    clipped amount accumulates in the state diagnostics.

    Past the compartments' common support every value is +0.0, and so is
    every stage and the result there, so the pointwise arithmetic runs on
    the support only; the moments are still summed over whole rows.
    """
    if not dt > 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    grid = state.grid
    x_pows = center_powers(grid, e.order)
    n = max(support_end(v) for v in state.values)
    values = state.values[:, :n]
    vs, vi, _ = values
    stage_i = np.empty(grid.n_cells)  # whole-row f_I stage for the moments
    stage_i[n:] = 0.0

    def deriv(h, k):
        # the rates do not depend on f_R, so its stage values are never formed
        np.add(vi, h * k[1], out=stage_i[:n])
        return exchange_rate(vs + h * k[0], stage_i, x_pows, grid.dx, e)

    k1 = exchange_rate(vs, state.values[1], x_pows, grid.dx, e)
    k2 = deriv(0.5 * dt, k1)
    k3 = deriv(0.5 * dt, k2)
    k4 = deriv(dt, k3)
    new = (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    new += values

    clipped = state.clipped_mass
    neg = new < 0
    if neg.any():
        lost = new[neg]
        if lost.min() < NEGATIVITY_WARN:
            warnings.warn(
                f"epidemic substep produced a cell at {lost.min():.3e}; clipping",
                RuntimeWarning,
                stacklevel=2,
            )
        clipped -= float(lost.sum() * grid.dx)
        new[neg] = 0.0
    if n < grid.n_cells:
        new, support = np.zeros_like(state.values), new
        new[:, :n] = support
    return KineticSIRState(new, grid, clipped)


def _contact_substep(
    state: KineticSIRState, p: KineticParams, c: ControlSpec, dt: float
) -> KineticSIRState:
    """Implicit contact relaxation of each compartment at its own current mean.

    The compartments are stepped in one fp.sp_step_batch call, with the
    interface weights of the rule integrated once per run
    (fp.build_operator).  Compartments with mass at or below MASS_FLOOR
    keep their values.  Each stepped compartment is rescaled back to its
    pre-step mass: the scheme conserves mass exactly in exact arithmetic,
    but at stiff dt/tau the tridiagonal solve leaves roundoff at the 1e-9
    level that would otherwise accumulate over thousands of steps.
    """
    grid = state.grid
    masses = state.masses()
    live = masses > MASS_FLOOR
    if not live.any():
        return state
    x = grid.centers()
    rows = state.values if live.all() else state.values[live]
    means = [float(x @ v) * grid.dx / mass for v, mass in zip(rows, masses[live])]
    # the solve writes a new array, which becomes the new state
    stepped = sp_step_batch(build_operator(p, c, grid), rows, means, dt, p.tau)
    stepped *= (masses[live] / (stepped.sum(axis=1) * grid.dx))[:, None]
    if live.all():
        return KineticSIRState(stepped, grid, state.clipped_mass)
    values = state.values.copy()
    values[live] = stepped
    return KineticSIRState(values, grid, state.clipped_mass)


def split_step(
    state: KineticSIRState, p: KineticParams, c: ControlSpec, e: EpidemicParams, dt: float
) -> KineticSIRState:
    """One splitting step: contact relaxation, then epidemic exchange."""
    return epidemic_substep(_contact_substep(state, p, c, dt), e, dt)


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
    """
    n_steps = step_count(t_final, dt)
    times = np.asarray(output_steps(n_steps, output_every)) * dt
    state = initial
    mass0 = state.total_mass()
    rows = [state.observables()]
    for k in range(1, n_steps + 1):
        state = split_step(state, p, c, e, dt)
        check_mass(state.total_mass(), mass0, k * dt)
        if k % output_every == 0 or k == n_steps:
            rows.append(state.observables())
    return ScenarioResult(times, np.array(rows), state)
