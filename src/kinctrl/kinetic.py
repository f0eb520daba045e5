"""Coupled system: contact-formation dynamics plus epidemic mass exchange.

One time step is a first-order (Lie) splitting: each compartment density
first relaxes under its contact operator (implicit structure-preserving
solve, scaled by 1/tau), then the three densities exchange mass pointwise in
x through the incidence and recovery terms (one classical Runge-Kutta step
with the infected moments refreshed at every stage).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.special import gammaln

from .errors import InvariantViolationError
from .fp import ContactDensity, Grid, interface_weights, sp_step_batch
from .fp import build_operator  # noqa: F401  re-exported as kinetic.build_operator
from .macro import MacroState
from .params import ControlSpec, EpidemicParams, KineticParams, step_count

# Compartments with less mass than this skip their contact substep (their
# mean is not defined) and report mean 0 in trajectories.
MASS_FLOOR = 1e-300

NEGATIVITY_WARN = -1e-12


@dataclass
class KineticSIRState:
    """Per-compartment contact densities on one shared grid."""

    f_s: ContactDensity
    f_i: ContactDensity
    f_r: ContactDensity
    clipped_mass: float = 0.0

    def __post_init__(self):
        if not (self.f_s.grid == self.f_i.grid == self.f_r.grid):
            raise ValueError("all compartments must share one grid")
        for f, tag in zip((self.f_s, self.f_i, self.f_r), "SIR"):
            f.compartment = tag

    @property
    def grid(self) -> Grid:
        return self.f_s.grid

    def densities(self) -> tuple[ContactDensity, ContactDensity, ContactDensity]:
        return (self.f_s, self.f_i, self.f_r)

    def total_mass(self) -> float:
        return self.f_s.mass() + self.f_i.mass() + self.f_r.mass()

    def macro_state(self) -> MacroState:
        rho, mean = [], []
        for f in self.densities():
            mass = f.mass()
            rho.append(mass)
            mean.append(f.raw_moment(1) / mass if mass > MASS_FLOOR else 0.0)
        return MacroState(rho[0], rho[1], rho[2], mean[0], mean[1], mean[2])

    def second_moments(self) -> tuple[float, float, float]:
        out = []
        for f in self.densities():
            mass = f.mass()
            out.append(f.raw_moment(2) / mass if mass > MASS_FLOOR else 0.0)
        return tuple(out)

    def copy(self) -> "KineticSIRState":
        return KineticSIRState(
            self.f_s.copy(), self.f_i.copy(), self.f_r.copy(), self.clipped_mass
        )


def gamma_profile_state(
    grid: Grid, lam: float, mean0: float, rho: tuple[float, float, float]
) -> KineticSIRState:
    """Initial condition: every compartment carries a gamma-shaped profile.

    f_J(x, 0) = rho_J * lam^lam / (mean0^lam Gamma(lam)) x^(lam-1) e^(-lam x / mean0)
    """
    if not lam > 0 or not mean0 > 0:
        raise ValueError("lam and mean0 must be > 0")
    x = grid.centers()
    log_profile = (
        lam * math.log(lam)
        - lam * math.log(mean0)
        - gammaln(lam)
        + (lam - 1.0) * np.log(x)
        - lam * x / mean0
    )
    profile = np.exp(log_profile)
    fs = [ContactDensity(grid, r * profile) for r in rho]
    return KineticSIRState(*fs)


def contact_powers(x: np.ndarray, order: int) -> np.ndarray:
    """Rows x^1, ..., x^order of the contact moments entering the incidence."""
    return x ** np.arange(1, order + 1)[:, None]


def exchange_rate(
    vs: np.ndarray, vi: np.ndarray, x_pows: np.ndarray, dx: float, e: EpidemicParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pointwise (df_S, df_I, df_R)/dt = (-K, K - gamma f_I, gamma f_I).

    K(x) = f_S(x) [beta0 rho_I + sum_l beta_l x^l (rho_I m_{l,I})] >= 0 is the
    local infection rate; x_pows = contact_powers(x, e.order) at the cell
    centers, and the infected moments rho_I m_{l,I} are taken from vi itself
    by midpoint quadrature with cell width dx.
    """
    rate = (np.asarray(e.betas) * ((x_pows @ vi) * dx)) @ x_pows
    if e.beta0 > 0:
        rate += e.beta0 * vi.sum() * dx
    k = vs * rate
    gamma_fi = e.gamma_i * vi
    return -k, k - gamma_fi, gamma_fi


def epidemic_substep(state: KineticSIRState, e: EpidemicParams, dt: float) -> KineticSIRState:
    """One Runge-Kutta step of the pointwise mass-exchange dynamics.

    The infected moments entering the incidence are recomputed at every
    stage.  Total mass is conserved pointwise; cells that land below zero
    are clipped (warned about when below the -1e-12 threshold) and the
    clipped amount accumulates in the state diagnostics.
    """
    if not dt > 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    grid = state.grid
    x_pows = contact_powers(grid.centers(), e.order)
    dx = grid.dx
    vs, vi, vr = (f.values for f in state.densities())

    def deriv(h, k):
        # the rates do not depend on f_R, so its stage values are never formed
        return exchange_rate(vs + h * k[0], vi + h * k[1], x_pows, dx, e)

    k1 = exchange_rate(vs, vi, x_pows, dx, e)
    k2 = deriv(0.5 * dt, k1)
    k3 = deriv(0.5 * dt, k2)
    k4 = deriv(dt, k3)
    new = [
        v + (dt / 6.0) * (a + 2.0 * b + 2.0 * c + d)
        for v, a, b, c, d in zip((vs, vi, vr), k1, k2, k3, k4)
    ]

    clipped = state.clipped_mass
    for idx, v in enumerate(new):
        neg = v < 0
        if np.any(neg):
            worst = float(v[neg].min())
            if worst < NEGATIVITY_WARN:
                warnings.warn(
                    f"epidemic substep produced a cell at {worst:.3e}; clipping",
                    RuntimeWarning,
                    stacklevel=2,
                )
            clipped += float(-v[neg].sum() * dx)
            new[idx] = np.where(neg, 0.0, v)

    return KineticSIRState(
        ContactDensity(grid, new[0]),
        ContactDensity(grid, new[1]),
        ContactDensity(grid, new[2]),
        clipped,
    )


def _contact_substep(
    state: KineticSIRState,
    p: KineticParams,
    c: ControlSpec,
    dt: float,
) -> KineticSIRState:
    """Implicit contact relaxation of each compartment at its own current mean.

    The compartments are the blocks of one tridiagonal solve, with the
    interface weights of the rule integrated once per run
    (fp.interface_weights).  Compartments with mass at or below MASS_FLOOR
    keep their values.  Each stepped compartment is rescaled back to its
    pre-step mass: the scheme conserves mass exactly in exact arithmetic,
    but at stiff dt/tau the tridiagonal solve leaves roundoff at the 1e-9
    level that would otherwise accumulate over thousands of steps.
    """
    grid = state.grid
    values = [f.values for f in state.densities()]
    masses = [f.mass() for f in state.densities()]
    live = [j for j, mass in enumerate(masses) if mass > MASS_FLOOR]
    if live:
        x = grid.centers()
        means = [float(x @ values[j]) * grid.dx / masses[j] for j in live]
        weights = interface_weights(grid, p, c)
        stepped = sp_step_batch(weights, [values[j] for j in live], means, dt, p.tau)
        for j, vals in zip(live, stepped):
            new_mass = vals.sum() * grid.dx
            if new_mass > 0:
                vals *= masses[j] / new_mass
            values[j] = vals
    return KineticSIRState(
        *(ContactDensity(grid, v if j in live else v.copy()) for j, v in enumerate(values)),
        clipped_mass=state.clipped_mass,
    )


def split_step(
    state: KineticSIRState,
    p: KineticParams,
    c: ControlSpec,
    e: EpidemicParams,
    dt: float,
    epidemic_first: bool = False,
) -> KineticSIRState:
    """One splitting step: contact relaxation, then epidemic exchange.

    epidemic_first swaps the substep order (used to measure the first-order
    splitting error); the default order applies the contact dynamics first.
    """
    if epidemic_first:
        return _contact_substep(epidemic_substep(state, e, dt), p, c, dt)
    return epidemic_substep(_contact_substep(state, p, c, dt), e, dt)


@dataclass
class ScenarioResult:
    """Trajectory of observables plus optional density snapshots."""

    times: np.ndarray
    macro: list[MacroState]
    second_moments: list[tuple[float, float, float]]
    snapshots: dict[float, KineticSIRState] = field(default_factory=dict)
    final_state: Optional[KineticSIRState] = None

    def column(self, name: str) -> np.ndarray:
        if name.startswith("m2_"):
            idx = "sir".index(name[3:].lower())
            return np.array([m2[idx] for m2 in self.second_moments])
        return np.array([getattr(s, name) for s in self.macro])


def run_scenario(
    initial: KineticSIRState,
    p: KineticParams,
    c: ControlSpec,
    e: EpidemicParams,
    t_final: float,
    dt: float,
    output_every: int = 1,
    snapshot_times: tuple[float, ...] = (),
    mass_tol: float = 1e-10,
) -> ScenarioResult:
    """Integrate the coupled system, recording observables every output_every steps.

    Total mass over the three compartments must stay within mass_tol of its
    initial value for the whole run.  t_final and every snapshot time must
    be whole numbers of steps.
    """
    n_steps = step_count(t_final, dt)
    snap_steps = {step_count(t, dt): t for t in snapshot_times}

    state = initial.copy()
    mass0 = state.total_mass()
    times = [0.0]
    macro = [state.macro_state()]
    m2 = [state.second_moments()]
    snapshots = {}
    if 0 in snap_steps:
        snapshots[snap_steps[0]] = state.copy()

    for k in range(1, n_steps + 1):
        state = split_step(state, p, c, e, dt)
        drift = abs(state.total_mass() - mass0)
        if drift > mass_tol * max(mass0, 1.0):
            raise InvariantViolationError(
                f"total mass drifted by {drift:.3e} at t = {k * dt}",
                t=k * dt,
            )
        if k % output_every == 0 or k == n_steps:
            times.append(k * dt)
            macro.append(state.macro_state())
            m2.append(state.second_moments())
        if k in snap_steps:
            snapshots[snap_steps[k]] = state.copy()

    return ScenarioResult(np.asarray(times), macro, m2, snapshots, state)
