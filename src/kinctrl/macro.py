"""Closed macroscopic systems: moment-closed models, classical SIR, controlled SIR.

The moment-closed systems replace second and third contact moments by moments
of the local equilibrium profile, which reduces to multiplying powers of the
mean by the ratios c2 = m2/m^2 and c3 = m3/m^3 of the closure family; the
number of betas sets the order, L1 or L2.  Under a control, at stiff scale
separation every compartment mean sits at the self-consistent mean m* of the
controlled steady state, so the incidence is rho_S rho_I times one constant:
the controlled system is classical SIR at beta = b1 M1^2 + b2 M2^2, with M1,
M2 the steady state's moments at m*.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

from .equilibria import EquilibriumDensity, controlled_steady_state
from .errors import InvariantViolationError, NumericsError
from .fp import Grid
from .params import (
    ClosureKind,
    ControlSpec,
    EpidemicParams,
    KineticParams,
    closure_moment,
    output_steps,
    step_count,
)

# Below this mass the removed compartment has no defined mean and its
# relaxation is switched off.
RHO_R_FLOOR = 1e-12

MASS_SUM_TOL = 1e-10


class MacroState(NamedTuple):
    """Compartment masses and mean contact numbers (S, I, R)."""

    rho_s: float
    rho_i: float
    rho_r: float
    m_s: float
    m_i: float
    m_r: float

    def mass_sum(self) -> float:
        return self.rho_s + self.rho_i + self.rho_r


@dataclass(frozen=True)
class ClassicalSIR:
    """Classical SIR at the homogeneous transmission rate beta (kept distinct
    from beta_1, which carries different units) and recovery rate gamma > 0.

    It closes no moments: the means it carries never move.
    """

    beta: float
    gamma: float

    def __post_init__(self):
        if self.beta < 0:
            raise ValueError(f"classical SIR needs a transmission rate beta >= 0, got {self.beta}")

    @cached_property
    def derivative(self) -> Callable[..., tuple[float, ...]]:
        """The system's time derivative, with MacroModel.derivative's contract."""
        beta, gamma = self.beta, self.gamma

        def classical_sir(rho_s, rho_i, rho_r, m_s, m_i, m_r):
            infection = beta * rho_s * rho_i
            recovery = gamma * rho_i
            return (-infection, infection - recovery, recovery, 0.0, 0.0, 0.0)

        return classical_sir


@dataclass(frozen=True)
class MacroModel:
    """The moment system closed with the `closure` profile, ready to integrate.

    One beta in `epidemic` makes it the L1 system, two the L2 system; it
    rejects more betas or a beta0 term, which it would drop.
    """

    closure: ClosureKind
    kinetic: KineticParams
    epidemic: EpidemicParams

    def __post_init__(self):
        _check_incidence(self.epidemic, "the moment-closed system")
        self.rate_constants  # raises when the profile lacks a moment this order needs

    @cached_property
    def rate_constants(self) -> tuple[float, ...]:
        """(b1, b2 c2^2, b1 (c2 - 1), b2 c2 (c3 - c2), c2, c3/c2, gamma).

        c2 = m2/m^2 and c3 = m3/m^3 are the closure profile's ratios; at L1,
        b2 = 0 and c3 = 1 (unused).  Each constant is the left-hand factor of
        its product in `derivative`, so every product rounds as if written
        out.  Raises NumericsError when a constant overflows (a lam far from 1).
        """
        b1 = self.epidemic.betas[0]
        c2 = closure_moment(self.closure, 2, 1.0, self.kinetic.lam)
        b2, c3 = 0.0, 1.0
        if self.epidemic.order == 2:
            b2 = self.epidemic.betas[1]
            c3 = closure_moment(self.closure, 3, 1.0, self.kinetic.lam)
        try:
            return (b1, b2 * c2**2, b1 * (c2 - 1.0), b2 * c2 * (c3 - c2), c2, c3 / c2,
                    self.epidemic.gamma_i)
        except OverflowError as exc:
            raise NumericsError(f"closure ratio c2 = {c2!r} overflows the rate constants "
                                f"at lam = {self.kinetic.lam!r}") from exc

    @cached_property
    def derivative(self) -> Callable[..., tuple[float, ...]]:
        """The system's time derivative, f(rho_s, rho_i, rho_r, m_s, m_i, m_r) -> 6 floats.

        Bound once per model: the rate constants are read here, so an RK4
        stage is one call on plain floats.  The susceptible mass never
        increases and the removed mass never decreases; the three mass
        derivatives cancel exactly.  Every product keeps the factor order of
        the model's equations on purpose: regrouping one (say
        b1 * (rho_s * m_s)) changes its rounding and every trajectory.
        """
        b1, b2_c2sq, b1_c2m1, b2_c2_c3mc2, c2, c3_c2, gamma = self.rate_constants

        def moment_closed(rho_s, rho_i, rho_r, m_s, m_i, m_r):
            m_s2, m_i2 = m_s**2, m_i**2
            infection = b1 * rho_s * m_s * rho_i * m_i + b2_c2sq * rho_s * m_s2 * rho_i * m_i2
            d_m_s = -(b1_c2m1 * m_s2 * rho_i * m_i + b2_c2_c3mc2 * m_s**3 * rho_i * m_i2)
            d_m_i = rho_s * m_s * m_i * (
                b1 * (c2 * m_s - m_i)
                + b2_c2sq * (c3_c2 * m_s - m_i) * m_s * m_i
            )
            d_m_r = 0.0 if rho_r < RHO_R_FLOOR else gamma * (rho_i / rho_r) * (m_i - m_r)
            recovery = gamma * rho_i
            return (-infection, infection - recovery, recovery, d_m_s, d_m_i, d_m_r)

        return moment_closed


def _check_incidence(epidemic: EpidemicParams, system: str) -> None:
    """Reject an incidence the system would not keep whole: beta0, or other than 1 or 2 betas."""
    if epidemic.order not in (1, 2):
        raise ValueError(f"{system} takes 1 or 2 epidemic.betas, got {epidemic.order}")
    if epidemic.beta0 > 0:
        raise ValueError(f"{system} has no beta0 term, got epidemic.beta0 = {epidemic.beta0}")


def rhs(model: MacroModel | ClassicalSIR, s: MacroState) -> MacroState:
    """Time derivative of the closed system at state s: model.derivative as a MacroState."""
    return MacroState(*model.derivative(*s))


def _self_consistent_state(
    p: KineticParams, c: ControlSpec, grid: Grid, m0: float
) -> tuple[float, EquilibriumDensity]:
    """The fixed point m* of m -> mean(controlled steady state at m), and the steady state at m*.

    Secant steps on r(m) = mean(m) - m from m0, started by one fixed-point
    step, until the step (the estimated distance to the root) is at most
    1e-12 max(1, |m|) or r is a few ulps of m.  A weak control flattens r
    (slope about -k/(lam + k) for control A), so a small r alone does not put
    m near the root.
    """
    f = controlled_steady_state(p, c, m0, grid)
    m_prev, r_prev = m0, f.raw_moment(1) - m0
    m = m0 + r_prev
    for _ in range(50):
        f = controlled_steady_state(p, c, m, grid)
        r = f.raw_moment(1) - m
        scale = max(1.0, abs(m))
        if abs(r) <= 4.0 * sys.float_info.epsilon * scale:
            return m, f
        if r == r_prev:
            break
        step = r * (m - m_prev) / (r - r_prev)
        if abs(step) <= 1e-12 * scale:
            return m, f
        m, m_prev, r_prev = m - step, m, r
    raise InvariantViolationError(f"self-consistent mean did not converge from m0 = {m0}")


def controlled_sir(
    p: KineticParams, e: EpidemicParams, c: ControlSpec, grid: Grid, m0: float
) -> tuple[ClassicalSIR, float]:
    """The controlled macro system, as classical SIR, and its self-consistent mean m*.

    m* is found from the initial guess m0; beta = b1 M1^2 + b2 M2^2 from the
    first and second moments of the controlled steady state at m* (b2 = 0 at
    first order).  Trajectories start from means m*, which this system
    holds fixed.  Rejects an incidence with beta0 or more than two betas.
    """
    _check_incidence(e, "the controlled macro system")
    m_star, f = _self_consistent_state(p, c, grid, m0)
    b2 = e.betas[1] if e.order > 1 else 0.0
    try:
        beta = e.betas[0] * f.raw_moment(1) ** 2 + b2 * f.raw_moment(2) ** 2
    except OverflowError as exc:
        raise NumericsError(f"the contact moments of the steady state at m* = {m_star!r} "
                            "overflow beta") from exc
    return ClassicalSIR(beta, e.gamma_i), m_star


def rk4_integrate(
    model: MacroModel | ClassicalSIR, s0: MacroState, dt: float, t_final: float,
    output_every: int = 1,
) -> tuple[list[float], list[MacroState]]:
    """Classical fourth-order Runge-Kutta integration of model.derivative with a fixed step.

    Returns the time and the state at output_steps(n_steps, output_every),
    t = 0 included; the steps between are computed but not kept.  The
    compartment masses must keep summing to their initial total within
    MASS_SUM_TOL at every step; a violation, or a step that overflows, aborts
    with the previous step's time and state attached to the raised
    InvariantViolationError, whether or not that step was an output step.
    The stages are written out component by component and call the bound
    derivative on plain floats: the step's cost is otherwise interpreter
    overhead.
    """
    n_steps = step_count(t_final, dt)
    times = [k * dt for k in output_steps(n_steps, output_every)]
    f = model.derivative
    half, sixth = 0.5 * dt, dt / 6.0
    target_sum = s0.mass_sum()
    states = [s0]
    y1, y2, y3, y4, y5, y6 = s0
    try:
        for k in range(1, n_steps + 1):
            a1, a2, a3, a4, a5, a6 = f(y1, y2, y3, y4, y5, y6)
            b1, b2, b3, b4, b5, b6 = f(y1 + half * a1, y2 + half * a2, y3 + half * a3,
                                       y4 + half * a4, y5 + half * a5, y6 + half * a6)
            c1, c2, c3, c4, c5, c6 = f(y1 + half * b1, y2 + half * b2, y3 + half * b3,
                                       y4 + half * b4, y5 + half * b5, y6 + half * b6)
            d1, d2, d3, d4, d5, d6 = f(y1 + dt * c1, y2 + dt * c2, y3 + dt * c3,
                                       y4 + dt * c4, y5 + dt * c5, y6 + dt * c6)
            z1 = y1 + sixth * (a1 + 2.0 * b1 + 2.0 * c1 + d1)
            z2 = y2 + sixth * (a2 + 2.0 * b2 + 2.0 * c2 + d2)
            z3 = y3 + sixth * (a3 + 2.0 * b3 + 2.0 * c3 + d3)
            # the masses are checked before the state moves on, so a failing
            # step reports the state it started from
            mass = z1 + z2 + z3
            if not math.isfinite(mass) or abs(mass - target_sum) > MASS_SUM_TOL:
                raise InvariantViolationError(
                    f"compartment masses summed to {mass!r} at t = {k * dt}",
                    t=(k - 1) * dt,
                    last_state=MacroState(y1, y2, y3, y4, y5, y6),
                )
            y1, y2, y3 = z1, z2, z3
            y4 = y4 + sixth * (a4 + 2.0 * b4 + 2.0 * c4 + d4)
            y5 = y5 + sixth * (a5 + 2.0 * b5 + 2.0 * c5 + d5)
            y6 = y6 + sixth * (a6 + 2.0 * b6 + 2.0 * c6 + d6)
            if k % output_every == 0 or k == n_steps:
                states.append(MacroState(y1, y2, y3, y4, y5, y6))
    except OverflowError as exc:
        raise InvariantViolationError(f"macro step overflowed at t = {k * dt}: {exc}",
                                      t=(k - 1) * dt,
                                      last_state=MacroState(y1, y2, y3, y4, y5, y6)) from exc
    return times, states
