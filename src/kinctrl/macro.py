"""Closed macroscopic systems: classical SIR, moment-closed models, controlled variants.

The moment-closed systems replace second and third contact moments by moments
of the local equilibrium profile, which reduces to multiplying powers of the
mean by the ratios c2 = m2/m^2 and c3 = m3/m^3 of the closure family.  The
controlled systems evolve compartment masses only: at stiff scale separation
the compartment means sit at the self-consistent fixed point of the
controlled steady state, and the incidence moments follow from quadrature
over that steady state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import NamedTuple, Optional

from .equilibria import controlled_steady_state
from .errors import InvariantViolationError
from .fp import Grid
from .params import (
    ClosureKind,
    ControlSpec,
    EpidemicParams,
    KineticParams,
    closure_moment,
    step_count,
)

# Below this mass the removed compartment has no defined mean and its
# relaxation is switched off.
RHO_R_FLOOR = 1e-12

MASS_SUM_TOL = 1e-10


class MacroVariant(Enum):
    CLASSICAL_SIR = "classical_sir"
    L1 = "l1"
    L2 = "l2"


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
class MacroModel:
    """A closed macroscopic system ready to integrate.

    variant CLASSICAL_SIR uses the homogeneous transmission rate `beta`
    (kept distinct from beta_1, which carries different units).  L1 and L2
    read beta_1 / beta_2 from `epidemic` and close with `closure`.
    """

    variant: MacroVariant
    closure: ClosureKind
    kinetic: KineticParams
    epidemic: EpidemicParams
    beta: Optional[float] = None

    def __post_init__(self):
        if self.variant is MacroVariant.CLASSICAL_SIR:
            if self.beta is None or self.beta < 0:
                raise ValueError("classical SIR needs a transmission rate beta >= 0")
            return
        n_betas = self.epidemic.order
        if self.variant is MacroVariant.L1 and n_betas < 1:
            raise ValueError("L1 model needs beta_1")
        if self.variant is MacroVariant.L2 and n_betas < 2:
            raise ValueError("L2 model needs beta_1 and beta_2")
        self.closure_ratios  # raises when the profile lacks a moment this order needs

    @cached_property
    def closure_ratios(self) -> tuple[float, float]:
        """(c2, c3) = (m2/m^2, m3/m^3) of the closure profile; c3 = 1 (unused) at L1."""
        c2 = closure_moment(self.closure, 2, 1.0, self.kinetic.lam)
        if self.variant is not MacroVariant.L2:
            return c2, 1.0
        return c2, closure_moment(self.closure, 3, 1.0, self.kinetic.lam)


def rhs(model: MacroModel, s: MacroState) -> MacroState:
    """Time derivative of the closed system at state s.

    The susceptible mass never increases and the removed mass never
    decreases; the three mass derivatives cancel exactly.
    """
    gamma = model.epidemic.gamma_i
    if model.variant is MacroVariant.CLASSICAL_SIR:
        infection = model.beta * s.rho_s * s.rho_i
        return MacroState(
            -infection, infection - gamma * s.rho_i, gamma * s.rho_i, 0.0, 0.0, 0.0
        )

    c2, c3 = model.closure_ratios
    b1 = model.epidemic.betas[0]
    b2 = model.epidemic.betas[1] if model.variant is MacroVariant.L2 else 0.0

    infection = (
        b1 * s.rho_s * s.m_s * s.rho_i * s.m_i
        + b2 * c2**2 * s.rho_s * s.m_s**2 * s.rho_i * s.m_i**2
    )
    d_rho_s = -infection
    d_rho_i = infection - gamma * s.rho_i
    d_rho_r = gamma * s.rho_i

    d_m_s = -(
        b1 * (c2 - 1.0) * s.m_s**2 * s.rho_i * s.m_i
        + b2 * c2 * (c3 - c2) * s.m_s**3 * s.rho_i * s.m_i**2
    )
    d_m_i = s.rho_s * s.m_s * s.m_i * (
        b1 * (c2 * s.m_s - s.m_i)
        + b2 * c2**2 * ((c3 / c2) * s.m_s - s.m_i) * s.m_s * s.m_i
    )
    if s.rho_r < RHO_R_FLOOR:
        d_m_r = 0.0
    else:
        d_m_r = gamma * (s.rho_i / s.rho_r) * (s.m_i - s.m_r)
    return MacroState(d_rho_s, d_rho_i, d_rho_r, d_m_s, d_m_i, d_m_r)


def peak_contacts(
    closure: ClosureKind, order: MacroVariant, m_s0: float, lam: float
) -> float:
    """Upper bound reached by the infected mean when only the highest moment drives.

    For the first-order system the bound is c2 * m_S(0); for the second-order
    system with beta_1 = 0 it is (c3/c2) * m_S(0).
    """
    if order is MacroVariant.L1:
        return closure_moment(closure, 2, 1.0, lam) * m_s0
    if order is MacroVariant.L2:
        c3 = closure_moment(closure, 3, 1.0, lam)
        return c3 / closure_moment(closure, 2, 1.0, lam) * m_s0
    raise ValueError(f"peak bound defined for L1/L2 only, got {order}")


@dataclass
class ControlledMacroModel:
    """Mass-exchange system closed over the controlled steady state.

    Moments (m, m2) per compartment come from quadrature over the controlled
    steady state evaluated at the compartment's current mean; results are
    cached on the exact mean, which stays constant over an RK4 step because
    the means do not evolve.  Compartment means themselves are
    pinned by the stiff contact dynamics, so their macroscopic derivative is
    zero and trajectories should start from the self-consistent mean.
    """

    kinetic: KineticParams
    epidemic: EpidemicParams
    control: ControlSpec
    grid: Grid
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not self.control.active:
            raise ValueError("ControlledMacroModel needs an active control strategy")
        if self.epidemic.order < 1:
            raise ValueError("controlled macro system needs at least beta_1")

    def moments_for_mean(self, m: float) -> tuple[float, float]:
        """(first, second) moment of the controlled steady state at reference mean m."""
        hit = self._cache.get(m)
        if hit is None:
            f = controlled_steady_state(self.kinetic, self.control, m, self.grid)
            hit = self._cache[m] = (f.raw_moment(1), f.raw_moment(2))
        return hit

    def self_consistent_mean(self, m0: float, tol: float = 1e-12, max_iter: int = 50) -> float:
        """Fixed point m* of m -> mean(steady state at m), from initial guess m0.

        Secant steps on the residual r(m) = mean(m) - m, started by one plain
        fixed-point step; stops once |r(m)| <= tol max(1, |m|) and returns
        that m.
        """
        m_prev = m0
        r_prev = self.moments_for_mean(m0)[0] - m0
        m = m0 + r_prev
        for _ in range(max_iter):
            r = self.moments_for_mean(m)[0] - m
            if abs(r) <= tol * max(1.0, abs(m)):
                return m
            if r == r_prev:
                break
            m, m_prev, r_prev = m - r * (m - m_prev) / (r - r_prev), m, r
        raise InvariantViolationError(
            f"self-consistent mean did not converge from m0 = {m0}"
        )


def controlled_rhs(model: ControlledMacroModel, s: MacroState) -> MacroState:
    """Mass derivatives of the controlled system at state s.

    The incidence moments (m, m2) of S and I come (through the cache) from
    the steady states at the state's current means.
    """
    m_s, m2_s = model.moments_for_mean(s.m_s)
    m_i, m2_i = model.moments_for_mean(s.m_i)
    betas = model.epidemic.betas
    b1 = betas[0]
    b2 = betas[1] if len(betas) > 1 else 0.0
    gamma = model.epidemic.gamma_i

    infection = (
        b1 * s.rho_s * m_s * s.rho_i * m_i + b2 * s.rho_s * m2_s * s.rho_i * m2_i
    )
    return MacroState(
        -infection, infection - gamma * s.rho_i, gamma * s.rho_i, 0.0, 0.0, 0.0
    )


def rk4_integrate(
    model, s0: MacroState, dt: float, t_final: float
) -> tuple[list[float], list[MacroState]]:
    """Classical fourth-order Runge-Kutta integration with a fixed step.

    Works for both MacroModel (closed systems) and ControlledMacroModel.
    Returns the time and the state after every step, t = 0 included.  The
    compartment masses must keep summing to their initial total within
    MASS_SUM_TOL at every step; a violation aborts with the last valid state
    attached to the raised error.
    """
    n_steps = step_count(t_final, dt)
    f = controlled_rhs if isinstance(model, ControlledMacroModel) else rhs
    half, sixth = 0.5 * dt, dt / 6.0
    target_sum = s0.mass_sum()
    times = [0.0]
    states = [s0]
    y = s0
    for k in range(1, n_steps + 1):
        k1 = f(model, y)
        k2 = f(model, MacroState._make(yi + half * ki for yi, ki in zip(y, k1)))
        k3 = f(model, MacroState._make(yi + half * ki for yi, ki in zip(y, k2)))
        k4 = f(model, MacroState._make(yi + dt * ki for yi, ki in zip(y, k3)))
        y = MacroState._make(
            yi + sixth * (a + 2.0 * b + 2.0 * c + d)
            for yi, a, b, c, d in zip(y, k1, k2, k3, k4)
        )
        mass = y.mass_sum()
        if not math.isfinite(mass) or abs(mass - target_sum) > MASS_SUM_TOL:
            raise InvariantViolationError(
                f"compartment masses summed to {mass!r} at t = {k * dt}",
                t=times[-1],
                last_state=states[-1],
            )
        times.append(k * dt)
        states.append(y)
    return times, states
