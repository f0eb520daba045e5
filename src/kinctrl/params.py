"""Model constants, validation, the strategy table and the shared scalar functions.

All parameter containers are frozen dataclasses: they validate at construction
and are safe to share across workers.  Solver entry points assume validated
parameters and do not re-check.

STRATEGY_RULES is the one place where the three transition rules differ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Mapping, Optional

import numpy as np

from .errors import NumericsError

# Below this |delta| the growth law switches to its logarithmic (Gompertz)
# limit; avoids catastrophic cancellation in ((x/m)^delta - 1) / delta.
GOMPERTZ_DELTA_EPS = 1e-10

# The most fixed steps one run may take: about 1 700 times the longest bundled
# run (60 000 steps).  A larger count is a config error, not a long run.
MAX_STEPS = 10**8


def check_finite(name: str, value: float, low: float, strict: bool = False) -> None:
    """Raise ValueError naming the field unless value is finite and >= low (> low if strict)."""
    if not (math.isfinite(value) and (value > low if strict else value >= low)):
        bound = ">" if strict else ">="
        raise ValueError(f"{name} must be finite and {bound} {low:g}, got {value}")


class Strategy(Enum):
    """Which transition rule steers the contact dynamics."""

    UNCONTROLLED = "uncontrolled"
    ADDITIVE_A = "additive_a"
    INTERACTION_B = "interaction_b"


class ClosureKind(Enum):
    """Equilibrium profile used to close the macroscopic moment hierarchy.

    GAMMA corresponds to the slim-tailed equilibrium (delta = +1),
    INVERSE_GAMMA to the power-law-tailed one (delta = -1), and DIRAC to the
    zero-variance limit that collapses onto the classical SIR model.
    """

    GAMMA = "gamma"
    INVERSE_GAMMA = "inverse_gamma"
    DIRAC = "dirac"


class EquilibriumKind(Enum):
    """Closed-form steady state of a contact operator."""

    GAMMA = "gamma"
    INVERSE_GAMMA = "inverse_gamma"
    CONTROLLED_A = "controlled_a"
    CONTROLLED_B = "controlled_b"

    @classmethod
    def for_model(cls, p: "KineticParams", c: "ControlSpec") -> Optional["EquilibriumKind"]:
        """Closed-form steady state of the rule c at p.delta; None if it has none there."""
        return STRATEGY_RULES[c.strategy].steady_states.get(p.delta)


@dataclass(frozen=True)
class KineticParams:
    """Constants of the contact-formation dynamics.

    alpha   : growth rate constant (> 0)
    sigma2  : variance scale of the multiplicative noise (> 0)
    delta   : tail exponent in [-1, 1]; +1 gives slim tails, -1 power-law tails
    epsilon : quasi-invariant interaction scale (> 0)
    tau     : time scale separating contact dynamics from epidemic exchange (> 0)
    """

    alpha: float
    sigma2: float
    delta: float
    epsilon: float = 0.01
    tau: float = 1.0

    def __post_init__(self):
        for name in ("alpha", "sigma2", "epsilon", "tau"):
            check_finite(name, getattr(self, name), low=0.0, strict=True)
        if not -1.0 <= self.delta <= 1.0:
            raise ValueError(f"delta must lie in [-1, 1], got {self.delta}")
        if not np.isfinite(self.alpha / self.sigma2):
            raise ValueError("alpha / sigma2 must be finite")

    @property
    def lam(self) -> float:
        """Tail-shape parameter alpha / sigma2 (always derived, never set)."""
        return self.alpha / self.sigma2


@dataclass(frozen=True)
class EpidemicParams:
    """Transmission weights and recovery rate.

    betas  : ordered weights (beta_1, ..., beta_L) coupling the incidence to
             the first L moments of the infected contact distribution
    gamma_i: recovery rate (> 0)
    beta0  : optional contact-independent transmission weight (homogeneous
             mixing term); 0 disables it
    """

    betas: tuple[float, ...]
    gamma_i: float
    beta0: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "betas", tuple(float(b) for b in self.betas))
        for ell, beta in enumerate(self.betas, start=1):
            check_finite(f"betas[{ell}]", beta, low=0.0)
        check_finite("beta0", self.beta0, low=0.0)
        check_finite("gamma_i", self.gamma_i, low=0.0, strict=True)

    @property
    def order(self) -> int:
        """Highest contact moment entering the incidence (L)."""
        return len(self.betas)


@dataclass(frozen=True)
class ControlSpec:
    """Control strategy with its penalization weight and contact target.

    nu       : quadratic penalization on the control effort (> 0 when active)
    x_target : contact number the control steers toward (>= 0)
    """

    strategy: Strategy = Strategy.UNCONTROLLED
    nu: float = 0.0
    x_target: float = 0.0

    def __post_init__(self):
        check_finite("nu", self.nu, low=0.0, strict=self.active)
        check_finite("x_target", self.x_target, low=0.0)

    @classmethod
    def uncontrolled(cls) -> "ControlSpec":
        return cls(Strategy.UNCONTROLLED)

    @classmethod
    def additive(cls, nu: float, x_target: float) -> "ControlSpec":
        return cls(Strategy.ADDITIVE_A, nu, x_target)

    @classmethod
    def interaction(cls, nu: float, x_target: float) -> "ControlSpec":
        return cls(Strategy.INTERACTION_B, nu, x_target)

    @property
    def active(self) -> bool:
        return self.strategy is not Strategy.UNCONTROLLED


def growth_rate_times_x(x, m: float, p: KineticParams, out=None):
    """Growth law times x: (alpha / (2 delta)) ((x/m)^delta - 1) x.

    In the |delta| -> 0 limit the rate becomes the logarithmic law
    (alpha/2) ln(x/m).  The rate is strictly increasing in x and zero at
    x = m.  For delta < 0 it diverges as x -> 0, but the product with x
    stays finite, so this fused form is safe on particle arrays that may
    contain zeros.  With out, a float array shaped like x, the result is
    written there and out is returned; away from the logarithmic law that
    allocates nothing, and at delta = -1 it is one subtract and one
    multiply.  A scalar x without out gives a float.
    """
    if not m > 0:
        raise ValueError(f"reference mean must be > 0, got {m}")
    x_arr = np.asarray(x, dtype=float)
    g = np.empty_like(x_arr) if out is None else out
    if abs(p.delta) < GOMPERTZ_DELTA_EPS:
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(x_arr, m, out=g)
            np.log(g, out=g)
            np.multiply(x_arr, g, out=g)
        g[~(x_arr > 0)] = 0.0
        np.multiply(0.5 * p.alpha, g, out=g)
    else:
        if p.delta == -1.0:  # x**0.0 is exactly 1.0 for every x: skip the power
            np.subtract(1.0 / m**p.delta, x_arr, out=g)
        else:
            np.power(x_arr, 1.0 + p.delta, out=g)
            np.divide(g, m**p.delta, out=g)
            np.subtract(g, x_arr, out=g)
        np.multiply(p.alpha / (2.0 * p.delta), g, out=g)
    if out is None and np.ndim(x) == 0:
        return float(g)
    return g


def collision_kernel(x, p: KineticParams):
    """Interaction-frequency weight B(x) = x^(-(1+delta)/2).

    Identically 1 for delta = -1 (constant-rate interactions).  For
    delta > -1 the weight diverges at x = 0, where it is inf.
    """
    with np.errstate(divide="ignore"):
        return np.asarray(x, dtype=float) ** (-(1.0 + p.delta) / 2.0)


def _terms_uncontrolled(x, p, c):
    # kernel-weighted growth B(x) psi(x/m) x
    #   = (alpha/2) x^((1-delta)/2) ((x/m)^delta - 1) / delta
    #   = (alpha/2) x^((1-delta)/2) (x^delta - 1) / delta - s (alpha/2) x^((1+delta)/2)
    # with s = (1 - m^-delta) / delta; both terms stay O(1) as delta -> 0
    gain = 0.5 * p.alpha * x ** ((1.0 - p.delta) / 2.0)
    if abs(p.delta) < GOMPERTZ_DELTA_EPS:
        return gain * np.log(x), -gain
    return (
        gain * (np.expm1(p.delta * np.log(x)) / p.delta),
        -0.5 * p.alpha * x ** ((1.0 + p.delta) / 2.0),
    )


def _scalar_uncontrolled(m, p):
    if abs(p.delta) < GOMPERTZ_DELTA_EPS:
        return math.log(m)
    return -math.expm1(-p.delta * math.log(m)) / p.delta


def _terms_additive(x, p, c):
    # 0.5 alpha (x - m) + (x - x_T) / nu, with s = m
    return 0.5 * p.alpha * x + (x - c.x_target) / c.nu, np.full_like(x, -0.5 * p.alpha)


def _terms_interaction(x, p, c):
    # alpha^2 / (4 nu) (m - x)^2 (x - x_T), expanded in s = m; a numpy power overflows to inf
    k = np.float64(p.alpha) ** 2 / (4.0 * c.nu) * (x - c.x_target)
    return k * x * x, -2.0 * k * x, k


def _scalar_mean(m, p):
    return m


# The shifts overwrite g in place, with tmp (shaped like g) as scratch, so a
# caller that owns both buffers allocates nothing.  They take c as the config
# states it, at the mesoscopic level, and penalize with nu' = nu eps: the
# quasi-invariant scaling under which the particle and operator levels agree.


def _shift_uncontrolled(x, g, tmp, eps, c):
    # -eps g
    np.multiply(-eps, g, out=g)


def _shift_additive(x, g, tmp, eps, c):
    # -(nu' eps / denom) g + (eps^2 / denom) (x_T - x), denom = nu' + eps^2
    nu = c.nu * eps
    denom = nu + eps**2
    np.multiply(-(nu * eps / denom), g, out=g)
    np.subtract(c.x_target, x, out=tmp)
    np.multiply(eps**2 / denom, tmp, out=tmp)
    np.add(g, tmp, out=g)


def _shift_interaction(x, g, tmp, eps, c):
    # -q / (nu' + q) (x - x_T), q = (eps g)^2
    np.multiply(eps, g, out=g)
    np.square(g, out=g)
    np.add(c.nu * eps, g, out=tmp)
    np.negative(g, out=g)
    np.divide(g, tmp, out=g)
    np.subtract(x, c.x_target, out=tmp)
    np.multiply(g, tmp, out=g)


@dataclass(frozen=True)
class StrategyRule:
    """One transition rule at the mean-field, particle and steady-state levels.

    drift_terms(x, p, c) : (term_0, ..., term_K), K <= 2; the drift of the
                           drift-diffusion operator at mean m is
                           sum_k scalar(m, p)^k term_k(x)
    scalar(m, p)         : the one number through which the drift depends on m
    shift_into(x, g, tmp, eps, c)
                         : deterministic part of one particle transition,
                           x' - x - x eta, written over the float array
                           g = growth_rate_times_x(x, m, p); tmp is scratch,
                           and c.nu is scaled to eps c.nu inside
    steady_states        : closed-form steady-state kind, keyed by delta;
                           an active rule has one at delta = -1 only (see
                           check_operator_domain)

    With the same c at both levels, shift / eps tends to -drift as eps -> 0
    at delta = -1 (where the interaction kernel is 1).
    """

    drift_terms: Callable
    scalar: Callable
    shift_into: Callable
    steady_states: Mapping[float, EquilibriumKind]


STRATEGY_RULES: dict[Strategy, StrategyRule] = {
    Strategy.UNCONTROLLED: StrategyRule(
        _terms_uncontrolled,
        _scalar_uncontrolled,
        _shift_uncontrolled,
        {1.0: EquilibriumKind.GAMMA, -1.0: EquilibriumKind.INVERSE_GAMMA},
    ),
    Strategy.ADDITIVE_A: StrategyRule(
        _terms_additive, _scalar_mean, _shift_additive, {-1.0: EquilibriumKind.CONTROLLED_A}
    ),
    Strategy.INTERACTION_B: StrategyRule(
        _terms_interaction,
        _scalar_mean,
        _shift_interaction,
        {-1.0: EquilibriumKind.CONTROLLED_B},
    ),
}


def check_operator_domain(p: KineticParams, c: ControlSpec) -> None:
    """Raise ValueError for a controlled rule away from delta = -1, where it is not derived."""
    if c.active and p.delta != -1.0:
        raise ValueError(f"controlled operators require delta = -1, got delta = {p.delta}")


def closure_moment(kind: ClosureKind, r: int, m: float, lam: float | None = None) -> float:
    """Rth raw moment (r in {1,2,3}) of the unit-mass closure profile with mean m.

    The inverse-gamma profile ~ x^-(lam+2) e^(-lam m/x) has moments of order
    r only for lam > r - 1.  Raises NumericsError when a power of lam or m
    overflows, or lam^2 underflows to 0.
    """
    if r not in (1, 2, 3):
        raise ValueError(f"moment order must be 1, 2 or 3, got {r}")
    if not m > 0:
        raise ValueError(f"mean must be > 0, got {m}")
    try:
        if kind is ClosureKind.DIRAC:
            return m**r
        if lam is None or not lam > 0:
            raise ValueError(f"lam must be > 0 for {kind}, got {lam}")
        if kind is ClosureKind.GAMMA:
            if r == 1:
                return m
            if r == 2:
                return (lam + 1.0) / lam * m**2
            return (lam + 1.0) * (lam + 2.0) / lam**2 * m**3
        if kind is ClosureKind.INVERSE_GAMMA:
            if lam <= r - 1:
                raise ValueError(
                    f"inverse-gamma moment of order {r} requires lam > {r - 1}, got {lam}"
                )
            if r == 1:
                return m
            if r == 2:
                return lam / (lam - 1.0) * m**2
            return lam**2 / ((lam - 1.0) * (lam - 2.0)) * m**3
    except (OverflowError, ZeroDivisionError) as exc:
        raise NumericsError(f"{kind.value} moment of order {r} at m = {m!r}, lam = {lam!r} "
                            f"is not representable: {exc}") from exc
    raise ValueError(f"unknown closure kind {kind}")  # pragma: no cover


def closure_kind(delta: float) -> ClosureKind:
    """Profile that closes the uncontrolled moments: gamma at delta = +1, inverse gamma at -1."""
    if delta not in (-1.0, 1.0):
        raise ValueError(f"the closure profile is defined for delta = +/-1, got {delta}")
    return ClosureKind.GAMMA if delta == 1.0 else ClosureKind.INVERSE_GAMMA


def moment_ratio(lam: float, delta: float) -> float:
    """Ratio m2 / m^2 of the closure profile at delta (see closure_kind).

    Exceeds 1 for every valid input; lam > 1 is required at delta = -1 for
    the second moment to exist.
    """
    return closure_moment(closure_kind(delta), 2, 1.0, lam)


def step_count(t_final: float, dt: float) -> int:
    """Number of fixed steps of length dt that end exactly at t_final.

    Raises ValueError unless t_final >= 0 is a whole number of steps (to a
    relative 1e-9), so that no integrator stops short of t_final, and at
    most MAX_STEPS of them.
    """
    if not (dt > 0 and np.isfinite(dt)):
        raise ValueError(f"dt must be finite and > 0, got {dt}")
    if not (t_final >= 0 and np.isfinite(t_final)):
        raise ValueError(f"t_final must be finite and >= 0, got {t_final}")
    ratio = t_final / dt
    if ratio > MAX_STEPS:
        raise ValueError(f"t_final = {t_final} is {ratio:.3g} steps of dt = {dt}, "
                         f"more than MAX_STEPS = {MAX_STEPS}")
    n = round(ratio)
    if abs(ratio - n) > 1e-9 * max(n, 1):
        raise ValueError(f"t_final = {t_final} is not a whole number of steps dt = {dt}")
    return int(n)


def output_steps(n_steps: int, every: int) -> list[int]:
    """Steps at which a run of n_steps records its output: 0, every, 2 every, ..., and n_steps.

    Raises ValueError unless every is an int >= 1.
    """
    if isinstance(every, bool) or not isinstance(every, int) or every < 1:
        raise ValueError(f"output_every must be an int >= 1, got {every!r}")
    steps = list(range(0, n_steps + 1, every))
    if steps[-1] != n_steps:
        steps.append(n_steps)
    return steps
