"""Closed-form equilibrium contact distributions and the tail classifier.

Every density here is normalized by composite-midpoint quadrature on its
construction grid (one code path for all kinds); the textbook normalization
constants of the gamma / inverse-gamma families appear only in tests, as
oracles.  Which kind belongs to which transition rule is read from the
strategy table in params (EquilibriumKind.for_model).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import NumericsError, TailInconclusiveError
from .fp import ContactDensity, Grid
from .params import ControlSpec, EquilibriumKind, KineticParams

# Boundary guard: if the extrapolated mass beyond x_max exceeds this fraction,
# the construction grid is too small for the requested density.
_TAIL_MASS_LIMIT = 1e-3


def _log_shape_gamma(x: np.ndarray, p: KineticParams, c, m: float) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return (p.lam - 1.0) * np.log(x) - p.lam * x / m


def _log_shape_inverse_gamma(x: np.ndarray, p: KineticParams, c, m: float) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return -(p.lam + 2.0) * np.log(x) - p.lam * m / x


def _log_shape_controlled_a(
    x: np.ndarray, p: KineticParams, c: ControlSpec, m: float
) -> np.ndarray:
    lam = p.lam
    with np.errstate(divide="ignore"):
        ctrl = 2.0 / (np.float64(p.sigma2) * c.nu)  # inf, not a raise, if the product underflows
        return -(lam + 2.0 + ctrl) * np.log(x) - (lam * m + ctrl * c.x_target) / x


def _log_shape_controlled_b(
    x: np.ndarray, p: KineticParams, c: ControlSpec, m: float
) -> np.ndarray:
    """Zero-flux solution of the interaction-control operator, in closed form:

        log f = -(2 + l) ln x - k (x^2/2 - (2m + x_T) x + m^2 x_T / x),
        k = alpha^2 / (2 sigma^2 nu),  l = k (m^2 + 2 x_T m).
    """
    alpha, m = np.float64(p.alpha), np.float64(m)  # numpy powers overflow to inf, not raise
    k = alpha**2 / (2.0 * p.sigma2 * c.nu)
    ell = k * (m**2 + 2.0 * c.x_target * m)
    with np.errstate(divide="ignore"):
        return -(2.0 + ell) * np.log(x) - k * (
            0.5 * x**2 - (2.0 * m + c.x_target) * x + m**2 * c.x_target / x
        )


_LOG_SHAPES = {
    EquilibriumKind.GAMMA: _log_shape_gamma,
    EquilibriumKind.INVERSE_GAMMA: _log_shape_inverse_gamma,
    EquilibriumKind.CONTROLLED_A: _log_shape_controlled_a,
    EquilibriumKind.CONTROLLED_B: _log_shape_controlled_b,
}


class EquilibriumDensity(ContactDensity):
    """The unit-mass closed-form steady state of one rule on a grid.

    The kind of steady state is the rule's (EquilibriumKind.for_model); a
    rule with none at p.delta raises ValueError.  The raw shape is scaled to
    unit mass under midpoint quadrature on the grid.  Its log values stay
    finite where the values themselves underflow to 0.
    """

    def __init__(
        self,
        params: KineticParams,
        mean_ref: float,
        grid: Grid,
        control: Optional[ControlSpec] = None,
    ):
        if not mean_ref > 0:
            raise ValueError(f"mean_ref must be > 0, got {mean_ref}")
        rule = control or ControlSpec.uncontrolled()
        kind = EquilibriumKind.for_model(params, rule)
        if kind is None:
            raise ValueError(
                f"{rule.strategy.value} has no closed-form steady state "
                f"at delta = {params.delta}"
            )
        self.kind = kind
        self.grid = grid

        log_vals = _LOG_SHAPES[kind](grid.centers(), params, control, float(mean_ref))
        log_peak = float(log_vals.max())
        shifted = np.exp(log_vals - log_peak)
        total = shifted.sum() * grid.dx
        if not np.isfinite(total) or total <= 0:
            raise NumericsError(f"normalization failed for {kind} on this grid")
        # log of the unit-mass density; its normalizing constant may overflow
        # for extreme shapes, so it is only ever applied in logs
        self._log_values = log_vals + (-log_peak - float(np.log(total)))
        self.values = shifted / total

    def log_values(self) -> np.ndarray:
        return self._log_values


def _check_tail_resolved(values: np.ndarray, grid: Grid) -> None:
    """Raise if the density visibly continues past the right edge of the grid."""
    v = values
    if v[-1] <= 0.0:
        return
    x = grid.centers()
    with np.errstate(divide="ignore"):
        slope = (np.log(v[-1]) - np.log(v[-2])) / (np.log(x[-1]) - np.log(x[-2]))
    if slope < -1.0:
        tail = v[-1] * x[-1] / (-slope - 1.0)
    else:
        tail = np.inf
    if tail > _TAIL_MASS_LIMIT:
        raise NumericsError(
            f"estimated mass {tail:.2e} beyond x_max = {grid.x_max}; grid too small"
        )


def controlled_steady_state(
    p: KineticParams, c: ControlSpec, m: float, grid: Grid
) -> EquilibriumDensity:
    """Closed-form steady state of the controlled contact operator, unit mass on the grid.

    Requires delta = -1, the only delta at which the controlled rules have one.
    """
    if not c.active:
        raise ValueError(
            f"controlled steady states need an active control, got {c.strategy.value}"
        )
    density = EquilibriumDensity(p, m, grid, control=c)
    _check_tail_resolved(density.values, grid)
    return density


class TailKind(Enum):
    POWER_LAW = "power_law"
    SLIM_TAIL = "slim_tail"


@dataclass(frozen=True)
class TailClassification:
    kind: TailKind
    exponent: Optional[float] = None


def tail_classify(
    f: ContactDensity, window: tuple[float, float]
) -> TailClassification:
    """Classify the decay of f on an x-window as power-law or slim-tailed.

    Fits the local log-log slope s(x) of f.log_values(), so an
    EquilibriumDensity whose values underflow on the window still
    classifies; a density with a zero cell on the window raises ValueError.
    If s varies by less than 10% across the window, the tail is a power law
    and the fitted exponent is returned.  If s decreases monotonically and
    more than doubles in magnitude across the window, the decay is faster
    than any power: slim tail.  Anything else is inconclusive.
    """
    lo, hi = window
    if not 0 < lo < hi:
        raise ValueError(f"window must satisfy 0 < lo < hi, got {window}")
    if hi > f.grid.x_max:
        raise ValueError(f"window {window} extends past the grid (x_max = {f.grid.x_max})")
    x = f.grid.centers()
    sel = (x >= lo) & (x <= hi)
    if sel.sum() < 8:
        raise ValueError(f"window {window} covers fewer than 8 cells")
    log_v = f.log_values()[sel]
    if not np.all(np.isfinite(log_v)):
        raise ValueError("density must be strictly positive on the window")

    log_x = np.log(x[sel])
    slopes = np.diff(log_v) / np.diff(log_x)
    mean_slope = slopes.mean()
    variation = (slopes.max() - slopes.min()) / abs(mean_slope)
    if variation < 0.10:
        # least-squares exponent over the window
        coef = np.polyfit(log_x, log_v, 1)[0]
        return TailClassification(TailKind.POWER_LAW, float(coef))

    decreasing = np.all(np.diff(slopes) <= 1e-9 * np.abs(slopes[:-1]) + 1e-12)
    if decreasing and abs(slopes[-1]) > 2.0 * abs(slopes[0]):
        return TailClassification(TailKind.SLIM_TAIL)
    raise TailInconclusiveError(
        f"slope varies {variation:.1%} without monotone steepening on {window}"
    )
