"""Structure-preserving finite-volume solver for the contact drift-diffusion operators.

The three operators (uncontrolled, additive control A, interaction control B)
share the flux form

    d/dt f = (1/tau) d/dx [ C(x) f + d/dx (D(x) f) ]

on a uniform cell grid over [0, x_max] with zero-flux boundaries.  The scheme
uses exponentially fitted interface weights (Scharfetter-Gummel / Chang-Cooper
type), which makes the discrete steady state satisfy

    f_{i+1} / f_i = exp(-w_{i+1/2}),
    w_{i+1/2} = int_{x_i}^{x_{i+1}} (C/D) ds + ln D(x_{i+1}) - ln D(x_i),

i.e. the cell-by-cell integrating-factor solution of the zero-flux equation.
An implicit (backward Euler) step is a tridiagonal M-matrix solve, so mass is
conserved and no cell can go negative for any step size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg import solve_banded

from .errors import NumericsError
from .params import STRATEGY_RULES, ControlSpec, KineticParams

# Gauss-Legendre nodes/weights on [-1, 1] used for the per-interface
# quadrature of C/D; 5 points keep the discrete equilibrium within roundoff
# of the exact integrating factor on the grids used here.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(5)


@dataclass(frozen=True)
class Grid:
    """Uniform cell partition of [0, x_max]; cell centers sit at (i + 1/2) dx."""

    x_max: float
    n_cells: int

    def __post_init__(self):
        if not self.x_max > 0:
            raise ValueError(f"x_max must be > 0, got {self.x_max}")
        if self.n_cells < 2:
            raise ValueError(f"n_cells must be >= 2, got {self.n_cells}")

    @property
    def dx(self) -> float:
        return self.x_max / self.n_cells

    def centers(self) -> np.ndarray:
        return (np.arange(self.n_cells) + 0.5) * self.dx

    def interior_interfaces(self) -> np.ndarray:
        """Interface abscissae between neighbouring cells (excludes 0 and x_max)."""
        return np.arange(1, self.n_cells) * self.dx


@dataclass
class ContactDensity:
    """Cell-centered density of contact numbers for one compartment."""

    grid: Grid
    values: np.ndarray
    compartment: Optional[str] = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_cells,):
            raise ValueError(
                f"values shape {self.values.shape} does not match grid with "
                f"{self.grid.n_cells} cells"
            )

    def mass(self) -> float:
        return float(self.values.sum() * self.grid.dx)

    def raw_moment(self, r: int) -> float:
        """int x^r f dx over the grid (not normalized by the mass)."""
        x = self.grid.centers()
        return float((x**r * self.values).sum() * self.grid.dx)

    def mean(self) -> float:
        m = self.mass()
        if m <= 0:
            raise ValueError("mean undefined for a density with non-positive mass")
        return self.raw_moment(1) / m

    def normalized(self) -> "ContactDensity":
        m = self.mass()
        if m <= 0:
            raise ValueError("cannot normalize a density with non-positive mass")
        return ContactDensity(self.grid, self.values / m, self.compartment)

    def copy(self) -> "ContactDensity":
        return ContactDensity(self.grid, self.values.copy(), self.compartment)


def uniform_density(grid: Grid, low: float, high: float, compartment: Optional[str] = None) -> ContactDensity:
    """Unit-mass density uniform on [low, high], discretized on the grid."""
    if not 0 <= low < high <= grid.x_max:
        raise ValueError(f"need 0 <= low < high <= x_max, got [{low}, {high}]")
    x = grid.centers()
    vals = np.where((x >= low) & (x <= high), 1.0, 0.0)
    total = vals.sum() * grid.dx
    if total <= 0:
        raise ValueError("uniform window does not cover any cell center")
    return ContactDensity(grid, vals / total, compartment)


@dataclass(frozen=True)
class DriftDiffusion:
    """Drift C(x) and diffusion D(x) of one contact operator.

    The diffusion is (sigma^2/2) x^(2-(1+delta)/2) for every operator; only
    the drift differs between the uncontrolled and the two controlled rules.
    """

    drift: Callable[[np.ndarray], np.ndarray]
    diffusion: Callable[[np.ndarray], np.ndarray]


def build_operator(p: KineticParams, c: ControlSpec, m: float) -> DriftDiffusion:
    """Drift/diffusion pair for the selected transition rule at reference mean m.

    The drift is the rule's row of the strategy table.  Controlled operators
    are derived at delta = -1 only; requesting one at any other delta is a
    domain error.
    """
    if not m > 0:
        raise ValueError(f"reference mean must be > 0, got {m}")
    if c.active and p.delta != -1.0:
        raise ValueError(
            f"controlled operators require delta = -1, got delta = {p.delta}"
        )

    diff_exp = 2.0 - (1.0 + p.delta) / 2.0
    sig_half = 0.5 * p.sigma2
    rule_drift = STRATEGY_RULES[c.strategy].drift

    def diffusion(x: np.ndarray) -> np.ndarray:
        return sig_half * np.asarray(x, dtype=float) ** diff_exp

    def drift(x: np.ndarray) -> np.ndarray:
        return rule_drift(np.asarray(x, dtype=float), m, p, c)

    return DriftDiffusion(drift, diffusion)


def _bernoulli(w: np.ndarray) -> np.ndarray:
    """w / (exp(w) - 1), evaluated without overflow for any w."""
    w = np.asarray(w, dtype=float)
    out = np.empty_like(w)
    small = np.abs(w) < 1e-8
    out[small] = 1.0 - 0.5 * w[small] + w[small] ** 2 / 12.0
    pos = (w >= 1e-8) & (w < 700.0)
    out[pos] = w[pos] * np.exp(-w[pos]) / (1.0 - np.exp(-w[pos]))
    out[w >= 700.0] = 0.0
    neg = (w <= -1e-8) & (w > -700.0)
    out[neg] = w[neg] / np.expm1(w[neg])
    out[w <= -700.0] = -w[w <= -700.0]
    return out


def interface_log_ratios(op: DriftDiffusion, grid: Grid) -> np.ndarray:
    """Log-ratios w_{i+1/2} = -ln(f_{i+1}/f_i) of the zero-flux solution.

    The C/D part is integrated with Gauss-Legendre nodes between neighbouring
    cell centers; the ln D difference is exact.
    """
    x = grid.centers()
    lo, hi = x[:-1], x[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = mid[None, :] + half[None, :] * _GL_NODES[:, None]
    ratio = op.drift(nodes) / op.diffusion(nodes)
    quad = (half * np.einsum("q,qi->i", _GL_WEIGHTS, ratio))
    d_centers = op.diffusion(x)
    return quad + np.log(d_centers[1:]) - np.log(d_centers[:-1])


class SpStepper:
    """Pre-assembled implicit step for a fixed operator, grid and step size.

    Reusing the stepper across steps avoids re-integrating the interface
    weights when the drift does not change (frozen reference mean).
    """

    def __init__(self, grid: Grid, op: DriftDiffusion, dt: float, tau: float):
        if not dt > 0:
            raise ValueError(f"dt must be > 0, got {dt}")
        if not tau > 0:
            raise ValueError(f"tau must be > 0, got {tau}")
        self.grid = grid
        self.dt = dt
        self.tau = tau
        n = grid.n_cells
        dx = grid.dx

        x_if = grid.interior_interfaces()
        d_if = np.asarray(op.diffusion(x_if), dtype=float)
        self._degenerate = bool(np.all(d_if == 0.0))
        if self._degenerate:
            # zero-diffusion operator: only the trivial (zero-drift) case is
            # representable with these weights; step is the identity
            if np.any(np.asarray(op.drift(grid.centers()), dtype=float) != 0.0):
                raise NumericsError(
                    "operator with zero diffusion but non-zero drift is not "
                    "representable by the exponential-fitting scheme"
                )
            return

        w = interface_log_ratios(op, grid)
        b_plus = _bernoulli(w)     # multiplies the left cell in the flux
        b_minus = _bernoulli(-w)   # multiplies the right cell in the flux
        c = dt / (tau * dx * dx)
        flux_l = c * d_if * b_plus    # coefficient of f_{k-1} in flux k
        flux_r = c * d_if * b_minus   # coefficient of f_k in flux k

        diag = np.ones(n)
        diag[:-1] += flux_l           # outflow through right interface
        diag[1:] += flux_r            # outflow through left interface
        lower = np.zeros(n)
        lower[:-1] = -flux_l          # row k, column k-1 (shifted for banded)
        upper = np.zeros(n)
        upper[1:] = -flux_r           # row k, column k+1

        self._ab = np.vstack([upper, diag, lower])
        self._w = w

    def step(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if self._degenerate:
            return values.copy()
        try:
            out = solve_banded((1, 1), self._ab, values)
        except np.linalg.LinAlgError as exc:  # pragma: no cover
            raise NumericsError(f"tridiagonal solve failed: {exc}") from exc
        if not np.all(np.isfinite(out)):
            raise NumericsError("implicit contact step produced non-finite values")
        return out


def sp_step(f: ContactDensity, op: DriftDiffusion, dt: float, tau: float) -> ContactDensity:
    """One implicit structure-preserving step of length dt at time scale tau.

    Preserves mass (exactly in exact arithmetic; to roundoff in floating
    point), non-negativity, and the discrete equilibrium of the operator.
    """
    stepper = SpStepper(f.grid, op, dt, tau)
    return ContactDensity(f.grid, stepper.step(f.values), f.compartment)


def steady_state_solve(op: DriftDiffusion, grid: Grid) -> ContactDensity:
    """Zero-flux solution of C f + d/dx(D f) = 0, unit mass on the grid.

    Built in log space from the same interface log-ratios the implicit scheme
    uses, so the long-time limit of sp_step matches this density to solver
    precision.
    """
    w = interface_log_ratios(op, grid)
    log_f = np.concatenate([[0.0], -np.cumsum(w)])
    log_f -= log_f.max()
    vals = np.exp(log_f)
    total = vals.sum() * grid.dx
    if not total > 0 or not np.isfinite(total):
        raise NumericsError("steady-state normalization failed on this grid")
    return ContactDensity(grid, vals / total)
