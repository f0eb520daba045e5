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

Each rule's drift depends on the reference mean m only through one scalar
s(m), as a polynomial of degree <= 2, so w(m) is the same polynomial in s(m)
over a basis that interface_weights integrates once per (grid, params,
control).  sp_step_batch then steps several densities, each at its own mean,
as the blocks of one tridiagonal system.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from numbers import Integral
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dgtsv

from .errors import NumericsError
from .params import STRATEGY_RULES, ControlSpec, KineticParams, check_finite

# Gauss-Legendre nodes/weights on [-1, 1] used for the per-interface
# quadrature of C/D; 5 points keep the discrete equilibrium within roundoff
# of the exact integrating factor on the grids used here.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(5)

_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class Grid:
    """Uniform cell partition of [0, x_max]; cell centers sit at (i + 1/2) dx."""

    x_max: float
    n_cells: int

    def __post_init__(self):
        check_finite("x_max", self.x_max, low=0.0, strict=True)
        if not isinstance(self.n_cells, Integral) or self.n_cells < 2:
            raise ValueError(f"n_cells must be an integer >= 2, got {self.n_cells}")

    @property
    def dx(self) -> float:
        return self.x_max / self.n_cells

    def centers(self) -> np.ndarray:
        return (np.arange(self.n_cells) + 0.5) * self.dx

    def interior_interfaces(self) -> np.ndarray:
        """Interface abscissae between neighbouring cells (excludes 0 and x_max)."""
        return np.arange(1, self.n_cells) * self.dx


@dataclass(eq=False)
class ContactDensity:
    """Cell-centered density of contact numbers for one compartment."""

    grid: Grid
    values: np.ndarray

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
        return ContactDensity(self.grid, self.values / m)

    def log_values(self) -> np.ndarray:
        """ln f in every cell; -inf where the density is 0."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(self.values)


def uniform_density(grid: Grid, low: float, high: float) -> ContactDensity:
    """Unit-mass density uniform on [low, high], discretized on the grid."""
    if not 0 <= low < high <= grid.x_max:
        raise ValueError(f"need 0 <= low < high <= x_max, got [{low}, {high}]")
    x = grid.centers()
    vals = np.where((x >= low) & (x <= high), 1.0, 0.0)
    total = vals.sum() * grid.dx
    if total <= 0:
        raise ValueError("uniform window does not cover any cell center")
    return ContactDensity(grid, vals / total)


@dataclass(frozen=True)
class DriftDiffusion:
    """Drift C(x) and diffusion D(x) of one contact operator.

    The diffusion is (sigma^2/2) x^(2-(1+delta)/2) for every operator; only
    the drift differs between the uncontrolled and the two controlled rules.
    """

    drift: Callable[[np.ndarray], np.ndarray]
    diffusion: Callable[[np.ndarray], np.ndarray]


def check_operator_domain(p: KineticParams, c: ControlSpec) -> None:
    """Raise ValueError for a controlled rule away from delta = -1, where it has no operator."""
    if c.active and p.delta != -1.0:
        raise ValueError(
            f"controlled operators require delta = -1, got delta = {p.delta}"
        )


def _diffusion(p: KineticParams) -> Callable[[np.ndarray], np.ndarray]:
    diff_exp = 2.0 - (1.0 + p.delta) / 2.0
    sig_half = 0.5 * p.sigma2

    def diffusion(x: np.ndarray) -> np.ndarray:
        return sig_half * np.asarray(x, dtype=float) ** diff_exp

    return diffusion


def build_operator(p: KineticParams, c: ControlSpec, m: float) -> DriftDiffusion:
    """Drift/diffusion pair for the selected transition rule at reference mean m.

    The drift is the rule's row of the strategy table.  Controlled operators
    are derived at delta = -1 only; requesting one at any other delta is a
    domain error.
    """
    if not m > 0:
        raise ValueError(f"reference mean must be > 0, got {m}")
    check_operator_domain(p, c)
    rule = STRATEGY_RULES[c.strategy]

    def drift(x: np.ndarray) -> np.ndarray:
        return rule.drift(np.asarray(x, dtype=float), m, p, c)

    return DriftDiffusion(drift, _diffusion(p))


def _bernoulli(w: np.ndarray, out=None) -> tuple[np.ndarray, np.ndarray]:
    """(B(w), B(-w)) with B(w) = w / (exp(w) - 1), both from one |w|.

    With a = |w|: B(a) = a / expm1(a), which is 0 once expm1 overflows, and
    B(-a) = B(a) + a.  Hence B(w) = B(a) + max(-w, 0) and B(-w) = B(a) +
    max(w, 0).  Every sum adds non-negative terms, so no digits cancel, one
    transcendental pass serves both, and the sign needs no branch.  a is
    floored at the smallest normal float, where a / expm1(a) is exactly 1.
    out, a pair of arrays shaped like w, receives the result.
    """
    w = np.asarray(w, dtype=float)
    b_w, b_minus = out if out is not None else (np.empty_like(w), np.empty_like(w))
    b = np.abs(w)
    np.maximum(b, _TINY, out=b)
    with np.errstate(over="ignore"):
        np.divide(b, np.expm1(b), out=b)
    np.add(b, np.maximum(w, 0.0, out=b_minus), out=b_minus)
    np.add(b, np.maximum(np.negative(w, out=b_w), 0.0, out=b_w), out=b_w)
    return b_w, b_minus


def _gauss_points(grid: Grid):
    """(nodes, weights) of the Gauss-Legendre rule between neighbouring cell
    centers, one point of the rule at a time (weights include the half-width)."""
    x = grid.centers()
    lo, hi = x[:-1], x[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    for node, weight in zip(_GL_NODES, _GL_WEIGHTS):
        yield mid + half * node, weight * half


def _log_diffusion_jump(diffusion: Callable, grid: Grid) -> np.ndarray:
    d_centers = diffusion(grid.centers())
    return np.log(d_centers[1:]) - np.log(d_centers[:-1])


def interface_log_ratios(op: DriftDiffusion, grid: Grid) -> np.ndarray:
    """Log-ratios w_{i+1/2} = -ln(f_{i+1}/f_i) of the zero-flux solution.

    The C/D part is integrated with Gauss-Legendre nodes between neighbouring
    cell centers; the ln D difference is exact.
    """
    quad = sum(wq * (op.drift(xq) / op.diffusion(xq)) for xq, wq in _gauss_points(grid))
    return quad + _log_diffusion_jump(op.diffusion, grid)


@dataclass(frozen=True, eq=False)
class InterfaceWeights:
    """Interface log-ratios of one rule on one grid, for any reference mean.

    The rule's drift is sum_k s(m)^k term_k(x), so w(m) = sum_k s(m)^k
    basis[k], where row k of the basis is the quadrature of term_k / D and
    row 0 also carries the ln D difference.  The basis is integrated once;
    each w(m) is then one small matrix product.
    """

    grid: Grid
    basis: np.ndarray          # (K + 1, n_cells - 1)
    d_interfaces: np.ndarray   # D at the interior interfaces
    scalar: Callable[[float], float]

    def powers(self, m: float) -> np.ndarray:
        """(1, s(m), ..., s(m)^K)."""
        if not m > 0:
            raise ValueError(f"reference mean must be > 0, got {m}")
        return self.scalar(m) ** np.arange(len(self.basis))

    def at(self, m: float) -> np.ndarray:
        """w_{i+1/2} at mean m, as interface_log_ratios(build_operator(p, c, m), grid)."""
        return self.powers(m) @ self.basis


@functools.lru_cache(maxsize=1)
def interface_weights(grid: Grid, p: KineticParams, c: ControlSpec) -> InterfaceWeights:
    """Weight basis of rule c at p on grid, integrated once per (grid, p, c)."""
    check_operator_domain(p, c)
    rule = STRATEGY_RULES[c.strategy]
    diffusion = _diffusion(p)
    basis = sum(
        wq * (np.array(rule.drift_terms(xq, p, c)) / diffusion(xq))
        for xq, wq in _gauss_points(grid)
    )
    basis[0] += _log_diffusion_jump(diffusion, grid)
    d_if = diffusion(grid.interior_interfaces())
    basis.flags.writeable = False
    d_if.flags.writeable = False
    return InterfaceWeights(grid, basis, d_if, functools.partial(rule.scalar, p=p))


def _bands(w: np.ndarray, d_if: np.ndarray, c: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bands (lower, diag, upper) of the implicit step, one block per row of w.

    Interface k carries the flux c D_k (B(w_k) f_k - B(-w_k) f_{k+1}).
    lower[k] and upper[k] are the matrix entries (k+1, k) and (k, k+1); the
    last entry of each row is 0, the zero-flux edge, so stacked rows form
    one block-diagonal tridiagonal system.
    """
    shape = w.shape[:-1] + (w.shape[-1] + 1,)
    lower = np.zeros(shape)
    upper = np.zeros(shape)
    left, right = _bernoulli(w, out=(lower[..., :-1], upper[..., :-1]))
    scale = -c * d_if
    left *= scale    # cell k+1 gains flux k from f_k
    right *= scale   # cell k gains flux k back from f_{k+1}
    diag = np.ones(shape)
    diag[..., :-1] -= left    # outflow through the right interface
    diag[..., 1:] -= right    # outflow through the left interface
    return lower, diag, upper


def _solve_bands(
    lower: np.ndarray, diag: np.ndarray, upper: np.ndarray, rhs: np.ndarray, overwrite: bool
) -> np.ndarray:
    """Solve the (stacked) tridiagonal system in one LAPACK gtsv call.

    overwrite lets LAPACK work in the band and rhs arrays themselves.
    """
    flat = diag.size
    *_, out, info = dgtsv(
        lower.reshape(flat)[:-1],
        diag.reshape(flat),
        upper.reshape(flat)[:-1],
        rhs.reshape(flat, 1),
        overwrite, overwrite, overwrite, overwrite,
    )
    if info != 0:
        raise NumericsError(f"tridiagonal solve failed: LAPACK gtsv info = {info}")
    out = out.reshape(diag.shape)
    if not np.all(np.isfinite(out)):
        raise NumericsError("implicit contact step produced non-finite values")
    return out


def _step_factor(grid: Grid, dt: float, tau: float) -> float:
    if not dt > 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if not tau > 0:
        raise ValueError(f"tau must be > 0, got {tau}")
    return dt / (tau * grid.dx * grid.dx)


class SpStepper:
    """Pre-assembled implicit step for a fixed operator, grid and step size.

    Reusing the stepper across steps avoids re-integrating the interface
    weights when the drift does not change (frozen reference mean).
    """

    def __init__(self, grid: Grid, op: DriftDiffusion, dt: float, tau: float):
        c = _step_factor(grid, dt, tau)
        self.grid = grid
        self.dt = dt
        self.tau = tau

        d_if = np.asarray(op.diffusion(grid.interior_interfaces()), dtype=float)
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
        self._bands = _bands(interface_log_ratios(op, grid), d_if, c)

    def step(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if self._degenerate:
            return values.copy()
        return _solve_bands(*self._bands, values, overwrite=False)


def sp_step_batch(
    weights: InterfaceWeights, values: np.ndarray, means, dt: float, tau: float
) -> np.ndarray:
    """One implicit step of each row of values, row j at reference mean means[j].

    The rows are the blocks of one tridiagonal system, uncoupled at their
    edges (the zero-flux boundary), and are solved in a single call.
    """
    c = _step_factor(weights.grid, dt, tau)
    w = np.array([weights.powers(m) for m in means]) @ weights.basis
    rhs = np.array(values, dtype=float)
    return _solve_bands(*_bands(w, weights.d_interfaces, c), rhs, overwrite=True)


def steady_state_solve(op: DriftDiffusion, grid: Grid) -> ContactDensity:
    """Zero-flux solution of C f + d/dx(D f) = 0, unit mass on the grid.

    Built from the same interface log-ratios the implicit scheme uses, so
    the long-time limit of the implicit step matches this density to solver
    precision.  The values are running products of the cell ratios exp(-w)
    outward from the peak, so each neighbour ratio is exact to a few
    roundings; a running sum of w would carry the rounding of the whole
    partial sum instead.
    """
    w = interface_log_ratios(op, grid)
    peak = int(np.argmax(np.concatenate([[0.0], -np.cumsum(w)])))
    right = np.cumprod(np.exp(-w[peak:]))
    left = np.cumprod(np.exp(w[:peak][::-1]))[::-1]
    vals = np.concatenate([left, [1.0], right])
    total = vals.sum() * grid.dx
    if not total > 0 or not np.isfinite(total):
        raise NumericsError("steady-state normalization failed on this grid")
    return ContactDensity(grid, vals / total)
