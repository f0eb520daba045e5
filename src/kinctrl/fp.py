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
over a basis that build_operator integrates once per (params, control,
grid).  sp_step_batch then steps several densities, each at its own mean
and each solved only as far as its non-zero support and its step reach.

The tridiagonal solves are LAPACK's gtsv, gttrf and gttrs from
scipy.linalg, imported by the first build_operator (_lapack): a run that
builds no operator, and `import kinctrl`, do not load scipy.linalg.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from numbers import Integral
from typing import Callable

import numpy as np

from .errors import NumericsError
from .params import STRATEGY_RULES, ControlSpec, KineticParams, check_finite, check_operator_domain

# Gauss-Legendre nodes/weights on [-1, 1] used for the per-interface
# quadrature of C/D; 5 points keep the discrete equilibrium within roundoff
# of the exact integrating factor on the grids used here.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(5)

_TINY = np.finfo(float).tiny


@functools.cache
def _lapack():
    """scipy.linalg.lapack, imported on the first call."""
    from scipy.linalg import lapack

    return lapack


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
    """Cell-centered density of contact numbers for one compartment, or the
    histogram of a particle ensemble (from_samples)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_cells,):
            raise ValueError(
                f"values shape {self.values.shape} does not match grid with "
                f"{self.grid.n_cells} cells"
            )

    @classmethod
    def from_samples(cls, grid: Grid, samples: np.ndarray) -> "ContactDensity":
        """Normalized histogram of the samples in [0, x_max], one bin per cell;
        samples beyond x_max are left out."""
        counts, _ = np.histogram(samples, bins=grid.n_cells, range=(0.0, grid.x_max))
        total = counts.sum()
        if total == 0:
            raise NumericsError("no particle lies inside [0, x_max]")
        return cls(grid, counts / (total * grid.dx))

    def l1_distance(self, reference: np.ndarray) -> float:
        """L1 distance to a reference density sampled on the same cells."""
        reference = np.asarray(reference, dtype=float)
        if reference.shape != self.values.shape:
            raise ValueError("reference must match the grid's cells")
        return float(np.abs(self.values - reference).sum() * self.grid.dx)

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


def _bernoulli(w: np.ndarray, out=None, scratch=None) -> tuple[np.ndarray, np.ndarray]:
    """(B(w), B(-w)) with B(w) = w / (exp(w) - 1), both from one |w|.

    With a = |w|: B(a) = a / expm1(a), which is 0 once expm1 overflows, and
    B(-a) = B(a) + a.  Hence B(w) = B(a) + max(-w, 0) and B(-w) = B(a) +
    max(w, 0).  Every sum adds non-negative terms, so no digits cancel, one
    transcendental pass serves both, and the sign needs no branch.  a is
    floored at the smallest normal float, where a / expm1(a) is exactly 1.
    out, a pair of arrays shaped like w, receives the result; scratch, one
    more, holds a.
    """
    w = np.asarray(w, dtype=float)
    b_w, b_minus = out if out is not None else (np.empty_like(w), np.empty_like(w))
    b = np.abs(w, out=scratch)
    np.maximum(b, _TINY, out=b)
    with np.errstate(over="ignore"):
        np.divide(b, np.expm1(b, out=b_w), out=b)
    np.add(b, np.maximum(w, 0.0, out=b_minus), out=b_minus)
    np.add(b, np.maximum(np.negative(w, out=b_w), 0.0, out=b_w), out=b_w)
    return b_w, b_minus


@dataclass(frozen=True, eq=False)
class InterfaceWeights:
    """One rule's contact operator on one grid, for any reference mean.

    The rule's drift is sum_k s(m)^k term_k(x), so w(m) = sum_k s(m)^k
    basis[k], where row k of the basis is the quadrature of term_k / D and
    row 0 also carries the ln D difference.  The basis is integrated once;
    each w(m) is then one small matrix product (interface_log_ratios).
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


@functools.lru_cache(maxsize=1)
def build_operator(p: KineticParams, c: ControlSpec, grid: Grid) -> InterfaceWeights:
    """Contact operator of rule c at p on grid, integrated once per (p, c, grid).

    The drift is the rule's row of the strategy table; the diffusion is
    (sigma^2/2) x^(2-(1+delta)/2) for every rule.  Controlled operators are
    derived at delta = -1 only; requesting one at any other delta is a
    domain error.
    """
    check_operator_domain(p, c)
    _lapack()  # every operator is built to be solved
    rule = STRATEGY_RULES[c.strategy]
    diff_exp = 2.0 - (1.0 + p.delta) / 2.0

    def diffusion(x: np.ndarray) -> np.ndarray:
        return 0.5 * p.sigma2 * x**diff_exp

    # Gauss-Legendre quadrature of term_k / D between neighbouring cell centers
    x = grid.centers()
    half, mid = 0.5 * (x[1:] - x[:-1]), 0.5 * (x[1:] + x[:-1])
    basis = 0.0
    for node, weight in zip(_GL_NODES, _GL_WEIGHTS):
        xq = mid + half * node
        basis = basis + weight * half * (np.array(rule.drift_terms(xq, p, c)) / diffusion(xq))
    d_centers = diffusion(x)
    basis[0] += np.log(d_centers[1:]) - np.log(d_centers[:-1])
    d_if = diffusion(grid.interior_interfaces())
    basis.flags.writeable = False
    d_if.flags.writeable = False
    return InterfaceWeights(grid, basis, d_if, functools.partial(rule.scalar, p=p))


def interface_log_ratios(op: InterfaceWeights, means) -> np.ndarray:
    """Log-ratios w_{i+1/2} = -ln(f_{i+1}/f_i) of the zero-flux solution, one row per mean."""
    return np.array([op.powers(m) for m in means]) @ op.basis


def support_end(row: np.ndarray) -> int:
    """Length of row's shortest prefix past which every value is +0.0, bit for bit.

    A last cell that is not +0.0 answers in O(1), without a scan.
    """
    bits = row.view(np.int64)
    if bits[-1]:
        return row.size
    nonzero = np.flatnonzero(bits != 0)
    return int(nonzero[-1]) + 1 if nonzero.size else 0


@functools.lru_cache(maxsize=1)
def _workspace(n_cells: int) -> np.ndarray:
    """Rows lower, upper and diag for one row's bands, reused from step to step."""
    return np.empty((3, n_cells))


def _bands(
    w: np.ndarray, d_if: np.ndarray, c: float, ws: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bands (lower, diag, upper) of the implicit step on the len(w) + 1 cells around w, in ws.

    Interface k carries the flux c D_k (B(w_k) f_k - B(-w_k) f_{k+1});
    lower[k] and upper[k] are the matrix entries (k+1, k) and (k, k+1).
    """
    k = w.size
    lower, upper, diag = ws[0, :k], ws[1, :k], ws[2, : k + 1]
    scratch = diag[:k]  # until diag itself is written
    _bernoulli(w, out=(lower, upper), scratch=scratch)
    np.multiply(-c, d_if[:k], out=scratch)
    lower *= scratch    # cell k+1 gains flux k from f_k
    upper *= scratch    # cell k gains flux k back from f_{k+1}
    np.subtract(1.0, lower, out=diag[:-1])   # outflow through the right interface
    diag[-1] = 1.0
    diag[1:] -= upper                        # outflow through the left interface
    return lower, diag, upper


def _gtsv(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray, rhs: np.ndarray) -> None:
    """Solve the tridiagonal system in place: LAPACK gtsv overwrites the bands and rhs."""
    *_, info = _lapack().dgtsv(lower, diag, upper, rhs.reshape(-1, 1), 1, 1, 1, 1)
    if info != 0:
        raise NumericsError(f"tridiagonal solve failed: LAPACK gtsv info = {info}")


def _step_factor(grid: Grid, dt: float, tau: float) -> float:
    if not dt > 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if not tau > 0:
        raise ValueError(f"tau must be > 0, got {tau}")
    scale = tau * grid.dx * grid.dx
    if scale == 0.0:
        raise NumericsError(f"tau dx^2 underflows to 0 at tau = {tau}, dx = {grid.dx}")
    return dt / scale


class SpStepper:
    """Implicit step of one operator at a frozen reference mean m, LU-factored once."""

    # read by the benchmark tracer (perfbench/spans.py); no operator is degenerate
    # once sigma2 > 0, since D > 0 at every interface
    _degenerate = False

    def __init__(self, op: InterfaceWeights, m: float, dt: float, tau: float):
        c = _step_factor(op.grid, dt, tau)
        self.grid = op.grid
        w = interface_log_ratios(op, [m])[0]
        bands = _bands(w, op.d_interfaces, c, _workspace(op.grid.n_cells))
        *factors, info = _lapack().dgttrf(*bands)
        if info != 0:
            raise NumericsError(f"tridiagonal factorization failed: LAPACK gttrf info = {info}")
        self._factors = factors

    def step(self, values: np.ndarray) -> np.ndarray:
        rhs = np.asarray(values, dtype=float).reshape(-1, 1)
        out, info = _lapack().dgttrs(*self._factors, rhs)
        if info != 0:
            raise NumericsError(f"tridiagonal solve failed: LAPACK gttrs info = {info}")
        out = out.reshape(-1)
        if not np.all(np.isfinite(out)):
            raise NumericsError("implicit contact step produced non-finite values")
        return out


# Cells past a row's support that a trimmed solve first takes on; doubled
# while the forward sweep has not underflowed to 0 by the trimmed edge.
_MARGIN = 64


def _solve_row(v: np.ndarray, w: np.ndarray, d_if: np.ndarray, c: float, out: np.ndarray) -> None:
    """One implicit step of the row v into out, solving only as far as v's step can reach.

    Past v's support the forward sweep of gtsv carries v's mass on as
    b_{i+1} = -l_i b_i, and once b underflows to 0 it stays 0, as does the
    solution from there on.  The matrix is a column-dominant M-matrix, so
    gtsv never pivots, and every cell before that point is solved bit for
    bit as in the full system.  The trimmed system keeps the first k rows of
    the full one plus a closing cell k with unit diagonal and no coupling
    back, whose solution is exactly the sweep's b_k: the trim is accepted
    when that is 0, and widened otherwise, up to the full row.
    """
    n = v.size
    end = support_end(v)
    k = end + _MARGIN
    ws = _workspace(n)
    while k < n - 1:
        lower, diag, upper = _bands(w[:k], d_if, c, ws)
        diag[k] = 1.0
        upper[k - 1] = 0.0
        out[: k + 1] = v[: k + 1]
        _gtsv(lower, diag, upper, out[: k + 1])
        if out[k] == 0.0:
            out[k:] = 0.0
            return
        k = end + 2 * (k - end)
    out[:] = v
    _gtsv(*_bands(w, d_if, c, ws), out)


def sp_step_batch(
    op: InterfaceWeights, values: np.ndarray, means, dt: float, tau: float
) -> np.ndarray:
    """One implicit step of each row of values, row j at reference mean means[j].

    The rows are uncoupled (each has its own zero-flux boundary) and are
    solved one after the other, each on its support plus the cells its step
    reaches (_solve_row); values is not modified.
    """
    c = _step_factor(op.grid, dt, tau)
    w = interface_log_ratios(op, means)
    values = np.asarray(values, dtype=float)
    out = np.empty(values.shape)
    for v, w_row, new in zip(values, w, out):
        _solve_row(v, w_row, op.d_interfaces, c, new)
    if not np.all(np.isfinite(out)):
        raise NumericsError("implicit contact step produced non-finite values")
    return out


def steady_state_solve(op: InterfaceWeights, m: float) -> ContactDensity:
    """Zero-flux solution of C f + d/dx(D f) = 0 at reference mean m, unit mass on the grid.

    Built from the same interface log-ratios the implicit scheme uses, so
    the long-time limit of the implicit step matches this density to solver
    precision.  The values are running products of the cell ratios exp(-w)
    outward from the peak, so each neighbour ratio is exact to a few
    roundings; a running sum of w would carry the rounding of the whole
    partial sum instead.
    """
    grid = op.grid
    w = interface_log_ratios(op, [m])[0]
    peak = int(np.argmax(np.concatenate([[0.0], -np.cumsum(w)])))
    right = np.cumprod(np.exp(-w[peak:]))
    left = np.cumprod(np.exp(w[:peak][::-1]))[::-1]
    vals = np.concatenate([left, [1.0], right])
    total = vals.sum() * grid.dx
    if not total > 0 or not np.isfinite(total):
        raise NumericsError("steady-state normalization failed on this grid")
    return ContactDensity(grid, vals / total)
