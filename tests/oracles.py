"""Written-out model quantities and loops that the package itself never evaluates."""

import warnings

import numpy as np

from kinctrl.dsmc import _buffers, _move
from kinctrl.errors import NumericsError
from kinctrl.fp import _solve_row, _step_factor, build_operator, support_end
from kinctrl.kinetic import MASS_FLOOR, NEGATIVITY_WARN, KineticSIRState, center_powers
from kinctrl.params import STRATEGY_RULES, collision_kernel


def drift(p, c, m, x):
    """Drift C(x) of rule c at reference mean m: the rule's drift terms
    weighted by powers of its mean scalar, as the operator build sums them."""
    rule = STRATEGY_RULES[c.strategy]
    s = rule.scalar(m, p)
    return sum(s**k * term for k, term in enumerate(rule.drift_terms(x, p, c)))


def geometric_rounds(x, rng, m, p, c, dt, sigma_bound, n_steps):
    """A sparse block's rounds with rng.geometric gaps: each particle fires
    again gap steps after its last firing, an int64 step starting at -1, and
    is due while gap <= n_steps - 1 - last.  Moves x in place and returns the
    numbers of transitions and of clamped proposals."""
    idx, last, new = np.arange(x.size), np.full(x.size, -1), x
    moves = clamped = 0
    while True:
        prob = np.minimum(np.minimum(collision_kernel(new, p), sigma_bound) * (dt / p.epsilon), 1.0)
        gap = rng.geometric(prob)
        due = gap <= n_steps - 1 - last
        idx, last = idx[due], last[due] + gap[due]
        if idx.size == 0:
            return moves, clamped
        new = x[idx]
        clamped += _move(new, (rng,), m, p, c, _buffers(new.size))
        x[idx] = new
        moves += idx.size


def histogram(samples, n_bins, x_max):
    """The particle histogram on np.histogram's own bins over [0, x_max]:
    (bin-edge midpoints, counts / (total * width)), width the first bin's."""
    counts, edges = np.histogram(samples, bins=n_bins, range=(0.0, x_max))
    width = edges[1] - edges[0]
    return 0.5 * (edges[:-1] + edges[1:]), counts / (counts.sum() * width)


def exchange_rate(vs, vi, x_pows, dx, e):
    """kinetic.exchange_rate, in fresh arrays."""
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


def epidemic_substep(state, e, dt):
    """kinetic.epidemic_substep with a fresh array for every stage and sum:
    dt/6 (k1 + 2 k2 + 2 k3 + k4) + values on the common support, then the clip."""
    grid = state.grid
    x_pows = center_powers(grid, e.order)
    n = max(support_end(v) for v in state.values)
    values = state.values[:, :n]
    vs, vi, _ = values
    stage_i = np.zeros(grid.n_cells)

    def deriv(h, k):
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
            warnings.warn(f"epidemic substep produced a cell at {lost.min():.3e}; clipping",
                          RuntimeWarning, stacklevel=2)
        clipped -= float(lost.sum() * grid.dx)
        new[neg] = 0.0
    full = np.zeros_like(state.values)
    full[:, :n] = new
    return KineticSIRState(full, grid, clipped)


def contact_substep(state, p, c, dt):
    """kinetic._contact_substep with fresh arrays for the weights, the solves
    and the new state: each live row stepped at its own mean, then rescaled
    to its mass."""
    grid = state.grid
    masses = state.masses()
    live = masses > MASS_FLOOR
    if not live.any():
        return state
    x = grid.centers()
    rows = state.values if live.all() else state.values[live]
    means = [float(x @ v) * grid.dx / mass for v, mass in zip(rows, masses[live])]
    op = build_operator(p, c, grid)
    factor = _step_factor(grid, dt, p.tau)
    w = np.array([op.powers(m) for m in means]) @ op.basis
    stepped = np.empty(rows.shape)
    for v, w_row, new in zip(rows, w, stepped):
        _solve_row(v, w_row, op.d_interfaces, factor, new)
    if not np.all(np.isfinite(stepped)):
        raise NumericsError("implicit contact step produced non-finite values")
    stepped *= (masses[live] / (stepped.sum(axis=1) * grid.dx))[:, None]
    values = state.values.copy()
    values[live] = stepped
    return KineticSIRState(values, grid, state.clipped_mass)


def split_step(state, p, c, e, dt):
    """kinetic.split_step allocating every array it writes: the oracle of the
    run in kept buffers."""
    return epidemic_substep(contact_substep(state, p, c, dt), e, dt)
