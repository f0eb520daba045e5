"""Written-out model quantities and loops that the package itself never evaluates."""

import numpy as np

from kinctrl.dsmc import _buffers, _move
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
