"""Monte Carlo particle solver for the contact-formation dynamics.

Each step, every particle independently undergoes the single-agent transition
rule with probability B_cap(x) dt / epsilon, where B_cap caps the interaction
kernel at a user-supplied bound.  The compartment mean entering the growth
term is frozen at step start.  All randomness flows through one seedable
generator, so runs are reproducible bit for bit.

The deterministic part of every transition is mean-reverting: contacts relax
toward the reference mean (uncontrolled) or toward a blend of mean and target
(controlled rules).  To match a mesoscopic penalization nu, pass
``control.micro_scaled(epsilon)`` — see ControlSpec.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .params import (
    STRATEGY_RULES,
    ControlSpec,
    KineticParams,
    collision_kernel,
    growth_rate_times_x,
    step_count,
)


@dataclass
class ParticleEnsemble:
    """Fixed-size population of contact numbers with its random stream.

    n_clamped accumulates how many proposed transitions had to be clipped at
    zero to keep contacts admissible.
    """

    samples: np.ndarray
    rng: np.random.Generator
    n_clamped: int = 0
    n_transitions: int = 0

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise ValueError("samples must be a non-empty 1-D array")
        if np.any(self.samples < 0):
            raise ValueError("all contact numbers must be >= 0")

    @classmethod
    def from_uniform(cls, n: int, low: float, high: float, seed: int) -> "ParticleEnsemble":
        rng = np.random.default_rng(seed)
        return cls(rng.uniform(low, high, size=n), rng)

    @classmethod
    def from_samples(cls, samples: np.ndarray, seed: int) -> "ParticleEnsemble":
        return cls(np.array(samples, dtype=float), np.random.default_rng(seed))

    @property
    def size(self) -> int:
        return self.samples.size

    def mean(self) -> float:
        return float(self.samples.mean())

    def second_moment(self) -> float:
        return float((self.samples**2).mean())


@dataclass(frozen=True)
class Histogram:
    """Probability-density histogram on uniform bins over [0, x_max]."""

    bin_edges: np.ndarray
    density: np.ndarray

    @classmethod
    def from_samples(cls, samples: np.ndarray, n_bins: int, x_max: float) -> "Histogram":
        counts, edges = np.histogram(samples, bins=n_bins, range=(0.0, x_max))
        width = edges[1] - edges[0]
        total = counts.sum()
        if total == 0:
            raise ValueError("no samples fall inside [0, x_max]")
        return cls(edges, counts / (total * width))

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])

    @property
    def bin_width(self) -> float:
        return float(self.bin_edges[1] - self.bin_edges[0])

    def l1_distance(self, reference: np.ndarray) -> float:
        """L1 distance to a reference density sampled on the same bins."""
        reference = np.asarray(reference, dtype=float)
        if reference.shape != self.density.shape:
            raise ValueError("reference must match the histogram bins")
        return float(np.abs(self.density - reference).sum() * self.bin_width)


def sample_noise(p: KineticParams, rng: np.random.Generator, size=None):
    """Multiplicative-noise draws: mean 0, variance epsilon * sigma2.

    Uniform on [-a, a] with a = sqrt(3 epsilon sigma2); the compact support
    keeps x(1 + eta) >= 0 whenever a <= 1.
    """
    a = np.sqrt(3.0 * p.epsilon * p.sigma2)
    return rng.uniform(-a, a, size=size)


def _proposed(x: np.ndarray, m: float, p: KineticParams, c: ControlSpec, eta) -> np.ndarray:
    """Post-transition contacts before the admissibility clamp."""
    x = np.asarray(x, dtype=float)
    drift_x = growth_rate_times_x(x, m, p)  # psi(x/m) * x
    return x + STRATEGY_RULES[c.strategy].shift(x, drift_x, p.epsilon, c) + x * eta


def transition(
    x,
    m: float,
    p: KineticParams,
    c: ControlSpec,
    rng: Optional[np.random.Generator] = None,
    eta=None,
):
    """One single-agent transition, clamped to the admissible region x' >= 0.

    Draws the noise from rng unless an explicit eta is given (useful for
    deterministic checks).  Accepts scalars or arrays.
    """
    if not m > 0:
        raise ValueError(f"compartment mean must be > 0, got {m}")
    if eta is None:
        if rng is None:
            raise ValueError("provide either rng or an explicit eta")
        eta = sample_noise(p, rng, size=np.shape(x) if np.ndim(x) else None)
    out = np.maximum(_proposed(x, m, p, c, eta), 0.0)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def kernel_cap(p: KineticParams, x_floor: float) -> float:
    """Default kernel bound: the kernel value at x_floor (1 for delta = -1)."""
    return collision_kernel(x_floor, p)


def check_step_size(dt: float, epsilon: float, sigma_bound: float) -> None:
    """Raise ValueError unless dt <= epsilon / sigma_bound, the largest step at
    which one particle step is still a convex combination."""
    if not sigma_bound > 0:
        raise ValueError(f"sigma_bound must be > 0, got {sigma_bound}")
    if dt > epsilon / sigma_bound * (1.0 + 1e-12):
        raise ValueError(
            f"dt = {dt} exceeds epsilon / sigma_bound = {epsilon / sigma_bound}; "
            "the step would not be a convex combination"
        )


def dsmc_step(
    ens: ParticleEnsemble,
    m: float,
    p: KineticParams,
    c: ControlSpec,
    dt: float,
    sigma_bound: float,
) -> ParticleEnsemble:
    """Advance the ensemble by dt; requires dt <= epsilon / sigma_bound.

    Each particle transitions with probability min(B(x), sigma_bound) dt /
    epsilon, with the compartment mean m frozen for the whole step.  The
    particle count is conserved exactly.
    """
    check_step_size(dt, p.epsilon, sigma_bound)
    x = ens.samples
    if p.delta == -1.0:
        accept_prob = np.full(x.shape, dt / p.epsilon)
    else:
        with np.errstate(divide="ignore"):
            kernel = np.where(x > 0, x ** (-(1.0 + p.delta) / 2.0), np.inf)
        accept_prob = np.minimum(kernel, sigma_bound) * (dt / p.epsilon)
    mask = ens.rng.random(x.size) < accept_prob
    n_hit = int(mask.sum())
    if n_hit:
        eta = sample_noise(p, ens.rng, size=n_hit)
        raw = _proposed(x[mask], m, p, c, eta)
        ens.n_clamped += int((raw < 0).sum())
        x[mask] = np.maximum(raw, 0.0)
    ens.n_transitions += n_hit
    return ens


def run_to_equilibrium(
    ens: ParticleEnsemble,
    p: KineticParams,
    c: ControlSpec,
    t_final: float,
    dt: float,
    sigma_bound: float,
    m_ref: Optional[float] = None,
    x_max: float = 100.0,
    n_bins: int = 400,
) -> Histogram:
    """Iterate dsmc_step to t_final and return the normalized histogram.

    m_ref fixes the reference mean of the growth term for the whole run
    (relaxation toward a prescribed mean); with m_ref = None the ensemble
    mean is recomputed once per step, which conserves the mean for
    delta = +/-1.
    """
    if not t_final > 0:
        raise ValueError(f"t_final must be > 0, got {t_final}")
    for _ in range(step_count(t_final, dt)):
        m = ens.mean() if m_ref is None else m_ref
        dsmc_step(ens, m, p, c, dt, sigma_bound)
    return Histogram.from_samples(ens.samples, n_bins, x_max)
