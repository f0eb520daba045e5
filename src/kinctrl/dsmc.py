"""Monte Carlo particle solver for the contact-formation dynamics.

Each step, every particle independently undergoes the single-agent transition
rule with probability min(B(x), sigma_bound) dt / epsilon, where B is the
interaction kernel (1 at delta = -1); the compartment mean in the growth term
is frozen at step start.  That probability depends only on x, which moves only
when the particle fires, so the gaps between a particle's firings are
Geometric, and a run moves only the particles that are due, or the whole
array in place when every probability is 1.  A sparse run draws its gaps by
inverting the Geometric law (_gaps), and a particle whose gap is infinite
never fires.  Every path applies the one transition _move, block by block in
three buffers.

At a fixed reference mean the particles never interact, so such a run takes
no steps at all: each block of _BLOCK particles runs to the end on its own
stream (_run_block), whole once per step when it is dense, otherwise in
rounds, round r moving every particle whose r-th firing still falls inside
the run, each particle carrying the steps left after its last firing.  A
dense run splits its blocks into one chunk per usable CPU, so the thread pool
is joined once per run; a block's draws do not depend on the chunk or thread
that runs it, so runs repeat bit for bit on any number of CPUs.  dsmc_step is
such a run of one step.  A run at the ensemble mean, which changes every
step, steps all particles together: one dense step at a time, or on countdown
clocks drawn from the ensemble's generator.

The deterministic part of every transition is mean-reverting: contacts relax
toward the reference mean (uncontrolled) or toward a blend of mean and target
(controlled rules).  The control is the one the operators take: its
mesoscopic penalization nu enters each transition as epsilon nu, and a
controlled rule runs at delta = -1 only, the one delta it is derived at.

This module only simulates: every run moves ens.samples in place, and the
histogram of a run is fp.ContactDensity.from_samples on the caller's grid.
"""

from __future__ import annotations

import functools
import itertools
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import NumericsError
from .params import (
    STRATEGY_RULES,
    ControlSpec,
    KineticParams,
    check_operator_domain,
    collision_kernel,
    growth_rate_times_x,
    step_count,
)


@dataclass(eq=False)
class ParticleEnsemble:
    """Fixed-size population of contact numbers with its random streams.

    samples, which every run moves in place, must be finite and >= 0; a NaN
    or inf sample raises ValueError when the ensemble is built, since a run
    would draw it a gap that never fires.  rng drives the sparse run at the ensemble mean; streams holds one
    generator per block of _BLOCK particles, spawned from rng's seed sequence
    when the ensemble is built (rng's own stream is untouched), and every run
    at a fixed mean, hence dsmc_step and each dense step at the ensemble mean,
    moves block b with streams[b] alone.  n_clamped accumulates how many
    proposed transitions had to be clipped at zero to keep contacts
    admissible; threads is how many chunks the last run or step ran in (more
    than 1 only for a dense one).
    """

    samples: np.ndarray
    rng: np.random.Generator
    n_clamped: int = 0
    n_transitions: int = 0
    n_steps: int = 0
    threads: int = field(default=1, init=False)
    streams: list = field(init=False, repr=False)

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise ValueError("samples must be a non-empty 1-D array")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("samples must be finite")
        if np.any(self.samples < 0):
            raise ValueError("all contact numbers must be >= 0")
        self.streams = self.rng.spawn(-(-self.samples.size // _BLOCK))

    @classmethod
    def from_uniform(cls, n: int, low: float, high: float, seed: int) -> "ParticleEnsemble":
        rng = np.random.default_rng(seed)
        return cls(rng.uniform(low, high, size=n), rng)

    @property
    def size(self) -> int:
        return self.samples.size

    def mean(self) -> float:
        return float(self.samples.mean())

    def second_moment(self) -> float:
        return float((self.samples**2).mean())


def sample_noise(p: KineticParams, rng: np.random.Generator, size=None, out=None):
    """Multiplicative-noise draws: mean 0, variance epsilon * sigma2.

    Uniform on [-a, a] with a = sqrt(3 epsilon sigma2); the compact support
    keeps x(1 + eta) >= 0 whenever a <= 1.  The draws are those of
    rng.uniform(-a, a, size), low + (high - low) * u, with the scaling done
    in place: about half the cost per draw.  With out, the draws fill it.
    """
    a = np.sqrt(3.0 * p.epsilon * p.sigma2)
    u = rng.random(size, out=out)
    u *= a - (-a)
    u += -a
    return u


# Particles per block of _move.  It also fixes the stream layout (one spawned
# generator per block), so changing it changes particle outputs.  Each block
# is computed in three buffers of this length, which each chunk of a run
# reuses for all its blocks and steps (two float, one bool: 2.1 MiB), so no
# block allocates, and the per-block cost in Python, where threads hold the
# GIL, is spread over 128 Ki particles.  Smaller blocks hand the GIL between
# chunk threads more often, and each handoff that makes a thread sleep costs
# a wake-up whose latency varies with the host.
_BLOCK = 131_072


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
    """Advance the ensemble by dt at the frozen mean m; requires dt <=
    epsilon / sigma_bound.

    One step of a fixed-mean run (_run), exact because Geometric gaps are
    memoryless: a sparse step draws a gap for every particle, so a run of
    many steps belongs in run_to_equilibrium.  A controlled c at delta != -1
    raises ValueError before any draw.
    """
    _run(ens, m, p, c, dt, sigma_bound, 1)
    return ens


def _check_law(ens: ParticleEnsemble, m: float, p: KineticParams, c: ControlSpec, dt: float,
               sigma_bound: float) -> bool:
    """Raise ValueError, before any draw, for a step law ens cannot take;
    return whether it is dense (every particle fires every step)."""
    check_step_size(dt, p.epsilon, sigma_bound)
    check_operator_domain(p, c)
    if not m > 0:
        raise ValueError(f"reference mean must be > 0, got {m}")
    if len(ens.streams) * _BLOCK < ens.size:
        raise ValueError("samples outgrew the streams spawned when the ensemble was built")
    return p.delta == -1.0 and bool(_fire_prob(1.0, p, dt, sigma_bound) == 1.0)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@functools.cache
def _pool(pid: int) -> ThreadPoolExecutor:
    """The pool that runs every chunk of a dense run but the first, started
    on first use in process pid: a forked child has none of its parent's
    threads."""
    return ThreadPoolExecutor(thread_name_prefix="kinctrl-dsmc")


def _buffers(n: int) -> tuple:
    """Block buffers for n particles at most: two float and one bool."""
    n = min(_BLOCK, n)
    return np.empty(n), np.empty(n), np.empty(n, dtype=bool)


def _move(x: np.ndarray, rngs, m: float, p: KineticParams, c: ControlSpec, buffers) -> int:
    """Apply one transition to every particle of x in place, clamped at zero,
    with the noise of x's b-th block of _BLOCK drawn from the b-th generator
    of rngs; returns how many proposals were clamped.

    The transition is x + shift + x eta, shift the rule's shift_into of the
    growth law.  Each block is computed in buffers (from _buffers), and its
    values and draws are those of one pass over it.  With rngs an
    itertools.repeat of one generator, the draws are those of one pass over x.
    """
    g, tmp, neg = buffers
    shift_into = STRATEGY_RULES[c.strategy].shift_into
    clamped = 0
    for a, rng in zip(range(0, x.size, _BLOCK), rngs):
        xb = x[a : a + _BLOCK]
        gb, tb, nb = g[: xb.size], tmp[: xb.size], neg[: xb.size]
        growth_rate_times_x(xb, m, p, out=gb)
        shift_into(xb, gb, tb, p.epsilon, c)
        np.add(xb, gb, out=gb)
        np.multiply(xb, sample_noise(p, rng, out=tb), out=tb)
        np.add(gb, tb, out=gb)  # x + shift + x * eta
        clamped += int(np.count_nonzero(np.less(gb, 0.0, out=nb)))
        np.maximum(gb, 0.0, out=xb)
    return clamped


def _fire_prob(x, p: KineticParams, dt: float, sigma_bound: float):
    """Per-step probability min(B(x), sigma_bound) dt / epsilon, at most 1,
    computed in place in the one array that B(x) makes (0-d for a scalar x)."""
    prob = np.asarray(collision_kernel(x, p))
    np.minimum(prob, sigma_bound, out=prob)
    prob *= dt / p.epsilon
    return np.minimum(prob, 1.0, out=prob)


def _gaps(rng: np.random.Generator, prob: np.ndarray) -> np.ndarray:
    """Geometric(prob) gaps, one per element, as floats, by inversion: the
    ceiling of E / -log1p(-prob), E standard exponential, overwriting prob.

    numpy's own rng.geometric inverts the same way wherever prob < 1/3, so
    there the gaps equal its draws bit for bit; at prob >= 1/3 it searches,
    so the draws differ there, but the law is Geometric(prob) all the same.
    prob 1 gives a gap of 1, and a prob of 0, or so small that the quotient
    overflows, an infinite gap: that particle never fires.
    """
    gap = rng.standard_exponential(prob.size)
    with np.errstate(divide="ignore", over="ignore"):
        np.log1p(np.negative(prob, out=prob), out=prob)  # -inf at prob 1
        np.negative(prob, out=prob)
        np.divide(gap, prob, out=gap)
    np.ceil(gap, out=gap)
    return np.maximum(gap, 1.0, out=gap)


def _run_block(x: np.ndarray, rng, m: float, p: KineticParams, c: ControlSpec, dt: float,
               sigma_bound: float, n_steps: int, dense: bool, buffers) -> tuple[int, int]:
    """Run the particles of x, at most one block, through n_steps steps at
    the fixed mean m, in place, every draw from rng and every move computed
    in buffers (from _buffers); returns the numbers of transitions and of
    clamped proposals.

    A dense block (every particle fires every step) moves whole with _move
    once per step.  Otherwise it runs in rounds: each particle carries left,
    the steps left after its last firing (n_steps before the run), and each
    round subtracts a Geometric gap (_gaps) from it; round r moves with _move
    every particle whose r-th firing falls inside the run, left >= 0, then
    redraws only those particles' gaps.  A round compacts the particles still
    running once, by their indices, and an infinite gap leaves left at -inf.
    """
    if dense:
        return n_steps * x.size, sum(_move(x, (rng,), m, p, c, buffers) for _ in range(n_steps))
    idx = np.arange(x.size)
    left = np.full(x.size, float(n_steps))
    new = x
    moves = clamped = 0
    while True:
        left -= _gaps(rng, _fire_prob(new, p, dt, sigma_bound))
        due = np.flatnonzero(left >= 0.0)
        if due.size == 0:
            return moves, clamped
        idx, left = idx.take(due), left.take(due)
        new = x.take(idx)
        clamped += _move(new, (rng,), m, p, c, buffers)
        x[idx] = new
        moves += idx.size


def _run(ens: ParticleEnsemble, m: float, p: KineticParams, c: ControlSpec, dt: float,
         sigma_bound: float, n_steps: int) -> None:
    """Run the ensemble through n_steps steps at the fixed mean m.

    Block b of _BLOCK particles runs on its own with ens.streams[b]
    (_run_block), and the counts on ens are those of as many steps.  A dense
    run cuts its blocks into one contiguous chunk per usable CPU (at most one
    per block), otherwise the run is one chunk; each chunk runs its blocks
    one after another in one set of buffers made on the calling thread, the
    first chunk on that thread and every other on a shared thread pool, which
    the run joins once.
    """
    dense = _check_law(ens, m, p, c, dt, sigma_bound)
    x = ens.samples
    blocks = list(zip((x[a : a + _BLOCK] for a in range(0, x.size, _BLOCK)), ens.streams))
    n = len(blocks)
    k = min(_usable_cpus(), n) if dense else 1  # chunks

    def run(chunk, buffers):
        return [_run_block(xb, rng, m, p, c, dt, sigma_bound, n_steps, dense, buffers)
                for xb, rng in chunk]

    chunks = [(blocks[i * n // k : (i + 1) * n // k], _buffers(x.size)) for i in range(k)]
    futures = [_pool(os.getpid()).submit(run, *chunk) for chunk in chunks[1:]]
    try:
        counts = run(*chunks[0])
    finally:
        wait(futures)
    for f in futures:
        counts += f.result()
    ens.n_transitions += sum(moves for moves, _ in counts)
    ens.n_clamped += sum(clamped for _, clamped in counts)
    ens.n_steps += n_steps
    ens.threads = len(chunks)


def run_to_equilibrium(
    ens: ParticleEnsemble,
    p: KineticParams,
    c: ControlSpec,
    t_final: float,
    dt: float,
    sigma_bound: float,
    m_ref: Optional[float] = None,
) -> None:
    """Run the ensemble to t_final, moving ens.samples in place; bin them
    with fp.ContactDensity.from_samples.

    m_ref fixes the reference mean of the growth term for the whole run
    (relaxation toward a prescribed mean): one _run.  With m_ref = None each
    step runs at the ensemble mean, which conserves it for delta = +/-1, and
    a mean that is not finite and > 0 raises NumericsError.  A dense step is
    a one-step _run; otherwise particle i next fires at step clocks[i], every
    clock drawn by _gaps from ens.rng before the first step, and a particle
    that fires moves with noise from ens.rng, then draws its next gap; an
    infinite clock never fires.
    """
    n_steps = step_count(t_final, dt)
    if n_steps == 0:
        raise ValueError(f"t_final = {t_final} is 0 steps of dt = {dt}; a run needs at least one")
    if m_ref is not None:
        _run(ens, m_ref, p, c, dt, sigma_bound, n_steps)
        return
    x, clocks = ens.samples, None
    for step in range(n_steps):
        m = ens.mean()
        if not 0.0 < m < np.inf:
            raise NumericsError(f"the ensemble mean at step {step} is {m}, not finite and > 0")
        if _check_law(ens, m, p, c, dt, sigma_bound):
            _run(ens, m, p, c, dt, sigma_bound, 1)
            continue
        if clocks is None:
            clocks = _gaps(ens.rng, _fire_prob(x, p, dt, sigma_bound)) - 1.0
        fire = np.flatnonzero(clocks == step)
        new = x[fire]
        ens.n_clamped += _move(new, itertools.repeat(ens.rng), m, p, c, _buffers(new.size))
        x[fire] = new
        clocks[fire] = step + _gaps(ens.rng, _fire_prob(new, p, dt, sigma_bound))
        ens.n_transitions += fire.size
        ens.n_steps += 1
        ens.threads = 1
