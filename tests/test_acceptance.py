"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them live).
The particle-method reproduction defaults to the reduced population
(100k particles, tolerance 0.08); set KINCTRL_ACCEPTANCE_FULL=1 to run the
full-population variant (1M particles, tolerance 0.05).
"""

import json
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaln

from kinctrl import (
    ClosureKind,
    ContactDensity,
    ControlSpec,
    EpidemicParams,
    EquilibriumDensity,
    Grid,
    KineticParams,
    ParticleEnsemble,
    TailKind,
    build_operator,
    closure_moment,
    controlled_steady_state,
    dsmc_step,
    run_to_equilibrium,
    tail_classify,
    uniform_density,
)
from kinctrl.cli import execute
from kinctrl.fp import SpStepper
from kinctrl.kinetic import gamma_profile_state, run_scenario
from kinctrl.macro import (
    MacroModel,
    MacroState,
    MacroVariant,
    controlled_sir,
    rk4_integrate,
)

FULL = os.environ.get("KINCTRL_ACCEPTANCE_FULL", "") == "1"
N_PARTICLES = 1_000_000 if FULL else 100_000
DSMC_TOL = 0.05 if FULL else 0.08

GAMMA_I = 1.0 / 14.0


@contextmanager
def report(criterion: str, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {criterion} FAIL - {description}")
        raise
    print(f"ACCEPTANCE {criterion} PASS - {description}")


def kp(delta, alpha=1.0, sigma2=0.2, **kw):
    return KineticParams(alpha=alpha, sigma2=sigma2, delta=delta, **kw)


def bin_averaged_equilibrium(p, m_ref, control, n_bins, x_max, refine=16):
    fine = Grid(x_max, n_bins * refine)
    eq = EquilibriumDensity(p, m_ref, fine, control=control)
    return eq.values.reshape(n_bins, refine).mean(axis=1)


# ---------------------------------------------------------------------------
# criterion 1: equilibrium oracle suite


def test_criterion_1_equilibrium_oracle_suite():
    def gamma_pdf(x, lam, m):
        return np.exp(
            lam * np.log(lam) - lam * np.log(m) - gammaln(lam)
            + (lam - 1) * np.log(x) - lam * x / m
        )

    def inv_gamma_pdf(x, lam, m):
        return np.exp(
            (lam + 1) * np.log(lam * m) - gammaln(lam + 1)
            - (lam + 2) * np.log(x) - lam * m / x
        )

    with report("1", "closure moments match quadrature of the closed-form equilibria"):
        start = time.monotonic()
        for lam in (3.0, 5.0, 10.0):
            for m in (1.0, 10.0):
                for r in (1, 2, 3):
                    ref = quad(lambda x: x**r * gamma_pdf(x, lam, m), 0, np.inf)[0]
                    val = closure_moment(ClosureKind.GAMMA, r, m, lam)
                    assert abs(val - ref) <= 1e-6 * abs(ref)
                    if lam > r - 1:
                        ref = quad(
                            lambda x: x**r * inv_gamma_pdf(x, lam, m), 0, np.inf, limit=200
                        )[0]
                        val = closure_moment(ClosureKind.INVERSE_GAMMA, r, m, lam)
                        assert abs(val - ref) <= 1e-6 * abs(ref)
        assert time.monotonic() - start < 1.0


# ---------------------------------------------------------------------------
# criterion 2: particle and mesoscopic solvers reach the analytic equilibria

T1_CASES = {
    # name: (delta, control, t_final, dt, sigma_bound)
    "delta_m1": (-1.0, ControlSpec.uncontrolled(), 50.0, 0.01, 1.0),
    "delta_p1": (1.0, ControlSpec.uncontrolled(), 50.0, 0.001, 10.0),
    "control_a": (-1.0, ControlSpec.additive(1.0, 3.0), 20.0, 0.01, 1.0),
    "control_b": (-1.0, ControlSpec.interaction(1.0, 3.0), 20.0, 0.01, 1.0),
}

M_REF = 5.0
X_MAX = 100.0
N_BINS = 400


@pytest.fixture(scope="session")
def t1_dsmc_runs():
    out = {}
    for seed, (name, (delta, control, t_final, dt, bound)) in enumerate(
        T1_CASES.items(), start=101
    ):
        p = kp(delta)
        ens = ParticleEnsemble.from_uniform(N_PARTICLES, 6.0, 8.0, seed=seed)
        run_to_equilibrium(ens, p, control, t_final, dt, bound, m_ref=M_REF)
        hist = ContactDensity.from_samples(Grid(X_MAX, N_BINS), ens.samples)
        ref = bin_averaged_equilibrium(p, M_REF, control, N_BINS, X_MAX)
        out[name] = hist.l1_distance(ref)
    return out


@pytest.fixture(scope="session")
def t1_fp_runs():
    grid = Grid(X_MAX, 1000)  # dx = 0.1
    out = {}
    for name, (delta, control, t_final, dt, _) in T1_CASES.items():
        p = kp(delta)
        stepper = SpStepper(build_operator(p, control, grid), M_REF, dt, p.tau)
        v = uniform_density(grid, 6.0, 8.0).values
        for _ in range(int(round(t_final / dt))):
            v = stepper.step(v)
        eq = EquilibriumDensity(p, M_REF, grid, control=control)
        out[name] = float(np.abs(v - eq.values).sum() * grid.dx)
    return out


def test_criterion_2_particle_solver_reaches_equilibria(t1_dsmc_runs):
    with report("2a", f"particle long-time solutions within {DSMC_TOL} of the equilibria "
                      f"(N={N_PARTICLES})"):
        for name, l1 in t1_dsmc_runs.items():
            assert l1 <= DSMC_TOL, (name, l1)


def test_criterion_2_mesoscopic_solver_reaches_equilibria(t1_fp_runs):
    with report("2b", "implicit finite-volume long-time solutions within 0.02 of the equilibria"):
        for name, l1 in t1_fp_runs.items():
            assert l1 <= 0.02, (name, l1)


# ---------------------------------------------------------------------------
# criterion 3: tail behaviour under the two controls


def test_criterion_3_tail_behaviour():
    with report("3", "control means approach the target; interaction control dominates and "
                     "reshapes the tail"):
        start = time.monotonic()
        p2 = kp(-1.0, alpha=0.4)  # lam = 2

        # (a) both equilibrium means reach the target within 5% at nu = 1e-3
        fine = Grid(50.0, 10000)
        for make in (ControlSpec.additive, ControlSpec.interaction):
            f = controlled_steady_state(p2, make(1e-3, 3.0), 10.0, fine)
            assert abs(f.mean() - 3.0) <= 0.05 * 3.0

        # (b) interaction control reduces mean and energy at least as much
        grid = Grid(200.0, 10000)
        for nu in (0.1, 1.0, 10.0):
            fa = controlled_steady_state(p2, ControlSpec.additive(nu, 3.0), 10.0, grid)
            fb = controlled_steady_state(p2, ControlSpec.interaction(nu, 3.0), 10.0, grid)
            assert fb.raw_moment(1) <= fa.raw_moment(1)
            assert fb.raw_moment(2) <= fa.raw_moment(2)

        # (c) tail classification per strategy
        for nu in (1.0, 10.0):
            fa = controlled_steady_state(p2, ControlSpec.additive(nu, 3.0), 10.0, grid)
            fb = controlled_steady_state(p2, ControlSpec.interaction(nu, 3.0), 10.0, grid)
            assert tail_classify(fa, (50.0, 100.0)).kind is TailKind.POWER_LAW
            assert tail_classify(fb, (20.0, 40.0)).kind is TailKind.SLIM_TAIL

        # (d) smaller lam leaves a shallower controlled tail at fixed nu
        exponents = {}
        for lam, alpha in ((2.0, 0.4), (4.0, 0.8)):
            p = kp(-1.0, alpha=alpha)
            f = controlled_steady_state(p, ControlSpec.additive(1.0, 3.0), 10.0, grid)
            exponents[lam] = tail_classify(f, (50.0, 100.0)).exponent
        assert abs(exponents[2.0]) < abs(exponents[4.0])

        assert time.monotonic() - start < 10.0


# ---------------------------------------------------------------------------
# criterion 4: kinetic-to-macroscopic consistency

T3_GRID = Grid(500.0, 25000)  # dx = 0.02
T3_EPI = EpidemicParams(betas=(2e-2, 2e-6), gamma_i=GAMMA_I)
T3_RHO0 = (1 - 2e-5, 1e-5, 1e-5)


def _consistency_gaps(tau):
    p = kp(-1.0, tau=tau)
    ic = gamma_profile_state(T3_GRID, 5.0, 10.0, T3_RHO0)
    res = run_scenario(ic, p, ControlSpec.uncontrolled(), T3_EPI, t_final=20.0, dt=0.01)
    model = MacroModel(MacroVariant.L2, ClosureKind.INVERSE_GAMMA, p, T3_EPI)
    s0 = MacroState(*T3_RHO0, 10.0, 10.0, 10.0)
    _, states = rk4_integrate(model, s0, 0.01, 20.0)
    mass_gap = max(
        float(np.max(np.abs(res.column(n) - np.array([getattr(s, n) for s in states]))))
        for n in ("rho_s", "rho_i", "rho_r")
    )
    mean_gap = max(
        float(np.max(
            np.abs(res.column(n) - np.array([getattr(s, n) for s in states]))
            / np.abs(np.array([getattr(s, n) for s in states]))
        ))
        for n in ("m_s", "m_i", "m_r")
    )
    return mass_gap, mean_gap


@pytest.fixture(scope="session")
def t3_gaps():
    return {tau: _consistency_gaps(tau) for tau in (1e-5, 1.0)}


def test_criterion_4_macroscopic_consistency(t3_gaps):
    with report("4", "stiff kinetic run matches the closed second-order system; "
                     "slow relaxation departs"):
        mass_gap, mean_gap = t3_gaps[1e-5]
        assert mass_gap <= 5e-3, mass_gap
        assert mean_gap <= 2e-2, mean_gap
        mass_slow, mean_slow = t3_gaps[1.0]
        assert mass_slow > mass_gap
        assert mean_slow > mean_gap


# the controlled runs of criterion 5 against classical SIR at the derived
# beta, started at m*; their t = 0 row holds the gamma profile at mean 10,
# not m*, so the mean gaps start at t = 0.1.  Control B's means reach m*
# only after a transient of the frozen-mean contact step, hence its wider
# mean tolerance.
T4_CONTROLLED_TOL = {"control_a": (1e-3, 5e-4), "control_b": (2e-4, 5e-2)}


def test_criterion_4_controlled_macroscopic_consistency(t4_runs):
    with report("4", "stiff controlled kinetic runs match classical SIR at the "
                     "controlled incidence"):
        p = kp(-1.0, tau=1e-5)
        for name, control in (("control_a", ControlSpec.additive(1.0, 3.0)),
                              ("control_b", ControlSpec.interaction(1.0, 3.0))):
            res = t4_runs[name]
            model, m_star = controlled_sir(p, T3_EPI, control, T3_GRID, 10.0)
            s0 = MacroState(*res.observables[0, :3].tolist(), m_star, m_star, m_star)
            _, states = rk4_integrate(model, s0, 0.01, 20.0)
            ref = np.array(states[::10])
            gaps = np.abs(res.observables[:, :6] - ref)
            mass_gap = float(gaps[:, :3].max())
            mean_gap = float((gaps[1:, 3:] / ref[1:, 3:]).max())
            mass_tol, mean_tol = T4_CONTROLLED_TOL[name]
            assert mass_gap <= mass_tol, (name, mass_gap)
            assert mean_gap <= mean_tol, (name, mean_gap)
            peak, peak_macro = res.column("rho_i").max(), ref[:, 1].max()
            assert abs(peak - peak_macro) <= 1e-2 * peak_macro, (name, peak, peak_macro)


# ---------------------------------------------------------------------------
# criterion 5: controlled epidemic ordering

T4_RHO0 = (1 - 2e-2, 1e-2, 1e-2)


@pytest.fixture(scope="session")
def t4_runs():
    p = kp(-1.0, tau=1e-5)
    out = {}
    for name, control in (
        ("uncontrolled", ControlSpec.uncontrolled()),
        ("control_a", ControlSpec.additive(1.0, 3.0)),
        ("control_b", ControlSpec.interaction(1.0, 3.0)),
    ):
        ic = gamma_profile_state(T3_GRID, 5.0, 10.0, T4_RHO0)
        out[name] = run_scenario(ic, p, control, T3_EPI, t_final=20.0, dt=0.01,
                                 output_every=10)
    return out


def test_criterion_5_control_ordering(t4_runs):
    with report("5", "interaction control lowers the epidemic peak below the additive "
                     "control and reshapes the tail"):
        peaks = {name: float(res.column("rho_i").max()) for name, res in t4_runs.items()}
        assert peaks["control_b"] < peaks["control_a"]
        assert peaks["control_b"] < peaks["uncontrolled"]
        s_a, s_b = (ContactDensity(T3_GRID, t4_runs[name].final_state.values[0])
                    for name in ("control_a", "control_b"))
        tc_a = tail_classify(s_a, (50.0, 100.0))
        tc_b = tail_classify(s_b, (5.0, 10.0))
        assert tc_a.kind is TailKind.POWER_LAW
        assert tc_b.kind is TailKind.SLIM_TAIL


# ---------------------------------------------------------------------------
# criterion 6: conservation and monotonicity property suite


def test_criterion_6_conservation_and_monotonicity():
    with report("6", "per-step conservation, positivity, mean preservation, "
                     "macro monotonicity, peak orderings"):
        start = time.monotonic()
        grid = Grid(100.0, 1000)

        # mesoscopic mass conservation (per step) and positivity
        p = kp(-1.0)
        stepper = SpStepper(build_operator(p, ControlSpec.uncontrolled(), grid), 7.0, 0.01, 1.0)
        v = uniform_density(grid, 6.0, 8.0).values
        for _ in range(100):
            v2 = stepper.step(v)
            assert abs(v2.sum() - v.sum()) <= 1e-13 * v.sum()
            assert v2.min() >= 0.0
            v = v2

        # particle count conserved exactly
        ens = ParticleEnsemble.from_uniform(20_000, 6.0, 8.0, seed=42)
        for _ in range(100):
            dsmc_step(ens, 5.0, p, ControlSpec.uncontrolled(), 0.01, 1.0)
        assert ens.size == 20_000

        # mean preservation at both tail signs (uncontrolled, fixed mean)
        for delta in (-1.0, 1.0):
            pd = kp(delta)
            f0 = uniform_density(grid, 6.0, 8.0)
            m0 = f0.mean()
            st = SpStepper(build_operator(pd, ControlSpec.uncontrolled(), grid), m0, 0.01, 1.0)
            v = f0.values
            for _ in range(5000):
                v = st.step(v)
            m_end = float((grid.centers() * v).sum() / v.sum())
            assert abs(m_end - m0) / m0 <= 1e-3

        # macro conservation and monotonicity
        model = MacroModel(
            MacroVariant.L2, ClosureKind.INVERSE_GAMMA, kp(-1.0), T3_EPI
        )
        s0 = MacroState(0.98, 0.01, 0.01, 10.0, 10.0, 10.0)
        _, states = rk4_integrate(model, s0, 0.01, 40.0)
        assert max(abs(s.mass_sum() - 1.0) for s in states) <= 1e-10
        assert all(b.rho_s <= a.rho_s + 1e-14 for a, b in zip(states, states[1:]))
        assert all(b.rho_r >= a.rho_r - 1e-14 for a, b in zip(states, states[1:]))
        assert all(b.m_s <= a.m_s + 1e-12 for a, b in zip(states, states[1:]))

        # analytic peak orderings across the admissible tail range
        # (c2 m_S(0) at L1, c3/c2 m_S(0) at L2 with beta_1 = 0)
        for lam in np.linspace(2.05, 20.0, 25):
            c2_g, c3_g = (closure_moment(ClosureKind.GAMMA, r, 1.0, lam) for r in (2, 3))
            c2_i, c3_i = (closure_moment(ClosureKind.INVERSE_GAMMA, r, 1.0, lam) for r in (2, 3))
            l1_g, l2_g = c2_g * 10.0, c3_g / c2_g * 10.0
            l1_i, l2_i = c2_i * 10.0, c3_i / c2_i * 10.0
            assert l1_i > l1_g and l2_i > l2_g and l2_i > l1_i

        assert time.monotonic() - start < 5.0


# ---------------------------------------------------------------------------
# criterion 7: closure limits


def test_criterion_7_closure_limits():
    with report("7", "zero-variance closure collapses to classical SIR; heavier tails "
                     "raise the infected-mean peak"):
        epi = EpidemicParams((1e-3,), GAMMA_I)
        m0 = 10.0
        s0 = MacroState(1 - 2e-5, 1e-5, 1e-5, m0, m0, m0)
        dirac = MacroModel(MacroVariant.L1, ClosureKind.DIRAC, kp(-1.0), epi)
        classical = MacroModel(
            MacroVariant.CLASSICAL_SIR, ClosureKind.DIRAC, kp(-1.0), epi, beta=1e-3 * m0 * m0
        )
        _, t_d = rk4_integrate(dirac, s0, 0.02, 400.0)
        _, t_c = rk4_integrate(classical, s0, 0.02, 400.0)
        assert max(abs(a.rho_i - b.rho_i) for a, b in zip(t_d, t_c)) < 1e-10

        # first-order system, lam = 5
        _, tg = rk4_integrate(MacroModel(MacroVariant.L1, ClosureKind.GAMMA, kp(1.0), epi),
                              s0, 0.02, 600.0)
        _, ti = rk4_integrate(
            MacroModel(MacroVariant.L1, ClosureKind.INVERSE_GAMMA, kp(-1.0), epi), s0, 0.02, 600.0
        )
        assert max(s.m_i for s in ti) > max(s.m_i for s in tg)

        # second-order system driven by the energy alone, lam = 10
        epi2 = EpidemicParams((0.0, 1e-5), GAMMA_I)
        s0b = MacroState(1 - 2e-3, 1e-3, 1e-3, m0, m0, m0)
        _, tg2 = rk4_integrate(
            MacroModel(MacroVariant.L2, ClosureKind.GAMMA, kp(1.0, sigma2=0.1), epi2),
            s0b, 0.02, 400.0,
        )
        _, ti2 = rk4_integrate(
            MacroModel(MacroVariant.L2, ClosureKind.INVERSE_GAMMA, kp(-1.0, sigma2=0.1), epi2),
            s0b, 0.02, 400.0,
        )
        assert max(s.m_i for s in ti2) > max(s.m_i for s in tg2)


# ---------------------------------------------------------------------------
# criterion 8: reproducibility


def test_criterion_8_byte_identical_reruns(tmp_path):
    with report("8", "same seed and config give byte-identical CSV outputs"):
        # delta = -1 moves every particle each step; delta = +1 runs the clocks
        for delta, dt, bound in ((-1.0, 0.01, 1.0), (1.0, 0.001, 10.0)):
            cfg = {
                "schema_version": 1,
                "kind": "dsmc_equilibrium",
                "seed": 2718,
                "kinetic": {"alpha": 1.0, "sigma2": 0.2, "delta": delta, "epsilon": 0.01},
                "grid": {"x_max": 100.0, "n_cells": 400},
                "dsmc": {"n_particles": 20000, "mean_reference": 5.0, "kernel_bound": bound},
                "time": {"dt": dt, "t_final": 3.0},
                "initial": {"low": 6.0, "high": 8.0},
            }
            path = tmp_path / f"repro_{delta:+.0f}.json"
            path.write_text(json.dumps(cfg))
            out_a = execute(path, tmp_path / path.stem / "a")
            out_b = execute(path, tmp_path / path.stem / "b")
            csvs_a = sorted(f.name for f in out_a.glob("*.csv"))
            csvs_b = sorted(f.name for f in out_b.glob("*.csv"))
            assert csvs_a and csvs_a == csvs_b
            for name in csvs_a:
                assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
