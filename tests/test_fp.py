import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinctrl import (
    ControlSpec,
    EquilibriumDensity,
    Grid,
    KineticParams,
    Strategy,
    build_operator,
    controlled_steady_state,
    steady_state_solve,
    uniform_density,
)
from kinctrl.errors import NumericsError
from kinctrl.fp import (
    DriftDiffusion,
    SpStepper,
    _bernoulli,
    _log_diffusion_jump,
    interface_log_ratios,
    interface_weights,
    sp_step_batch,
)


def kp(delta, alpha=1.0, sigma2=0.2, **kw):
    return KineticParams(alpha=alpha, sigma2=sigma2, delta=delta, **kw)


def l1(a, b, dx):
    return np.abs(a - b).sum() * dx


class TestGrid:
    def test_geometry(self):
        g = Grid(100.0, 1000)
        assert g.dx == pytest.approx(0.1)
        c = g.centers()
        assert c[0] == pytest.approx(0.05)
        assert c[-1] == pytest.approx(99.95)
        assert len(g.interior_interfaces()) == 999

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(0.0, 10)
        with pytest.raises(ValueError):
            Grid(10.0, 1)


class TestBernoulli:
    def test_limits(self):
        w = np.array([0.0, 1e-12, 800.0, -800.0, 2.0, -2.0])
        b, b_minus = _bernoulli(w)
        assert b_minus == pytest.approx(_bernoulli(-w)[0])
        assert b[0] == pytest.approx(1.0)
        assert b[1] == pytest.approx(1.0)
        assert b[2] == 0.0
        assert b[3] == pytest.approx(800.0)
        assert b[4] == pytest.approx(2.0 / np.expm1(2.0))
        assert b[5] == pytest.approx(-2.0 / np.expm1(-2.0))

    def test_equilibrium_ratio_identity(self):
        w = np.linspace(-30, 30, 301)
        b, b_minus = _bernoulli(w)
        ratio = b / b_minus
        assert ratio == pytest.approx(np.exp(-w))

    def test_matches_scalar_expm1(self):
        # B(w) = w / expm1(w) at every scale, each value against the scalar
        # libm expm1 (the old 1 - exp(-w) form was 5e-9 off near w = 1e-8)
        w = np.logspace(-12, 2.8, 500)
        w = np.concatenate([w, -w])
        b, b_minus = _bernoulli(w)
        ref = np.array([v / math.expm1(v) for v in w])
        ref_minus = np.array([-v / math.expm1(-v) for v in w])
        assert np.max(np.abs(b / ref - 1.0)) <= 1e-14
        assert np.max(np.abs(b_minus / ref_minus - 1.0)) <= 1e-14


class TestBuildOperator:
    def test_uncontrolled_drift_zero_at_mean(self):
        for delta in (-1.0, 0.0, 1.0):
            op = build_operator(kp(delta), ControlSpec.uncontrolled(), 7.0)
            assert abs(op.drift(np.array([7.0]))[0]) < 1e-14

    def test_interaction_drift_double_zero(self):
        op = build_operator(kp(-1.0), ControlSpec.interaction(1.0, 3.0), 10.0)
        vals = op.drift(np.array([3.0, 10.0]))
        assert vals == pytest.approx([0.0, 0.0], abs=1e-14)

    def test_additive_large_nu_matches_uncontrolled(self):
        x = np.linspace(0.1, 80.0, 500)
        un = build_operator(kp(-1.0), ControlSpec.uncontrolled(), 5.0)
        ctrl = build_operator(kp(-1.0), ControlSpec.additive(1e15, 3.0), 5.0)
        assert np.max(np.abs(un.drift(x) - ctrl.drift(x))) < 1e-12
        assert np.max(np.abs(un.diffusion(x) - ctrl.diffusion(x))) == 0.0

    def test_diffusion_shared_across_operators(self):
        x = np.linspace(0.1, 50.0, 100)
        ops = [
            build_operator(kp(-1.0), c, 5.0)
            for c in (
                ControlSpec.uncontrolled(),
                ControlSpec.additive(1.0, 3.0),
                ControlSpec.interaction(1.0, 3.0),
            )
        ]
        for op in ops[1:]:
            assert op.diffusion(x) == pytest.approx(ops[0].diffusion(x))

    def test_controlled_requires_delta_minus_one(self):
        with pytest.raises(ValueError):
            build_operator(kp(1.0), ControlSpec.additive(1.0, 3.0), 5.0)


class TestSteadyState:
    def test_matches_inverse_gamma(self):
        grid = Grid(200.0, 10000)  # dx = 0.02
        p = kp(-1.0)
        ss = steady_state_solve(build_operator(p, ControlSpec.uncontrolled(), 10.0), grid)
        eq = EquilibriumDensity(p, 10.0, grid)
        assert l1(ss.values, eq.values, grid.dx) < 1e-6

    def test_matches_gamma(self):
        grid = Grid(100.0, 5000)
        p = kp(1.0)
        ss = steady_state_solve(build_operator(p, ControlSpec.uncontrolled(), 10.0), grid)
        eq = EquilibriumDensity(p, 10.0, grid)
        assert l1(ss.values, eq.values, grid.dx) < 1e-6

    def test_matches_additive_closed_form(self):
        grid = Grid(150.0, 7500)
        p = kp(-1.0)
        c = ControlSpec.additive(1.0, 3.0)
        ss = steady_state_solve(build_operator(p, c, 5.0), grid)
        eq = controlled_steady_state(p, c, 5.0, grid)
        assert l1(ss.values, eq.values, grid.dx) < 1e-6

    def test_matches_interaction_integrated_form(self):
        grid = Grid(100.0, 5000)
        p = kp(-1.0)
        c = ControlSpec.interaction(1.0, 3.0)
        ss = steady_state_solve(build_operator(p, c, 5.0), grid)
        eq = controlled_steady_state(p, c, 5.0, grid)
        assert l1(ss.values, eq.values, grid.dx) < 1e-6


    def test_is_a_fixed_point_of_the_implicit_step(self):
        # built by products outward from the peak, each neighbour ratio is
        # exact to a few roundings, so one implicit step leaves the density
        # where it is (a running sum of w moved it by about 4e-12)
        grid = Grid(200.0, 600)
        p = kp(-1.0, alpha=1.6, sigma2=0.33)
        op = build_operator(p, ControlSpec.interaction(0.84, 9.6), 54.0)
        f = steady_state_solve(op, grid).values
        out = SpStepper(grid, op, 0.01, 1.0).step(f)
        assert np.max(np.abs(out - f)) <= 1e-14 * f.max()


class TestSpStep:
    def test_identity_for_zero_operator(self):
        grid = Grid(10.0, 100)
        zero_op = DriftDiffusion(
            drift=lambda x: np.zeros_like(x),
            diffusion=lambda x: np.zeros_like(x),
        )
        f = uniform_density(grid, 2.0, 8.0)
        out = SpStepper(grid, zero_op, dt=0.5, tau=1.0).step(f.values)
        assert out == pytest.approx(f.values)

    def test_preserves_analytic_equilibrium(self):
        grid = Grid(200.0, 10000)
        p = kp(-1.0)
        eq = EquilibriumDensity(p, 10.0, grid)
        stepper = SpStepper(grid, build_operator(p, ControlSpec.uncontrolled(), 10.0), 0.01, 1.0)
        out = stepper.step(eq.values)
        assert l1(out, eq.values, grid.dx) < 1e-6

    def test_mass_conservation_per_step(self):
        grid = Grid(100.0, 1000)
        p = kp(-1.0)
        stepper = SpStepper(grid, build_operator(p, ControlSpec.uncontrolled(), 7.0), 0.01, 1.0)
        v = uniform_density(grid, 6.0, 8.0).values
        for _ in range(200):
            v2 = stepper.step(v)
            assert abs(v2.sum() - v.sum()) * grid.dx <= 1e-13 * v.sum() * grid.dx
            v = v2

    def test_positivity_even_for_large_dt(self):
        grid = Grid(100.0, 500)
        p = kp(-1.0)
        f = uniform_density(grid, 6.0, 8.0)
        for dt in (0.01, 1.0, 100.0):
            op = build_operator(p, ControlSpec.uncontrolled(), 7.0)
            out = SpStepper(grid, op, dt, 1.0).step(f.values)
            assert out.min() >= 0.0

    def test_long_time_limit_equals_steady_state(self):
        grid = Grid(100.0, 1000)
        p = kp(-1.0)
        op = build_operator(p, ControlSpec.uncontrolled(), 7.0)
        stepper = SpStepper(grid, op, 0.05, 1.0)
        v = uniform_density(grid, 6.0, 8.0).values
        for _ in range(1500):
            v = stepper.step(v)
        ss = steady_state_solve(op, grid)
        assert l1(v, ss.values, grid.dx) < 1e-5

    def test_mean_preserved_uncontrolled(self):
        # first moment drift below 1e-3 relative over T=50 for both tail signs
        grid = Grid(100.0, 1000)
        for delta, dt in ((-1.0, 0.01), (1.0, 0.01)):
            p = kp(delta)
            f = uniform_density(grid, 6.0, 8.0)
            m0 = f.mean()
            stepper = SpStepper(grid, build_operator(p, ControlSpec.uncontrolled(), m0), dt, 1.0)
            v = f.values
            for _ in range(int(round(50.0 / dt))):
                v = stepper.step(v)
            m_end = (grid.centers() * v).sum() / v.sum()
            assert abs(m_end - m0) / m0 < 1e-3

    def test_validates_steps(self):
        grid = Grid(10.0, 50)
        op = build_operator(kp(-1.0), ControlSpec.uncontrolled(), 5.0)
        with pytest.raises(ValueError):
            SpStepper(grid, op, dt=0.0, tau=1.0)
        with pytest.raises(ValueError):
            SpStepper(grid, op, dt=0.1, tau=-1.0)


class TestControlledMeanOrdering:
    def test_interaction_mean_below_additive(self):
        # lam = 2 tail-sweep setting; both means approach the target as the
        # penalization vanishes
        p = kp(-1.0, alpha=0.4)
        grid = Grid(200.0, 10000)
        for nu in (0.1, 1.0, 10.0):
            fa = steady_state_solve(build_operator(p, ControlSpec.additive(nu, 3.0), 10.0), grid)
            fb = steady_state_solve(build_operator(p, ControlSpec.interaction(nu, 3.0), 10.0), grid)
            assert fb.mean() <= fa.mean()

    def test_means_approach_target(self):
        p = kp(-1.0, alpha=0.4)
        grid = Grid(50.0, 10000)
        for make in (ControlSpec.additive, ControlSpec.interaction):
            f = steady_state_solve(build_operator(p, make(1e-3, 3.0), 10.0), grid)
            assert f.mean() == pytest.approx(3.0, rel=0.05)


# Cached interface weights and the batched implicit step, over random rules.
WEIGHTS_GRID = Grid(200.0, 600)


@st.composite
def rules(draw):
    """(KineticParams, ControlSpec): any delta when uncontrolled, delta = -1 for controls."""
    strategy = draw(st.sampled_from(Strategy))
    alpha = draw(st.floats(0.2, 2.0))
    sigma2 = draw(st.floats(0.1, 1.0))
    if strategy is Strategy.UNCONTROLLED:
        delta = draw(st.one_of(st.floats(-1.0, 1.0), st.floats(-1e-10, 1e-10)))
        return KineticParams(alpha, sigma2, delta), ControlSpec.uncontrolled()
    c = ControlSpec(strategy, nu=draw(st.floats(0.1, 10.0)), x_target=draw(st.floats(0.0, 10.0)))
    return KineticParams(alpha, sigma2, -1.0), c


def discrete_equilibrium(w):
    """f with f[i+1] / f[i] = exp(-w[i]) to one rounding per cell, peak 1.

    Built by products outward from the peak, so no cell ratio carries the
    rounding of a long cumulative sum of logs.
    """
    log_f = np.concatenate([[0.0], -np.cumsum(w)])
    k = int(np.argmax(log_f))
    f = np.empty(len(log_f))
    f[k] = 1.0
    f[k + 1:] = np.cumprod(np.exp(-w[k:]))
    f[:k] = np.cumprod(np.exp(w[:k][::-1]))[::-1]
    return f


class TestInterfaceWeights:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(rule=rules(), m=st.floats(0.5, 100.0))
    def test_matches_quadrature_of_the_operator(self, rule, m):
        # w is a sum of the drift quadrature and the ln D jump, which nearly
        # cancel where lam = alpha/sigma2 is close to 1; rounding is measured
        # against the size of those summands
        p, c = rule
        op = build_operator(p, c, m)
        ref = interface_log_ratios(op, WEIGHTS_GRID)
        jump = _log_diffusion_jump(op.diffusion, WEIGHTS_GRID)
        scale = np.max(np.abs(ref - jump) + np.abs(jump))
        w = interface_weights(WEIGHTS_GRID, p, c).at(m)
        assert np.max(np.abs(w - ref)) <= 1e-13 * scale

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        rule=rules(),
        means=st.lists(st.floats(0.5, 100.0), min_size=1, max_size=3),
        tau=st.floats(0.01, 10.0),
    )
    def test_batched_step_keeps_each_equilibrium(self, rule, means, tau):
        p, c = rule
        weights = interface_weights(WEIGHTS_GRID, p, c)
        rows = [
            scale * discrete_equilibrium(weights.at(m)) for scale, m in zip((1.0, 0.3, 1e-4), means)
        ]
        out = sp_step_batch(weights, rows, means, 0.01, tau)
        for row, new in zip(rows, out):
            assert np.max(np.abs(new - row)) <= 1e-12 * np.max(row)
            assert abs(new.sum() - row.sum()) <= 1e-13 * row.sum()

    def test_cached_once_per_rule_and_read_only(self):
        p, c = kp(-1.0), ControlSpec.interaction(1.0, 3.0)
        weights = interface_weights(WEIGHTS_GRID, p, c)
        again = interface_weights(Grid(200.0, 600), kp(-1.0), ControlSpec.interaction(1.0, 3.0))
        assert again is weights
        with pytest.raises(ValueError):
            weights.basis[0, 0] = 0.0

    def test_batched_rows_match_single_steppers(self):
        grid = Grid(100.0, 1000)
        p, c = kp(-1.0), ControlSpec.additive(1.0, 3.0)
        rows = [uniform_density(grid, lo, lo + 2.0).values for lo in (2.0, 6.0, 30.0)]
        means = [3.0, 7.0, 31.0]
        out = sp_step_batch(interface_weights(grid, p, c), rows, means, 0.05, 1.0)
        for row, m, new in zip(rows, means, out):
            alone = SpStepper(grid, build_operator(p, c, m), 0.05, 1.0).step(row)
            assert np.max(np.abs(new - alone)) <= 1e-13 * np.max(alone)

    def test_non_finite_step_is_numerics_error(self):
        grid = Grid(10.0, 50)
        weights = interface_weights(grid, kp(-1.0), ControlSpec.uncontrolled())
        row = uniform_density(grid, 2.0, 8.0).values.copy()
        row[10] = np.nan
        with pytest.raises(NumericsError):
            sp_step_batch(weights, [row], [5.0], 0.1, 1.0)

    def test_controls_require_delta_minus_one(self):
        with pytest.raises(ValueError):
            interface_weights(WEIGHTS_GRID, kp(1.0), ControlSpec.additive(1.0, 3.0))
