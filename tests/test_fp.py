import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinctrl import (
    ContactDensity,
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
from scipy.linalg.lapack import dgtsv

from kinctrl import fp
from kinctrl.errors import NumericsError
from kinctrl.fp import SpStepper, _bernoulli, interface_log_ratios, sp_step_batch
from oracles import drift, histogram


def kp(delta, alpha=1.0, sigma2=0.2, **kw):
    return KineticParams(alpha=alpha, sigma2=sigma2, delta=delta, **kw)


def diffusion(p, x):
    """Diffusion D(x) = (sigma^2/2) x^(2-(1+delta)/2), shared by every rule."""
    return 0.5 * p.sigma2 * x ** (2.0 - (1.0 + p.delta) / 2.0)


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


class TestHistogram:
    def test_normalization(self):
        rng = np.random.default_rng(0)
        h = ContactDensity.from_samples(Grid(100.0, 400), rng.gamma(5.0, 2.0, size=10_000))
        assert h.values.sum() * h.grid.dx == pytest.approx(1.0)

    def test_histogram_equality_returns_a_bool(self):
        # histograms compare by identity, like ensembles
        grid = Grid(4.0, 4)
        a, b = (ContactDensity.from_samples(grid, np.array([1.0, 2.0, 3.0])) for _ in range(2))
        assert (a == b) is False
        assert (a == a) is True

    @pytest.mark.parametrize("x_max, n_bins", [(100.0, 400), (100.0, 200)])
    def test_matches_the_oracle_bit_for_bit(self, x_max, n_bins):
        # the bundled particle grids: dx is a power-of-two fraction, so the
        # cell centers are the old bin-edge midpoints exactly
        samples = np.random.default_rng(1).gamma(5.0, 2.0, size=100_000)
        x, f = histogram(samples, n_bins, x_max)
        h = ContactDensity.from_samples(Grid(x_max, n_bins), samples)
        assert np.array_equal(h.values, f)
        assert np.array_equal(h.grid.centers(), x)

    def test_other_widths_move_centers_by_at_most_one_ulp(self):
        # dx = 0.075 is the old bin width, but (i + 1/2) dx and the edge
        # midpoints round differently in 147 of the 400 cells
        samples = np.random.default_rng(2).gamma(5.0, 2.0, size=100_000)
        x, f = histogram(samples, 400, 30.0)
        h = ContactDensity.from_samples(Grid(30.0, 400), samples)
        assert np.array_equal(h.values, f)
        centers = h.grid.centers()
        assert np.all(np.abs(centers - x) <= np.spacing(x))
        assert np.count_nonzero(centers != x) == 147

    def test_samples_beyond_x_max_are_left_out(self):
        h = ContactDensity.from_samples(Grid(4.0, 4), np.array([0.5, 1.5, 4.0, 4.5, 9.0]))
        assert np.array_equal(h.values, [1 / 3, 1 / 3, 0.0, 1 / 3])

    def test_no_sample_inside_is_numerics_error(self):
        with pytest.raises(NumericsError, match="no particle"):
            ContactDensity.from_samples(Grid(4.0, 4), np.array([4.5, 9.0]))

    def test_l1_distance(self):
        h = ContactDensity(Grid(4.0, 4), np.array([0.5, 0.5, 0.0, 0.0]))
        assert h.l1_distance(np.array([0.25, 0.25, 0.25, 0.25])) == 1.0
        with pytest.raises(ValueError, match="match"):
            h.l1_distance(np.ones(3))


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
            c_at_mean = drift(kp(delta), ControlSpec.uncontrolled(), 7.0, np.array([7.0]))
            assert abs(c_at_mean[0]) < 1e-14

    def test_interaction_drift_double_zero(self):
        vals = drift(kp(-1.0), ControlSpec.interaction(1.0, 3.0), 10.0, np.array([3.0, 10.0]))
        assert vals == pytest.approx([0.0, 0.0], abs=1e-14)

    def test_additive_large_nu_matches_uncontrolled(self):
        x = np.linspace(0.1, 80.0, 500)
        un = drift(kp(-1.0), ControlSpec.uncontrolled(), 5.0, x)
        ctrl = drift(kp(-1.0), ControlSpec.additive(1e15, 3.0), 5.0, x)
        assert np.max(np.abs(un - ctrl)) < 1e-12
        grid = Grid(80.0, 500)
        w_un, w_ctrl = (
            interface_log_ratios(build_operator(kp(-1.0), c, grid), [5.0])
            for c in (ControlSpec.uncontrolled(), ControlSpec.additive(1e15, 3.0))
        )
        assert np.max(np.abs(w_un - w_ctrl)) < 1e-12

    def test_diffusion_shared_across_operators(self):
        grid = Grid(50.0, 100)
        ops = [
            build_operator(kp(-1.0), c, grid)
            for c in (
                ControlSpec.uncontrolled(),
                ControlSpec.additive(1.0, 3.0),
                ControlSpec.interaction(1.0, 3.0),
            )
        ]
        d_if = diffusion(kp(-1.0), grid.interior_interfaces())
        for op in ops:
            assert op.d_interfaces == pytest.approx(d_if)

    def test_controlled_requires_delta_minus_one(self):
        with pytest.raises(ValueError):
            build_operator(kp(1.0), ControlSpec.additive(1.0, 3.0), Grid(10.0, 50))

    def test_reference_mean_must_be_positive(self):
        op = build_operator(kp(-1.0), ControlSpec.uncontrolled(), Grid(10.0, 50))
        for m in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                interface_log_ratios(op, [m])


class TestSteadyState:
    def test_matches_inverse_gamma(self):
        grid = Grid(200.0, 10000)  # dx = 0.02
        p = kp(-1.0)
        ss = steady_state_solve(build_operator(p, ControlSpec.uncontrolled(), grid), 10.0)
        eq = EquilibriumDensity(p, 10.0, grid)
        assert l1(ss.values, eq.values, grid.dx) < 1e-6

    def test_matches_gamma(self):
        grid = Grid(100.0, 5000)
        p = kp(1.0)
        ss = steady_state_solve(build_operator(p, ControlSpec.uncontrolled(), grid), 10.0)
        eq = EquilibriumDensity(p, 10.0, grid)
        assert l1(ss.values, eq.values, grid.dx) < 1e-6

    def test_matches_additive_closed_form(self):
        grid = Grid(150.0, 7500)
        p = kp(-1.0)
        c = ControlSpec.additive(1.0, 3.0)
        ss = steady_state_solve(build_operator(p, c, grid), 5.0)
        eq = controlled_steady_state(p, c, 5.0, grid)
        assert l1(ss.values, eq.values, grid.dx) < 1e-6

    def test_matches_interaction_integrated_form(self):
        grid = Grid(100.0, 5000)
        p = kp(-1.0)
        c = ControlSpec.interaction(1.0, 3.0)
        ss = steady_state_solve(build_operator(p, c, grid), 5.0)
        eq = controlled_steady_state(p, c, 5.0, grid)
        assert l1(ss.values, eq.values, grid.dx) < 1e-6


    def test_is_a_fixed_point_of_the_implicit_step(self):
        # built by products outward from the peak, each neighbour ratio is
        # exact to a few roundings, so one implicit step leaves the density
        # where it is (a running sum of w moved it by about 4e-12)
        grid = Grid(200.0, 600)
        p = kp(-1.0, alpha=1.6, sigma2=0.33)
        op = build_operator(p, ControlSpec.interaction(0.84, 9.6), grid)
        f = steady_state_solve(op, 54.0).values
        out = SpStepper(op, 54.0, 0.01, 1.0).step(f)
        assert np.max(np.abs(out - f)) <= 1e-14 * f.max()


class TestSpStep:
    def test_preserves_analytic_equilibrium(self):
        grid = Grid(200.0, 10000)
        p = kp(-1.0)
        eq = EquilibriumDensity(p, 10.0, grid)
        stepper = SpStepper(build_operator(p, ControlSpec.uncontrolled(), grid), 10.0, 0.01, 1.0)
        out = stepper.step(eq.values)
        assert l1(out, eq.values, grid.dx) < 1e-6

    def test_mass_conservation_per_step(self):
        grid = Grid(100.0, 1000)
        p = kp(-1.0)
        stepper = SpStepper(build_operator(p, ControlSpec.uncontrolled(), grid), 7.0, 0.01, 1.0)
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
            op = build_operator(p, ControlSpec.uncontrolled(), grid)
            out = SpStepper(op, 7.0, dt, 1.0).step(f.values)
            assert out.min() >= 0.0

    def test_long_time_limit_equals_steady_state(self):
        grid = Grid(100.0, 1000)
        p = kp(-1.0)
        op = build_operator(p, ControlSpec.uncontrolled(), grid)
        stepper = SpStepper(op, 7.0, 0.05, 1.0)
        v = uniform_density(grid, 6.0, 8.0).values
        for _ in range(1500):
            v = stepper.step(v)
        ss = steady_state_solve(op, 7.0)
        assert l1(v, ss.values, grid.dx) < 1e-5

    def test_mean_preserved_uncontrolled(self):
        # first moment drift below 1e-3 relative over T=50 for both tail signs
        grid = Grid(100.0, 1000)
        for delta, dt in ((-1.0, 0.01), (1.0, 0.01)):
            p = kp(delta)
            f = uniform_density(grid, 6.0, 8.0)
            m0 = f.mean()
            stepper = SpStepper(build_operator(p, ControlSpec.uncontrolled(), grid), m0, dt, 1.0)
            v = f.values
            for _ in range(int(round(50.0 / dt))):
                v = stepper.step(v)
            m_end = (grid.centers() * v).sum() / v.sum()
            assert abs(m_end - m0) / m0 < 1e-3

    def test_validates_steps(self):
        grid = Grid(10.0, 50)
        op = build_operator(kp(-1.0), ControlSpec.uncontrolled(), grid)
        with pytest.raises(ValueError):
            SpStepper(op, 5.0, dt=0.0, tau=1.0)
        with pytest.raises(ValueError):
            SpStepper(op, 5.0, dt=0.1, tau=-1.0)


class TestControlledMeanOrdering:
    def test_interaction_mean_below_additive(self):
        # lam = 2 tail-sweep setting; both means approach the target as the
        # penalization vanishes
        p = kp(-1.0, alpha=0.4)
        grid = Grid(200.0, 10000)
        for nu in (0.1, 1.0, 10.0):
            fa = steady_state_solve(build_operator(p, ControlSpec.additive(nu, 3.0), grid), 10.0)
            fb = steady_state_solve(build_operator(p, ControlSpec.interaction(nu, 3.0), grid), 10.0)
            assert fb.mean() <= fa.mean()

    def test_means_approach_target(self):
        p = kp(-1.0, alpha=0.4)
        grid = Grid(50.0, 10000)
        for make in (ControlSpec.additive, ControlSpec.interaction):
            f = steady_state_solve(build_operator(p, make(1e-3, 3.0), grid), 10.0)
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


def quadrature_of_the_operator(p, c, m, grid):
    """(quadrature of C/D, ln D jump) between neighbouring cell centers at mean m.

    Their sum is w, integrated from the drift at m itself with 5-point
    Gauss-Legendre nodes: an oracle independent of the per-rule basis.
    """
    x = grid.centers()
    half, mid = 0.5 * (x[1:] - x[:-1]), 0.5 * (x[1:] + x[:-1])
    nodes, weights = np.polynomial.legendre.leggauss(5)
    quad = sum(
        wq * half * (drift(p, c, m, mid + half * node) / diffusion(p, mid + half * node))
        for node, wq in zip(nodes, weights)
    )
    return quad, np.diff(np.log(diffusion(p, x)))


class TestInterfaceWeights:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(rule=rules(), m=st.floats(0.5, 100.0))
    def test_matches_quadrature_of_the_operator(self, rule, m):
        # w is a sum of the drift quadrature and the ln D jump, which nearly
        # cancel where lam = alpha/sigma2 is close to 1; rounding is measured
        # against the size of those summands
        p, c = rule
        quad, jump = quadrature_of_the_operator(p, c, m, WEIGHTS_GRID)
        scale = np.max(np.abs(quad) + np.abs(jump))
        w = interface_log_ratios(build_operator(p, c, WEIGHTS_GRID), [m])[0]
        assert np.max(np.abs(w - (quad + jump))) <= 1e-13 * scale

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        rule=rules(),
        means=st.lists(st.floats(0.5, 100.0), min_size=1, max_size=3),
        tau=st.floats(0.01, 10.0),
    )
    def test_batched_step_keeps_each_equilibrium(self, rule, means, tau):
        p, c = rule
        op = build_operator(p, c, WEIGHTS_GRID)
        w = interface_log_ratios(op, means)
        rows = [scale * discrete_equilibrium(w_m) for scale, w_m in zip((1.0, 0.3, 1e-4), w)]
        out = sp_step_batch(op, rows, means, 0.01, tau)
        for row, new in zip(rows, out):
            assert np.max(np.abs(new - row)) <= 1e-12 * np.max(row)
            assert abs(new.sum() - row.sum()) <= 1e-13 * row.sum()

    def test_cached_once_per_rule_and_read_only(self):
        p, c = kp(-1.0), ControlSpec.interaction(1.0, 3.0)
        op = build_operator(p, c, WEIGHTS_GRID)
        again = build_operator(kp(-1.0), ControlSpec.interaction(1.0, 3.0), Grid(200.0, 600))
        assert again is op
        with pytest.raises(ValueError):
            op.basis[0, 0] = 0.0

    def test_batched_rows_match_single_steppers(self):
        grid = Grid(100.0, 1000)
        p, c = kp(-1.0), ControlSpec.additive(1.0, 3.0)
        rows = [uniform_density(grid, lo, lo + 2.0).values for lo in (2.0, 6.0, 30.0)]
        means = [3.0, 7.0, 31.0]
        op = build_operator(p, c, grid)
        out = sp_step_batch(op, rows, means, 0.05, 1.0)
        for row, m, new in zip(rows, means, out):
            alone = SpStepper(op, m, 0.05, 1.0).step(row)
            assert np.max(np.abs(new - alone)) <= 1e-13 * np.max(alone)

    def test_non_finite_step_is_numerics_error(self):
        grid = Grid(10.0, 50)
        op = build_operator(kp(-1.0), ControlSpec.uncontrolled(), grid)
        row = uniform_density(grid, 2.0, 8.0).values.copy()
        row[10] = np.nan
        with pytest.raises(NumericsError):
            sp_step_batch(op, [row], [5.0], 0.1, 1.0)

    def test_controls_require_delta_minus_one(self):
        with pytest.raises(ValueError):
            build_operator(kp(1.0), ControlSpec.interaction(1.0, 3.0), WEIGHTS_GRID)


# The implicit step solves each row on its support plus the cells its step
# reaches, which must equal the whole system bit for bit.
TRIM_GRID = Grid(100.0, 1000)


def stacked_step(op, values, means, dt, tau):
    """Every row in full, as the blocks of one tridiagonal gtsv solve: the
    oracle of the trimmed per-row solves and of the factored SpStepper."""
    c = dt / (tau * op.grid.dx * op.grid.dx)
    w = interface_log_ratios(op, means)
    shape = (w.shape[0], w.shape[1] + 1)
    lower, upper = np.zeros(shape), np.zeros(shape)
    left, right = _bernoulli(w, out=(lower[:, :-1], upper[:, :-1]))
    scale = -c * op.d_interfaces
    left *= scale
    right *= scale
    diag = np.ones(shape)
    diag[:, :-1] -= left
    diag[:, 1:] -= right
    rhs = np.array(values, dtype=float).reshape(-1, 1)
    *_, out, info = dgtsv(lower.ravel()[:-1], diag.ravel(), upper.ravel()[:-1], rhs)
    assert info == 0
    return out.reshape(shape)


def assert_same_bits(a, b):
    """Equal to the last bit, the sign of zero included."""
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


def cut(values, end):
    """values with every cell from end on set to 0.0."""
    out = np.array(values, dtype=float)
    out[end:] = 0.0
    return out


class TestTrimmedStep:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        nu=st.floats(0.1, 10.0),
        x_target=st.floats(0.0, 10.0),
        means=st.lists(st.floats(0.5, 20.0), min_size=1, max_size=3),
        ends=st.lists(st.integers(1, TRIM_GRID.n_cells), min_size=3, max_size=3),
        log_tau=st.floats(-5.0, 1.0),
    )
    def test_control_b_rows_with_zero_tails(self, nu, x_target, means, ends, log_tau):
        op = build_operator(kp(-1.0), ControlSpec.interaction(nu, x_target), TRIM_GRID)
        rows = [cut(steady_state_solve(op, m).values, end) for m, end in zip(means, ends)]
        tau = 10.0 ** log_tau
        out = sp_step_batch(op, rows, means, 0.01, tau)
        assert_same_bits(out, stacked_step(op, rows, means, 0.01, tau))

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        rule=rules(),
        means=st.lists(st.floats(0.5, 100.0), min_size=1, max_size=3),
        log_tau=st.floats(-5.0, 1.0),
    )
    def test_full_support_rows(self, rule, means, log_tau):
        p, c = rule
        op = build_operator(p, c, WEIGHTS_GRID)
        rows = [0.5 + np.cos(np.arange(WEIGHTS_GRID.n_cells) * m) ** 2 for m in means]
        tau = 10.0 ** log_tau
        out = sp_step_batch(op, rows, means, 0.01, tau)
        assert_same_bits(out, stacked_step(op, rows, means, 0.01, tau))

    @pytest.mark.parametrize("tau", [1e-5, 1e-2, 1.0])
    def test_a_step_reaching_past_the_margin_widens(self, tau, monkeypatch):
        # the uncontrolled tail is fat, so the sweep decays slowly past the support
        op = build_operator(kp(-1.0), ControlSpec.uncontrolled(), TRIM_GRID)
        row = cut(steady_state_solve(op, 7.0).values, 300)
        sizes = []
        solve = fp._gtsv

        def recorded(lower, diag, upper, rhs):
            sizes.append(diag.size)
            solve(lower, diag, upper, rhs)

        monkeypatch.setattr(fp, "_gtsv", recorded)
        out = sp_step_batch(op, [row], [7.0], 0.01, tau)
        assert_same_bits(out, stacked_step(op, [row], [7.0], 0.01, tau))
        assert len(sizes) >= 2  # the first trim was rejected
        assert sizes[0] == 300 + fp._MARGIN + 1
        assert out[0, 300 + fp._MARGIN] > 0.0

    def test_empty_row_in_a_batch(self):
        op = build_operator(kp(-1.0), ControlSpec.interaction(1.0, 3.0), TRIM_GRID)
        rows = [steady_state_solve(op, 3.0).values, np.zeros(TRIM_GRID.n_cells)]
        out = sp_step_batch(op, rows, [3.0, 3.0], 0.01, 1e-5)
        assert_same_bits(out, stacked_step(op, rows, [3.0, 3.0], 0.01, 1e-5))
        assert not out[1].any()

    def test_partially_live_state(self):
        from kinctrl.kinetic import MASS_FLOOR, KineticSIRState, _contact_substep

        p, c = kp(-1.0, tau=1e-5), ControlSpec.interaction(1.0, 3.0)
        op = build_operator(p, c, TRIM_GRID)
        values = np.zeros((3, TRIM_GRID.n_cells))
        values[0] = cut(steady_state_solve(op, 4.0).values, 400)
        values[2] = 0.3 * steady_state_solve(op, 2.0).values
        state = KineticSIRState(values, TRIM_GRID)
        new = _contact_substep(state, p, c, 0.01)

        live = values[[0, 2]]
        masses = live.sum(axis=1) * TRIM_GRID.dx
        means = [float(TRIM_GRID.centers() @ v) * TRIM_GRID.dx / m for v, m in zip(live, masses)]
        expected = stacked_step(op, live, means, 0.01, p.tau)
        expected *= (masses / (expected.sum(axis=1) * TRIM_GRID.dx))[:, None]
        assert masses.min() > MASS_FLOOR
        assert_same_bits(new.values[[0, 2]], expected)
        assert_same_bits(new.values[1], values[1])

    def test_workspace_alternates_grids_and_operators(self):
        grids = (TRIM_GRID, Grid(60.0, 700))
        controls = (ControlSpec.interaction(1.0, 3.0), ControlSpec.uncontrolled())
        for round_ in range(3):
            for grid in grids:
                for c in controls:
                    op = build_operator(kp(-1.0), c, grid)
                    end = 150 + 200 * round_
                    rows = [cut(steady_state_solve(op, m).values, end) for m in (2.0, 5.0)]
                    out = sp_step_batch(op, rows, [2.0, 5.0], 0.01, 1e-3)
                    assert_same_bits(out, stacked_step(op, rows, [2.0, 5.0], 0.01, 1e-3))

    @pytest.mark.parametrize(
        "c",
        [
            ControlSpec.uncontrolled(),
            ControlSpec.additive(1.0, 3.0),
            ControlSpec.interaction(1.0, 3.0),
        ],
    )
    def test_factored_stepper_equals_gtsv(self, c):
        op = build_operator(kp(-1.0), c, TRIM_GRID)
        stepper = SpStepper(op, 5.0, 0.05, 1.0)
        v = uniform_density(TRIM_GRID, 4.0, 6.0).values
        for _ in range(20):
            new = stepper.step(v)
            assert_same_bits(new, stacked_step(op, [v], [5.0], 0.05, 1.0)[0])
            v = new
