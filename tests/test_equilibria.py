import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaln

from kinctrl import (
    ClosureKind,
    ContactDensity,
    ControlSpec,
    EquilibriumDensity,
    EquilibriumKind,
    Grid,
    KineticParams,
    TailKind,
    closure_moment,
    controlled_steady_state,
    tail_classify,
)
from kinctrl.errors import NumericsError


def kp(delta, alpha=1.0, sigma2=0.2):
    return KineticParams(alpha=alpha, sigma2=sigma2, delta=delta)


def gamma_pdf(x, lam, m):
    # textbook closed-form constant, used as oracle only
    return np.exp(
        lam * np.log(lam) - lam * np.log(m) - gammaln(lam) + (lam - 1) * np.log(x) - lam * x / m
    )


def inv_gamma_pdf(x, lam, m):
    return np.exp(
        (lam + 1) * np.log(lam * m) - gammaln(lam + 1) - (lam + 2) * np.log(x) - lam * m / x
    )


class TestClosureMoments:
    def test_hand_values(self):
        assert closure_moment(ClosureKind.GAMMA, 2, 10.0, 5.0) == pytest.approx(120.0)
        assert closure_moment(ClosureKind.INVERSE_GAMMA, 2, 10.0, 5.0) == pytest.approx(125.0)
        assert closure_moment(ClosureKind.DIRAC, 3, 10.0) == pytest.approx(1000.0)
        # order r exists for lam > r - 1: lam = r is admissible
        assert closure_moment(ClosureKind.INVERSE_GAMMA, 2, 10.0, 2.0) == pytest.approx(200.0)

    def test_inverse_gamma_needs_heavy_lam(self):
        with pytest.raises(ValueError):
            closure_moment(ClosureKind.INVERSE_GAMMA, 3, 10.0, 2.0)
        with pytest.raises(ValueError):
            closure_moment(ClosureKind.INVERSE_GAMMA, 2, 10.0, 1.0)

    @pytest.mark.parametrize("lam", [3.0, 5.0, 10.0])
    @pytest.mark.parametrize("m", [1.0, 10.0])
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_matches_quadrature_oracle(self, lam, m, r):
        # independent oracle: adaptive quadrature of the closed-form pdfs
        val = quad(lambda x: x**r * gamma_pdf(x, lam, m), 0, np.inf)[0]
        assert closure_moment(ClosureKind.GAMMA, r, m, lam) == pytest.approx(val, rel=1e-6)
        if lam > r - 1:
            val = quad(
                lambda x: x**r * inv_gamma_pdf(x, lam, m), 0, np.inf, limit=200
            )[0]
            assert closure_moment(ClosureKind.INVERSE_GAMMA, r, m, lam) == pytest.approx(
                val, rel=1e-6
            )

    def test_tail_ordering(self):
        for lam in (2.5, 3.0, 5.0, 20.0):
            assert closure_moment(ClosureKind.INVERSE_GAMMA, 2, 7.0, lam) > closure_moment(
                ClosureKind.GAMMA, 2, 7.0, lam
            )


class TestEquilibriumDensity:
    def test_unit_mass_and_mean(self):
        cases = [
            (EquilibriumKind.GAMMA, kp(1.0), 10.0, Grid(400.0, 20000)),
            (EquilibriumKind.GAMMA, kp(1.0, sigma2=1.0 / 3.0), 1.0, Grid(60.0, 30000)),
            (EquilibriumKind.INVERSE_GAMMA, kp(-1.0), 10.0, Grid(3000.0, 150000)),
            (EquilibriumKind.INVERSE_GAMMA, kp(-1.0, sigma2=0.1), 1.0, Grid(200.0, 100000)),
        ]
        for kind, p, m, grid in cases:
            eq = EquilibriumDensity(kind, p, m, grid)
            assert eq.values.sum() * grid.dx == pytest.approx(1.0, abs=1e-8)
            assert eq.raw_moment(1) == pytest.approx(m, rel=1e-6)

    def test_gamma_mode(self):
        # argmax of x^(lam-1) e^(-lam x/m) sits at m (lam-1)/lam
        grid = Grid(50.0, 50000)
        eq = EquilibriumDensity(EquilibriumKind.GAMMA, kp(1.0), 10.0, grid)
        mode = grid.centers()[np.argmax(eq.values)]
        assert mode == pytest.approx(8.0, abs=2 * grid.dx)

    def test_inverse_gamma_zero_at_origin(self):
        eq = EquilibriumDensity(EquilibriumKind.INVERSE_GAMMA, kp(-1.0), 10.0, Grid(100.0, 1000))
        assert eq(0.0) == 0.0

    def test_general_delta_specializes_to_gamma(self):
        grid = Grid(100.0, 5000)
        gen = EquilibriumDensity(EquilibriumKind.GENERAL_DELTA, kp(1.0), 10.0, grid)
        gam = EquilibriumDensity(EquilibriumKind.GAMMA, kp(1.0), 10.0, grid)
        assert np.max(np.abs(gen.values - gam.values)) < 1e-12

    def test_matches_closed_form_constant(self):
        # grid normalization reproduces the analytic constant when the grid
        # captures essentially all the mass
        grid = Grid(300.0, 30000)
        eq = EquilibriumDensity(EquilibriumKind.INVERSE_GAMMA, kp(-1.0), 5.0, grid)
        x = np.array([2.0, 5.0, 20.0, 80.0])
        assert eq(x) == pytest.approx(inv_gamma_pdf(x, 5.0, 5.0), rel=1e-6)

    def test_kind_for_model(self):
        cases = [
            (kp(1.0), ControlSpec.uncontrolled(), EquilibriumKind.GAMMA),
            (kp(-1.0), ControlSpec.uncontrolled(), EquilibriumKind.INVERSE_GAMMA),
            (kp(0.5), ControlSpec.uncontrolled(), None),
            (kp(-1.0), ControlSpec.additive(1.0, 3.0), EquilibriumKind.CONTROLLED_A),
            (kp(-1.0), ControlSpec.interaction(1.0, 3.0), EquilibriumKind.CONTROLLED_B),
            (kp(1.0), ControlSpec.interaction(1.0, 3.0), None),
        ]
        for p, c, kind in cases:
            assert EquilibriumKind.for_model(p, c) is kind

    def test_kind_delta_consistency_checked(self):
        with pytest.raises(ValueError):
            EquilibriumDensity(EquilibriumKind.GAMMA, kp(-1.0), 10.0, Grid(100.0, 100))
        with pytest.raises(ValueError):
            EquilibriumDensity(EquilibriumKind.INVERSE_GAMMA, kp(1.0), 10.0, Grid(100.0, 100))


class TestControlledSteadyStates:
    def test_additive_large_nu_recovers_inverse_gamma(self):
        grid = Grid(200.0, 10000)
        p = kp(-1.0)
        c = ControlSpec.additive(1e12, 3.0)
        f = EquilibriumDensity(EquilibriumKind.CONTROLLED_A, p, 10.0, grid, control=c)
        ig = EquilibriumDensity(EquilibriumKind.INVERSE_GAMMA, p, 10.0, grid)
        assert np.max(np.abs(f.values - ig.values)) < 1e-6

    def test_additive_power_law_exponent(self):
        # analytic log-log slope is -(2 + lam + 2/(sigma2 nu)) + (lam m + c x_T)/x;
        # far enough out the second term is negligible and the fit approaches
        # the pure exponent
        p = kp(-1.0)
        c = ControlSpec.additive(1.0, 3.0)
        grid = Grid(500.0, 25000)
        f = controlled_steady_state(p, c, 10.0, grid)
        tc = tail_classify(f, (200.0, 400.0))
        assert tc.kind is TailKind.POWER_LAW
        expected = -(2.0 + 5.0 + 2.0 / (0.2 * 1.0))
        assert tc.exponent == pytest.approx(expected, rel=0.05)

    def test_requires_delta_minus_one(self):
        with pytest.raises(ValueError):
            controlled_steady_state(kp(1.0), ControlSpec.additive(1.0, 3.0), 10.0, Grid(100.0, 100))

    def test_grid_too_small_raises(self):
        p = kp(-1.0)
        with pytest.raises(NumericsError):
            controlled_steady_state(p, ControlSpec.additive(10.0, 3.0), 10.0, Grid(15.0, 500))

    @pytest.mark.parametrize("nu", [0.1, 1.0, 10.0])
    def test_strategy_a_keeps_power_tail(self, nu):
        p = kp(-1.0, alpha=0.4)  # lam = 2
        f = controlled_steady_state(p, ControlSpec.additive(nu, 3.0), 10.0, Grid(200.0, 10000))
        assert tail_classify(f, (50.0, 100.0)).kind is TailKind.POWER_LAW

    @pytest.mark.parametrize("nu", [1.0, 10.0])
    def test_strategy_b_goes_slim(self, nu):
        p = kp(-1.0, alpha=0.4)
        f = controlled_steady_state(p, ControlSpec.interaction(nu, 3.0), 10.0, Grid(200.0, 10000))
        assert tail_classify(f, (20.0, 40.0)).kind is TailKind.SLIM_TAIL


class TestTailClassify:
    def test_inverse_gamma_power_law(self):
        grid = Grid(120.0, 6000)
        eq = EquilibriumDensity(EquilibriumKind.INVERSE_GAMMA, kp(-1.0), 1.0, grid)
        tc = tail_classify(eq, (50.0, 100.0))
        assert tc.kind is TailKind.POWER_LAW
        assert tc.exponent == pytest.approx(-7.0, abs=0.35)

    def test_gamma_slim(self):
        grid = Grid(120.0, 6000)
        eq = EquilibriumDensity(EquilibriumKind.GAMMA, kp(1.0), 5.0, grid)
        assert tail_classify(eq, (50.0, 100.0)).kind is TailKind.SLIM_TAIL

    @pytest.mark.parametrize("nu", [0.001, 0.01, 0.1, 1.0, 10.0])
    def test_underflowing_controlled_tails_classify(self, nu):
        # the bundled test2_nu_sweep: at small nu the controlled densities
        # underflow to 0 on the window, and their log values still classify
        p = kp(-1.0, alpha=0.4)
        grid = Grid(200.0, 10000)
        fa = controlled_steady_state(p, ControlSpec.additive(nu, 3.0), 10.0, grid)
        fb = controlled_steady_state(p, ControlSpec.interaction(nu, 3.0), 10.0, grid)
        assert tail_classify(fa, (50.0, 100.0)).kind is TailKind.POWER_LAW
        assert tail_classify(fb, (20.0, 40.0)).kind is TailKind.SLIM_TAIL

    def test_zero_cell_on_window_raises(self):
        grid = Grid(100.0, 1000)
        eq = EquilibriumDensity(EquilibriumKind.INVERSE_GAMMA, kp(-1.0), 5.0, grid)
        values = eq.values.copy()
        values[600] = 0.0
        with pytest.raises(ValueError, match="strictly positive"):
            tail_classify(ContactDensity(grid, values), (50.0, 100.0))

    def test_window_validation(self):
        grid = Grid(100.0, 1000)
        eq = EquilibriumDensity(EquilibriumKind.INVERSE_GAMMA, kp(-1.0), 5.0, grid)
        f = eq
        with pytest.raises(ValueError):
            tail_classify(f, (50.0, 150.0))
        with pytest.raises(ValueError):
            tail_classify(f, (99.0, 99.5))  # too few cells
