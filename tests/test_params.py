import numpy as np
import pytest

from kinctrl import (
    ClosureKind,
    ControlSpec,
    EpidemicParams,
    Grid,
    KineticParams,
    Strategy,
    closure_moment,
    collision_kernel,
    growth_rate_times_x,
    moment_ratio,
)
from kinctrl.errors import NumericsError
from kinctrl.params import MAX_STEPS, STRATEGY_RULES, closure_kind, output_steps, step_count
from oracles import drift


def kp(alpha=1.0, sigma2=0.2, delta=-1.0, **kw):
    return KineticParams(alpha=alpha, sigma2=sigma2, delta=delta, **kw)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(alpha=0.0, sigma2=0.2, delta=0.0),
            dict(alpha=1.0, sigma2=-1.0, delta=0.0),
            dict(alpha=1.0, sigma2=0.2, delta=1.5),
            dict(alpha=1.0, sigma2=0.2, delta=0.0, epsilon=0.0),
            dict(alpha=1.0, sigma2=0.2, delta=0.0, tau=-1.0),
        ],
    )
    def test_kinetic_rejects(self, kwargs):
        with pytest.raises(ValueError):
            KineticParams(**kwargs)

    def test_lam_is_derived(self):
        p = kp(alpha=1.0, sigma2=0.2)
        assert p.lam == pytest.approx(5.0)
        with pytest.raises(AttributeError):
            p.lam = 3.0  # frozen

    def test_epidemic_rejects(self):
        with pytest.raises(ValueError):
            EpidemicParams(betas=(-1.0,), gamma_i=1.0)
        with pytest.raises(ValueError):
            EpidemicParams(betas=(1.0,), gamma_i=0.0)
        assert EpidemicParams(betas=(1.0, 2.0), gamma_i=0.5).order == 2

    def test_control_rejects_nonpositive_nu(self):
        with pytest.raises(ValueError):
            ControlSpec(Strategy.ADDITIVE_A, nu=0.0, x_target=3.0)
        with pytest.raises(ValueError):
            ControlSpec(Strategy.INTERACTION_B, nu=1.0, x_target=-1.0)
        assert not ControlSpec.uncontrolled().active

    @pytest.mark.parametrize(
        "field, build",
        [
            ("x_target", lambda: ControlSpec.additive(1.0, float("nan"))),
            ("nu", lambda: ControlSpec.interaction(float("inf"), 3.0)),
            ("betas", lambda: EpidemicParams(betas=(0.02, float("nan")), gamma_i=0.1)),
            ("gamma_i", lambda: EpidemicParams(betas=(0.02,), gamma_i=float("inf"))),
            ("beta0", lambda: EpidemicParams(betas=(0.02,), gamma_i=0.1, beta0=float("nan"))),
            ("epsilon", lambda: kp(epsilon=float("inf"))),
            ("x_max", lambda: Grid(float("inf"), 100)),
            ("n_cells", lambda: Grid(10.0, 10.5)),
        ],
    )
    def test_rejects_non_finite_field(self, field, build):
        with pytest.raises(ValueError, match=field):
            build()


def growth_law_times_x(x, m, alpha, delta):
    # (alpha / (2 delta)) ((x/m)^delta - 1) x, written out as the oracle
    x = np.asarray(x, dtype=float)
    return alpha / (2.0 * delta) * ((x / m) ** delta - 1.0) * x


class TestGrowthRate:
    # growth_rate_times_x(x, m, p) is the growth law times x

    def test_zero_at_reference_mean(self):
        # the fused form x^(1+delta) / m^delta - x cancels to roundoff at x = m
        for delta in (-1.0, -0.3, 0.0, 0.4, 1.0):
            assert growth_rate_times_x(7.3, 7.3, kp(delta=delta)) == pytest.approx(0.0, abs=1e-14)

    def test_hand_values(self):
        assert growth_rate_times_x(20.0, 10.0, kp(delta=-1.0)) == pytest.approx(0.25 * 20.0)
        assert growth_rate_times_x(20.0, 10.0, kp(delta=1.0)) == pytest.approx(0.5 * 20.0)

    def test_delta_minus_one_equals_the_power_form_bit_for_bit(self):
        # at delta = -1 the power x^0 is skipped; it is exactly 1.0, also at x = 0
        p = kp(delta=-1.0)
        x = np.concatenate([[0.0], np.random.default_rng(4).uniform(0.0, 50.0, 1000)])
        power_form = (p.alpha / (2.0 * p.delta)) * (x ** (1.0 + p.delta) / 7.3**p.delta - x)
        assert np.array_equal(growth_rate_times_x(x, 7.3, p), power_form)

    @pytest.mark.parametrize("delta", [-1.0, -0.4, -1e-12, 0.0, 1e-12, 0.5, 1.0])
    def test_out_form_matches_the_written_out_law_bit_for_bit(self, delta):
        # the law as it reads, 0 at x = 0 in the logarithmic limit; out receives it
        p, m = kp(delta=delta), 7.3
        x = np.concatenate([[0.0], np.random.default_rng(4).uniform(0.0, 50.0, 1000)])
        with np.errstate(divide="ignore", invalid="ignore"):
            if abs(delta) < 1e-10:
                law = 0.5 * p.alpha * np.where(x > 0, x * np.log(x / m), 0.0)
            else:
                law = (p.alpha / (2.0 * delta)) * (x ** (1.0 + delta) / m**delta - x)
        g = np.full_like(x, np.nan)
        assert growth_rate_times_x(x, m, p, out=g) is g
        assert np.array_equal(g, law)
        assert np.array_equal(growth_rate_times_x(x, m, p), law)
        for x0 in (0.0, 3.0):
            value = growth_rate_times_x(x0, m, p)
            assert type(value) is float
            assert value == growth_rate_times_x(np.array([x0]), m, p)[0]

    def test_log_limit(self):
        tiny = kp(delta=1e-13)
        assert growth_rate_times_x(20.0, 10.0, tiny) == pytest.approx(10.0 * np.log(2.0))

    def test_strictly_increasing_and_sign_change(self):
        # the rate, growth_rate_times_x / x, increases through 0 at x = m
        x = np.linspace(0.05, 40.0, 400)
        for delta in (-1.0, -0.5, 0.0, 0.5, 1.0):
            vals = growth_rate_times_x(x, 10.0, kp(delta=delta)) / x
            assert np.all(np.diff(vals) > 0)
            assert np.all(vals[x < 10.0 - 1e-9] < 0)
            assert np.all(vals[x > 10.0 + 1e-9] > 0)

    def test_zero_x_sentinel(self):
        # the rate diverges at x = 0 for delta <= 0; the product with x does not
        for delta in (-1.0, -0.5, 0.0, 0.5, 1.0):
            assert np.isfinite(growth_rate_times_x(0.0, 5.0, kp(delta=delta)))

    def test_rejects_bad_mean(self):
        with pytest.raises(ValueError):
            growth_rate_times_x(1.0, 0.0, kp())

    def test_times_x_finite_at_zero(self):
        p = kp(delta=-1.0)
        assert growth_rate_times_x(0.0, 5.0, p) == pytest.approx(-0.5 * 5.0 * 1.0)
        assert growth_rate_times_x(0.0, 5.0, kp(delta=0.0)) == 0.0
        x = np.array([0.0, 2.0, 5.0, 9.0])
        fused = growth_rate_times_x(x, 5.0, p)
        assert fused[1:] == pytest.approx(growth_law_times_x(x[1:], 5.0, p.alpha, p.delta))


class TestCollisionKernel:
    def test_unit_for_delta_minus_one(self):
        p = kp(delta=-1.0)
        assert collision_kernel(0.123, p) == 1.0
        assert collision_kernel(1e9, p) == 1.0

    def test_values(self):
        assert collision_kernel(4.0, kp(delta=1.0)) == pytest.approx(0.25)
        assert collision_kernel(1.0, kp(delta=0.0)) == pytest.approx(1.0)

    def test_at_zero(self):
        # the particle step needs B(0): unbounded away from delta = -1
        for delta in (-0.5, 0.0, 0.5, 1.0):
            assert collision_kernel(0.0, kp(delta=delta)) == np.inf
        assert collision_kernel(0.0, kp(delta=-1.0)) == 1.0
        assert np.array_equal(collision_kernel(np.array([0.0, 4.0]), kp(delta=1.0)), [np.inf, 0.25])

    def test_inverse_identity(self):
        x = np.linspace(0.2, 50.0, 97)
        for delta in (-1.0, -0.4, 0.0, 0.7, 1.0):
            p = kp(delta=delta)
            assert collision_kernel(x, p) * x ** ((1.0 + delta) / 2.0) == pytest.approx(
                np.ones_like(x)
            )


class TestMomentRatio:
    def test_values(self):
        assert moment_ratio(5.0, 1.0) == pytest.approx(1.2)
        assert moment_ratio(5.0, -1.0) == pytest.approx(1.25)

    def test_large_lam_limit(self):
        assert moment_ratio(1e9, 1.0) == pytest.approx(1.0, abs=1e-8)
        assert moment_ratio(1e9, -1.0) == pytest.approx(1.0, abs=1e-8)

    def test_matches_closure_second_moment(self):
        for lam in (2.5, 5.0, 12.0):
            assert moment_ratio(lam, 1.0) == pytest.approx(
                closure_moment(ClosureKind.GAMMA, 2, 1.0, lam)
            )
            assert moment_ratio(lam, -1.0) == pytest.approx(
                closure_moment(ClosureKind.INVERSE_GAMMA, 2, 1.0, lam)
            )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            moment_ratio(0.9, -1.0)
        with pytest.raises(ValueError):
            moment_ratio(5.0, 0.5)

    @pytest.mark.parametrize(
        "kind, r, m, lam",
        [
            (ClosureKind.INVERSE_GAMMA, 3, 1.0, 1e300),  # lam^2 overflows
            (ClosureKind.GAMMA, 3, 1.0, 1e-300),  # lam^2 underflows to 0
            (ClosureKind.DIRAC, 3, 1e200, None),  # m^3 overflows
        ],
    )
    def test_unrepresentable_moment_is_a_numerics_error(self, kind, r, m, lam):
        with pytest.raises(NumericsError, match="not representable"):
            closure_moment(kind, r, m, lam)

    def test_exceeds_one(self):
        for lam in (1.5, 3.0, 40.0):
            assert moment_ratio(lam, 1.0) > 1.0
            assert moment_ratio(lam, -1.0) > 1.0

    def test_closure_kind_only_at_plus_or_minus_one(self):
        assert closure_kind(1.0) is ClosureKind.GAMMA
        assert closure_kind(-1.0) is ClosureKind.INVERSE_GAMMA
        for delta in (0.5, 0.0, -0.5):
            with pytest.raises(ValueError, match="delta"):
                closure_kind(delta)


class TestStepCount:
    def test_whole_step_counts(self):
        assert step_count(50.0, 0.01) == 5000
        assert step_count(20.0, 0.001) == 20000
        assert step_count(0.0, 0.1) == 0

    @pytest.mark.parametrize(
        "t_final, dt", [(1.0, 0.3), (-1.0, 0.1), (1.0, 0.0), (1.0, float("inf"))]
    )
    def test_rejects_partial_or_invalid(self, t_final, dt):
        with pytest.raises(ValueError):
            step_count(t_final, dt)

    @pytest.mark.parametrize("t_final, dt", [(1e300, 0.01), (1.0, 1e-300), (1e300, 1e-300)])
    def test_rejects_more_than_max_steps(self, t_final, dt):
        with pytest.raises(ValueError, match="MAX_STEPS"):
            step_count(t_final, dt)

    def test_max_steps_itself_is_a_run(self):
        assert step_count(MAX_STEPS * 0.5, 0.5) == MAX_STEPS

    def test_output_steps_end_at_the_last_step(self):
        assert output_steps(60000, 100) == list(range(0, 60001, 100))
        assert output_steps(500, 7) == [*range(0, 498, 7), 500]
        assert len(output_steps(500, 7)) == 73
        assert output_steps(0, 10) == [0]
        assert output_steps(3, 1) == [0, 1, 2, 3]


class TestStrategyTable:
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_particle_shift_tends_to_mean_field_drift(self, strategy):
        # at delta = -1 one particle transition, divided by eps, approaches
        # minus the operator drift of the same control with an O(eps) gap
        x = np.linspace(0.5, 40.0, 400)
        m = 5.0
        c = ControlSpec(strategy, nu=1.0, x_target=3.0)
        c_x = drift(kp(), c, m, x)

        def gap(eps):
            shift = growth_rate_times_x(x, m, kp(epsilon=eps))
            STRATEGY_RULES[strategy].shift_into(x, shift, np.empty_like(x), eps, c)
            return np.max(np.abs(shift / eps + c_x)) / np.max(np.abs(c_x))

        coarse, fine = gap(1e-4), gap(1e-6)
        assert fine < 5e-4
        if strategy is not Strategy.UNCONTROLLED:
            assert fine < coarse / 50.0

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_shift_into_matches_the_rule_formulas(self, strategy):
        # the in-place shifts evaluate these expressions, in this order, bit
        # for bit, at the particle penalization nu' = nu eps
        x = np.linspace(0.0, 40.0, 401)
        g = growth_rate_times_x(x, 5.0, kp())
        eps, c = 0.01, ControlSpec(strategy, nu=0.7, x_target=3.0)
        nu = c.nu * eps
        if strategy is Strategy.UNCONTROLLED:
            expected = -eps * g
        elif strategy is Strategy.ADDITIVE_A:
            denom = nu + eps**2
            expected = -(nu * eps / denom) * g + (eps**2 / denom) * (c.x_target - x)
        else:
            q = (eps * g) ** 2
            expected = -q / (nu + q) * (x - c.x_target)
        shift, tmp = g.copy(), np.empty_like(g)
        STRATEGY_RULES[strategy].shift_into(x, shift, tmp, eps, c)
        assert np.array_equal(shift, expected)

    @pytest.mark.parametrize("delta", [-1.0, -0.4, -1e-7, -1e-11, 0.0, 1e-12, 1e-4, 0.5, 1.0])
    def test_uncontrolled_terms_match_growth_law(self, delta):
        # B(x) psi(x/m) x = (alpha/2) x^((1-delta)/2) ((x/m)^delta - 1) / delta,
        # evaluated in one piece with expm1 (ln(x/m) in the Gompertz limit)
        p = kp(alpha=0.8, delta=delta)
        x = np.linspace(0.05, 60.0, 400)
        m = 7.0
        gain = 0.5 * p.alpha * x ** ((1.0 - delta) / 2.0)
        if abs(delta) < 1e-10:
            ref = gain * np.log(x / m)
        else:
            ref = gain * np.expm1(delta * np.log(x / m)) / delta
        c_x = drift(p, ControlSpec.uncontrolled(), m, x)
        assert np.max(np.abs(c_x - ref)) <= 1e-13 * np.max(np.abs(ref))
        if delta in (-1.0, 1.0):
            direct = growth_rate_times_x(x, m, p) * collision_kernel(x, p)
            assert np.max(np.abs(c_x - direct)) <= 1e-13 * np.max(np.abs(direct))

    @pytest.mark.parametrize("m", [0.5, 7.0, 90.0])
    def test_controlled_terms_match_factored_drift(self, m):
        p = kp(alpha=0.8)
        x = np.linspace(0.05, 120.0, 400)
        a = drift(p, ControlSpec.additive(0.7, 3.0), m, x)
        b = drift(p, ControlSpec.interaction(0.7, 3.0), m, x)
        ref_a = 0.5 * p.alpha * (x - m) + (x - 3.0) / 0.7
        ref_b = p.alpha**2 / (4.0 * 0.7) * (m - x) ** 2 * (x - 3.0)
        assert np.max(np.abs(a - ref_a)) <= 1e-13 * np.max(np.abs(ref_a))
        assert np.max(np.abs(b - ref_b)) <= 1e-13 * np.max(np.abs(ref_b))
