import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kinctrl import (
    ClosureKind,
    ControlSpec,
    EpidemicParams,
    Grid,
    KineticParams,
    controlled_steady_state,
)
from kinctrl.errors import InvariantViolationError
from kinctrl.macro import (
    RHO_R_FLOOR,
    ClassicalSIR,
    MacroModel,
    MacroState,
    controlled_sir,
    rhs,
    rk4_integrate,
)
from kinctrl.params import closure_moment, output_steps

GAMMA_I = 1.0 / 14.0


def kin(delta, lam=5.0, tau=1.0):
    return KineticParams(alpha=1.0, sigma2=1.0 / lam, delta=delta, tau=tau)


def state(rho_i=1e-5, rho_r=1e-5, mean=10.0):
    return MacroState(1.0 - rho_i - rho_r, rho_i, rho_r, mean, mean, mean)


class TestRhs:
    def test_classical_no_infected_no_flow(self):
        d = rhs(ClassicalSIR(0.5, GAMMA_I), MacroState(0.6, 0.0, 0.4, 10.0, 10.0, 10.0))
        assert d.rho_s == 0.0 and d.rho_r == 0.0

    def test_mass_derivatives_cancel(self):
        model = MacroModel(ClosureKind.INVERSE_GAMMA,
                           kin(-1.0), EpidemicParams((2e-2, 2e-6), GAMMA_I))
        d = rhs(model, state(rho_i=0.3, rho_r=0.1))
        scale = max(abs(d.rho_s), abs(d.rho_i), abs(d.rho_r))
        assert abs(d.rho_s + d.rho_i + d.rho_r) <= 2 * np.finfo(float).eps * scale
        assert d.rho_s <= 0.0 and d.rho_r >= 0.0

    def test_large_lam_freezes_susceptible_mean(self):
        model = MacroModel(ClosureKind.GAMMA,
                           kin(1.0, lam=1e9), EpidemicParams((1e-3,), GAMMA_I))
        d = rhs(model, state(rho_i=0.1))
        assert abs(d.m_s) < 1e-9

    def test_removed_mean_floor(self):
        model = MacroModel(ClosureKind.GAMMA,
                           kin(1.0), EpidemicParams((1e-3,), GAMMA_I))
        d = rhs(model, MacroState(0.9, 0.1, 0.0, 10.0, 12.0, 10.0))
        assert d.m_r == 0.0

    @pytest.mark.parametrize(
        "model",
        [
            ClassicalSIR(0.3, GAMMA_I),
            MacroModel(ClosureKind.GAMMA, kin(1.0), EpidemicParams((1e-3,), GAMMA_I)),
            MacroModel(ClosureKind.INVERSE_GAMMA, kin(-1.0), EpidemicParams((2e-2, 2e-6), GAMMA_I)),
        ],
        ids=["classical_sir", "l1", "l2"],
    )
    def test_rhs_is_the_derivative_bound_once(self, model):
        s = MacroState(0.7, 0.2, 0.1, 9.0, 11.0, 10.0)
        f = model.derivative
        assert rhs(model, s) == MacroState(*f(*s))
        assert model.derivative is f

    def test_rhs_and_rk4_integrate_take_classical_sir(self):
        # perfbench/spans.py wraps both for either model type
        model = ClassicalSIR(0.3, GAMMA_I)
        s0 = state(rho_i=0.1)
        assert rhs(model, s0) == oracle_rhs(model, s0)
        _, states = rk4_integrate(model, s0, 0.05, 5.0)
        assert states == oracle_rk4(oracle_rhs, model, s0, 0.05, 100)

    def test_l2_inverse_gamma_needs_lam_above_two(self):
        with pytest.raises(ValueError):
            MacroModel(ClosureKind.INVERSE_GAMMA,
                       kin(-1.0, lam=2.0), EpidemicParams((0.0, 1e-5), GAMMA_I))


class TestIncidenceOrder:
    # a closed system that would drop part of the kinetic incidence refuses it
    @pytest.mark.parametrize(
        "epi",
        [
            EpidemicParams((), GAMMA_I),
            EpidemicParams((2e-2, 2e-6, 1e-8), GAMMA_I),
            EpidemicParams((1e-3,), GAMMA_I, beta0=5.0),
            EpidemicParams((2e-2, 2e-6), GAMMA_I, beta0=5.0),
        ],
    )
    def test_closed_model_rejects_dropped_terms(self, epi):
        with pytest.raises(ValueError, match="epidemic.beta"):
            MacroModel(ClosureKind.INVERSE_GAMMA, kin(-1.0), epi)

    @pytest.mark.parametrize(
        "epi",
        [EpidemicParams((2e-2, 2e-6, 1e-8), GAMMA_I), EpidemicParams((2e-2,), GAMMA_I, beta0=5.0)],
    )
    def test_controlled_model_rejects_dropped_terms(self, epi):
        with pytest.raises(ValueError, match="epidemic.beta"):
            controlled_sir(kin(-1.0, tau=1e-5), epi, ControlSpec.additive(1.0, 3.0),
                           Grid(200.0, 10000), 10.0)

    def test_classical_sir_needs_a_non_negative_beta(self):
        model = ClassicalSIR(0.5, GAMMA_I)
        assert rhs(model, state(rho_i=0.1)).rho_s == -0.5 * (1.0 - 0.1 - 1e-5) * 0.1
        with pytest.raises(ValueError, match="beta >= 0"):
            ClassicalSIR(-0.5, GAMMA_I)


def oracle_rhs(model, s):
    """The closed system's derivative, every product written out in full."""
    if isinstance(model, ClassicalSIR):
        infection = model.beta * s.rho_s * s.rho_i
        return MacroState(
            -infection, infection - model.gamma * s.rho_i, model.gamma * s.rho_i, 0.0, 0.0, 0.0
        )
    gamma = model.epidemic.gamma_i
    l2 = model.epidemic.order == 2
    c2 = closure_moment(model.closure, 2, 1.0, model.kinetic.lam)
    c3 = closure_moment(model.closure, 3, 1.0, model.kinetic.lam) if l2 else 1.0
    b1 = model.epidemic.betas[0]
    b2 = model.epidemic.betas[1] if l2 else 0.0
    infection = (
        b1 * s.rho_s * s.m_s * s.rho_i * s.m_i
        + b2 * c2**2 * s.rho_s * s.m_s**2 * s.rho_i * s.m_i**2
    )
    d_m_s = -(
        b1 * (c2 - 1.0) * s.m_s**2 * s.rho_i * s.m_i
        + b2 * c2 * (c3 - c2) * s.m_s**3 * s.rho_i * s.m_i**2
    )
    d_m_i = s.rho_s * s.m_s * s.m_i * (
        b1 * (c2 * s.m_s - s.m_i)
        + b2 * c2**2 * ((c3 / c2) * s.m_s - s.m_i) * s.m_s * s.m_i
    )
    if s.rho_r < RHO_R_FLOOR:
        d_m_r = 0.0
    else:
        d_m_r = gamma * (s.rho_i / s.rho_r) * (s.m_i - s.m_r)
    return MacroState(
        -infection, infection - gamma * s.rho_i, gamma * s.rho_i, d_m_s, d_m_i, d_m_r
    )


def controlled_oracle(kinetic, epidemic, control, grid, m_star):
    """The mass system closed over the controlled steady state at m*, every
    product written out in full; the incidence takes the first and second
    moments of S and of I from the steady state at their means, both m*."""
    f = controlled_steady_state(kinetic, control, m_star, grid)
    m_s = m_i = f.raw_moment(1)
    m2_s = m2_i = f.raw_moment(2)
    b1, b2 = epidemic.betas
    gamma = epidemic.gamma_i

    def oracle_controlled_rhs(_model, s):
        infection = b1 * s.rho_s * m_s * s.rho_i * m_i + b2 * s.rho_s * m2_s * s.rho_i * m2_i
        return MacroState(
            -infection, infection - gamma * s.rho_i, gamma * s.rho_i, 0.0, 0.0, 0.0
        )

    return oracle_controlled_rhs


def oracle_rk4(f, model, s0, dt, n_steps):
    """RK4 with each stage built from a generator over the components."""
    half, sixth = 0.5 * dt, dt / 6.0
    states = [s0]
    y = s0
    for _ in range(n_steps):
        k1 = f(model, y)
        k2 = f(model, MacroState._make(yi + half * ki for yi, ki in zip(y, k1)))
        k3 = f(model, MacroState._make(yi + half * ki for yi, ki in zip(y, k2)))
        k4 = f(model, MacroState._make(yi + dt * ki for yi, ki in zip(y, k3)))
        y = MacroState._make(
            yi + sixth * (a + 2.0 * b + 2.0 * c + d)
            for yi, a, b, c, d in zip(y, k1, k2, k3, k4)
        )
        states.append(y)
    return states


def closed_model(order, closure, kinetic, betas, gamma_i, beta):
    """Classical SIR at beta for order 0, which closes no moments; else the
    L1 or L2 system of the first order betas, closed with closure."""
    if order == 0:
        return ClassicalSIR(beta, gamma_i)
    return MacroModel(closure, kinetic, EpidemicParams(betas[:order], gamma_i))


class TestOracle:
    # rk4_integrate and rhs must reproduce the written-out forms bit for bit

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        order=st.sampled_from([0, 1, 2]),
        closure=st.sampled_from([ClosureKind.GAMMA, ClosureKind.INVERSE_GAMMA]),
        lam=st.floats(3.0, 10.0),
        b1=st.floats(1e-4, 2e-2),
        b2=st.floats(1e-7, 1e-5),
        gamma_i=st.floats(1e-2, 0.5),
        rho=st.tuples(st.floats(1e-6, 1.0), st.floats(1e-6, 1.0), st.floats(0.0, 1.0)),
        means=st.tuples(st.floats(1.0, 10.0), st.floats(1.0, 10.0), st.floats(1.0, 10.0)),
        dt=st.sampled_from([0.01, 0.05, 0.1]),
    )
    @example(2, ClosureKind.INVERSE_GAMMA, 5.0, 2e-2, 2e-6, GAMMA_I,
             (0.9, 0.1, 0.1 * RHO_R_FLOOR), (10.0, 8.0, 3.0), 0.05)
    def test_closed_models_match_the_oracle(
        self, order, closure, lam, b1, b2, gamma_i, rho, means, dt
    ):
        delta = -1.0 if closure is ClosureKind.INVERSE_GAMMA else 1.0
        model = closed_model(order, closure, kin(delta, lam=lam), (b1, b2), gamma_i,
                             b1 * means[0] ** 2)
        s0 = MacroState(*rho, *means)
        times, states = rk4_integrate(model, s0, dt, 200 * dt)
        assert states == oracle_rk4(oracle_rhs, model, s0, dt, 200)
        assert rhs(model, s0) == oracle_rhs(model, s0)
        assert times == [k * dt for k in range(201)]

    def test_controlled_model_matches_the_oracle(self):
        # classical SIR at the derived beta follows the mass system closed
        # over the steady state's moments to rounding, on the test4_control_*
        # settings over 2 000 steps
        kinetic = KineticParams(alpha=1.0, sigma2=0.2, delta=-1.0, tau=1e-5)
        epi = EpidemicParams((2e-2, 2e-6), GAMMA_I)
        grid = Grid(500.0, 25000)
        for control in (ControlSpec.additive(1.0, 3.0), ControlSpec.interaction(1.0, 3.0)):
            model, m_star = controlled_sir(kinetic, epi, control, grid, 10.0)
            s0 = MacroState(0.98, 0.01, 0.01, m_star, m_star, m_star)
            _, states = rk4_integrate(model, s0, 0.01, 20.0)
            oracle = oracle_rk4(controlled_oracle(kinetic, epi, control, grid, m_star),
                                None, s0, 0.01, 2000)
            gap = max(abs(a - b) for s, o in zip(states, oracle) for a, b in zip(s, o))
            assert gap <= 1e-15, (control.strategy, gap)


class TestIntegration:
    def test_pure_recovery_decay(self):
        model = MacroModel(ClosureKind.GAMMA,
                           kin(1.0), EpidemicParams((0.0,), GAMMA_I))
        times, states = rk4_integrate(model, state(rho_i=1e-3, rho_r=1e-3), 0.01, 10.0)
        exact = 1e-3 * np.exp(-GAMMA_I * np.asarray(times))
        err = max(abs(s.rho_i - e) for s, e in zip(states, exact))
        assert err < 1e-8

    def test_rejects_partial_final_step(self):
        model = MacroModel(ClosureKind.GAMMA,
                           kin(1.0), EpidemicParams((0.0,), GAMMA_I))
        with pytest.raises(ValueError, match="whole number"):
            rk4_integrate(model, state(), 0.3, 1.0)

    def test_invariants_along_trajectory(self):
        model = MacroModel(ClosureKind.INVERSE_GAMMA,
                           kin(-1.0), EpidemicParams((2e-2, 2e-6), GAMMA_I))
        _, states = rk4_integrate(model, state(rho_i=1e-2, rho_r=1e-2), 0.01, 60.0)
        assert max(abs(s.mass_sum() - 1.0) for s in states) < 1e-10
        assert all(b.rho_s <= a.rho_s + 1e-14 for a, b in zip(states, states[1:]))
        assert all(b.rho_r >= a.rho_r - 1e-14 for a, b in zip(states, states[1:]))
        assert all(b.m_s <= a.m_s + 1e-12 for a, b in zip(states, states[1:]))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        order=st.sampled_from([0, 1, 2]),
        closure=st.sampled_from([ClosureKind.GAMMA, ClosureKind.INVERSE_GAMMA]),
        lam=st.floats(3.0, 10.0),
        b1=st.floats(0.0, 2e-2),
        b2=st.floats(0.0, 1e-5),
        gamma_i=st.floats(1e-2, 0.5),
        rho=st.tuples(st.floats(1e-6, 1.0), st.floats(1e-6, 1.0), st.floats(0.0, 1.0)),
        mean=st.floats(1.0, 10.0),
        dt=st.sampled_from([0.01, 0.05, 0.1]),
    )
    def test_invariants_over_random_parameters(
        self, order, closure, lam, b1, b2, gamma_i, rho, mean, dt
    ):
        delta = -1.0 if closure is ClosureKind.INVERSE_GAMMA else 1.0
        model = closed_model(order, closure, kin(delta, lam=lam), (b1, b2), gamma_i, b1 * mean**2)
        total = sum(rho)
        s0 = MacroState(*(r / total for r in rho), mean, mean, mean)
        _, states = rk4_integrate(model, s0, dt, 200 * dt)
        assert max(abs(s.mass_sum() - s0.mass_sum()) for s in states) <= 1e-12
        assert all(b.rho_s <= a.rho_s for a, b in zip(states, states[1:]))
        assert all(b.rho_r >= a.rho_r for a, b in zip(states, states[1:]))

    def test_l2_second_moment_only_peak_bound(self):
        model = MacroModel(ClosureKind.INVERSE_GAMMA,
                           kin(-1.0), EpidemicParams((0.0, 2e-6), GAMMA_I))
        _, states = rk4_integrate(model, state(rho_i=1e-3, rho_r=1e-3), 0.01, 600.0)
        # with beta_1 = 0 the infected mean stays below c3/c2 m_S(0)
        c2, c3 = (closure_moment(ClosureKind.INVERSE_GAMMA, r, 1.0, 5.0) for r in (2, 3))
        bound = c3 / c2 * 10.0
        assert max(s.m_i for s in states) <= bound + 1e-9

    def test_overflow_is_an_invariant_violation_with_the_last_state(self):
        model = MacroModel(ClosureKind.GAMMA,
                           kin(1.0), EpidemicParams((1e300,), GAMMA_I))
        s0 = state()
        for every in (1, 100):
            with pytest.raises(InvariantViolationError, match="overflow") as info:
                rk4_integrate(model, s0, 0.01, 1.0, every)
            assert (info.value.t, info.value.last_state) == (0.0, s0)

    def test_dirac_closure_collapses_to_classical_sir(self):
        epi = EpidemicParams((1e-3,), GAMMA_I)
        m0 = 10.0
        dirac = MacroModel(ClosureKind.DIRAC, kin(-1.0), epi)
        classical = ClassicalSIR(1e-3 * m0 * m0, GAMMA_I)
        _, t_d = rk4_integrate(dirac, state(), 0.01, 300.0)
        _, t_c = rk4_integrate(classical, state(), 0.01, 300.0)
        gap = max(abs(a.rho_i - b.rho_i) for a, b in zip(t_d, t_c))
        assert gap < 1e-12

    def test_closure_peak_ordering_first_order(self):
        # slim- vs power-law-tail closure: the heavier tail reaches a higher
        # infected mean along the whole trajectory
        epi = EpidemicParams((1e-3,), GAMMA_I)
        _, tg = rk4_integrate(MacroModel(ClosureKind.GAMMA, kin(1.0), epi),
                              state(), 0.01, 600.0)
        _, ti = rk4_integrate(MacroModel(ClosureKind.INVERSE_GAMMA, kin(-1.0), epi),
                              state(), 0.01, 600.0)
        assert max(s.m_i for s in ti) > max(s.m_i for s in tg)

    def test_abort_on_invariant_violation(self):
        model = ClassicalSIR(0.2, GAMMA_I)

        def broken(*s):
            return (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)  # injects mass

        model.__dict__["derivative"] = broken
        with pytest.raises(InvariantViolationError) as err:
            rk4_integrate(model, state(), 0.1, 1.0)
        assert err.value.last_state == state()

    def test_overflow_inside_a_later_stage_keeps_the_last_valid_state(self):
        model = MacroModel(ClosureKind.GAMMA,
                           kin(1.0), EpidemicParams((1e-3,), GAMMA_I))
        _, states = rk4_integrate(model, state(), 0.01, 0.01)
        derivative = model.derivative
        calls = 0

        def overflowing(rho_s, rho_i, rho_r, m_s, m_i, m_r):
            # the second step's second stage squares m_s = 1e200 inside the closure
            nonlocal calls
            calls += 1
            return derivative(rho_s, rho_i, rho_r, 1e200 if calls == 6 else m_s, m_i, m_r)

        model.__dict__["derivative"] = overflowing
        # at every = 3 and 100 the last valid state, after step 1, is not an output row
        for every in (1, 3, 100):
            calls = 0
            with pytest.raises(InvariantViolationError, match="overflow") as err:
                rk4_integrate(model, state(), 0.01, 0.05, every)
            assert calls == 6
            assert (err.value.t, err.value.last_state) == (0.01, states[1])


class TestOutputEvery:
    N_STEPS = 1234  # divisible by neither 7 nor 100

    def model(self):
        return MacroModel(ClosureKind.GAMMA,
                          kin(1.0), EpidemicParams((1e-3,), GAMMA_I))

    @pytest.mark.parametrize("every", [1, 7, 100, N_STEPS, N_STEPS + 3])
    def test_rows_are_the_every_step_rows_at_the_output_steps(self, every):
        t_final = self.N_STEPS * 0.01
        times, states = rk4_integrate(self.model(), state(), 0.01, t_final)
        out_times, out_states = rk4_integrate(self.model(), state(), 0.01, t_final, every)
        steps = output_steps(self.N_STEPS, every)
        assert np.array(out_times).tobytes() == np.array([times[k] for k in steps]).tobytes()
        assert np.array(out_states).tobytes() == np.array([states[k] for k in steps]).tobytes()
        assert all(type(s) is MacroState for s in out_states)

    @pytest.mark.parametrize("every", [0, -1, 2.0, True, None])
    def test_bad_output_every_raises_before_step_0(self, every):
        def never(*s):
            raise AssertionError("a step ran before output_every was checked")

        model = self.model()
        model.__dict__["derivative"] = never
        with pytest.raises(ValueError, match="output_every"):
            rk4_integrate(model, state(), 0.01, 1.0, every)

    @pytest.mark.parametrize("every", [1, 3, 100])
    def test_mass_violation_between_output_steps_keeps_the_previous_step(self, every):
        # the fifth step injects mass; at every = 3 and 100 step 4 is not an output row
        _, states = rk4_integrate(self.model(), state(), 0.01, 0.04)
        model = self.model()
        derivative = model.derivative
        calls = 0

        def leaking(*s):
            nonlocal calls
            calls += 1
            d = derivative(*s)
            return (d[0] + 1.0, *d[1:]) if calls > 16 else d

        model.__dict__["derivative"] = leaking
        with pytest.raises(InvariantViolationError, match="summed") as err:
            rk4_integrate(model, state(), 0.01, 0.1, every)
        assert calls == 20
        assert (err.value.t, err.value.last_state) == (4 * 0.01, states[4])

    def test_a_long_run_keeps_only_its_output_rows(self):
        # keeping every step's time and state takes about 270 bytes a step:
        # 3.2 MiB for these 12 000 steps, 16 MiB for closure_l1_gamma's
        # 60 000; the 121 output rows take about 0.03 MiB.  tracemalloc slows
        # the steps about 40-fold, so the run is a fifth of closure_l1_gamma's
        model = self.model()
        model.derivative  # bound before tracing
        tracemalloc.start()
        try:
            times, _ = rk4_integrate(model, state(), 0.01, 120.0, 100)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(times) == 121
        assert peak < 2**18, peak


class TestObservedOrder:
    def test_rk4_is_fourth_order_on_smooth_data(self):
        # rho_R(0) > 0 keeps dm_R/dt smooth at t = 0; from rho_R(0) = 0 the
        # RHO_R_FLOOR switch lowers the observed order of m_R to about 3.2
        model = MacroModel(ClosureKind.INVERSE_GAMMA,
                           kin(-1.0), EpidemicParams((0.005,), GAMMA_I))
        s0 = MacroState(0.9, 0.09, 0.01, 10.0, 10.0, 10.0)
        finals = np.array([rk4_integrate(model, s0, dt, 4.0)[1][-1]
                           for dt in (0.4, 0.2, 0.1, 0.05, 0.025)])
        diffs = np.abs(np.diff(finals, axis=0))
        orders = np.log2(diffs[:-1] / diffs[1:])
        assert np.all(orders >= 3.7), orders


class TestControlledMacro:
    def grid(self):
        return Grid(200.0, 10000)

    def test_zero_infected_freezes_masses(self):
        model, m_star = controlled_sir(kin(-1.0, tau=1e-5), EpidemicParams((2e-2, 2e-6), GAMMA_I),
                                       ControlSpec.additive(1.0, 3.0), self.grid(), 10.0)
        d = rhs(model, MacroState(0.7, 0.0, 0.3, m_star, m_star, m_star))
        assert (d.rho_s, d.rho_i, d.rho_r) == (0.0, 0.0, 0.0)

    def test_large_nu_mass_rhs_matches_uncontrolled_l2(self):
        kinetic = kin(-1.0, tau=1e-5)
        epi = EpidemicParams((2e-2, 2e-6), GAMMA_I)
        model, m_star = controlled_sir(kinetic, epi, ControlSpec.additive(1e9, 3.0),
                                       Grid(3000.0, 60000), 10.0)
        s = MacroState(1.0 - 0.05 - 0.02, 0.05, 0.02, m_star, m_star, m_star)
        d_ctrl = rhs(model, s)
        d_unc = rhs(MacroModel(ClosureKind.INVERSE_GAMMA, kinetic, epi), s)
        assert d_ctrl.rho_s == pytest.approx(d_unc.rho_s, rel=1e-6)
        assert d_ctrl.rho_i == pytest.approx(d_unc.rho_i, rel=1e-6)

    def test_additive_fixed_point_is_target(self):
        _, m_star = controlled_sir(kin(-1.0, tau=1e-5), EpidemicParams((2e-2, 2e-6), GAMMA_I),
                                   ControlSpec.additive(1.0, 3.0), self.grid(), 10.0)
        assert m_star == pytest.approx(3.0, rel=1e-6)

    def test_additive_closed_form(self):
        # control A's steady state is inverse gamma with shape a = lam + 1 + k
        # and scale b = lam m + k x_T, k = 2/(sigma2 nu): m* = x_T and
        # M2 = b^2/((a - 1)(a - 2)); the test4_control_a settings
        kinetic = KineticParams(alpha=1.0, sigma2=0.2, delta=-1.0, tau=1e-5)
        epi = EpidemicParams((2e-2, 2e-6), GAMMA_I)
        nu, x_t = 1.0, 3.0
        model, m_star = controlled_sir(kinetic, epi, ControlSpec.additive(nu, x_t),
                                       Grid(500.0, 25000), 10.0)
        k = 2.0 / (kinetic.sigma2 * nu)
        a, b = kinetic.lam + 1.0 + k, kinetic.lam * x_t + k * x_t
        m2 = b**2 / ((a - 1.0) * (a - 2.0))
        beta = 2e-2 * x_t**2 + 2e-6 * m2**2
        assert abs(m_star - x_t) <= 1e-14 * x_t
        assert abs(model.beta - beta) <= 1e-14 * beta
        assert 0.18018596938775 <= beta < 0.18018596938776

    def test_interaction_control_lowers_peak(self):
        kinetic = kin(-1.0, tau=1e-5)
        epi = EpidemicParams((2e-2, 2e-6), GAMMA_I)
        s0u = state(rho_i=1e-2, rho_r=1e-2)
        _, unc = rk4_integrate(
            MacroModel(ClosureKind.INVERSE_GAMMA, kinetic, epi), s0u, 0.01, 20.0
        )
        model, m_star = controlled_sir(kinetic, epi, ControlSpec.interaction(1.0, 3.0),
                                       self.grid(), 10.0)
        s0c = MacroState(1 - 2e-2, 1e-2, 1e-2, m_star, m_star, m_star)
        _, ctrl = rk4_integrate(model, s0c, 0.01, 20.0)
        assert max(s.rho_i for s in ctrl) < max(s.rho_i for s in unc)

    def test_self_consistent_means_solve_the_fixed_point(self):
        # the bundled test4_control_* settings; control A's steady-state mean
        # is (lam m + k x_T) / (lam + k), so its fixed point is x_T exactly
        kinetic = kin(-1.0, tau=1e-5)
        epi = EpidemicParams((2e-2, 2e-6), GAMMA_I)
        grid = Grid(500.0, 25000)
        _, m_a = controlled_sir(kinetic, epi, ControlSpec.additive(1.0, 3.0), grid, 10.0)
        assert m_a == pytest.approx(3.0, rel=1e-12)
        c = ControlSpec.interaction(1.0, 3.0)
        _, m_star = controlled_sir(kinetic, epi, c, grid, 10.0)
        residual = controlled_steady_state(kinetic, c, m_star, grid).raw_moment(1) - m_star
        assert abs(residual) <= 1e-12

    def test_each_steady_state_is_built_once(self, monkeypatch):
        # the secant hands controlled_sir the density at m*, so no mean is
        # built twice, whichever module's name the build goes through
        built = []

        def record(p, c, m, grid):
            built.append((c.strategy, m))
            return controlled_steady_state(p, c, m, grid)

        monkeypatch.setattr("kinctrl.equilibria.controlled_steady_state", record)
        monkeypatch.setattr("kinctrl.macro.controlled_steady_state", record)
        epi = EpidemicParams((2e-2, 2e-6), GAMMA_I)
        controls = (ControlSpec.additive(1.0, 3.0), ControlSpec.interaction(1.0, 3.0))
        for c in controls:
            controlled_sir(kin(-1.0, tau=1e-5), epi, c, Grid(500.0, 25000), 10.0)
        assert {strategy for strategy, _ in built} == {c.strategy for c in controls}
        assert len(built) == len(set(built))


class TestSelfConsistentMean:
    # control A with k = 2/(sigma2 nu): the residual r(m) = mean(m) - m has
    # slope about -k/(lam + k), so at nu = 1e9 a residual of 1e-12 still sits
    # about 1e-3 from the root; the discrete root on this grid is near 2.99996
    @staticmethod
    def solve(nu):
        p = KineticParams(alpha=1.0, sigma2=0.2, delta=-1.0)
        grid, c = Grid(3000.0, 60000), ControlSpec.additive(nu, 3.0)
        _, m = controlled_sir(p, EpidemicParams((2e-2,), GAMMA_I), c, grid, 10.0)
        return m, controlled_steady_state(p, c, m, grid).raw_moment(1) - m

    def test_weak_control_lands_on_the_root(self):
        m, r = self.solve(1e9)
        assert abs(r) <= 1e-14
        assert abs(m - 3.0) <= 1e-4

    @pytest.mark.parametrize("nu, m_star", [(1.0, 2.9999999999999982), (1e6, 2.9999999617146753)])
    def test_strong_controls_unchanged(self, nu, m_star):
        m, r = self.solve(nu)
        assert m == pytest.approx(m_star, rel=1e-12)
        assert abs(r) <= 1e-14
