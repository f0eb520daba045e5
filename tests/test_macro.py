import numpy as np
import pytest
from hypothesis import given, settings
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
    ControlledMacroModel,
    MacroModel,
    MacroState,
    MacroVariant,
    controlled_rhs,
    peak_contacts,
    rhs,
    rk4_integrate,
)

GAMMA_I = 1.0 / 14.0


def kin(delta, lam=5.0, tau=1.0):
    return KineticParams(alpha=1.0, sigma2=1.0 / lam, delta=delta, tau=tau)


def state(rho_i=1e-5, rho_r=1e-5, mean=10.0):
    return MacroState(1.0 - rho_i - rho_r, rho_i, rho_r, mean, mean, mean)


class TestRhs:
    def test_classical_no_infected_no_flow(self):
        model = MacroModel(MacroVariant.CLASSICAL_SIR, ClosureKind.DIRAC,
                           kin(-1.0), EpidemicParams((0.0,), GAMMA_I), beta=0.5)
        d = rhs(model, MacroState(0.6, 0.0, 0.4, 10.0, 10.0, 10.0))
        assert d.rho_s == 0.0 and d.rho_r == 0.0

    def test_mass_derivatives_cancel(self):
        model = MacroModel(MacroVariant.L2, ClosureKind.INVERSE_GAMMA,
                           kin(-1.0), EpidemicParams((2e-2, 2e-6), GAMMA_I))
        d = rhs(model, state(rho_i=0.3, rho_r=0.1))
        scale = max(abs(d.rho_s), abs(d.rho_i), abs(d.rho_r))
        assert abs(d.rho_s + d.rho_i + d.rho_r) <= 2 * np.finfo(float).eps * scale
        assert d.rho_s <= 0.0 and d.rho_r >= 0.0

    def test_large_lam_freezes_susceptible_mean(self):
        model = MacroModel(MacroVariant.L1, ClosureKind.GAMMA,
                           kin(1.0, lam=1e9), EpidemicParams((1e-3,), GAMMA_I))
        d = rhs(model, state(rho_i=0.1))
        assert abs(d.m_s) < 1e-9

    def test_removed_mean_floor(self):
        model = MacroModel(MacroVariant.L1, ClosureKind.GAMMA,
                           kin(1.0), EpidemicParams((1e-3,), GAMMA_I))
        d = rhs(model, MacroState(0.9, 0.1, 0.0, 10.0, 12.0, 10.0))
        assert d.m_r == 0.0

    def test_l2_inverse_gamma_needs_lam_above_two(self):
        with pytest.raises(ValueError):
            MacroModel(MacroVariant.L2, ClosureKind.INVERSE_GAMMA,
                       kin(-1.0, lam=2.0), EpidemicParams((0.0, 1e-5), GAMMA_I))


class TestPeakContacts:
    def test_hand_values(self):
        assert peak_contacts(ClosureKind.GAMMA, MacroVariant.L1, 10.0, 5.0) == pytest.approx(12.0)
        assert peak_contacts(ClosureKind.INVERSE_GAMMA, MacroVariant.L1, 10.0, 5.0) == pytest.approx(12.5)
        assert peak_contacts(ClosureKind.GAMMA, MacroVariant.L2, 10.0, 5.0) == pytest.approx(14.0)

    def test_orderings_across_lam(self):
        for lam in np.linspace(2.05, 20.0, 40):
            g1 = peak_contacts(ClosureKind.GAMMA, MacroVariant.L1, 10.0, lam)
            i1 = peak_contacts(ClosureKind.INVERSE_GAMMA, MacroVariant.L1, 10.0, lam)
            g2 = peak_contacts(ClosureKind.GAMMA, MacroVariant.L2, 10.0, lam)
            i2 = peak_contacts(ClosureKind.INVERSE_GAMMA, MacroVariant.L2, 10.0, lam)
            assert i1 > g1 and i2 > g2
            assert i2 > i1

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            peak_contacts(ClosureKind.INVERSE_GAMMA, MacroVariant.L1, 10.0, 1.0)
        with pytest.raises(ValueError):
            peak_contacts(ClosureKind.INVERSE_GAMMA, MacroVariant.L2, 10.0, 2.0)


class TestIntegration:
    def test_pure_recovery_decay(self):
        model = MacroModel(MacroVariant.L1, ClosureKind.GAMMA,
                           kin(1.0), EpidemicParams((0.0,), GAMMA_I))
        times, states = rk4_integrate(model, state(rho_i=1e-3, rho_r=1e-3), 0.01, 10.0)
        exact = 1e-3 * np.exp(-GAMMA_I * np.asarray(times))
        err = max(abs(s.rho_i - e) for s, e in zip(states, exact))
        assert err < 1e-8

    def test_rejects_partial_final_step(self):
        model = MacroModel(MacroVariant.L1, ClosureKind.GAMMA,
                           kin(1.0), EpidemicParams((0.0,), GAMMA_I))
        with pytest.raises(ValueError, match="whole number"):
            rk4_integrate(model, state(), 0.3, 1.0)

    def test_invariants_along_trajectory(self):
        model = MacroModel(MacroVariant.L2, ClosureKind.INVERSE_GAMMA,
                           kin(-1.0), EpidemicParams((2e-2, 2e-6), GAMMA_I))
        _, states = rk4_integrate(model, state(rho_i=1e-2, rho_r=1e-2), 0.01, 60.0)
        assert max(abs(s.mass_sum() - 1.0) for s in states) < 1e-10
        assert all(b.rho_s <= a.rho_s + 1e-14 for a, b in zip(states, states[1:]))
        assert all(b.rho_r >= a.rho_r - 1e-14 for a, b in zip(states, states[1:]))
        assert all(b.m_s <= a.m_s + 1e-12 for a, b in zip(states, states[1:]))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        variant=st.sampled_from(MacroVariant),
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
        self, variant, closure, lam, b1, b2, gamma_i, rho, mean, dt
    ):
        delta = -1.0 if closure is ClosureKind.INVERSE_GAMMA else 1.0
        model = MacroModel(variant, closure, kin(delta, lam=lam),
                           EpidemicParams((b1, b2), gamma_i), beta=b1 * mean**2)
        total = sum(rho)
        s0 = MacroState(*(r / total for r in rho), mean, mean, mean)
        _, states = rk4_integrate(model, s0, dt, 200 * dt)
        assert max(abs(s.mass_sum() - s0.mass_sum()) for s in states) <= 1e-12
        assert all(b.rho_s <= a.rho_s for a, b in zip(states, states[1:]))
        assert all(b.rho_r >= a.rho_r for a, b in zip(states, states[1:]))

    def test_l2_second_moment_only_peak_bound(self):
        model = MacroModel(MacroVariant.L2, ClosureKind.INVERSE_GAMMA,
                           kin(-1.0), EpidemicParams((0.0, 2e-6), GAMMA_I))
        _, states = rk4_integrate(model, state(rho_i=1e-3, rho_r=1e-3), 0.01, 600.0)
        bound = peak_contacts(ClosureKind.INVERSE_GAMMA, MacroVariant.L2, 10.0, 5.0)
        assert max(s.m_i for s in states) <= bound + 1e-9

    def test_dirac_closure_collapses_to_classical_sir(self):
        epi = EpidemicParams((1e-3,), GAMMA_I)
        m0 = 10.0
        dirac = MacroModel(MacroVariant.L1, ClosureKind.DIRAC, kin(-1.0), epi)
        classical = MacroModel(MacroVariant.CLASSICAL_SIR, ClosureKind.DIRAC,
                               kin(-1.0), epi, beta=1e-3 * m0 * m0)
        _, t_d = rk4_integrate(dirac, state(), 0.01, 300.0)
        _, t_c = rk4_integrate(classical, state(), 0.01, 300.0)
        gap = max(abs(a.rho_i - b.rho_i) for a, b in zip(t_d, t_c))
        assert gap < 1e-12

    def test_closure_peak_ordering_first_order(self):
        # slim- vs power-law-tail closure: the heavier tail reaches a higher
        # infected mean along the whole trajectory
        epi = EpidemicParams((1e-3,), GAMMA_I)
        _, tg = rk4_integrate(MacroModel(MacroVariant.L1, ClosureKind.GAMMA, kin(1.0), epi),
                              state(), 0.01, 600.0)
        _, ti = rk4_integrate(MacroModel(MacroVariant.L1, ClosureKind.INVERSE_GAMMA, kin(-1.0), epi),
                              state(), 0.01, 600.0)
        assert max(s.m_i for s in ti) > max(s.m_i for s in tg)

    def test_abort_on_invariant_violation(self, monkeypatch):
        model = MacroModel(MacroVariant.CLASSICAL_SIR, ClosureKind.DIRAC,
                           kin(-1.0), EpidemicParams((0.0,), GAMMA_I), beta=0.2)

        def broken_rhs(_model, s):
            return MacroState(1.0, 0.0, 0.0, 0.0, 0.0, 0.0)  # injects mass

        monkeypatch.setattr("kinctrl.macro.rhs", broken_rhs)
        with pytest.raises(InvariantViolationError) as err:
            rk4_integrate(model, state(), 0.1, 1.0)
        assert err.value.last_state == state()


class TestControlledMacro:
    def grid(self):
        return Grid(200.0, 10000)

    def test_zero_infected_freezes_masses(self):
        model = ControlledMacroModel(kin(-1.0, tau=1e-5), EpidemicParams((2e-2, 2e-6), GAMMA_I),
                                     ControlSpec.additive(1.0, 3.0), self.grid())
        d = controlled_rhs(model, MacroState(0.7, 0.0, 0.3, 5.0, 5.0, 5.0))
        assert (d.rho_s, d.rho_i, d.rho_r) == (0.0, 0.0, 0.0)

    def test_large_nu_mass_rhs_matches_uncontrolled_l2(self):
        kinetic = kin(-1.0, tau=1e-5)
        epi = EpidemicParams((2e-2, 2e-6), GAMMA_I)
        model = ControlledMacroModel(kinetic, epi, ControlSpec.additive(1e9, 3.0), Grid(3000.0, 60000))
        s = state(rho_i=0.05, rho_r=0.02)
        d_ctrl = controlled_rhs(model, s)
        d_unc = rhs(MacroModel(MacroVariant.L2, ClosureKind.INVERSE_GAMMA, kinetic, epi), s)
        assert d_ctrl.rho_s == pytest.approx(d_unc.rho_s, rel=1e-6)
        assert d_ctrl.rho_i == pytest.approx(d_unc.rho_i, rel=1e-6)

    def test_additive_fixed_point_is_target(self):
        model = ControlledMacroModel(kin(-1.0, tau=1e-5), EpidemicParams((2e-2, 2e-6), GAMMA_I),
                                     ControlSpec.additive(1.0, 3.0), self.grid())
        assert model.self_consistent_mean(10.0) == pytest.approx(3.0, rel=1e-6)

    def test_interaction_control_lowers_peak(self):
        kinetic = kin(-1.0, tau=1e-5)
        epi = EpidemicParams((2e-2, 2e-6), GAMMA_I)
        s0u = state(rho_i=1e-2, rho_r=1e-2)
        _, unc = rk4_integrate(
            MacroModel(MacroVariant.L2, ClosureKind.INVERSE_GAMMA, kinetic, epi), s0u, 0.01, 20.0
        )
        model = ControlledMacroModel(kinetic, epi, ControlSpec.interaction(1.0, 3.0), self.grid())
        m_star = model.self_consistent_mean(10.0)
        s0c = MacroState(1 - 2e-2, 1e-2, 1e-2, m_star, m_star, m_star)
        _, ctrl = rk4_integrate(model, s0c, 0.01, 20.0)
        assert max(s.rho_i for s in ctrl) < max(s.rho_i for s in unc)

    def test_moment_cache(self):
        # keyed on the exact mean: a repeated mean hits, a nearby one does not
        model = ControlledMacroModel(kin(-1.0, tau=1e-5), EpidemicParams((2e-2,), GAMMA_I),
                                     ControlSpec.additive(1.0, 3.0), self.grid())
        a = model.moments_for_mean(5.0)
        assert model.moments_for_mean(5.0) is a
        assert model.moments_for_mean(5.0 + 1e-9) != a
        assert len(model._cache) == 2

    def test_self_consistent_means_solve_the_fixed_point(self):
        # the bundled test4_control_* settings; control A's steady-state mean
        # is (lam m + k x_T) / (lam + k), so its fixed point is x_T exactly
        kinetic = kin(-1.0, tau=1e-5)
        epi = EpidemicParams((2e-2, 2e-6), GAMMA_I)
        grid = Grid(500.0, 25000)
        a = ControlledMacroModel(kinetic, epi, ControlSpec.additive(1.0, 3.0), grid)
        assert a.self_consistent_mean(10.0) == pytest.approx(3.0, rel=1e-12)
        c = ControlSpec.interaction(1.0, 3.0)
        m_star = ControlledMacroModel(kinetic, epi, c, grid).self_consistent_mean(10.0)
        residual = controlled_steady_state(kinetic, c, m_star, grid).raw_moment(1) - m_star
        assert abs(residual) <= 1e-12
