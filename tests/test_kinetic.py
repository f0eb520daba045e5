import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinctrl import (
    ContactDensity,
    ControlSpec,
    EpidemicParams,
    Grid,
    KineticParams,
    Strategy,
    build_operator,
    steady_state_solve,
    uniform_density,
)
from kinctrl.kinetic import (
    MASS_FLOOR,
    OBSERVABLES,
    KineticSIRState,
    _contact_substep,
    center_powers,
    contact_powers,
    epidemic_substep,
    exchange_rate,
    gamma_profile_state,
    run_scenario,
    split_step,
)

GAMMA_I = 1.0 / 14.0


def kin(tau=1.0, delta=-1.0):
    return KineticParams(alpha=1.0, sigma2=0.2, delta=delta, tau=tau)


@pytest.fixture
def grid():
    return Grid(100.0, 1000)


@pytest.fixture
def mixed_state(grid):
    return gamma_profile_state(grid, 5.0, 10.0, (0.7, 0.2, 0.1))


def row(state, j):
    """Row j (0 = S, 1 = I, 2 = R) of the state as a ContactDensity."""
    return ContactDensity(state.grid, state.values[j])


class TestState:
    def test_requires_three_rows_on_the_grid(self, grid):
        with pytest.raises(ValueError, match="not \\(3, 1000\\)"):
            KineticSIRState(np.zeros((3, 500)), grid)
        with pytest.raises(ValueError):
            KineticSIRState(np.zeros((2, grid.n_cells)), grid)

    def test_gamma_profile_masses(self, grid):
        st = gamma_profile_state(grid, 5.0, 10.0, (1 - 2e-5, 1e-5, 1e-5))
        assert st.masses()[0] == pytest.approx(1 - 2e-5, abs=1e-8)
        assert st.masses()[1] == pytest.approx(1e-5, abs=1e-8)
        assert st.observables()[OBSERVABLES.index("m_S")] == pytest.approx(10.0, rel=1e-6)

    def test_observables_match_row_moments(self, mixed_state):
        obs = dict(zip(OBSERVABLES, mixed_state.observables()))
        for j, tag in enumerate("SIR"):
            f = row(mixed_state, j)
            assert obs["rho_" + tag] == pytest.approx(f.mass(), rel=1e-13)
            assert obs["m_" + tag] == pytest.approx(f.raw_moment(1) / f.mass(), rel=1e-13)
            assert obs["m2_" + tag] == pytest.approx(f.raw_moment(2) / f.mass(), rel=1e-13)

    def test_empty_compartment_reports_zero_moments(self, grid):
        values = np.zeros((3, grid.n_cells))
        values[0] = uniform_density(grid, 2.0, 8.0).values
        obs = dict(zip(OBSERVABLES, KineticSIRState(values, grid).observables()))
        assert obs["rho_I"] == obs["m_I"] == obs["m2_R"] == 0.0
        assert obs["m_S"] == pytest.approx(5.0, rel=1e-12)


def incidence(state, e):
    """Local infection rate K(x): minus the susceptible rate of the exchange."""
    x_pows = contact_powers(state.grid.centers(), e.order)
    return -exchange_rate(state.values[0], state.values[1], x_pows, state.grid.dx, e)[0]


class TestIncidence:
    def test_zero_without_infected(self, grid):
        values = np.zeros((3, grid.n_cells))
        values[0] = uniform_density(grid, 2.0, 8.0).values
        state = KineticSIRState(values, grid)
        assert np.all(incidence(state, EpidemicParams((1.0,), 1.0)) == 0.0)

    def test_first_order_integral(self, mixed_state):
        # integral oracle: int K dx = (rho_S m_S)(rho_I m_I) at beta_1 = 1
        e = EpidemicParams((1.0,), 1.0)
        k = incidence(mixed_state, e)
        expected = row(mixed_state, 0).raw_moment(1) * row(mixed_state, 1).raw_moment(1)
        assert k.sum() * mixed_state.grid.dx == pytest.approx(expected, rel=1e-12)

    def test_homogeneous_term(self, mixed_state):
        e = EpidemicParams((), 1.0, beta0=0.7)
        k = incidence(mixed_state, e)
        assert k.sum() * mixed_state.grid.dx == pytest.approx(0.7 * 0.7 * 0.2, rel=1e-9)

    def test_non_negative(self, mixed_state):
        e = EpidemicParams((0.5, 1e-3), 1.0)
        assert incidence(mixed_state, e).min() >= 0.0


class TestEpidemicSubstep:
    def test_pure_recovery_is_exponential_cellwise(self, mixed_state):
        e = EpidemicParams((0.0,), GAMMA_I)
        out = epidemic_substep(mixed_state, e, 0.5)
        expected = mixed_state.values[1] * np.exp(-GAMMA_I * 0.5)
        assert np.max(np.abs(out.values[1] - expected)) < 1e-10

    def test_susceptible_mass_derivative(self, mixed_state):
        # finite-difference the mass trajectory against the first-order
        # moment-product law at vanishing recovery
        e = EpidemicParams((0.02,), 1e-12)
        dt = 1e-4
        out = epidemic_substep(mixed_state, e, dt)
        fd = (out.masses()[0] - mixed_state.masses()[0]) / dt
        expected = -0.02 * row(mixed_state, 0).raw_moment(1) * row(mixed_state, 1).raw_moment(1)
        assert fd == pytest.approx(expected, rel=1e-3)

    def test_total_mass_conserved(self, mixed_state):
        e = EpidemicParams((0.05, 1e-4), GAMMA_I)
        out = epidemic_substep(mixed_state, e, 0.1)
        assert abs(out.total_mass() - mixed_state.total_mass()) < 1e-12

    def test_compartment_relabel_keeps_total_mass(self, mixed_state):
        e = EpidemicParams((0.05,), GAMMA_I)
        swapped = KineticSIRState(mixed_state.values[::-1], mixed_state.grid)
        out = epidemic_substep(swapped, e, 0.1)
        assert out.total_mass() == pytest.approx(mixed_state.total_mass(), abs=1e-12)

    def test_clips_negative_cells_and_records_the_mass(self, grid):
        # a large step with strong transmission overshoots S below zero
        state = gamma_profile_state(grid, 5.0, 10.0, (0.5, 0.5, 0.0))
        with pytest.warns(RuntimeWarning, match="clipping"):
            out = epidemic_substep(state, EpidemicParams((1.0,), GAMMA_I), 1.0)
        assert out.values.min() == 0.0
        assert out.clipped_mass > 0.0
        gained = out.total_mass() - state.total_mass()
        assert gained == pytest.approx(out.clipped_mass, rel=1e-9)


def full_row_epidemic_substep(state, e, dt):
    """The RK4 exchange over every cell of every row: the oracle of the
    support-only epidemic_substep."""
    x_pows = contact_powers(state.grid.centers(), e.order)
    vs, vi, _ = state.values

    def deriv(h, k):
        return exchange_rate(vs + h * k[0], vi + h * k[1], x_pows, state.grid.dx, e)

    k1 = exchange_rate(vs, vi, x_pows, state.grid.dx, e)
    k2 = deriv(0.5 * dt, k1)
    k3 = deriv(0.5 * dt, k2)
    k4 = deriv(dt, k3)
    new = state.values + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    neg = new < 0
    clipped = state.clipped_mass
    if neg.any():
        clipped -= float(new[neg].sum() * state.grid.dx)
    new[neg] = 0.0
    return new, clipped


class TestSupportOnlyEpidemicSubstep:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        ends=st.lists(st.integers(0, 1000), min_size=3, max_size=3),
        rho=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
        betas=st.lists(st.floats(0.0, 2.0), min_size=0, max_size=2),
        beta0=st.sampled_from([0.0, 0.3]),
        dt=st.sampled_from([1e-3, 0.1, 1.0]),
    )
    def test_equals_the_full_row_update_bit_for_bit(self, ends, rho, betas, beta0, dt):
        state = gamma_profile_state(Grid(100.0, 1000), 5.0, 3.0, tuple(rho))
        for values, end in zip(state.values, ends):
            values[end:] = 0.0
        e = EpidemicParams(tuple(betas), GAMMA_I, beta0=beta0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            out = epidemic_substep(state, e, dt)
            expected, clipped = full_row_epidemic_substep(state, e, dt)
        assert np.array_equal(out.values.view(np.int64), expected.view(np.int64))
        assert out.clipped_mass == clipped

    def test_x_powers_are_cached_read_only(self, grid):
        x_pows = center_powers(grid, 2)
        assert center_powers(grid, 2) is x_pows
        assert np.array_equal(x_pows, contact_powers(grid.centers(), 2))
        with pytest.raises(ValueError):
            x_pows[0, 0] = 1.0


class TestSplitStep:
    def test_large_tau_reduces_to_epidemic_substep(self, mixed_state):
        e = EpidemicParams((0.05,), GAMMA_I)
        full = split_step(mixed_state, kin(tau=1e12), ControlSpec.uncontrolled(), e, 0.01)
        epi_only = epidemic_substep(mixed_state, e, 0.01)
        assert np.max(np.abs(full.values - epi_only.values)) < 1e-12

    def test_first_order_commutation(self, grid):
        # swapping substep order changes rho_I(T) at first order in dt
        e = EpidemicParams((0.05,), GAMMA_I)
        p = kin(tau=0.5)
        c = ControlSpec.uncontrolled()

        def epidemic_then_contact(st, dt):
            return _contact_substep(epidemic_substep(st, e, dt), p, c, dt)

        def contact_then_epidemic(st, dt):
            return split_step(st, p, c, e, dt)

        def order_gap(dt):
            states = []
            for step in (contact_then_epidemic, epidemic_then_contact):
                st = gamma_profile_state(grid, 5.0, 10.0, (0.9, 0.05, 0.05))
                for _ in range(int(round(2.0 / dt))):
                    st = step(st, dt)
                states.append(st.masses()[1])
            return abs(states[0] - states[1])

        g1, g2 = order_gap(0.02), order_gap(0.01)
        assert 1.5 < g1 / g2 < 3.0


class TestRunScenario:
    def test_zero_time_returns_initial(self, mixed_state):
        res = run_scenario(mixed_state, kin(), ControlSpec.uncontrolled(),
                           EpidemicParams((0.01,), GAMMA_I), t_final=0.0, dt=0.01)
        assert len(res.times) == 1
        assert res.column("rho_S")[0] == pytest.approx(0.7, abs=1e-8)
        assert res.final_state is mixed_state

    def test_rejects_partial_final_step(self, mixed_state):
        with pytest.raises(ValueError, match="whole number"):
            run_scenario(mixed_state, kin(), ControlSpec.uncontrolled(),
                         EpidemicParams((0.01,), GAMMA_I), t_final=1.0, dt=0.3)

    @pytest.mark.parametrize("every", [0, -1, 2.0, True, None])
    def test_bad_output_every_raises_before_step_0(self, mixed_state, monkeypatch, every):
        def never(*args, **kwargs):
            raise AssertionError("a step ran before output_every was checked")

        monkeypatch.setattr("kinctrl.kinetic.split_step", never)
        with pytest.raises(ValueError, match="output_every"):
            run_scenario(mixed_state, kin(), ControlSpec.uncontrolled(),
                         EpidemicParams((0.01,), GAMMA_I), t_final=0.05, dt=0.01,
                         output_every=every)

    def test_mass_conserved_and_non_negative(self, grid):
        st = gamma_profile_state(grid, 5.0, 10.0, (0.9, 0.05, 0.05))
        res = run_scenario(st, kin(tau=0.1), ControlSpec.uncontrolled(),
                           EpidemicParams((0.05,), GAMMA_I), t_final=2.0, dt=0.01)
        assert abs(res.final_state.total_mass() - st.total_mass()) < 1e-10
        assert res.final_state.values.min() >= 0.0

    def test_relaxes_to_steady_state_without_exchange(self, grid):
        # no transmission, negligible recovery: S relaxes to the operator's
        # steady state by T = 50
        p = kin(tau=1.0)
        e = EpidemicParams((0.0,), 1e-300)
        values = np.zeros((3, grid.n_cells))
        values[0] = uniform_density(grid, 6.0, 8.0).values
        st = KineticSIRState(values, grid)
        res = run_scenario(st, p, ControlSpec.uncontrolled(), e, t_final=50.0, dt=0.05,
                           output_every=1000)
        f_s = row(res.final_state, 0)
        ss = steady_state_solve(build_operator(p, ControlSpec.uncontrolled(), grid), f_s.mean())
        assert np.abs(f_s.values - ss.values).sum() * grid.dx < 0.02

    def test_second_moment_columns(self, mixed_state):
        res = run_scenario(mixed_state, kin(), ControlSpec.uncontrolled(),
                           EpidemicParams((0.01,), GAMMA_I), t_final=0.5, dt=0.1)
        m2 = res.column("m2_s")
        assert res.observables.shape == (len(res.times), len(OBSERVABLES))
        f_s = row(mixed_state, 0)
        assert m2[0] == pytest.approx(f_s.raw_moment(2) / f_s.mass(), rel=1e-12)


class TestContactSubstep:
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        strategy=st.sampled_from(Strategy),
        tau=st.sampled_from([1.0, 1e-2, 1e-5]),
        lam=st.floats(1.5, 8.0),
        mean0=st.floats(2.0, 20.0),
        rho=st.tuples(st.floats(1e-6, 1.0), st.floats(1e-6, 1.0), st.floats(1e-6, 1.0)),
    )
    def test_conserves_each_compartment_mass(self, strategy, tau, lam, mean0, rho):
        grid = Grid(100.0, 1000)
        c = ControlSpec(strategy, nu=1.0, x_target=3.0)
        state = gamma_profile_state(grid, lam, mean0, rho)
        out = _contact_substep(state, kin(tau=tau), c, 0.01)
        assert np.all(np.abs(out.masses() - state.masses()) <= 1e-13 * state.masses())
        assert out.values.min() >= 0.0

    def test_compartment_below_mass_floor_is_kept(self, mixed_state):
        values = mixed_state.values.copy()
        values[2] = MASS_FLOOR * 1e-4
        state = KineticSIRState(values, mixed_state.grid)
        assert state.masses()[2] <= MASS_FLOOR
        out = _contact_substep(state, kin(), ControlSpec.interaction(1.0, 3.0), 0.01)
        assert np.array_equal(out.values[2], values[2])
        assert not np.array_equal(out.values[:2], values[:2])
        assert np.array_equal(state.values, values)  # the input is not modified

    def test_controls_at_other_delta_are_domain_errors(self, mixed_state):
        with pytest.raises(ValueError, match="delta = -1"):
            _contact_substep(mixed_state, kin(delta=1.0), ControlSpec.additive(1.0, 3.0), 0.01)


class TestObservedOrder:
    # Lie splitting of the contact and epidemic substeps is first order in
    # dt at tau = 1.  The stiff tau = 1e-5 case is left out: there each
    # contact substep re-projects onto an equilibrium that loses mean at the
    # x_max cut, so the differences grow as dt shrinks; it belongs with a
    # stiff step that conserves the mean.

    @pytest.mark.parametrize("c", [ControlSpec.uncontrolled(), ControlSpec.interaction(1.0, 3.0)],
                             ids=["uncontrolled", "control_b"])
    def test_lie_splitting_is_first_order(self, grid, c):
        state = gamma_profile_state(grid, 5.0, 10.0, (0.98, 0.01, 0.01))
        e = EpidemicParams((0.02,), 0.2)
        finals = [run_scenario(state, kin(), c, e, 2.0, dt).final_state.values
                  for dt in (0.05, 0.025, 0.0125, 0.00625)]
        diffs = np.array([np.abs(a - b).sum() * grid.dx for a, b in zip(finals, finals[1:])])
        orders = np.log2(diffs[:-1] / diffs[1:])  # each dt is half the one before
        assert np.all((0.8 <= orders) & (orders <= 1.3)), orders
