import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinctrl import (
    ClosureKind,
    ControlSpec,
    EquilibriumDensity,
    Grid,
    Histogram,
    KineticParams,
    ParticleEnsemble,
    Strategy,
    closure_moment,
    collision_kernel,
    dsmc_step,
    run_to_equilibrium,
    sample_noise,
)
from kinctrl.dsmc import _proposed


def kp(delta=-1.0, alpha=1.0, sigma2=0.2, epsilon=0.01):
    return KineticParams(alpha=alpha, sigma2=sigma2, delta=delta, epsilon=epsilon)


UN = ControlSpec.uncontrolled()


class TestNoise:
    def test_moments(self):
        p = kp()
        rng = np.random.default_rng(42)
        eta = sample_noise(p, rng, size=1_000_000)
        var = p.epsilon * p.sigma2
        assert var == pytest.approx(0.002)
        assert abs(eta.mean()) < 3 * np.sqrt(var / 1e6)
        assert eta.var() == pytest.approx(var, rel=0.05)

    def test_support_keeps_multiplicative_factor_positive(self):
        p = kp()
        rng = np.random.default_rng(0)
        eta = sample_noise(p, rng, size=100_000)
        assert eta.min() > -1.0
        assert eta.max() < 1.0


class TestTransition:
    # _proposed(x, m, p, c, eta) is one transition before dsmc_step's clamp at 0

    def test_fixed_point_at_mean(self):
        assert _proposed(5.0, 5.0, kp(), UN, 0.0) == pytest.approx(5.0)

    def test_interaction_inactive_at_mean(self):
        c = ControlSpec.interaction(1.0, 3.0)
        assert _proposed(5.0, 5.0, kp(), c, 0.0) == pytest.approx(5.0)

    def test_additive_instantaneous_steering(self):
        c = ControlSpec.additive(1e-12, 3.0)
        assert _proposed(8.0, 5.0, kp(), c, 0.0) == pytest.approx(3.0, abs=1e-6)

    def test_mean_reverting_sign(self):
        # above the reference mean contacts shrink, below they grow
        p = kp()
        assert _proposed(8.0, 5.0, p, UN, 0.0) < 8.0
        assert _proposed(2.0, 5.0, p, UN, 0.0) > 2.0

    def test_clamped_at_zero(self):
        p = kp(epsilon=0.5)  # exaggerated step so proposals go negative
        c = ControlSpec.additive(1e-9, 0.0)
        assert _proposed(10.0, 5.0, p, c, -0.99) < 0.0
        ens = ParticleEnsemble.from_uniform(1_000, 9.0, 11.0, seed=3)
        dsmc_step(ens, 5.0, p, c, dt=p.epsilon, sigma_bound=1.0)
        assert ens.n_clamped > 0
        assert ens.samples.min() >= 0.0

    def test_requires_mean(self):
        with pytest.raises(ValueError):
            _proposed(1.0, 0.0, kp(), UN, 0.0)


class TestStep:
    def test_every_particle_transitions_at_dt_equals_epsilon(self):
        p = kp()
        ens = ParticleEnsemble.from_uniform(20_000, 4.0, 6.0, seed=5)
        before = ens.samples.copy()
        dsmc_step(ens, 5.0, p, UN, dt=p.epsilon, sigma_bound=1.0)
        assert np.all(ens.samples != before)
        assert ens.n_transitions == ens.size

    def test_tiny_dt_leaves_ensemble_unchanged(self):
        p = kp()
        ens = ParticleEnsemble.from_uniform(20_000, 4.0, 6.0, seed=6)
        before = ens.samples.copy()
        dsmc_step(ens, 5.0, p, UN, dt=1e-6 * p.epsilon, sigma_bound=1.0)
        assert int((ens.samples != before).sum()) <= 2

    def test_step_size_guard(self):
        p = kp(delta=1.0)
        ens = ParticleEnsemble.from_uniform(100, 4.0, 6.0, seed=0)
        # dt = epsilon / sigma is the boundary case and must be accepted
        dsmc_step(ens, 5.0, p, UN, dt=0.001, sigma_bound=10.0)
        with pytest.raises(ValueError):
            dsmc_step(ens, 5.0, p, UN, dt=0.0011, sigma_bound=10.0)

    def test_particle_count_conserved(self):
        p = kp()
        ens = ParticleEnsemble.from_uniform(5_000, 4.0, 6.0, seed=1)
        for _ in range(50):
            dsmc_step(ens, ens.mean(), p, UN, dt=0.01, sigma_bound=1.0)
        assert ens.size == 5_000
        assert np.all(ens.samples >= 0)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        strategy=st.sampled_from(Strategy),
        delta=st.floats(-1.0, 1.0),
        alpha=st.floats(0.2, 2.0),
        sigma2=st.floats(0.05, 0.6),
        epsilon=st.floats(1e-3, 0.5),
        m=st.floats(0.5, 50.0),
        nu=st.floats(1e-6, 10.0),
        x_target=st.floats(0.0, 20.0),
        dt_frac=st.floats(0.01, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_count_and_admissibility_over_random_parameters(
        self, strategy, delta, alpha, sigma2, epsilon, m, nu, x_target, dt_frac, seed
    ):
        # controls are derived at delta = -1 only; large epsilon with a small
        # nu steers a particle almost onto the target in one step, so the
        # noise can carry the proposal below 0 and the clamp must hold
        if strategy is not Strategy.UNCONTROLLED:
            delta = -1.0
        p = KineticParams(alpha=alpha, sigma2=sigma2, delta=delta, epsilon=epsilon)
        c = ControlSpec(strategy, nu=nu, x_target=x_target).micro_scaled(epsilon)
        bound = collision_kernel(0.05, p)
        ens = ParticleEnsemble.from_uniform(2_000, 0.0, 3.0 * m, seed)
        for _ in range(5):
            dsmc_step(ens, m, p, c, dt=dt_frac * epsilon / bound, sigma_bound=bound)
        assert ens.size == 2_000
        assert np.all(ens.samples >= 0.0)
        assert np.all(np.isfinite(ens.samples))

    def test_determinism(self):
        p = kp()
        runs = []
        for _ in range(2):
            ens = ParticleEnsemble.from_uniform(10_000, 4.0, 6.0, seed=99)
            for _ in range(100):
                dsmc_step(ens, ens.mean(), p, UN, dt=0.01, sigma_bound=1.0)
            runs.append(ens.samples.copy())
        assert np.array_equal(runs[0], runs[1])


class TestInvariants:
    def test_momentum_preserved_fixed_mean(self):
        # mean drift below 3 standard errors over T = 5 at the reference mean
        p = kp()
        ens = ParticleEnsemble.from_uniform(40_000, 4.0, 6.0, seed=123)
        m0 = ens.mean()
        for _ in range(500):
            dsmc_step(ens, 5.0, p, UN, dt=0.01, sigma_bound=1.0)
        se = ens.samples.std() / np.sqrt(ens.size)
        assert abs(ens.mean() - m0) < 3 * se

    def test_momentum_preserved_ensemble_mean_delta_plus_one(self):
        p = kp(delta=1.0)
        ens = ParticleEnsemble.from_uniform(40_000, 4.0, 6.0, seed=77)
        m0 = ens.mean()
        for _ in range(1000):
            dsmc_step(ens, ens.mean(), p, UN, dt=0.001, sigma_bound=10.0)
        se = ens.samples.std() / np.sqrt(ens.size)
        assert abs(ens.mean() - m0) < 3 * se

    def test_second_moment_matches_closure(self):
        # relax to the power-law equilibrium and compare the sample energy
        p = kp()
        ens = ParticleEnsemble.from_uniform(50_000, 4.0, 6.0, seed=99)
        for _ in range(1500):
            dsmc_step(ens, ens.mean(), p, UN, dt=0.01, sigma_bound=1.0)
        target = closure_moment(ClosureKind.INVERSE_GAMMA, 2, ens.mean(), p.lam)
        assert ens.second_moment() == pytest.approx(target, rel=0.05)

    def test_no_clamping_at_reference_parameters(self):
        p = kp()
        ens = ParticleEnsemble.from_uniform(20_000, 6.0, 8.0, seed=3)
        for _ in range(200):
            dsmc_step(ens, 5.0, p, UN, dt=0.01, sigma_bound=1.0)
        assert ens.n_clamped / ens.n_transitions < 1e-4


class TestHistogram:
    def test_normalization(self):
        rng = np.random.default_rng(0)
        h = Histogram.from_samples(rng.gamma(5.0, 2.0, size=10_000), 400, 100.0)
        assert h.density.sum() * h.bin_width == pytest.approx(1.0)

    def test_run_to_equilibrium_fixed_point(self):
        # vanishing noise and growth: the histogram stays concentrated at the mean
        p = KineticParams(alpha=1.0, sigma2=1e-12, delta=-1.0, epsilon=0.01)
        ens = ParticleEnsemble(np.full(2_000, 5.0), np.random.default_rng(2))
        h = run_to_equilibrium(ens, p, UN, t_final=2.0, dt=0.01, sigma_bound=1.0, m_ref=5.0)
        centers = h.centers
        mass_near_mean = h.density[np.abs(centers - 5.0) < 0.5].sum() * h.bin_width
        assert mass_near_mean == pytest.approx(1.0, abs=1e-12)

    def test_rejects_partial_final_step(self):
        ens = ParticleEnsemble.from_uniform(100, 4.0, 6.0, seed=0)
        with pytest.raises(ValueError, match="whole number"):
            run_to_equilibrium(ens, kp(), UN, t_final=1.0, dt=0.003, sigma_bound=1.0)

    def test_short_relaxation_toward_equilibrium(self):
        # coarse, fast version of the long-run check: headed the right way
        p = kp()
        ens = ParticleEnsemble.from_uniform(50_000, 6.0, 8.0, seed=11)
        h = run_to_equilibrium(ens, p, UN, t_final=15.0, dt=0.01, sigma_bound=1.0,
                               m_ref=5.0, x_max=100.0, n_bins=200)
        fine = Grid(100.0, 200 * 16)
        eq = EquilibriumDensity(kp(), 5.0, fine)
        ref = eq.values.reshape(200, 16).mean(axis=1)
        assert h.l1_distance(ref) < 0.12
