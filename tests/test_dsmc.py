import itertools
import json
import multiprocessing
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from kinctrl import (
    ClosureKind,
    ContactDensity,
    ControlSpec,
    EquilibriumDensity,
    Grid,
    KineticParams,
    ParticleEnsemble,
    Strategy,
    closure_moment,
    collision_kernel,
    dsmc_step,
    growth_rate_times_x,
    run_to_equilibrium,
    sample_noise,
)
from kinctrl import cli, dsmc
from kinctrl.dsmc import _BLOCK, _gaps, _move
from kinctrl.params import STRATEGY_RULES
from oracles import geometric_rounds


def kp(delta=-1.0, alpha=1.0, sigma2=0.2, epsilon=0.01):
    return KineticParams(alpha=alpha, sigma2=sigma2, delta=delta, epsilon=epsilon)


def proposed(x, m, p, c, eta):
    """One transition before the clamp at 0, written out: the oracle of _move."""
    x = np.asarray(x, dtype=float)
    shift = np.asarray(growth_rate_times_x(x, m, p), dtype=float)  # psi(x/m) * x
    STRATEGY_RULES[c.strategy].shift_into(x, shift, np.empty_like(shift), p.epsilon, c)
    return x + shift + x * eta


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

    @pytest.mark.parametrize("size", [None, 1, 7, 100_003])
    @pytest.mark.parametrize("epsilon", [1e-3, 0.01, 0.3])
    def test_same_draws_as_uniform(self, size, epsilon):
        p = kp(epsilon=epsilon)
        a = np.sqrt(3.0 * p.epsilon * p.sigma2)
        ours, theirs = np.random.default_rng(5), np.random.default_rng(5)
        eta, expected = sample_noise(p, ours, size=size), theirs.uniform(-a, a, size=size)
        assert np.shape(eta) == np.shape(expected)
        assert np.array_equal(eta, expected)
        assert ours.bit_generator.state == theirs.bit_generator.state


class TestTransition:
    # proposed(x, m, p, c, eta) is one transition before dsmc_step's clamp at 0

    def test_fixed_point_at_mean(self):
        assert proposed(5.0, 5.0, kp(), UN, 0.0) == pytest.approx(5.0)

    def test_interaction_inactive_at_mean(self):
        c = ControlSpec.interaction(1.0, 3.0)
        assert proposed(5.0, 5.0, kp(), c, 0.0) == pytest.approx(5.0)

    def test_additive_instantaneous_steering(self):
        c = ControlSpec.additive(1e-12, 3.0)
        assert proposed(8.0, 5.0, kp(), c, 0.0) == pytest.approx(3.0, abs=1e-6)

    def test_mean_reverting_sign(self):
        # above the reference mean contacts shrink, below they grow
        p = kp()
        assert proposed(8.0, 5.0, p, UN, 0.0) < 8.0
        assert proposed(2.0, 5.0, p, UN, 0.0) > 2.0

    def test_clamped_at_zero(self):
        p = kp(epsilon=0.5)  # exaggerated step so proposals go negative
        c = ControlSpec.additive(1e-9, 0.0)
        assert proposed(10.0, 5.0, p, c, -0.99) < 0.0
        ens = ParticleEnsemble.from_uniform(1_000, 9.0, 11.0, seed=3)
        dsmc_step(ens, 5.0, p, c, dt=p.epsilon, sigma_bound=1.0)
        assert ens.n_clamped > 0
        assert ens.samples.min() >= 0.0

    def test_requires_mean(self):
        with pytest.raises(ValueError):
            proposed(1.0, 0.0, kp(), UN, 0.0)


def assert_untouched(ens, fresh):
    """ens is as fresh, built the same way: no draw, no move, no count."""
    assert np.array_equal(ens.samples, fresh.samples)
    for ours, theirs in zip([ens.rng, *ens.streams], [fresh.rng, *fresh.streams], strict=True):
        assert ours.bit_generator.state == theirs.bit_generator.state
    assert (ens.n_clamped, ens.n_transitions, ens.n_steps) == (0, 0, 0)


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

    @pytest.mark.parametrize("strategy", [Strategy.ADDITIVE_A, Strategy.INTERACTION_B])
    @pytest.mark.parametrize("run", ["dsmc_step", "run_to_equilibrium"])
    def test_control_at_other_delta_raises_before_any_draw(self, strategy, run):
        # the controlled rules are derived at delta = -1 only, as for the operators
        p, c = kp(delta=1.0), ControlSpec(strategy, nu=1.0, x_target=3.0)
        ens = ParticleEnsemble.from_uniform(1_000, 4.0, 6.0, seed=7)
        with pytest.raises(ValueError, match="delta"):
            if run == "dsmc_step":
                dsmc_step(ens, 5.0, p, c, dt=0.001, sigma_bound=10.0)
            else:
                run_to_equilibrium(ens, p, c, t_final=0.01, dt=0.001, sigma_bound=10.0, m_ref=5.0)
        assert_untouched(ens, ParticleEnsemble.from_uniform(1_000, 4.0, 6.0, seed=7))

    @pytest.mark.parametrize("m_ref, dt, match", [
        (0.0, 0.001, "mean"), (-1.0, 0.001, "mean"), (float("nan"), 0.001, "mean"),
        (5.0, 0.002, "exceeds"),
    ])
    def test_bad_run_in_rounds_raises_before_any_draw(self, m_ref, dt, match):
        ens = ParticleEnsemble.from_uniform(_BLOCK + 1, 4.0, 6.0, seed=7)
        with pytest.raises(ValueError, match=match):
            run_to_equilibrium(ens, kp(delta=1.0), UN, t_final=0.01, dt=dt, sigma_bound=10.0,
                               m_ref=m_ref)
        assert_untouched(ens, ParticleEnsemble.from_uniform(_BLOCK + 1, 4.0, 6.0, seed=7))

    def test_equality_returns_a_bool(self):
        # ensembles compare by identity: equal samples arrays must not reach
        # the ambiguous truth value of an array comparison
        a, b = (ParticleEnsemble.from_uniform(10, 1.0, 2.0, seed=0) for _ in range(2))
        assert (a == b) is False
        assert (a == a) is True

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
        c = ControlSpec(strategy, nu=nu, x_target=x_target)
        bound = collision_kernel(0.05, p)
        ens = ParticleEnsemble.from_uniform(2_000, 0.0, 3.0 * m, seed)
        for _ in range(5):
            dsmc_step(ens, m, p, c, dt=dt_frac * epsilon / bound, sigma_bound=bound)
        assert ens.size == 2_000
        assert np.all(ens.samples >= 0.0)
        assert np.all(np.isfinite(ens.samples))

    def test_determinism(self):
        # delta = -1 moves every particle each step; delta = +1 runs the clocks
        for delta, dt, bound in ((-1.0, 0.01, 1.0), (1.0, 0.001, 10.0)):
            p = kp(delta=delta)
            runs = []
            for _ in range(2):
                ens = ParticleEnsemble.from_uniform(10_000, 4.0, 6.0, seed=99)
                for _ in range(100):
                    dsmc_step(ens, ens.mean(), p, UN, dt=dt, sigma_bound=bound)
                runs.append(ens.samples.copy())
            assert np.array_equal(runs[0], runs[1]), delta

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("delta, dt, bound", [(-1.0, 0.01, 1.0), (1.0, 0.001, 10.0)])
    def test_non_finite_samples_are_rejected(self, bad, delta, dt, bound):
        # a NaN passes the check for negative contacts, and a sparse run would
        # draw it a NaN gap, never fire it and drop it from the histogram
        x = np.append(np.linspace(4.0, 6.0, 1_000), bad)
        with pytest.raises(ValueError, match="samples"):
            ens = ParticleEnsemble(x, np.random.default_rng(8))
            run_to_equilibrium(ens, kp(delta=delta), UN, t_final=0.01, dt=dt, sigma_bound=bound,
                               m_ref=5.0)


def one_pass_dense_step(ens, m, p, c):
    """The dense step as one pass over all particles, block b's noise drawn
    from ens.streams[b]: the oracle of its blocks and chunks."""
    x = ens.samples
    eta = [sample_noise(p, rng, size=x[a : a + _BLOCK].size)
           for a, rng in zip(range(0, x.size, _BLOCK), ens.streams)]
    raw = proposed(x, m, p, c, np.concatenate(eta))
    ens.n_transitions += x.size
    ens.n_clamped += int(np.count_nonzero(raw < 0))
    np.maximum(raw, 0.0, out=x)
    ens.n_steps += 1


DENSE_CASES = {
    "uncontrolled": (kp(), UN),
    "additive_a": (kp(), ControlSpec.additive(1.0, 3.0)),
    "interaction_b": (kp(), ControlSpec.interaction(1.0, 3.0)),
    # an exaggerated step steers onto x_target = 0, so about half the proposals clamp
    "clamped": (kp(epsilon=0.5), ControlSpec.additive(1e-9, 0.0)),
}


def assert_move_matches_oracle(n, m, p, c, seed):
    """_move, in blocks and buffers, against one pass of the written-out
    transition: samples, clamp count and generator state, bit for bit."""
    x = np.random.default_rng(seed).uniform(0.0, 3.0 * m, n)
    x[::97] = 0.0
    moved, ours, theirs = x.copy(), np.random.default_rng(seed), np.random.default_rng(seed)
    clamped = _move(moved, itertools.repeat(ours), m, p, c, dsmc._buffers(n))
    raw = proposed(x, m, p, c, sample_noise(p, theirs, size=n))
    assert np.array_equal(moved, np.maximum(raw, 0.0))
    assert clamped == np.count_nonzero(raw < 0)
    assert ours.bit_generator.state == theirs.bit_generator.state


# the dense cases, and the logarithmic growth law, where x = 0 gives 0
MOVE_CASES = {**DENSE_CASES, **{f"delta={d:g}": (kp(delta=d), UN) for d in (0.0, 1e-12, -1e-12)}}


class TestMove:
    # _move is the one transition of both paths: the dense step runs it on
    # the whole array, the clock path on the particles that fire

    @pytest.mark.parametrize("n", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 7])
    @pytest.mark.parametrize("case", MOVE_CASES)
    def test_matches_the_written_out_transition(self, case, n):
        p, c = MOVE_CASES[case]
        assert_move_matches_oracle(n, 5.0, p, c, seed=n)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        strategy=st.sampled_from(Strategy),
        delta=st.floats(-1.0, 1.0),
        epsilon=st.floats(1e-3, 0.5),
        m=st.floats(0.5, 50.0),
        n=st.integers(1, 2 * _BLOCK + 7),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_written_out_transition_over_random_parameters(
        self, strategy, delta, epsilon, m, n, seed
    ):
        p = kp(delta=delta, epsilon=epsilon)
        c = ControlSpec(strategy, nu=1.0, x_target=3.0)
        assert_move_matches_oracle(n, m, p, c, seed)


class TestDenseBlocks:
    # at delta = -1 and dt = epsilon every particle fires, and dsmc_step moves
    # them in blocks of _BLOCK, each with its own stream; the result must
    # match one pass bit for bit, for part of a block (the sizes around
    # 32 768) and across block edges

    @pytest.mark.parametrize(
        "n", [1, 32_767, 32_768, 32_769, 65_543, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 7])
    @pytest.mark.parametrize("case", DENSE_CASES)
    def test_blocks_match_one_pass(self, case, n):
        p, c = DENSE_CASES[case]
        ens, oracle = (ParticleEnsemble.from_uniform(n, 9.0, 11.0, seed=n) for _ in range(2))
        samples = ens.samples
        for _ in range(2):
            dsmc_step(ens, 5.0, p, c, dt=p.epsilon, sigma_bound=1.0)
            one_pass_dense_step(oracle, 5.0, p, c)
        assert ens.samples is samples
        assert np.array_equal(ens.samples, oracle.samples)
        assert (ens.n_clamped, ens.n_transitions) == (oracle.n_clamped, oracle.n_transitions)
        assert ens.n_transitions == 2 * n
        assert_same_streams(ens, oracle)
        if case == "clamped" and n > 1:
            assert ens.n_clamped > 0


def assert_same_streams(ens, oracle):
    assert len(ens.streams) == len(oracle.streams) == -(-ens.size // _BLOCK)
    for ours, theirs in zip([ens.rng, *ens.streams], [oracle.rng, *oracle.streams]):
        np.testing.assert_equal(ours.bit_generator.state, theirs.bit_generator.state)


def assert_same_ensemble(ens, oracle):
    assert np.array_equal(ens.samples, oracle.samples)
    assert (ens.n_clamped, ens.n_transitions, ens.n_steps) == (
        oracle.n_clamped, oracle.n_transitions, oracle.n_steps)
    assert_same_streams(ens, oracle)


def dense_run(ens, p, c, n_steps):
    """n_steps dense steps at the fixed mean 5 through run_to_equilibrium."""
    run_to_equilibrium(ens, p, c, t_final=n_steps * p.epsilon, dt=p.epsilon, sigma_bound=1.0,
                       m_ref=5.0)


def dense_run_on_two_chunks(n_steps):
    p, c = DENSE_CASES["uncontrolled"]
    ens = ParticleEnsemble.from_uniform(3 * _BLOCK, 9.0, 11.0, seed=8)
    dense_run(ens, p, c, n_steps)
    assert ens.threads == 2


class TestDenseChunks:
    # a dense run at a fixed mean splits its blocks into one chunk per usable
    # CPU, each block running to t_final on its own stream whichever chunk
    # runs it; any CPU count must give the one-pass result bit for bit

    @pytest.mark.parametrize("workers", [1, 2, 3, 64])
    @pytest.mark.parametrize("n", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 7, 5 * _BLOCK + 3])
    @pytest.mark.parametrize("case", DENSE_CASES)
    def test_chunks_match_one_pass(self, monkeypatch, case, n, workers):
        monkeypatch.setattr(dsmc, "_usable_cpus", lambda: workers)
        p, c = DENSE_CASES[case]
        ens, oracle = (ParticleEnsemble.from_uniform(n, 9.0, 11.0, seed=n) for _ in range(2))
        dense_run(ens, p, c, 2)
        for _ in range(2):
            one_pass_dense_step(oracle, 5.0, p, c)
        assert_same_ensemble(ens, oracle)
        assert ens.threads == min(workers, -(-n // _BLOCK))

    @pytest.mark.parametrize("case", DENSE_CASES)
    def test_run_matches_the_step_major_path(self, monkeypatch, case):
        # the blocks run to t_final one after another, each dsmc_step runs
        # every block once: the same draws from each stream, in another order
        monkeypatch.setattr(dsmc, "_usable_cpus", lambda: 2)
        p, c = DENSE_CASES[case]
        n = 2 * _BLOCK + 7
        ens, steps = (ParticleEnsemble.from_uniform(n, 9.0, 11.0, seed=10) for _ in range(2))
        dense_run(ens, p, c, 3)
        for _ in range(3):
            dsmc_step(steps, 5.0, p, c, dt=p.epsilon, sigma_bound=1.0)
        assert (ens.threads, steps.threads) == (2, 2)
        assert_same_ensemble(ens, steps)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("case", DENSE_CASES)
    def test_run_at_the_ensemble_mean_matches_steps_at_it(self, monkeypatch, case, workers):
        # each dense step at the ensemble mean is a one-step run at that mean,
        # chunked like a run at a fixed mean
        monkeypatch.setattr(dsmc, "_usable_cpus", lambda: workers)
        p, c = DENSE_CASES[case]
        n = 2 * _BLOCK + 7
        ens, steps, oracle = (ParticleEnsemble.from_uniform(n, 9.0, 11.0, seed=11) for _ in range(3))
        run_to_equilibrium(ens, p, c, t_final=3 * p.epsilon, dt=p.epsilon, sigma_bound=1.0)
        for _ in range(3):
            dsmc_step(steps, steps.mean(), p, c, dt=p.epsilon, sigma_bound=1.0)
            one_pass_dense_step(oracle, oracle.mean(), p, c)
        assert ens.threads == steps.threads == workers
        assert_same_ensemble(ens, steps)
        assert_same_ensemble(ens, oracle)

    def test_dense_step_leaves_the_ensemble_generator_alone(self, monkeypatch):
        # spawning the streams draws nothing from ens.rng, and the blocks draw
        # only from their streams; ens.rng, with a buffered uint32, is left
        # as it was for the clock path
        monkeypatch.setattr(dsmc, "_usable_cpus", lambda: 3)
        p, c = DENSE_CASES["interaction_b"]
        ens = ParticleEnsemble.from_uniform(3 * _BLOCK, 9.0, 11.0, seed=4)
        fresh = np.random.default_rng(4)
        fresh.uniform(9.0, 11.0, 3 * _BLOCK)
        assert ens.rng.bit_generator.state == fresh.bit_generator.state
        ens.rng.integers(0, 2**32, dtype=np.uint32)
        state = ens.rng.bit_generator.state
        assert state["has_uint32"] == 1
        dense_run(ens, p, c, 2)
        assert ens.threads == 3
        assert ens.rng.bit_generator.state == state

    def test_any_bit_generator_splits_across_cpus(self, monkeypatch):
        monkeypatch.setattr(dsmc, "_usable_cpus", lambda: 3)
        p, c = DENSE_CASES["additive_a"]
        samples = np.random.default_rng(5).uniform(9.0, 11.0, 3 * _BLOCK)
        ens, oracle = (ParticleEnsemble(samples.copy(), np.random.Generator(np.random.MT19937(5)))
                       for _ in range(2))
        dense_run(ens, p, c, 2)
        for _ in range(2):
            one_pass_dense_step(oracle, 5.0, p, c)
        assert ens.threads == 3
        assert all(type(s.bit_generator) is np.random.MT19937 for s in ens.streams)
        assert_same_ensemble(ens, oracle)

    def test_samples_beyond_the_spawned_streams_raise_before_any_move(self):
        # the streams are spawned for the samples the ensemble was built with
        p, c = DENSE_CASES["uncontrolled"]
        ens = ParticleEnsemble.from_uniform(_BLOCK, 9.0, 11.0, seed=3)
        ens.samples = np.concatenate([ens.samples, [10.0]])
        samples = ens.samples.copy()
        with pytest.raises(ValueError, match="streams"):
            dsmc_step(ens, 5.0, p, c, dt=p.epsilon, sigma_bound=1.0)
        assert np.array_equal(ens.samples, samples)
        assert (ens.n_clamped, ens.n_transitions, ens.n_steps) == (0, 0, 0)

    @pytest.mark.parametrize("m", [0.0, -1.0, float("nan")])
    @pytest.mark.parametrize("delta, dt, bound", [(-1.0, 0.01, 1.0), (1.0, 0.001, 10.0)])
    def test_bad_mean_raises_before_any_particle_moves(self, m, delta, dt, bound):
        ens = ParticleEnsemble.from_uniform(2 * _BLOCK, 9.0, 11.0, seed=6)
        samples, state = ens.samples.copy(), ens.rng.bit_generator.state
        with pytest.raises(ValueError, match="mean"):
            dsmc_step(ens, m, kp(delta=delta), UN, dt=dt, sigma_bound=bound)
        assert np.array_equal(ens.samples, samples)
        assert ens.rng.bit_generator.state == state
        assert (ens.n_clamped, ens.n_transitions, ens.n_steps) == (0, 0, 0)

    def test_forked_child_runs_the_dense_step(self, monkeypatch):
        # a child forked after the pool started has none of its threads
        monkeypatch.setattr(dsmc, "_usable_cpus", lambda: 2)
        dense_run_on_two_chunks(3)
        child = multiprocessing.get_context("fork").Process(target=dense_run_on_two_chunks, args=(3,))
        child.start()
        child.join(timeout=60)
        alive = child.is_alive()
        if alive:
            child.kill()
            child.join()
        assert not alive
        assert child.exitcode == 0

    def test_cli_run_is_identical_on_one_and_two_workers(self, tmp_path, monkeypatch):
        cfg = cli.load_config(cli.bundled_config_path("test1_control_b.json"))
        cfg["time"]["t_final"] = 0.05
        path = tmp_path / "test1_control_b.json"
        path.write_text(json.dumps(cfg))
        manifests, densities = [], []
        for workers in (1, 2):
            monkeypatch.setattr(dsmc, "_usable_cpus", lambda: workers)
            out = cli.execute(path, tmp_path / f"w{workers}")
            manifests.append(json.loads((out / cli.MANIFEST_FILE).read_text()))
            densities.append((out / cli.density_filename(0.05)).read_bytes())
        assert densities[0] == densities[1]
        assert manifests[0]["metrics"] == manifests[1]["metrics"]
        assert [m["diagnostics"] for m in manifests] == [
            {"steps": 5, "threads": 1, "particles_outside": 0},
            {"steps": 5, "threads": 2, "particles_outside": 0}]


def fire_prob(x, delta, dt, bound, epsilon=0.01):
    """min(B(x), bound) dt / epsilon, with B(x) = x^(-(1+delta)/2)."""
    return np.minimum(x ** (-(1.0 + delta) / 2.0), bound) * dt / epsilon


def assert_fires_as(ens, step, probs):
    """One step fires sum(probs) particles, within 5 standard errors."""
    before = ens.n_transitions
    step()
    fired = ens.n_transitions - before
    assert abs(fired - probs.sum()) < 5 * np.sqrt((probs * (1 - probs)).sum()), (fired, probs.sum())


class TestClocks:
    def test_kernel_bound_caps_delta_minus_one(self):
        # B = 1 at delta = -1, so kernel_bound 0.5 with dt = epsilon fires half
        p = kp()
        ens = ParticleEnsemble.from_uniform(100_000, 4.0, 6.0, seed=12)
        assert_fires_as(ens, lambda: dsmc_step(ens, 5.0, p, UN, dt=p.epsilon, sigma_bound=0.5),
                        np.full(ens.size, 0.5))

    def test_fired_count_matches_probabilities_delta_plus_one(self):
        p = kp(delta=1.0)
        ens = ParticleEnsemble.from_uniform(20_000, 4.0, 6.0, seed=13)
        expected = variance = 0.0
        for _ in range(200):
            probs = fire_prob(ens.samples, 1.0, 0.001, 10.0)
            expected += probs.sum()
            variance += (probs * (1 - probs)).sum()
            dsmc_step(ens, 5.0, p, UN, dt=0.001, sigma_bound=10.0)
        assert abs(ens.n_transitions - expected) < 5 * np.sqrt(variance)

    def test_run_at_the_ensemble_mean_fires_as_its_probabilities(self):
        # the run keeps each particle's clock across steps; each step must
        # still fire every particle with the probability of its current x
        p = kp(delta=1.0)
        ens = ParticleEnsemble.from_uniform(20_000, 4.0, 6.0, seed=15)
        probs, mean = [], ens.mean

        def mean_at_step_start():  # the run reads the mean once per step, first
            probs.append(fire_prob(ens.samples, 1.0, 0.001, 10.0))
            return mean()

        ens.mean = mean_at_step_start
        run_to_equilibrium(ens, p, UN, t_final=0.2, dt=0.001, sigma_bound=10.0)
        probs = np.concatenate(probs)
        assert (len(probs), ens.n_steps, ens.threads) == (200 * ens.size, 200, 1)
        assert abs(ens.n_transitions - probs.sum()) < 5 * np.sqrt((probs * (1 - probs)).sum())

    @pytest.mark.parametrize("change", ["dt", "samples"])
    def test_clocks_redrawn_for_new_dt_or_samples(self, change):
        # clocks drawn at probability ~0.002 must not set the next step's
        # count once dt or the samples give ~0.02
        p = kp(delta=1.0)
        ens = ParticleEnsemble.from_uniform(100_000, 4.0, 6.0, seed=14)
        dsmc_step(ens, 5.0, p, UN, dt=1e-4, sigma_bound=10.0)
        dt = 1e-3 if change == "dt" else 1e-4
        if change == "samples":
            ens.samples = ens.samples / 10.0
        assert_fires_as(ens, lambda: dsmc_step(ens, ens.mean(), p, UN, dt=dt, sigma_bound=10.0),
                        fire_prob(ens.samples, 1.0, dt, 10.0))


class TestGaps:
    # _gaps inverts the Geometric law, as rng.geometric does below 1/3

    def test_equal_to_numpy_geometric_below_a_third(self):
        prob = np.random.default_rng(30).uniform(0.0, 1.0 / 3.0, 100_000)
        prob[:4] = [1e-15, 1e-6, 0.01, np.nextafter(1.0 / 3.0, 0.0)]
        ours, theirs = np.random.default_rng(31), np.random.default_rng(31)
        assert np.array_equal(_gaps(ours, prob.copy()), theirs.geometric(prob))
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_certain_and_impossible_firings(self):
        prob = np.array([1.0, 1.0, 0.0, 5e-324, 1e-300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gaps = _gaps(np.random.default_rng(32), prob)
        assert np.array_equal(gaps[:4], [1.0, 1.0, np.inf, np.inf])
        assert 1e290 < gaps[4] < np.inf

    @pytest.mark.parametrize("q", [1.0 / 3.0, 0.5, 0.9])
    def test_geometric_law_from_a_third_up(self, q):
        # numpy searches here, so the draws differ; the law does not
        n = 200_000
        gaps = _gaps(np.random.default_rng(33), np.full(n, q))
        assert gaps.min() == 1.0 and np.all(gaps == np.round(gaps))
        assert abs(np.mean(gaps == 1.0) - q) < 5 * np.sqrt(q * (1 - q) / n)
        assert abs(gaps.mean() - 1 / q) < 5 * np.sqrt((1 - q) / q**2 / n)


def geometric_run(ens, m, p, c, dt, sigma_bound, n_steps):
    """geometric_rounds on each block of ens with its stream: the fixed-mean
    sparse run with rng.geometric gaps."""
    counts = [geometric_rounds(ens.samples[a : a + _BLOCK], rng, m, p, c, dt, sigma_bound, n_steps)
              for a, rng in zip(range(0, ens.size, _BLOCK), ens.streams)]
    ens.n_transitions += sum(moves for moves, _ in counts)
    ens.n_clamped += sum(clamped for _, clamped in counts)
    ens.n_steps += n_steps


def rounds(n, seed, samples=None):
    """A run in rounds: 200 steps at delta = +1 and m_ref = 5, from samples or
    a uniform on [4, 6]."""
    ens = ParticleEnsemble.from_uniform(n, 4.0, 6.0, seed=seed)
    if samples is not None:
        ens.samples = np.asarray(samples, dtype=float)
    run_to_equilibrium(ens, kp(delta=1.0), UN, t_final=0.2, dt=0.001, sigma_bound=10.0, m_ref=5.0)
    return ens


class TestRounds:
    # at a fixed reference mean the clock path runs each block to t_final on
    # its own stream, in rounds, instead of stepping all particles together

    def test_count_and_determinism(self):
        a, b = rounds(20_000, seed=21), rounds(20_000, seed=21)
        assert a.size == 20_000 and np.all(a.samples >= 0)
        assert np.array_equal(a.samples, b.samples)
        assert (a.n_transitions, a.n_clamped, a.n_steps, a.threads) == (
            b.n_transitions, b.n_clamped, 200, 1)
        assert a.n_transitions > 0

    def test_same_law_as_the_step_major_path(self):
        p = kp(delta=1.0)
        steps = ParticleEnsemble.from_uniform(20_000, 4.0, 6.0, seed=22)
        expected = variance = 0.0
        for _ in range(200):
            probs = fire_prob(steps.samples, 1.0, 0.001, 10.0)
            expected += probs.sum()
            variance += (probs * (1 - probs)).sum()
            dsmc_step(steps, 5.0, p, UN, dt=0.001, sigma_bound=10.0)
        ens = rounds(20_000, seed=22)
        assert abs(ens.n_transitions - expected) < 5 * np.sqrt(variance)
        assert ks_2samp(ens.samples, steps.samples).pvalue > 1e-3

    def test_a_later_step_redraws_the_clocks(self):
        # clocks drawn before the run are stale once it has moved the samples
        p = kp(delta=1.0)
        ens = ParticleEnsemble.from_uniform(100_000, 4.0, 6.0, seed=23)
        dsmc_step(ens, 5.0, p, UN, dt=0.001, sigma_bound=10.0)
        run_to_equilibrium(ens, p, UN, t_final=0.1, dt=0.001, sigma_bound=10.0, m_ref=5.0)
        assert ens.n_steps == 101
        assert_fires_as(ens, lambda: dsmc_step(ens, 5.0, p, UN, dt=0.001, sigma_bound=10.0),
                        fire_prob(ens.samples, 1.0, 0.001, 10.0))

    def test_a_saturated_gap_never_fires(self):
        # at 1e290 the gap saturates at the int64 maximum; a firing there
        # would overflow the growth term and clamp the particle to 0.  The
        # second run starts at step 200, which a clock kept in steps of the
        # whole ensemble would add to the saturated gap
        x = np.append(np.linspace(4.0, 6.0, 1_000), 1e290)
        ens = rounds(x.size, seed=24, samples=x)
        run_to_equilibrium(ens, kp(delta=1.0), UN, t_final=0.2, dt=0.001, sigma_bound=10.0,
                           m_ref=5.0)
        assert ens.samples[-1] == 1e290
        assert ens.n_clamped == 0 and ens.n_steps == 400

    def test_a_saturated_gap_after_two_firings_is_beyond_the_run(self, monkeypatch):
        # the first two rounds fire every particle, at steps 0 and 1; at
        # delta = -0.5 a particle at 1e120 stays near 1e120 when it moves, and
        # its next gap saturates, so last + gap would wrap negative and fire
        real, calls = dsmc._fire_prob, []

        def fire_prob_twice_certain(x, *args):
            calls.append(x.size)
            return np.ones_like(x) if len(calls) <= 2 else real(x, *args)

        monkeypatch.setattr(dsmc, "_fire_prob", fire_prob_twice_certain)
        x = np.full(8, 1e120)
        moves, clamped = dsmc._run_block(x, np.random.default_rng(25), 5.0, kp(delta=-0.5), UN,
                                         dt=0.001, sigma_bound=1.0, n_steps=200, dense=False,
                                         buffers=dsmc._buffers(x.size))
        assert (moves, clamped, len(calls)) == (16, 0, 3)
        assert np.all(x > 1e119)

    @pytest.mark.parametrize("seed", [40, 41, 42])
    @pytest.mark.parametrize("p, c, dt, bound, n_steps", [
        (kp(delta=1.0), UN, 0.001, 10.0, 200),
        # an exaggerated step steers onto x_target = 0, so many proposals clamp
        (kp(epsilon=0.5), ControlSpec.additive(1e-9, 0.0), 0.05, 1.0, 20),
    ], ids=["delta_plus_one", "clamped"])
    def test_same_run_as_geometric_gaps_below_a_third(self, seed, p, c, dt, bound, n_steps):
        # every fire probability stays below 1/3, where rng.geometric inverts too
        ens, oracle = (ParticleEnsemble.from_uniform(_BLOCK + 5_000, 4.0, 6.0, seed=seed)
                       for _ in range(2))
        run_to_equilibrium(ens, p, c, t_final=n_steps * dt, dt=dt, sigma_bound=bound, m_ref=5.0)
        geometric_run(oracle, 5.0, p, c, dt, bound, n_steps)
        assert_same_ensemble(ens, oracle)
        assert ens.n_transitions > 0 and (ens.n_clamped > 0) == (c.strategy != UN.strategy)

    def test_same_law_as_geometric_gaps_from_a_third_up(self):
        # at x in [0.05, 0.3] every particle starts at a fire probability of
        # 1/3 to 1, where numpy searches; the count is checked against the
        # probabilities of a step-by-step oracle run
        p = kp(delta=1.0)
        x = np.random.default_rng(43).uniform(0.05, 0.3, 20_000)
        oracle = ParticleEnsemble(x.copy(), np.random.default_rng(44))
        expected = variance = 0.0
        for _ in range(200):
            probs = fire_prob(oracle.samples, 1.0, 0.001, 10.0)
            expected += probs.sum()
            variance += (probs * (1 - probs)).sum()
            geometric_run(oracle, 5.0, p, UN, 0.001, 10.0, 1)
        ens = rounds(x.size, seed=45, samples=x)
        assert abs(ens.n_transitions - expected) < 5 * np.sqrt(variance)
        assert ks_2samp(ens.samples, oracle.samples).pvalue > 1e-3

    def test_a_certain_firing_fires_every_step(self):
        x = np.linspace(4.0, 6.0, 1_000)
        moves, _ = dsmc._run_block(x, np.random.default_rng(46), 5.0, kp(), UN, dt=0.01,
                                   sigma_bound=1.0, n_steps=50, dense=False,
                                   buffers=dsmc._buffers(x.size))
        assert moves == 50 * x.size

    @pytest.mark.parametrize("changed, kept", [(slice(_BLOCK, None), slice(_BLOCK)),
                                               (slice(_BLOCK), slice(_BLOCK, None))])
    def test_a_block_depends_on_its_own_stream_and_samples_only(self, changed, kept):
        n = _BLOCK + 5_000
        a = rounds(n, seed=26)
        x = ParticleEnsemble.from_uniform(n, 4.0, 6.0, seed=26).samples
        x[changed] = 9.0
        b = rounds(n, seed=26, samples=x)
        assert np.array_equal(a.samples[kept], b.samples[kept])
        assert not np.array_equal(a.samples[changed], b.samples[changed])

    def test_samples_beyond_the_spawned_streams_raise_before_any_move(self):
        ens = ParticleEnsemble.from_uniform(_BLOCK, 4.0, 6.0, seed=27)
        ens.samples = np.append(ens.samples, 5.0)
        samples = ens.samples.copy()
        with pytest.raises(ValueError, match="streams"):
            run_to_equilibrium(ens, kp(delta=1.0), UN, t_final=0.01, dt=0.001, sigma_bound=10.0,
                               m_ref=5.0)
        assert np.array_equal(ens.samples, samples)
        assert (ens.n_clamped, ens.n_transitions, ens.n_steps) == (0, 0, 0)


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
        run_to_equilibrium(ens, p, UN, t_final=1.0, dt=0.001, sigma_bound=10.0)
        assert ens.n_steps == 1000
        se = ens.samples.std() / np.sqrt(ens.size)
        assert abs(ens.mean() - m0) < 3 * se

    @pytest.mark.parametrize("delta, dt, sigma_bound", [(-1.0, 0.01, 1.0), (1.0, 0.001, 10.0)])
    def test_run_at_the_ensemble_mean_preserves_it(self, delta, dt, sigma_bound):
        # m_ref = None steps at the ensemble mean, which conserves it at delta = +/-1:
        # mean drift below 4 standard errors (a reference mean 2 % off moves it by 5-9)
        ens = ParticleEnsemble.from_uniform(200_000, 4.0, 6.0, seed=5)
        m0 = ens.mean()
        run_to_equilibrium(ens, kp(delta=delta), UN, t_final=1.0, dt=dt, sigma_bound=sigma_bound)
        se = ens.samples.std() / np.sqrt(ens.size)
        assert abs(ens.mean() - m0) < 4 * se

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
    """Runs to t_final and the histogram they leave (ContactDensity.from_samples)."""

    def test_run_to_equilibrium_fixed_point(self):
        # vanishing noise and growth: the histogram stays concentrated at the mean
        p = KineticParams(alpha=1.0, sigma2=1e-12, delta=-1.0, epsilon=0.01)
        ens = ParticleEnsemble(np.full(2_000, 5.0), np.random.default_rng(2))
        run_to_equilibrium(ens, p, UN, t_final=2.0, dt=0.01, sigma_bound=1.0, m_ref=5.0)
        h = ContactDensity.from_samples(Grid(100.0, 400), ens.samples)
        centers = h.grid.centers()
        mass_near_mean = h.values[np.abs(centers - 5.0) < 0.5].sum() * h.grid.dx
        assert mass_near_mean == pytest.approx(1.0, abs=1e-12)

    def test_rejects_partial_final_step(self):
        ens = ParticleEnsemble.from_uniform(100, 4.0, 6.0, seed=0)
        with pytest.raises(ValueError, match="whole number"):
            run_to_equilibrium(ens, kp(), UN, t_final=1.0, dt=0.003, sigma_bound=1.0)

    @pytest.mark.parametrize("t_final", [0.0, 1e-300])
    def test_rejects_a_run_of_no_steps(self, t_final):
        ens = ParticleEnsemble.from_uniform(100, 4.0, 6.0, seed=0)
        with pytest.raises(ValueError, match="0 steps"):
            run_to_equilibrium(ens, kp(), UN, t_final=t_final, dt=0.01, sigma_bound=1.0)

    def test_short_relaxation_toward_equilibrium(self):
        # coarse, fast version of the long-run check: headed the right way
        p = kp()
        ens = ParticleEnsemble.from_uniform(50_000, 6.0, 8.0, seed=11)
        run_to_equilibrium(ens, p, UN, t_final=15.0, dt=0.01, sigma_bound=1.0, m_ref=5.0)
        h = ContactDensity.from_samples(Grid(100.0, 200), ens.samples)
        fine = Grid(100.0, 200 * 16)
        eq = EquilibriumDensity(kp(), 5.0, fine)
        ref = eq.values.reshape(200, 16).mean(axis=1)
        assert h.l1_distance(ref) < 0.12
