import math
import warnings

import numpy as np
import pytest

from wienerlab import diffusion
from wienerlab.datasets import two_cluster_latents
from wienerlab.diffusion import (
    EnergyModel,
    Schedule,
    _lockstep_terms,
    _update,
    cosine_schedule,
    energy_terms,
    nearest_defining_sample,
    run_diffusion,
)
from wienerlab.errors import DIVERGENCE_FACTOR, ConfigError, NumericalError, ShapeError
from wienerlab.spectral import WindowSpec, make_window


def toy_model(gamma=0.5, lam=0.5, pen_b=0.5, n=8, dim=8, seed=7):
    samples, ids = two_cluster_latents(n, dim=dim, separation=2.0, spread=0.15, seed=seed)
    pen = WindowSpec("inverted_laplace", b=pen_b)
    return EnergyModel(samples, pen, gamma, lam), ids


def reference_step(x, model, alpha_t, beta_t, rng):
    """x - (alpha_t/2) * dE/dx + sqrt(beta_t) * z, z standard normals drawn from
    `rng` when beta_t > 0: the Langevin update, written apart from the library's."""
    grad = energy_terms(model, x[None])[1][0]
    with np.errstate(over="ignore", invalid="ignore"):
        x = x - (alpha_t / 2.0) * grad
        if beta_t > 0:
            x = x + math.sqrt(beta_t) * rng.standard_normal(x.shape)
    return x


def reference_two_cluster_latents(n, dim, separation, spread, seed):
    """The per-sample loop that two_cluster_latents replaced: one vector at a time."""
    pattern_rng = np.random.default_rng(90210)
    center_a = separation * pattern_rng.uniform(-1.3, 1.3, size=dim)
    center_b = separation * pattern_rng.uniform(-1.3, 1.3, size=dim)
    rng = np.random.default_rng(seed)
    samples, ids = [], []
    for i in range(n):
        center = center_a if i % 2 == 0 else center_b
        samples.append(center + rng.normal(0.0, spread, size=dim))
        ids.append(i % 2)
    return np.stack(samples)[:, np.newaxis], ids


class TestTwoClusterLatents:
    @pytest.mark.parametrize("n, dim, seed", [(8, 8, 7), (9, 31, 3), (512, 31, 7)])
    def test_bytes_match_per_sample_loop(self, n, dim, seed):
        stack, ids = two_cluster_latents(n, dim=dim, separation=2.0, spread=0.15, seed=seed)
        expected, expected_ids = reference_two_cluster_latents(n, dim, 2.0, 0.15, seed)
        assert stack.shape == expected.shape == (n, 1, dim)
        assert stack.tobytes() == expected.tobytes()
        assert ids.tolist() == expected_ids

    def test_negative_seed_is_a_config_error(self):
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            two_cluster_latents(4, seed=-1)


class TestCosineSchedule:
    def test_fullscale_preset_endpoints_decreasing(self):
        s = cosine_schedule(200, 500.0, 1.0)
        assert s[0] == 500.0 and s[-1] == 1.0
        assert np.all(np.diff(s) < 0)

    def test_fullscale_preset_endpoints_increasing(self):
        s = cosine_schedule(400, 0.1, 4.0)
        assert s[0] == 0.1 and s[-1] == 4.0
        assert np.all(np.diff(s) > 0)

    def test_three_point_midpoint(self):
        np.testing.assert_allclose(cosine_schedule(3, 1.0, 0.0), [1.0, 0.5, 0.0], atol=1e-15)

    def test_too_short_rejected(self):
        with pytest.raises(ConfigError):
            cosine_schedule(1, 1.0, 0.0)


class TestSchedule:
    def test_length_mismatch(self):
        with pytest.raises(ConfigError):
            Schedule(np.ones(3), np.ones(4))

    def test_nonpositive_alpha_rejected(self):
        with pytest.raises(ConfigError):
            Schedule(np.array([1.0, 0.0]), np.zeros(2))

    def test_negative_beta_rejected(self):
        with pytest.raises(ConfigError):
            Schedule(np.ones(2), np.array([0.0, -1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(ConfigError):
            Schedule(np.array([1.0, bad]), np.zeros(2))
        with pytest.raises(ConfigError):
            Schedule(np.ones(2), np.array([bad, 0.0]))
        with pytest.raises(ConfigError):
            cosine_schedule(4, bad, 0.0)


class TestEnergy:
    def test_defining_sample_term_drops_out(self):
        model, _ = toy_model()
        values, _, sample_energies, _ = energy_terms(model, model.defining[:1])
        assert sample_energies[0, 0] == pytest.approx(0.0, abs=1e-18)
        assert values[0] == pytest.approx(float(np.sum(sample_energies[0, 1:])), rel=1e-12)

    def test_gamma_zero_reduces_to_quotient_sum(self):
        m1, _ = toy_model(gamma=0.0)
        X = np.random.default_rng(1).normal(0, 1, (1, 1, 8))  # one state
        values, _, sample_energies, _ = energy_terms(m1, X)
        assert values[0] == pytest.approx(float(np.sum(sample_energies)))

    def test_bit_identical_reevaluation(self):
        model, _ = toy_model()
        X = np.random.default_rng(2).normal(0, 1, (1, 1, 8))
        first, again = (energy_terms(model, X)[:2] for _ in range(2))
        assert all(a.tobytes() == b.tobytes() for a, b in zip(first, again))

    def test_overflow_raises_numerical_error_without_warnings(self):
        model, _ = toy_model()
        X = np.full((1, 1, 8), 1e200)  # finite, but the filter norms overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError):
                energy_terms(model, X)


class TestLangevinStep:
    def test_fixed_point_with_zero_gradient_zero_noise(self):
        model, _ = toy_model()
        y0 = model.defining[0]
        # at a defining sample with a zero-at-center penalty the term gradients
        # cancel exactly only for the single-sample model
        single = EnergyModel(model.defining[:1], model.penalty, model.gamma, model.lam)
        out = reference_step(y0, single, 0.5, 0.0, np.random.default_rng(0))
        np.testing.assert_allclose(out, y0, atol=1e-9)

    def test_descent_at_small_step(self):
        model, _ = toy_model()
        rng = np.random.default_rng(3)
        wins = 0
        for _ in range(20):
            x = rng.normal(0, 1, (1, 8))
            out = reference_step(x, model, 0.05, 0.0, rng)
            wins += int(energy_terms(model, out[None])[0][0] < energy_terms(model, x[None])[0][0])
        assert wins >= 19

    def test_seeded_step_is_bit_identical(self):
        model, _ = toy_model()
        X = np.random.default_rng(4).normal(0, 1, (1, 1, 8))
        grads = energy_terms(model, X)[1]
        a = _update(X, grads, 0.1, 0.3, np.random.default_rng(99).standard_normal(X.shape))
        b = _update(X, grads, 0.1, 0.3, np.random.default_rng(99).standard_normal(X.shape))
        np.testing.assert_array_equal(a, b)
        # the update x - (alpha/2) grad + N(0, beta I) noise, drawn with rng.normal
        noise = np.random.default_rng(99).normal(0.0, math.sqrt(0.3), size=X.shape)
        assert a.tobytes() == ((X - (0.1 / 2.0) * grads) + noise).tobytes()
        assert _update(X, grads, 0.1, 0.0, None).tobytes() == (X - 0.05 * grads).tobytes()


class TestRunDiffusion:
    def test_degenerate_single_step_matches_the_reference_step(self):
        model, _ = toy_model()
        sched = Schedule(np.array([0.1]), np.array([0.0]))
        run = run_diffusion(model, sched, 1, 1.0, seed=5, snapshot_stride=1)
        assert run.samples.shape == (1, 2, 1, 8)
        manual = reference_step(run.samples[0, 0], model, 0.1, 0.0, np.random.default_rng(0))
        np.testing.assert_allclose(run.final[0], manual, atol=1e-15)

    @pytest.mark.parametrize("T,stride", [(10, 3), (10, 5), (7, 7), (1, 4), (20, 1)])
    def test_snapshot_count_invariant(self, T, stride):
        model, _ = toy_model()
        sched = Schedule(
            cosine_schedule(max(T, 2), 1.0, 0.01)[:T] if T >= 2 else np.array([0.5]),
            np.zeros(T),
        )
        run = run_diffusion(model, sched, 2, 0.5, seed=6, snapshot_stride=stride)
        snapshots = int(np.ceil(T / stride)) + 1
        assert run.samples.shape == (2, snapshots, 1, 8)
        assert run.final.shape == (2, 1, 8)
        assert run.snapshot_steps.shape == (snapshots,)
        assert run.snapshot_steps.dtype.kind == "i"
        assert run.snapshot_steps[0] == 0
        assert run.snapshot_steps[-1] == T
        assert run.energies.shape == (2, T + 1)
        assert run.concentrations.shape == (2, T + 1)

    def test_reproducible_trajectories(self):
        model, _ = toy_model()
        sched = Schedule(cosine_schedule(12, 1.0, 0.01), cosine_schedule(12, 0.001, 0.02))
        a = run_diffusion(model, sched, 3, 1.0, seed=42, snapshot_stride=4)
        b = run_diffusion(model, sched, 3, 1.0, seed=42, snapshot_stride=4)
        np.testing.assert_array_equal(a.final, b.final)
        np.testing.assert_array_equal(a.energies, b.energies)
        np.testing.assert_array_equal(a.concentrations, b.concentrations)

    def test_chains_are_independent_of_count(self):
        # chain i is driven by its own stream: adding more chains must not
        # change earlier ones
        model, _ = toy_model()
        sched = Schedule(cosine_schedule(8, 1.0, 0.01), cosine_schedule(8, 0.001, 0.02))
        a = run_diffusion(model, sched, 2, 1.0, seed=7)
        b = run_diffusion(model, sched, 5, 1.0, seed=7)
        np.testing.assert_array_equal(a.final, b.final[:2])

    def test_invalid_args_rejected(self):
        model, _ = toy_model()
        sched = Schedule(np.ones(2), np.zeros(2))
        with pytest.raises(ConfigError):
            run_diffusion(model, sched, 0, 1.0, seed=0)
        with pytest.raises(ConfigError):
            run_diffusion(model, sched, 1, -1.0, seed=0)
        for bad in (np.nan, np.inf):
            with pytest.raises(ConfigError):
                run_diffusion(model, sched, 1, bad, seed=0)
        with pytest.raises(ConfigError):
            run_diffusion(model, sched, 1, 1.0, seed=0, snapshot_stride=0)

    def test_negative_seed_is_a_config_error(self):
        model, _ = toy_model()
        sched = Schedule(np.ones(2), np.zeros(2))
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            run_diffusion(model, sched, 1, 1.0, seed=-1)


def replay_chain(model, sched, n_samples, init_variance, seed, chain, k):
    """Chain `chain` of run_diffusion, stepped alone by ``reference_step`` on its
    own stream: states by step, energies, concentrations, and the step at
    which it diverges (None if it does not)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(n_samples)[chain])
    x = rng.normal(0.0, math.sqrt(init_variance), size=model.defining.shape[1:])
    states, energies, concentrations = {0: x}, [], []
    for t in range(sched.steps + 1):
        try:
            values, _, sample_energies, sample_concentrations = energy_terms(model, x[None])
        except NumericalError:  # a non-finite state fails here too
            return states, energies, concentrations, t
        if not values[0] <= DIVERGENCE_FACTOR * (energies[0] if energies else np.inf):
            return states, energies, concentrations, t
        energies.append(float(values[0]))
        nearest = np.argsort(sample_energies[0], kind="stable")[:k]
        concentrations.append(float(np.mean(sample_concentrations[0, nearest])))
        if t < sched.steps:
            x = reference_step(x, model, sched.alpha[t], sched.beta[t], rng)
            states[t + 1] = x
    return states, energies, concentrations, None


class TestLockstep:
    @pytest.mark.parametrize("n_samples", [1, 4])
    def test_matches_chains_replayed_by_hand(self, n_samples):
        model, _ = toy_model()
        T = 12
        sched = Schedule(cosine_schedule(T, 1.0, 0.01), cosine_schedule(T, 0.001, 0.02))
        run = run_diffusion(model, sched, n_samples, 0.7, seed=21, snapshot_stride=5, k_nearest=2)
        assert len(run.samples) == n_samples
        assert run.snapshot_steps.tolist() == [0, 5, 10, 12]
        for chain in range(n_samples):
            states, energies, concentrations, diverged = replay_chain(
                model, sched, n_samples, 0.7, 21, chain, k=2
            )
            assert diverged is None
            for step, snap in zip(run.snapshot_steps, run.samples[chain]):
                np.testing.assert_array_equal(snap, states[step])
            np.testing.assert_array_equal(run.energies[chain], energies)
            np.testing.assert_array_equal(run.concentrations[chain], concentrations)

    @pytest.mark.parametrize("steps_per_block", [1, 5, None])  # None: the whole run
    def test_noise_blocks_match_chains_replayed_by_hand(self, monkeypatch, steps_per_block):
        # beta_t = 0 at some steps, which draw no noise; blocks of one step,
        # of five steps across those gaps, and of the whole run give one path
        model, _ = toy_model()
        T, n = 12, 3
        beta = cosine_schedule(T, 0.001, 0.02)
        beta[[0, 3, 4, 9]] = 0.0
        sched = Schedule(cosine_schedule(T, 1.0, 0.01), beta)
        per_step = n * math.prod(model.defining.shape[1:])
        budget = per_step * (steps_per_block or T)
        monkeypatch.setattr(diffusion, "NOISE_BLOCK_ELEMENTS", budget)
        run = run_diffusion(model, sched, n, 0.7, seed=13, snapshot_stride=1, k_nearest=3)
        for chain in range(n):
            states, energies, concentrations, diverged = replay_chain(
                model, sched, n, 0.7, 13, chain, k=3
            )
            assert diverged is None
            replayed = np.stack([states[t] for t in range(T + 1)])
            assert run.samples[chain].tobytes() == replayed.tobytes()
            assert run.energies[chain].tolist() == energies
            assert run.concentrations[chain].tolist() == concentrations

    def test_chunked_batch_matches_whole_batch(self, monkeypatch):
        model, _ = toy_model()
        X = np.random.default_rng(9).normal(0.0, 1.0, (5, 1, 8))
        whole = diffusion.energy_terms(model, X)
        monkeypatch.setattr(diffusion, "ENERGY_CHUNK_ELEMENTS", 2 * 8 * 16)  # two chains a chunk
        for a, b in zip(diffusion.energy_terms(model, X), whole):
            np.testing.assert_array_equal(a, b)

    def test_divergence_names_earliest_step_then_lowest_chain(self):
        model, _ = toy_model()
        T, n, seed = 30, 6, 3
        sched = Schedule(np.full(T, 100.0), np.zeros(T))
        steps = [replay_chain(model, sched, n, 1.0, seed, c, k=1)[3] for c in range(n)]
        assert None not in steps and len(set(steps)) > 1  # chains diverge at different steps
        first = min(steps)
        chain = steps.index(first)
        assert steps[0] > first  # the earliest step wins over the lowest chain index
        with pytest.raises(NumericalError, match=rf"^chain {chain} diverged at step {first}: "):
            run_diffusion(model, sched, n, 1.0, seed=seed)

    def test_failing_batch_names_lowest_failing_chain(self):
        model, _ = toy_model()
        X = np.random.default_rng(8).normal(0.0, 1.0, (4, 1, 8))
        X[2] = np.nan
        limit = np.full(4, np.inf)
        with pytest.raises(NumericalError, match=r"^chain 2 diverged at step 7: non-finite state"):
            _lockstep_terms(model, X, 7, limit)
        limit[1] = 0.0  # chain 1's energy now counts as exploded
        with pytest.raises(NumericalError, match=r"^chain 1 diverged at step 7: energy .* exceeds"):
            _lockstep_terms(model, X, 7, limit)


class TestEnergyModelValidation:
    def test_mixed_shapes_rejected(self):
        pen = WindowSpec("inverted_laplace", b=1.0)
        with pytest.raises(ShapeError):
            EnergyModel([np.ones((1, 8)), np.ones((1, 6))], pen, 1.0, 1.0)

    @pytest.mark.parametrize("extents", [(8,), (3, 5)])
    def test_penalty_window_is_built_on_the_defining_sets_grid(self, extents):
        pen = WindowSpec("inverted_laplace", b=1.3)
        model = EnergyModel(np.ones((2, 1, *extents)), pen, 1.0, 1.0)
        assert model.penalty is pen
        want = make_window(pen, extents)
        assert model.penalty_window.shape == tuple(2 * n for n in extents)
        assert model.penalty_window.tobytes() == want.tobytes()
        assert model.penalty_sq.tobytes() == (want**2).tobytes()

    def test_negative_gamma_rejected(self):
        pen = WindowSpec("inverted_laplace", b=1.0)
        with pytest.raises(ConfigError):
            EnergyModel(np.ones((1, 1, 8)), pen, -0.1, 1.0)
        for bad in (np.nan, np.inf):
            with pytest.raises(ConfigError):
                EnergyModel(np.ones((1, 1, 8)), pen, bad, 1.0)

    def test_nearest_defining_sample(self):
        model, _ = toy_model()
        idx, dist = nearest_defining_sample(model.defining[2], model)
        assert idx == 2
        assert dist == 0.0
