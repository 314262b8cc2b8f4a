import collections

import numpy as np
import pytest

from oracles import grad_check_model
from wienerlab.datasets import make_digit_set
from wienerlab.errors import (
    ConfigError,
    NumericalError,
    ShapeError,
    SingularSystemError,
    UndefinedQuotientError,
)
from wienerlab.spectral import WindowSpec, make_window
from wienerlab import trainer
from wienerlab.trainer import (
    DenseAutoencoder,
    TrainConfig,
    TrainingDivergedError,
    _batch_loss_and_grad,
    _kernel_rows,
    _mean_concentration,
    forward,
    train,
)
from wienerlab.wiener import QuotientKernel, loss_and_grad, zero_lag_fractions


def digits(n, seed=3):
    return make_digit_set(n, size=8, seed=seed).stack


class TestForward:
    def test_zero_parameters_give_zero_output(self):
        model = DenseAutoencoder.initialize((4, 3, 4), seed=0)
        for w in model.weights:
            w[...] = 0.0
        out = forward(model, np.array([[[1.0, -2.0, 3.0, 0.5]]]))
        np.testing.assert_array_equal(out, np.zeros((1, 1, 4)))

    def test_identity_single_linear_layer(self):
        model = DenseAutoencoder.initialize((5, 5), seed=0)
        model.weights[0][...] = np.eye(5)
        model.biases[0][...] = 0.0
        x = np.linspace(-1, 1, 5).reshape(1, 1, 5)
        out = forward(model, x)
        np.testing.assert_allclose(out, x, atol=1e-15)

    def test_deterministic(self):
        model = DenseAutoencoder.initialize((64, 16, 64), seed=1)
        batch = digits(4)
        np.testing.assert_array_equal(forward(model, batch), forward(model, batch))

    def test_width_mismatch(self):
        model = DenseAutoencoder.initialize((10, 4, 10), seed=2)
        with pytest.raises(ShapeError):
            forward(model, np.zeros((1, 1, 8)))

    def test_shapes_preserved(self):
        model = DenseAutoencoder.initialize((64, 8, 64), seed=3)
        out = forward(model, digits(2))
        assert out.shape == (2, 1, 8, 8)


class TestInitialization:
    def test_seeded_init_is_reproducible(self):
        a = DenseAutoencoder.initialize((8, 4, 8), seed=9)
        b = DenseAutoencoder.initialize((8, 4, 8), seed=9)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_bad_activation(self):
        with pytest.raises(ConfigError):
            DenseAutoencoder.initialize((4, 4), activation="swish")

    def test_negative_seed_is_a_config_error(self):
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            DenseAutoencoder.initialize((4, 4), seed=-1)

    def test_flat_param_roundtrip(self):
        model = DenseAutoencoder.initialize((6, 3, 6), seed=4)
        theta = model.flat_params()
        model.theta[...] = theta * 2.0
        np.testing.assert_allclose(model.flat_params(), theta * 2.0)

    @pytest.mark.parametrize("widths", [(64, 0, 64), (64, -3, 64), (0, 4), (4, 4, -1)])
    def test_nonpositive_width_rejected(self, widths):
        with pytest.raises(ConfigError):
            DenseAutoencoder.initialize(widths)


class TestFlatParameters:
    def test_weights_and_biases_view_theta(self):
        model = DenseAutoencoder.initialize((6, 3, 5), seed=4)
        for p in model.weights + model.biases:
            assert np.shares_memory(p, model.theta)
        theta = np.arange(model.theta.size, dtype=float)
        model.theta[...] = theta
        np.testing.assert_array_equal(model.weights[0], theta[:18].reshape(3, 6))
        np.testing.assert_array_equal(model.biases[0], theta[18:21])
        np.testing.assert_array_equal(model.weights[1], theta[21:36].reshape(5, 3))
        np.testing.assert_array_equal(model.biases[1], theta[36:])

    def test_flat_params_is_a_copy(self):
        model = DenseAutoencoder.initialize((4, 2, 4), seed=4)
        theta = model.flat_params()
        theta[:] = 7.0
        assert not np.any(model.theta == 7.0)

    def test_forward_only_paths_compute_no_derivatives(self, monkeypatch):
        seen = []

        def spy(act):
            def wrapped(z, prime):
                seen.append(prime)
                return act(z, prime)
            return wrapped

        spied = {name: spy(act) for name, act in trainer._ACTIVATIONS.items()}
        monkeypatch.setattr(trainer, "_ACTIVATIONS", spied)
        model = DenseAutoencoder.initialize((64, 16, 8, 16, 64), seed=1)
        data = digits(8)
        X = data.reshape(len(data), -1)
        forward(model, data)
        cfg = TrainConfig(loss="wiener", batch_size=4)
        kernel_rows = _kernel_rows(data, cfg.lam, cfg.batch_size)
        _mean_concentration(model, X, data.shape[1:], cfg, kernel_rows)
        assert seen == [False] * 3 * 2  # three hidden layers, two passes
        seen.clear()
        mse = TrainConfig(loss="mse")
        _batch_loss_and_grad(model, X, slice(None), data.shape[1:], mse, None, None)
        assert seen == [True] * 3


def _reference_mish_prime(z):
    """mish'(z) as first written: tanh(softplus) and a branch-masked sigmoid."""
    t = np.tanh(np.logaddexp(0.0, z))
    sig = np.empty_like(z)
    pos = z >= 0
    sig[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    sig[~pos] = ez / (1.0 + ez)
    return t + z * (1.0 - t * t) * sig


_REFERENCE_ACTIVATIONS = {
    "mish": (lambda z: z * np.tanh(np.logaddexp(0.0, z)), _reference_mish_prime),
    "tanh": (np.tanh, lambda z: 1.0 - np.tanh(z) ** 2),
    "relu": (lambda z: np.maximum(z, 0.0), lambda z: (z > 0.0).astype(float)),
}


def _reference_train(weights, biases, activation, data, cfg):
    """Adam on per-layer arrays, derivatives recomputed from z in the backward pass."""
    act, act_prime = _REFERENCE_ACTIVATIONS[activation]
    X_all = data.reshape(len(data), -1)
    extents = data.shape[2:]
    planes_of = lambda B: (B,) + data.shape[1:]
    w_raw = make_window(cfg.whitening, extents)
    params = weights + biases
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    rng = np.random.default_rng(cfg.seed)
    step = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(len(data))
        for start in range(0, len(data), cfg.batch_size):
            X = X_all[order[start : start + cfg.batch_size]]
            B = len(X)
            A, Z = [X], []
            for l, (w, b) in enumerate(zip(weights, biases)):
                Z.append(A[-1] @ w.T + b)
                A.append(act(Z[-1]) if l < len(weights) - 1 else Z[-1])
            if cfg.loss == "mse":
                d_out = (A[-1] - X) / B
            else:
                kernel = QuotientKernel(X.reshape(planes_of(B)), extents, cfg.lam)
                _, g = loss_and_grad(kernel, A[-1].reshape(planes_of(B)), w_raw)
                d_out = g.reshape(B, -1) / B
            dW, db = [None] * len(weights), [None] * len(weights)
            delta = d_out
            for l in range(len(weights) - 1, -1, -1):
                dW[l] = delta.T @ A[l]
                db[l] = delta.sum(axis=0)
                if l > 0:
                    delta = (delta @ weights[l]) * act_prime(Z[l - 1])
            step += 1
            for j, (p, g) in enumerate(zip(params, dW + db)):
                m[j] = cfg.beta1 * m[j] + (1 - cfg.beta1) * g
                v[j] = cfg.beta2 * v[j] + (1 - cfg.beta2) * g * g
                m_hat = m[j] / (1 - cfg.beta1**step)
                v_hat = v[j] / (1 - cfg.beta2**step)
                p -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.eps)
    return np.concatenate([np.concatenate([w.ravel(), b]) for w, b in zip(weights, biases)])


class TestFlatTrainingStep:
    @pytest.mark.parametrize("loss", ["mse", "wiener"])
    @pytest.mark.parametrize("activation", ["mish", "tanh", "relu"])
    def test_matches_per_array_reference(self, activation, loss):
        data = digits(80, seed=4)
        model = DenseAutoencoder.initialize((64, 24, 12, 24, 64), activation, seed=4)
        weights = [w.copy() for w in model.weights]
        biases = [b.copy() for b in model.biases]
        cfg = TrainConfig(
            loss=loss, learning_rate=3e-3, epochs=3, batch_size=32, seed=4,
            whitening=WindowSpec("laplace", 2.0, 0.3), lam=0.8,
        )
        theta0 = model.flat_params()
        train(model, data, cfg)  # 3 epochs of 3 minibatches: 9 Adam steps
        expected = _reference_train(weights, biases, activation, data, cfg)
        assert np.abs(model.theta - theta0).max() > 1e-3
        if activation == "mish":
            np.testing.assert_allclose(model.theta, expected, rtol=0, atol=1e-12)
        else:
            np.testing.assert_array_equal(model.theta, expected)


class TestMishDerivative:
    Z = np.concatenate(
        [np.linspace(-50.0, 50.0, 100001), [-700.0, -300.0, -0.0, 0.0, 300.0, 700.0]]
    )

    def test_matches_masked_sigmoid_formula(self):
        _, d = trainer._mish(self.Z, True)
        assert np.abs(d - _reference_mish_prime(self.Z)).max() <= 4.5e-16

    def test_matches_central_differences(self):
        h = 1e-6 * np.maximum(1.0, np.abs(self.Z))
        up, _ = trainer._mish(self.Z + h, False)
        dn, _ = trainer._mish(self.Z - h, False)
        _, d = trainer._mish(self.Z, True)
        np.testing.assert_allclose(d, (up - dn) / (2 * h), rtol=1e-6, atol=1e-8)

    def test_value_matches_logaddexp_softplus(self):
        Z = np.concatenate([self.Z, [np.inf, -np.inf, np.nan]])
        with np.errstate(invalid="ignore"):  # -inf * tanh(0) and NaN
            got, _ = trainer._mish(Z, False)
            want = Z * np.tanh(np.logaddexp(0.0, Z))
        # infinities and NaNs in the same places, the rest within 4.5e-16
        np.testing.assert_allclose(got, want, rtol=0, atol=4.5e-16)
        assert got[-3] == np.inf and np.isnan(got[-2:]).all()

    def test_value_unchanged_with_derivative(self):
        a, _ = trainer._mish(self.Z, True)
        b, none = trainer._mish(self.Z, False)
        np.testing.assert_array_equal(a, b)
        assert none is None


class TestTrain:
    def test_zero_learning_rate_keeps_parameters(self):
        model = DenseAutoencoder.initialize((64, 8, 64), seed=5)
        theta0 = model.flat_params()
        cfg = TrainConfig(loss="mse", learning_rate=0.0, epochs=3, batch_size=16, seed=5)
        log = train(model, digits(64), cfg)
        np.testing.assert_array_equal(model.flat_params(), theta0)
        assert log.losses[0] == pytest.approx(log.losses[-1], rel=1e-12)

    def test_mse_training_reduces_loss(self):
        model = DenseAutoencoder.initialize((64, 32, 16, 32, 64), seed=5)
        cfg = TrainConfig(loss="mse", learning_rate=3e-3, epochs=20, batch_size=32, seed=5)
        log = train(model, digits(200), cfg)
        assert log.losses[-1] < 0.5 * log.losses[0]

    def test_wiener_training_runs_and_focuses_filters(self):
        model = DenseAutoencoder.initialize((64, 32, 16, 32, 64), seed=5)
        cfg = TrainConfig(
            loss="wiener", learning_rate=3e-3, epochs=15, batch_size=32, seed=5,
            whitening=WindowSpec("laplace", 2.0, 0.3), lam=1.0,
        )
        log = train(model, digits(200), cfg)
        assert log.losses[-1] < log.losses[0]
        assert log.concentrations[-1] > log.initial_concentration

    def test_reproducible_final_parameters(self):
        data = digits(100)
        params = []
        for _ in range(2):
            model = DenseAutoencoder.initialize((64, 16, 64), seed=8)
            cfg = TrainConfig(loss="mse", learning_rate=1e-3, epochs=5, batch_size=25, seed=8)
            train(model, data, cfg)
            params.append(model.flat_params())
        np.testing.assert_array_equal(params[0], params[1])

    def test_divergence_raises_with_log(self):
        model = DenseAutoencoder.initialize((64, 8, 64), seed=6)
        cfg = TrainConfig(loss="mse", learning_rate=1e12, epochs=50, batch_size=64, seed=6)
        with pytest.raises(TrainingDivergedError) as err:
            train(model, digits(64), cfg)
        # the attached log stops at the diverged epoch
        assert len(err.value.log.losses) < cfg.epochs

    def test_empty_data_rejected(self):
        model = DenseAutoencoder.initialize((4, 4), seed=7)
        with pytest.raises(ConfigError):
            train(model, np.empty((0, 1, 4)), TrainConfig())

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(loss="huber")
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0)

    def test_negative_seed_is_a_config_error(self):
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            TrainConfig(seed=-1)


class TestBatchedFilterLoss:
    def test_matches_per_sample_calls(self):
        data = digits(32, seed=9)
        model = DenseAutoencoder.initialize((64, 16, 64), seed=9)
        cfg = TrainConfig(loss="wiener", whitening=WindowSpec("laplace", 2.0, 0.3), lam=0.7)
        X = data.reshape(len(data), -1)
        W = make_window(cfg.whitening, (8, 8))
        loss, d_out, A, _ = _batch_loss_and_grad(
            model, X, slice(None), data.shape[1:], cfg, W, _kernel_rows(data, cfg.lam, 32)
        )
        refs = [
            loss_and_grad(
                QuotientKernel(data[i], (8, 8), cfg.lam), A[-1][i].reshape(1, 8, 8), W
            )
            for i in range(len(data))
        ]
        assert loss == pytest.approx(np.mean([value for value, _ in refs]), rel=1e-12)
        expected = np.stack([grad.ravel() for _, grad in refs]) / len(data)
        assert np.abs(d_out - expected).max() < 1e-12

    @pytest.mark.parametrize("field", ["lam", "learning_rate", "eps"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_nonfinite_config_rejected(self, field, value):
        with pytest.raises(ConfigError):
            TrainConfig(**{field: value})


class _CountingKernel(QuotientKernel):
    """A QuotientKernel that counts the kernels built by transforming planes."""

    built = 0

    def __init__(self, fixed, shape, lam):
        _CountingKernel.built += 1
        super().__init__(fixed, shape, lam)


# 8x8 digits pad to 16x16: 16 * 9 half-spectrum bins of 24 B per sample
_FIVE_DIGITS_BYTES = 5 * 16 * 9 * 24


class TestSharedKernel:
    @pytest.mark.parametrize("loss", ["mse", "wiener"])
    @pytest.mark.parametrize(
        "n, batch_size", [(64, 16), (50, 16), (37, 10), (140, 32), (150, 24)]
    )
    def test_one_kernel_matches_a_kernel_per_minibatch(self, monkeypatch, loss, n, batch_size):
        # n not a multiple of the batch size leaves a short last minibatch and
        # diagnostic chunk; n > 128 puts training rows beyond the 128 evaluation
        # rows, and batch 24 ends their last diagnostic chunk short. A budget of
        # five samples' spectra makes train build a kernel per minibatch and per
        # diagnostic chunk instead of keeping one.
        data = digits(n, seed=7)
        cfg = TrainConfig(
            loss=loss, learning_rate=3e-3, epochs=2, batch_size=batch_size, seed=7,
            whitening=WindowSpec("laplace", 2.0, 0.3), lam=0.8,
        )
        monkeypatch.setattr(trainer, "QuotientKernel", _CountingKernel)
        runs, built = [], []
        for budget in (trainer.KERNEL_CACHE_BYTES, _FIVE_DIGITS_BYTES):
            monkeypatch.setattr(trainer, "KERNEL_CACHE_BYTES", budget)
            _CountingKernel.built = 0
            model = DenseAutoencoder.initialize((64, 16, 64), "tanh", seed=7)
            runs.append((model, train(model, data, cfg)))
            built.append(_CountingKernel.built)
        assert built[0] == 1 and built[1] > 2 * -(-n // batch_size)
        (shared, shared_log), (per_batch, per_batch_log) = runs
        np.testing.assert_array_equal(shared.theta, per_batch.theta)
        assert shared_log.losses == per_batch_log.losses
        assert shared_log.concentrations == per_batch_log.concentrations
        assert shared_log.initial_concentration == per_batch_log.initial_concentration

    @pytest.mark.parametrize("budget", [None, _FIVE_DIGITS_BYTES])
    @pytest.mark.parametrize("zero_row", [3, 135])
    def test_singular_sample_fails_before_the_first_epoch(self, monkeypatch, zero_row, budget):
        # lambda = 0 and an all-zero target: one zero denominator bin, inside or
        # beyond the evaluation rows, fails the same way with one kept kernel
        # and with kernels built per minibatch
        if budget is not None:
            monkeypatch.setattr(trainer, "KERNEL_CACHE_BYTES", budget)
        data = digits(140, seed=8).copy()
        data[zero_row] = 0.0
        model = DenseAutoencoder.initialize((64, 16, 64), seed=8)
        theta0 = model.flat_params()
        cfg = TrainConfig(loss="wiener", epochs=1, batch_size=32, lam=0.0)
        with pytest.raises(SingularSystemError, match="zero denominator"):
            train(model, data, cfg)
        np.testing.assert_array_equal(model.theta, theta0)


class TestConcentrationDiagnostic:
    @staticmethod
    def _diagnostic(model, data, lam):
        cfg = TrainConfig(loss="wiener", batch_size=4, lam=lam)
        kernel_rows = _kernel_rows(data, lam, cfg.batch_size)
        return lambda: _mean_concentration(
            model, data.reshape(len(data), -1), data.shape[1:], cfg, kernel_rows
        )

    def test_one_forward_per_chunk_and_no_inverse(self, monkeypatch):
        data = digits(10, seed=14)
        model = DenseAutoencoder.initialize((64, 16, 64), seed=14)
        diagnostic = self._diagnostic(model, data, 0.8)  # the kernel is built here
        calls = collections.Counter()
        for name in ("_forward", "_inverse"):
            def spy(self, *args, _name=name, _original=getattr(QuotientKernel, name), **kwargs):
                calls[_name] += 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(QuotientKernel, name, spy)
        value = diagnostic()
        assert calls == {"_forward": 3}  # 10 rows in chunks of 4
        monkeypatch.undo()
        v = QuotientKernel(data, (8, 8), 0.8).filters(forward(model, data))
        spatial = zero_lag_fractions(v[..., 0, 0], (v**2).sum(axis=(-2, -1)))
        assert value == pytest.approx(np.mean(spatial), rel=1e-12)

    def test_all_zero_filter_is_undefined(self):
        # zero parameters reconstruct zeros, so at lambda = 0 every filter is zero
        diagnostic = self._diagnostic(DenseAutoencoder((64, 16, 64)), digits(6), 0.0)
        with pytest.raises(UndefinedQuotientError):
            diagnostic()

    def test_nonfinite_filter_is_a_numerical_error(self):
        model = DenseAutoencoder.initialize((64, 16, 64), seed=15)
        model.theta[...] = 1e300  # the forward pass overflows
        diagnostic = self._diagnostic(model, digits(6), 1.0)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalError) as err:
            diagnostic()
        assert not isinstance(err.value, UndefinedQuotientError)


class TestGradCheckModel:
    def test_single_linear_layer_mse(self):
        # the loss is exactly quadratic in the parameters, so central
        # differences carry no truncation error and a large step suppresses
        # float roundoff
        rng = np.random.default_rng(10)
        model = DenseAutoencoder.initialize((16, 16), seed=10)
        batch = np.stack([0.5 + 0.5 * rng.random((1, 16)) for _ in range(3)])
        rep = grad_check_model(model, batch, TrainConfig(loss="mse"), h=1e-3)
        assert rep.max_rel_error < 1e-7

    def test_three_layer_wiener(self):
        rng = np.random.default_rng(11)
        model = DenseAutoencoder.initialize((16, 12, 8, 16), seed=11)
        batch = np.stack([rng.random((1, 4, 4)) for _ in range(4)])
        cfg = TrainConfig(loss="wiener", whitening=WindowSpec("laplace", 2.0, 0.1), lam=1.0)
        rep = grad_check_model(model, batch, cfg, h=1e-5)
        assert rep.max_rel_error < 1e-4

    def test_zero_batch_zero_targets_zero_gradient(self):
        model = DenseAutoencoder.initialize((8, 4, 8), seed=12)
        for w in model.weights:
            w[...] = 0.0
        batch = np.zeros((1, 1, 8))
        rep = grad_check_model(model, batch, TrainConfig(loss="mse"), h=1e-6)
        assert rep.max_rel_error < 1e-9  # both gradients identically ~0

    def test_param_cap(self):
        model = DenseAutoencoder.initialize((64, 64, 64), seed=13)
        with pytest.raises(ConfigError):
            grad_check_model(model, digits(2), TrainConfig())
