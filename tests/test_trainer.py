import numpy as np
import pytest

from wienerlab.datasets import make_digit_set
from wienerlab.errors import ConfigError, ShapeError
from wienerlab.spectral import Signal, WindowSpec
from wienerlab.gradients import grad_wiener_loss
from wienerlab.spectral import LagGrid, make_window
from wienerlab.trainer import (
    DenseAutoencoder,
    TrainConfig,
    TrainingDivergedError,
    _batch_loss_and_grad,
    forward,
    grad_check_model,
    train,
)
from wienerlab.wiener import WienerConfig


def digits(n, seed=3):
    return make_digit_set(n, size=8, seed=seed).signals


class TestForward:
    def test_zero_parameters_give_zero_output(self):
        model = DenseAutoencoder.initialize((4, 3, 4), seed=0)
        for w in model.weights:
            w[...] = 0.0
        out = forward(model, [Signal(np.array([1.0, -2.0, 3.0, 0.5]), (4,))])
        np.testing.assert_array_equal(out[0].data, np.zeros(4))

    def test_identity_single_linear_layer(self):
        model = DenseAutoencoder.initialize((5, 5), seed=0)
        model.weights[0][...] = np.eye(5)
        model.biases[0][...] = 0.0
        x = Signal(np.linspace(-1, 1, 5), (5,))
        out = forward(model, [x])
        np.testing.assert_allclose(out[0].data, x.data, atol=1e-15)

    def test_deterministic(self):
        model = DenseAutoencoder.initialize((64, 16, 64), seed=1)
        batch = digits(4)
        a = forward(model, batch)
        b = forward(model, batch)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.data, sb.data)

    def test_width_mismatch(self):
        model = DenseAutoencoder.initialize((10, 4, 10), seed=2)
        with pytest.raises(ShapeError):
            forward(model, [Signal(np.zeros(8), (8,))])

    def test_shapes_preserved(self):
        model = DenseAutoencoder.initialize((64, 8, 64), seed=3)
        out = forward(model, digits(2))
        assert out[0].shape == (8, 8)


class TestInitialization:
    def test_seeded_init_is_reproducible(self):
        a = DenseAutoencoder.initialize((8, 4, 8), seed=9)
        b = DenseAutoencoder.initialize((8, 4, 8), seed=9)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_bad_activation(self):
        with pytest.raises(ConfigError):
            DenseAutoencoder.initialize((4, 4), activation="swish")

    def test_flat_param_roundtrip(self):
        model = DenseAutoencoder.initialize((6, 3, 6), seed=4)
        theta = model.flat_params()
        model.set_flat_params(theta * 2.0)
        np.testing.assert_allclose(model.flat_params(), theta * 2.0)


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
        assert err.value.log.diverged

    def test_empty_data_rejected(self):
        model = DenseAutoencoder.initialize((4, 4), seed=7)
        with pytest.raises(ConfigError):
            train(model, [], TrainConfig())

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(loss="huber")
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0)


class TestBatchedFilterLoss:
    def test_matches_per_sample_calls(self):
        data = digits(32, seed=9)
        model = DenseAutoencoder.initialize((64, 16, 64), seed=9)
        cfg = TrainConfig(loss="wiener", whitening=WindowSpec("laplace", 2.0, 0.3), lam=0.7)
        X = np.stack([s.data for s in data])
        loss, d_out, A, _ = _batch_loss_and_grad(model, X, data[0], cfg)
        W = make_window(cfg.whitening, LagGrid((16, 16)))
        refs = [
            grad_wiener_loss(Signal(A[-1][i], (8, 8)), data[i], W, WienerConfig(lam=cfg.lam))
            for i in range(len(data))
        ]
        assert loss == pytest.approx(np.mean([r.value for r in refs]), rel=1e-12)
        expected = np.stack([r.grad.data for r in refs]) / len(data)
        assert np.abs(d_out - expected).max() < 1e-12

    @pytest.mark.parametrize("field", ["lam", "learning_rate", "eps"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_nonfinite_config_rejected(self, field, value):
        with pytest.raises(ConfigError):
            TrainConfig(**{field: value})


class TestGradCheckModel:
    def test_single_linear_layer_mse(self):
        # the loss is exactly quadratic in the parameters, so central
        # differences carry no truncation error and a large step suppresses
        # float roundoff
        rng = np.random.default_rng(10)
        model = DenseAutoencoder.initialize((16, 16), seed=10)
        batch = [Signal(0.5 + 0.5 * rng.random(16), (16,)) for _ in range(3)]
        rep = grad_check_model(model, batch, TrainConfig(loss="mse"), h=1e-3)
        assert rep.max_rel_error < 1e-7

    def test_three_layer_wiener(self):
        rng = np.random.default_rng(11)
        model = DenseAutoencoder.initialize((16, 12, 8, 16), seed=11)
        batch = [Signal(rng.random(16), (4, 4)) for _ in range(4)]
        cfg = TrainConfig(loss="wiener", whitening=WindowSpec("laplace", 2.0, 0.1), lam=1.0)
        rep = grad_check_model(model, batch, cfg, h=1e-5)
        assert rep.max_rel_error < 1e-4

    def test_zero_batch_zero_targets_zero_gradient(self):
        model = DenseAutoencoder.initialize((8, 4, 8), seed=12)
        for w in model.weights:
            w[...] = 0.0
        batch = [Signal(np.zeros(8), (8,))]
        rep = grad_check_model(model, batch, TrainConfig(loss="mse"), h=1e-6)
        assert rep.max_rel_error < 1e-9  # both gradients identically ~0

    def test_param_cap(self):
        model = DenseAutoencoder.initialize((64, 64, 64), seed=13)
        with pytest.raises(ConfigError):
            grad_check_model(model, digits(2), TrainConfig())
