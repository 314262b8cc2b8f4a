import numpy as np
import pytest

from oracles import check_gradient
from wienerlab.diffusion import EnergyModel, energy_terms
from wienerlab.errors import ConfigError, ShapeError
from wienerlab.spectral import WindowSpec, make_window
from wienerlab.wiener import QuotientKernel, loss_and_grad, wiener_loss


def unit_signal(shape, seed):
    return np.random.default_rng(seed).random(shape)[None]


WHITENING = WindowSpec("laplace", 2.0, 0.1)


def loss_grad(pred, targ, w, lam):
    """The filter loss and its gradient at one prediction, whitened by the
    window of spec `w` on the target's grid: a batch of one."""
    kernel = QuotientKernel(targ, targ.shape[1:], lam)
    value, grad = loss_and_grad(kernel, pred, make_window(w, targ.shape[1:]))
    return float(value), grad


def energy_grad(x, model):
    """The dataset energy and its gradient at one state: a batch of one."""
    values, grads = energy_terms(model, x[None])[:2]
    return float(values[0]), grads[0]


def energy(x, model):
    return energy_grad(x, model)[0]


def toy_model(n_samples=3, dim=16, lam=0.1, gamma=1.0, pen_b=3.0, seed=7):
    rng = np.random.default_rng(seed)
    ys = np.stack([rng.random((1, dim)) for _ in range(n_samples)])
    pen = WindowSpec("inverted_laplace", b=pen_b)
    return EnergyModel(ys, pen, gamma, lam)


class TestGradWienerLoss:
    def test_gradient_vanishes_at_target(self):
        y = unit_signal((8, 8), 1)
        value, grad = loss_grad(y, y, WHITENING, 1.0)
        assert np.abs(grad).max() < 1e-9
        assert value == pytest.approx(0.0, abs=1e-25)

    @pytest.mark.parametrize("lam", [0.1, 1.0, 250.0])
    def test_matches_finite_differences_6x6(self, lam):
        pred = unit_signal((6, 6), 2)
        targ = unit_signal((6, 6), 3)
        w = WHITENING
        grad = loss_grad(pred, targ, w, lam)[1]
        rep = check_gradient(lambda p: wiener_loss(p, targ, w, lam), grad, pred, h=1e-5)
        assert rep.max_rel_error < 1e-5

    def test_value_field_equals_loss(self):
        pred = unit_signal((6, 6), 4)
        targ = unit_signal((6, 6), 5)
        w = WHITENING
        lam = 1.0
        value = loss_grad(pred, targ, w, lam)[0]
        assert abs(value - wiener_loss(pred, targ, w, lam)) < 1e-12

    def test_descent_to_target_decreases_loss(self):
        # plain descent from noise toward a fixed 8x8 target; the loss is a
        # convex quadratic in the prediction so a safe fixed step must descend
        rng = np.random.default_rng(6)
        targ = rng.random((8, 8))[None]
        x = rng.random((8, 8))
        w = WHITENING
        lam = 1.0
        step = 1e-2
        losses = []
        for _ in range(200):
            value, grad = loss_grad(x[None], targ, w, lam)
            losses.append(value)
            g = grad[0]
            # line-search safeguard: halve until the step strictly decreases
            while True:
                trial = x - step * g
                trial_val = wiener_loss(trial[None], targ, w, lam)
                if trial_val < losses[-1] or step < 1e-12:
                    break
                step *= 0.5
            x = trial
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_multichannel_gradient(self):
        rng = np.random.default_rng(7)
        pred = rng.random((2, 5, 5))
        targ = rng.random((2, 5, 5))
        w = WHITENING
        lam = 1.0
        grad = loss_grad(pred, targ, w, lam)[1]
        rep = check_gradient(lambda p: wiener_loss(p, targ, w, lam), grad, pred, h=1e-5)
        assert rep.max_rel_error < 1e-5

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            loss_grad(unit_signal((4, 4), 8), unit_signal((5, 5), 9), WHITENING, 1.0)
        # a window on another grid: the message names both grids whole
        y = unit_signal((4, 4), 8)
        kernel = QuotientKernel(y, y.shape[1:], 1.0)
        with pytest.raises(ShapeError, match=r"extents \(10, 8\) != padded extents \(8, 8\)"):
            loss_and_grad(kernel, y, make_window(WHITENING, (5, 4)))


class TestGradEnergy:
    def test_stationary_at_defining_sample(self):
        rng = np.random.default_rng(10)
        y = rng.random(16)[None]
        pen = WindowSpec("inverted_laplace", b=3.0)
        model = EnergyModel(y[None], pen, 2.0, 0.5)
        value, grad = energy_grad(y, model)
        assert np.abs(grad).max() < 1e-8
        assert value == pytest.approx(0.0, abs=1e-20)

    def test_matches_finite_differences(self):
        model = toy_model()
        x = unit_signal((16,), 11)
        grad = energy_grad(x, model)[1]
        rep = check_gradient(lambda xx: energy(xx, model), grad, x, h=1e-5)
        assert rep.max_rel_error < 1e-5

    def test_gamma_linearity(self):
        x = unit_signal((16,), 12)
        grads = {}
        for gamma in (0.0, 1.0, 2.0):
            grads[gamma] = energy_grad(x, toy_model(gamma=gamma))[1]
        lhs = grads[2.0] - grads[0.0]
        rhs = 2.0 * (grads[1.0] - grads[0.0])
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            energy_grad(unit_signal((8,), 13), toy_model(dim=16))

    def test_empty_defining_set_rejected(self):
        pen = WindowSpec("inverted_laplace", b=1.0)
        with pytest.raises(ConfigError):
            EnergyModel(np.empty((0, 1, 4)), pen, 1.0, 1.0)

    def test_breakdown_terms_sum_to_value(self):
        model = toy_model(n_samples=4)
        x = unit_signal((16,), 14)
        values, grads, sample_energies, sample_concentrations = energy_terms(model, x[None])
        assert values[0] == pytest.approx(float(np.sum(sample_energies)), rel=1e-14)
        assert grads.shape == (1, 1, 16)
        assert sample_energies.shape == sample_concentrations.shape == (1, 4)

    def test_descent_direction_decreases_energy(self):
        # backtracking step from 20 random starts must decrease E in >= 19
        model = toy_model(n_samples=4, dim=8, pen_b=0.5, lam=0.5, gamma=0.5)
        rng = np.random.default_rng(15)
        wins = 0
        for _ in range(20):
            x = rng.normal(0, 1, 8)[None]
            value, grad = energy_grad(x, model)
            step = 1.0
            for _ in range(30):
                trial = x - step * grad
                if energy(trial, model) < value:
                    wins += 1
                    break
                step *= 0.5
        assert wins >= 19


def dense_quotient(fixed: np.ndarray, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """J and b with J @ x.ravel() + b the flat raw-layout matching filter of any
    varying plane x against one fixed plane, from the dense system
    A v = Y^T P x + lam * delta, A = Y^T Y + lam I, Y the circulant of the
    padded fixed plane and P the zero padding. J = A^-1 Y^T P is the filter's
    Jacobian. Solved with np.linalg.solve: no FFT."""
    padded = tuple(2 * n for n in fixed.shape)
    P = np.zeros((int(np.prod(padded)), fixed.size))
    kept = np.ravel_multi_index(np.indices(fixed.shape).reshape(fixed.ndim, -1), padded)
    P[kept, np.arange(fixed.size)] = 1.0
    plane = (P @ fixed.ravel()).reshape(padded)
    axes = tuple(range(plane.ndim))
    # column k is the plane shifted by lag k, so Y @ v is the circular convolution
    Y = np.stack([np.roll(plane, k, axes).ravel() for k in np.ndindex(padded)], axis=1)
    A = Y.T @ Y + lam * np.eye(len(Y))
    delta = np.zeros(len(Y))
    delta[0] = 1.0
    return np.linalg.solve(A, Y.T @ P), np.linalg.solve(A, lam * delta)


ORACLE_SHAPES = [(1,), (2,), (7,), (16,), (31,), (32,), (2, 3), (3, 3), (5, 4), (6, 6)]
ORACLE_LAMBDAS = (1e-3, 1.0, 250.0)


def assert_close_to_scale(got: np.ndarray, want: np.ndarray, case: str) -> None:
    """Each entry within 1e-9 of the largest entry's magnitude: a gradient entry
    that cancels to near zero keeps the rounding error of its parts."""
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-9 * np.abs(want).max(), err_msg=case)


class TestDenseAdjointOracle:
    """Every gradient pulls back through ``QuotientKernel.pullback``; these hold
    it to J^T of the dense solve for odd and even extents and 1-3 channels."""

    @pytest.mark.parametrize("shape", ORACLE_SHAPES)
    def test_loss_gradient_is_the_dense_adjoint(self, shape):
        # loss 0.5 * ||W (v - delta)||^2 summed over channels; gradient J^T W^2 (v - delta)
        rng = np.random.default_rng(sum(shape))
        whitening = make_window(WHITENING, shape)
        w = whitening.ravel()
        for lam in ORACLE_LAMBDAS:
            for channels in (1, 2, 3):
                fixed, x = rng.random((2, channels, *shape))
                value, grad = loss_and_grad(QuotientKernel(fixed, shape, lam), x, whitening)
                want_value, want_grad = 0.0, []
                for f, xc in zip(fixed, x):
                    J, b = dense_quotient(f, lam)
                    residual = J @ xc.ravel() + b
                    residual[0] -= 1.0
                    want_value += 0.5 * np.sum((w * residual) ** 2)
                    want_grad.append(J.T @ (w**2 * residual))
                case = f"lambda {lam}, {channels} channels"
                np.testing.assert_allclose(value, want_value, rtol=1e-9, err_msg=case)
                assert_close_to_scale(grad.reshape(channels, -1), np.array(want_grad), case)

    @pytest.mark.parametrize("shape", ORACLE_SHAPES)
    def test_energy_gradient_is_the_dense_adjoint(self, shape):
        # the sum over defining samples of J^T g_v, g_v the derivative of each
        # sample's term in its filter v
        rng = np.random.default_rng(sum(shape) + 1)
        pen = WindowSpec("inverted_laplace", b=1.5)
        p = make_window(pen, shape).ravel()
        gamma = 0.7
        for lam in ORACLE_LAMBDAS:
            for channels in (1, 2, 3):
                defining = rng.random((3, channels, *shape))
                X = rng.random((2, channels, *shape))
                grads = energy_terms(EnergyModel(defining, pen, gamma, lam), X)[1]
                want = np.zeros((len(X), channels, int(np.prod(shape))))
                for sample in defining:
                    for c, f in enumerate(sample):
                        J, b = dense_quotient(f, lam)
                        for i, x in enumerate(X[:, c]):
                            v = J @ x.ravel() + b
                            norm = v @ v
                            g_v = (p**2 * v - np.sum((p * v) ** 2) / norm * v) / norm / channels
                            g_v[0] += gamma * (v[0] - 1.0) / channels
                            want[i, c] += J.T @ g_v
                case = f"lambda {lam}, {channels} channels"
                assert_close_to_scale(grads.reshape(want.shape), want, case)


class TestCheckGradient:
    def test_quadratic_self_test(self):
        # order-one entries keep the finite-difference roundoff below 1e-9
        x = (0.8 + 0.4 * np.random.default_rng(20).random((3, 3)))[None]
        f = lambda s: 0.5 * float(np.sum(s**2))
        rep = check_gradient(f, x, x, h=1e-6)
        assert rep.max_rel_error < 1e-9
        assert rep.n_elements == 9

    def test_reports_bad_gradient(self):
        x = unit_signal((4,), 21)
        wrong = 2.0 * x
        rep = check_gradient(lambda s: 0.5 * float(np.sum(s**2)), wrong, x, h=1e-6)
        assert rep.max_rel_error > 0.4

    def test_nonpositive_step_rejected(self):
        x = unit_signal((4,), 22)
        with pytest.raises(ConfigError):
            check_gradient(lambda s: 0.0, x, x, h=0.0)


class TestWorkArrays:
    """The step paths form their spectra, filters and cotangents in the
    kernel's work arrays (shared with its row views) and return fresh arrays."""

    @staticmethod
    def _calls(rng, monkeypatch):
        kernel = QuotientKernel(rng.random((6, 1, 12, 10)), (12, 10), 0.5)
        w_raw = make_window(WHITENING, (12, 10))
        model = toy_model(n_samples=5, dim=9)
        monkeypatch.setattr("wienerlab.diffusion.ENERGY_CHUNK_ELEMENTS", 100)  # chunks of 2
        return {
            "filters": lambda: (kernel.filters(rng.random((6, 1, 12, 10))),),
            "pullback": lambda: (kernel.pullback(rng.random((6, 1, 24, 20))),),
            "loss_and_grad": lambda: loss_and_grad(kernel, rng.random((6, 1, 12, 10)), w_raw),
            "row views": lambda: loss_and_grad(
                kernel.rows(rng.permutation(6)[:3]), rng.random((3, 1, 12, 10)), w_raw
            ),
            "energy_terms": lambda: energy_terms(model, rng.random((7, 1, 9))),
            "energy_terms, one chunk": lambda: energy_terms(model, rng.random((2, 1, 9))),
        }

    @pytest.mark.parametrize(
        "call",
        ["filters", "pullback", "loss_and_grad", "row views", "energy_terms", "energy_terms, one chunk"],
    )
    def test_a_second_call_leaves_the_first_results_alone(self, call, monkeypatch):
        run = self._calls(np.random.default_rng(80), monkeypatch)[call]
        first = run()
        kept = [a.copy() for a in first]
        second = run()
        for got, want, other in zip(first, kept, second):
            assert got.tobytes() == want.tobytes()
            assert not np.shares_memory(got, other)
