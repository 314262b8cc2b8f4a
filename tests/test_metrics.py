import numpy as np
import pytest

from wienerlab.errors import ShapeError
from wienerlab.metrics import compute_metrics, mae, mse, psnr, ssim
from wienerlab.spectral import Signal


def naive_ssim(a: np.ndarray, b: np.ndarray, win=8) -> float:
    """Independent re-computation with explicit loops."""
    c1, c2 = 0.01**2, 0.03**2
    h, w = a.shape
    wr, wc = min(win, h), min(win, w)
    vals = []
    for i in range(h - wr + 1):
        for j in range(w - wc + 1):
            x = a[i : i + wr, j : j + wc].ravel()
            y = b[i : i + wr, j : j + wc].ravel()
            mx, my = x.mean(), y.mean()
            vx, vy = x.var(), y.var()
            cov = np.mean(x * y) - mx * my
            vals.append(
                ((2 * mx * my + c1) * (2 * cov + c2))
                / ((mx**2 + my**2 + c1) * (vx + vy + c2))
            )
    return float(np.mean(vals))


class TestPairMetrics:
    def test_identical_pair(self):
        a = Signal.from_array(np.random.default_rng(0).random((12, 12)))
        values = compute_metrics(a, a)
        assert values["mae"] == 0.0
        assert values["mse"] == 0.0
        assert values["ssim"] == pytest.approx(1.0, abs=1e-12)
        assert values["psnr"] == float("inf")

    def test_constant_offset(self):
        rng = np.random.default_rng(1)
        base = 0.1 + 0.7 * rng.random((10, 10))  # offset keeps values inside [0, 1]
        a = Signal.from_array(base)
        b = Signal.from_array(base + 0.1)
        assert mae(a, b) == pytest.approx(0.1, abs=1e-12)
        assert mse(a, b) == pytest.approx(0.01, abs=1e-12)
        assert psnr(a, b) == pytest.approx(20.0, abs=1e-9)

    def test_random_pair_matches_reference(self):
        rng = np.random.default_rng(2)
        x = rng.random((14, 11))
        y = rng.random((14, 11))
        a, b = Signal.from_array(x), Signal.from_array(y)
        assert mae(a, b) == pytest.approx(np.mean(np.abs(x - y)), abs=1e-12)
        assert mse(a, b) == pytest.approx(np.mean((x - y) ** 2), abs=1e-12)
        assert psnr(a, b) == pytest.approx(-10 * np.log10(np.mean((x - y) ** 2)), abs=1e-12)
        assert ssim(a, b) == pytest.approx(naive_ssim(x, y), abs=1e-12)

    def test_ssim_small_image_single_window(self):
        rng = np.random.default_rng(3)
        x = rng.random((8, 8))
        y = rng.random((8, 8))
        assert ssim(Signal.from_array(x), Signal.from_array(y)) == pytest.approx(
            naive_ssim(x, y), abs=1e-12
        )

    def test_1d_signals_supported(self):
        rng = np.random.default_rng(4)
        x, y = rng.random(32), rng.random(32)
        a, b = Signal(x, (32,)), Signal(y, (32,))
        assert ssim(a, b) == pytest.approx(naive_ssim(x[np.newaxis, :], y[np.newaxis, :]), abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            compute_metrics(
                Signal.from_array(np.zeros((3, 3))), Signal.from_array(np.zeros((4, 4)))
            )

