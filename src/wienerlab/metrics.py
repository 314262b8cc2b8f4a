"""Per-sample image quality metrics: MAE, MSE, PSNR, SSIM.

Values are expected in [0, 1]; PSNR uses peak 1.0 and reports +inf for
identical inputs. SSIM uses a uniform 8x8 sliding window with stride 1 and
the usual stabilizing constants (0.01*peak)^2 and (0.03*peak)^2.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .spectral import Signal, check_pair

__all__ = ["compute_metrics", "mae", "mse", "psnr", "ssim"]

SSIM_WINDOW = 8
_C1 = (0.01) ** 2
_C2 = (0.03) ** 2


def mae(a: Signal, b: Signal) -> float:
    check_pair(a, b)
    return float(np.mean(np.abs(a.data - b.data)))


def mse(a: Signal, b: Signal) -> float:
    check_pair(a, b)
    return float(np.mean((a.data - b.data) ** 2))


def psnr(a: Signal, b: Signal) -> float:
    """Peak signal-to-noise ratio in dB against peak value 1.0."""
    m = mse(a, b)
    if m == 0.0:
        return float("inf")
    return float(-10.0 * np.log10(m))


def _ssim_plane(x: np.ndarray, y: np.ndarray) -> float:
    """Mean SSIM over all fully interior windows (window shrinks to the image
    when an extent is below the window size)."""
    if x.ndim == 1:
        x = x[np.newaxis, :]
        y = y[np.newaxis, :]
    wr = min(SSIM_WINDOW, x.shape[0])
    wc = min(SSIM_WINDOW, x.shape[1])
    xw = sliding_window_view(x, (wr, wc)).reshape(-1, wr * wc)
    yw = sliding_window_view(y, (wr, wc)).reshape(-1, wr * wc)
    mx = xw.mean(axis=1)
    my = yw.mean(axis=1)
    vx = xw.var(axis=1)
    vy = yw.var(axis=1)
    cov = (xw * yw).mean(axis=1) - mx * my
    s = ((2 * mx * my + _C1) * (2 * cov + _C2)) / (
        (mx**2 + my**2 + _C1) * (vx + vy + _C2)
    )
    return float(s.mean())


def ssim(a: Signal, b: Signal) -> float:
    check_pair(a, b)
    return float(
        np.mean([_ssim_plane(pa, pb) for pa, pb in zip(a.planes, b.planes)])
    )


def compute_metrics(a: Signal, b: Signal) -> dict:
    """MAE, MSE, PSNR and SSIM of one pair; identical inputs give PSNR +inf."""
    return {"mae": mae(a, b), "mse": mse(a, b), "psnr": psnr(a, b), "ssim": ssim(a, b)}
