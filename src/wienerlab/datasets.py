"""Built-in desk-scale data: procedural digit images and toy cluster latents.

Digits are rendered from a 5x7 bitmap font with per-sample intensity scaling,
one-pixel placement jitter, and additive noise, so classes have genuine
intra-class variation without any external dataset.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, check_seed
from .knn import LabeledSet

__all__ = ["make_digit_set", "two_cluster_latents"]

_GLYPHS = [
    # 5x7 rows per digit, 0..9
    ["01110", "10001", "10011", "10101", "11001", "10001", "01110"],
    ["00100", "01100", "00100", "00100", "00100", "00100", "01110"],
    ["01110", "10001", "00001", "00010", "00100", "01000", "11111"],
    ["11110", "00001", "00001", "01110", "00001", "00001", "11110"],
    ["00010", "00110", "01010", "10010", "11111", "00010", "00010"],
    ["11111", "10000", "11110", "00001", "00001", "10001", "01110"],
    ["00110", "01000", "10000", "11110", "10001", "10001", "01110"],
    ["11111", "00001", "00010", "00100", "01000", "01000", "01000"],
    ["01110", "10001", "10001", "01110", "10001", "10001", "01110"],
    ["01110", "10001", "10001", "01111", "00001", "00010", "01100"],
]


_BITMAPS = np.array([[[float(c) for c in row] for row in glyph] for glyph in _GLYPHS])  # (10, 7, 5)


def make_digit_set(
    n: int,
    size: int = 8,
    seed: int = 0,
    noise: float = 0.05,
    jitter: bool = True,
    intensity: tuple[float, float] = (0.7, 1.0),
) -> LabeledSet:
    """n digit images on a size x size canvas, classes drawn round-robin.

    Values lie in [0, 1]. Deterministic under seed.
    """
    if size < 8:
        raise ConfigError(f"canvas must be at least 8 pixels, got {size}")
    if n < 1:
        raise ConfigError(f"need at least one sample, got {n}")
    check_seed(seed)
    rng = np.random.default_rng(seed)
    # per-sample draws in the order integers, integers, uniform, normal: the
    # order fixes the output, so the draws stay one sample at a time
    shift = np.zeros((n, 2), dtype=int)
    gain = np.empty(n)
    stack = np.zeros((n, size, size))
    for i in range(n):
        if jitter:
            shift[i] = rng.integers(0, 2), rng.integers(-1, 2)
        gain[i] = rng.uniform(*intensity)
        if noise > 0:
            stack[i] = rng.normal(0.0, noise, size=(size, size))
    labels = np.arange(n) % 10
    top = np.clip((size - 7) // 2 + shift[:, 0], 0, size - 7)
    left = np.clip((size - 5) // 2 + shift[:, 1], 0, size - 5)
    rows = (top[:, None] + np.arange(7))[:, :, None]
    cols = (left[:, None] + np.arange(5))[:, None, :]
    stack[np.arange(n)[:, None, None], rows, cols] += _BITMAPS[labels] * gain[:, None, None]
    np.clip(stack, 0.0, 1.0, out=stack)
    return LabeledSet(stack[:, np.newaxis], labels)


def two_cluster_latents(
    n: int, dim: int = 8, separation: float = 2.0, spread: float = 0.15, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """n latent vectors split evenly between two well-separated clusters.

    Cluster centers are two fixed rough patterns (deterministic for a given
    dim) scaled by `separation`; samples add isotropic Gaussian jitter of std
    `spread`, all drawn at once. Returns the stack (n, 1, dim) plus the
    cluster id of each sample (even indices 0, odd indices 1). Centers are
    deliberately not sign-opposites: the quotient part of the diffusion
    energy is blind to overall sign, which would merge mirrored clusters.
    """
    if n < 2:
        raise ConfigError(f"need at least 2 samples, got {n}")
    if dim < 1 or not (0 <= spread < np.inf):
        raise ConfigError(f"need dim >= 1 and a finite spread >= 0, got {dim} and {spread}")
    check_seed(seed)
    pattern_rng = np.random.default_rng(90210)
    center_a = separation * pattern_rng.uniform(-1.3, 1.3, size=dim)
    center_b = separation * pattern_rng.uniform(-1.3, 1.3, size=dim)
    ids = np.arange(n) % 2
    centers = np.where(ids[:, None] == 0, center_a, center_b)
    jitter = np.random.default_rng(seed).normal(0.0, spread, size=(n, dim))
    return (centers + jitter)[:, np.newaxis], ids
