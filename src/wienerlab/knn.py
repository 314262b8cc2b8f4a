"""Brute-force k-nearest-neighbour classification with pluggable distances.

Includes synthesis of translated test sets: images are zero-padded, then
rigidly shifted by per-image random integer offsets, which is the mechanism
that defeats element-wise distances while leaving the filter-based
translation-invariant distance unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError
from .spectral import Signal
from .wiener import QuotientKernel, WienerConfig, ti_distance

__all__ = [
    "LabeledSet",
    "DistanceSpec",
    "EvalResult",
    "distance",
    "knn_classify",
    "make_translated_set",
    "evaluate_accuracy",
]

N_CLASSES = 10


@dataclass(frozen=True, eq=False)
class LabeledSet:
    """Uniformly shaped signals with class ids in 0..9.

    The quotient kernel of the whole set is built on the first TI query per
    lambda and kept, and so is the (n, C*prod(extents)) stack that
    element-wise distances use, so every later query against the set
    reuses them.
    """

    signals: list[Signal]
    labels: list[int]
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if len(self.signals) != len(self.labels):
            raise ConfigError(
                f"{len(self.signals)} signals vs {len(self.labels)} labels"
            )
        if self.signals:
            first = self.signals[0]
            for s in self.signals[1:]:
                if s.shape != first.shape or s.channels != first.channels:
                    raise ShapeError("labeled set signals must share one shape")
        for lab in self.labels:
            if not (0 <= int(lab) < N_CLASSES):
                raise ConfigError(f"label {lab} outside class range 0..{N_CLASSES - 1}")
        object.__setattr__(self, "labels", [int(l) for l in self.labels])

    def __len__(self) -> int:
        return len(self.signals)


@dataclass(frozen=True)
class DistanceSpec:
    kind: str = "manhattan"
    wiener_cfg: WienerConfig = field(default_factory=WienerConfig)

    def __post_init__(self):
        if self.kind not in ("manhattan", "euclidean", "wiener_ti"):
            raise ConfigError(f"unknown distance kind {self.kind!r}")


def distance(a: Signal, b: Signal, spec: DistanceSpec) -> float:
    if a.shape != b.shape or a.channels != b.channels:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")
    if spec.kind == "manhattan":
        return float(np.sum(np.abs(a.data - b.data)))
    if spec.kind == "euclidean":
        return float(np.linalg.norm(a.data - b.data))
    return ti_distance(a, b, spec.wiener_cfg)


def _set_kernel(train: LabeledSet, lam: float) -> QuotientKernel:
    if lam not in train._cache:
        planes = np.stack([t.planes for t in train.signals])  # (n, C, *extents)
        train._cache[lam] = QuotientKernel(planes, train.signals[0].shape, lam)
    return train._cache[lam]


def _set_stack(train: LabeledSet) -> np.ndarray:
    if "stack" not in train._cache:
        train._cache["stack"] = np.stack([t.data for t in train.signals])  # (n, C*prod(extents))
    return train._cache["stack"]


def _distances_to_set(query: Signal, train: LabeledSet, spec: DistanceSpec) -> np.ndarray:
    """Distances from one query to every training signal.

    Each kind is one batched pass against the set's cached kernel or stack:
    the same quantity as ``distance`` per pair.
    """
    ref = train.signals[0]
    if query.shape != ref.shape or query.channels != ref.channels:
        raise ShapeError(f"shape mismatch: {query.shape} vs {ref.shape}")
    if spec.kind == "wiener_ti":
        values = _set_kernel(train, spec.wiener_cfg.lam).ti_values(query.planes)[0]
        return values.mean(axis=1)
    diff = _set_stack(train) - query.data
    if spec.kind == "manhattan":
        return np.sum(np.abs(diff, out=diff), axis=1)
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def _vote(dists: np.ndarray, labels: list[int], k: int) -> int:
    """Majority vote; ties by smallest summed distance, then lowest class id."""
    order = np.argsort(dists, kind="stable")[:k]
    counts = np.zeros(N_CLASSES, dtype=int)
    sums = np.zeros(N_CLASSES)
    for i in order:
        counts[labels[i]] += 1
        sums[labels[i]] += dists[i]
    best = counts.max()
    tied = [c for c in range(N_CLASSES) if counts[c] == best]
    if len(tied) == 1:
        return tied[0]
    min_sum = min(sums[c] for c in tied)
    return min(c for c in tied if sums[c] == min_sum)


def knn_classify(train: LabeledSet, query: Signal, k: int, dist: DistanceSpec) -> int:
    if len(train) == 0:
        raise ConfigError("empty training set")
    if not (1 <= k <= len(train)):
        raise ConfigError(f"k must be in 1..{len(train)}, got {k}")
    return _vote(_distances_to_set(query, train, dist), train.labels, k)


def make_translated_set(
    base: LabeledSet, max_shift: int, pad: int, seed: int
) -> LabeledSet:
    """Zero-pad every image by `pad` on all sides, then shift each by a uniform
    random integer offset in [-max_shift, max_shift]^2. Deterministic under seed."""
    if max_shift < 0 or pad < 0:
        raise ConfigError("max_shift and pad must be >= 0")
    if max_shift > pad:
        raise ConfigError(f"max_shift {max_shift} exceeds pad {pad}")
    if not base.signals or len(base.signals[0].shape) != 2:
        raise ShapeError("translated sets are defined for nonempty 2-d image sets")
    rng = np.random.default_rng(seed)
    ref = base.signals[0]
    h, w = ref.shape
    # max_shift <= pad, so the shifted image never wraps: place it at its offset
    stack = np.zeros((len(base), ref.channels, h + 2 * pad, w + 2 * pad))
    for planes, s in zip(stack, base.signals):
        dr, dc = rng.integers(-max_shift, max_shift + 1, size=2)
        planes[:, pad + dr : pad + dr + h, pad + dc : pad + dc + w] = s.planes
    return LabeledSet([Signal.from_planes(planes) for planes in stack], list(base.labels))


@dataclass(frozen=True, eq=False)
class EvalResult:
    accuracy: float
    confusion: np.ndarray  # confusion[true, predicted]
    predictions: list[int]


def evaluate_accuracy(
    train: LabeledSet, test: LabeledSet, k: int, dist: DistanceSpec
) -> EvalResult:
    """Fraction of correct predictions plus the per-class confusion matrix."""
    if len(train) == 0 or len(test) == 0:
        raise ConfigError("empty train or test set")
    if train.signals[0].shape != test.signals[0].shape:
        raise ShapeError(
            f"train shape {train.signals[0].shape} != test shape {test.signals[0].shape}"
        )
    confusion = np.zeros((N_CLASSES, N_CLASSES), dtype=int)
    predictions = []
    correct = 0
    for sig, lab in zip(test.signals, test.labels):
        pred = knn_classify(train, sig, k, dist)
        predictions.append(pred)
        confusion[lab, pred] += 1
        correct += int(pred == lab)
    return EvalResult(correct / len(test), confusion, predictions)
