"""k-nearest-neighbour classification under one of two named distances:
``manhattan``, computed for every pair, or ``wiener_ti``, the TI distance,
exact wherever the k nearest can lie and pruned by lower bounds elsewhere.

Includes synthesis of translated test sets: images are zero-padded, then
rigidly shifted by per-image random integer offsets, which is the mechanism
that defeats element-wise distances. The filter-based TI distance moves
little under it: a shift inside the zero margin leaves it unchanged at
lambda = 0, and for lambda > 0 it drifts with the shift, because the
lambda/D term of the filter stays at zero lag.
"""

from __future__ import annotations

import math
import numpy as np

from .errors import ConfigError, Frozen, ShapeError, check_seed
from .spectral import as_stack, full_lag
from .wiener import QuotientKernel, _tile_cells

__all__ = [
    "LabeledSet",
    "EvalResult",
    "make_translated_set",
    "evaluate_accuracy",
]

N_CLASSES = 10


class LabeledSet:
    """Equally shaped samples with class ids in 0..9, held as one stack.

    ``samples`` is an array shaped (n, C, *extents), extents of rank 1 or 2.
    The set keeps ``stack``, the read-only float64 view that ``as_stack``
    validates, and ``label_ids``, a read-only int array of the n class ids,
    so shape, finiteness and labels (integral, in range) are checked once
    for the whole set.
    """

    def __init__(self, samples, labels):
        stack = as_stack(samples)
        ids = np.asarray(labels)
        if ids.shape != stack.shape[:1]:
            raise ConfigError(f"{len(stack)} samples vs labels shaped {ids.shape}")
        if ids.dtype.kind not in "iu":
            try:
                ids = ids.astype(np.float64)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"labels are not class ids: {exc}") from exc
        # NaN fails every comparison, so one test rejects it, infinities,
        # fractions and ids outside the range before any cast
        bad = ids[~((ids >= 0) & (ids < N_CLASSES) & (ids == np.floor(ids)))]
        if bad.size:
            raise ConfigError(f"label {bad[0]} is not a class id in 0..{N_CLASSES - 1}")
        ids = ids.astype(np.int64)
        ids.flags.writeable = False
        self.stack = stack
        self.label_ids = ids

    def __len__(self) -> int:
        return len(self.stack)

    @property
    def shape(self) -> tuple[int, ...]:
        """Extents of every sample."""
        return self.stack.shape[2:]


def _distance_matrix(
    train: LabeledSet, queries: np.ndarray, kind: str, lam: float, k: int
) -> tuple[np.ndarray, float]:
    """(m, n) distances of `kind` from each of the m queries, shaped
    (m, C, *extents), to every training sample, exact wherever the k nearest
    can lie, and the fraction of the m * n entries computed exactly. `lam`
    is the TI distance's stabilizer; ConfigError for an unknown kind.

    Manhattan distances are exact everywhere: one pass over the set's flat
    stack per query, into one difference buffer. A TI entry is
    ``ti_distance`` of its pair, found in two passes that stream the set
    through quotient kernels of one block of training rows at a time, each
    block about one TI tile of filter elements against one query
    (``wiener._tile_cells``). A block's fixed side
    (b, 1, C, *extents) broadcasts the queries, transformed once, to
    (b, m, C):

    * ``ti_bounds`` gives every pair a lower bound lb on its value (the
      channel mean of the planes' bounds), with no exact moments: each
      plane's spread is bounded from below by Parseval with a relative
      slack, so a near-constant plane's bound is -inf;
    * per query, the pairs of its k lowest bounds are computed exactly,
      exact moments included (``ti_values_at``), and the largest of them is
      at least its k-th smallest value; every other pair whose lb is not
      strictly greater than that is computed too. Each of these two rounds
      builds kernels over the distinct training rows it finishes only.

    So the spectra of one block are held at a time, besides the (m, n)
    bounds. Each row is transformed alone, so a block's kernel is bit for
    bit those rows of the whole set's. A pair left out has a value above k
    others, so it is +inf here, and the stable-argsort vote sees the k
    nearest, their order and their distances as in the full matrix. With
    k = n every entry is exact.
    """
    if kind not in ("manhattan", "wiener_ti"):
        raise ConfigError(f"unknown distance kind {kind!r}")
    if kind == "wiener_ti":
        block = _tile_cells(math.prod(full_lag(train.shape)) * train.stack.shape[1])
        spectra = queries

        def kernels(rows):  # (offset, kernel) of each block of training rows in `rows`
            for start in range(0, len(rows), block):
                fixed = train.stack[rows[start : start + block], np.newaxis]
                yield start, QuotientKernel(fixed, train.shape, lam)

        lb = np.empty((len(queries), len(train)))  # (m, n)
        for start, kernel in kernels(np.arange(len(train))):
            spectra = kernel.spectrum(spectra)  # a spectrum is passed through as it is
            lb[:, start : start + block] = kernel.ti_bounds(spectra).mean(axis=-1).T
        out = np.full(lb.shape, np.inf)
        exact = np.zeros(lb.shape, dtype=bool)

        def compute(rows, cols):  # query rows and training columns
            distinct, col = np.unique(cols, return_inverse=True)
            for start, kernel in kernels(distinct):
                pick = (col >= start) & (col < start + block)
                at = (col[pick] - start, rows[pick])
                out[rows[pick], cols[pick]] = kernel.ti_values_at(spectra, at).mean(axis=-1)
            exact[rows, cols] = True

        first = np.argpartition(lb, k - 1, axis=1)[:, :k]
        compute(np.repeat(np.arange(len(lb)), k), first.ravel())
        kth = np.take_along_axis(out, first, axis=1).max(axis=1)
        compute(*np.nonzero((lb <= kth[:, np.newaxis]) & ~exact))
        return out, float(exact.mean())
    flat = train.stack.reshape(len(train), -1)
    out = np.empty((len(queries), len(train)))
    diff = np.empty_like(flat)  # one difference buffer, reused by every query
    for row, query in zip(out, queries.reshape(len(queries), -1)):
        np.subtract(flat, query, out=diff)
        np.sum(np.abs(diff, out=diff), axis=1, out=row)
    return out, 1.0


def _vote(dists: np.ndarray, labels: np.ndarray, k: int) -> int:
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


def make_translated_set(
    base: LabeledSet, max_shift: int, pad: int, seed: int
) -> LabeledSet:
    """Zero-pad every image by `pad` on all sides, then shift each by a uniform
    random integer offset in [-max_shift, max_shift]^2. Deterministic under seed."""
    if max_shift < 0 or pad < 0:
        raise ConfigError("max_shift and pad must be >= 0")
    if max_shift > pad:
        raise ConfigError(f"max_shift {max_shift} exceeds pad {pad}")
    if len(base.shape) != 2:
        raise ShapeError("translated sets are defined for 2-d image sets")
    check_seed(seed)
    rng = np.random.default_rng(seed)
    n, channels, h, w = base.stack.shape
    # one (row, column) draw per image; max_shift <= pad, so the shifted
    # image never wraps: it is written at its offset into a zeroed canvas
    corner = pad + np.array([rng.integers(-max_shift, max_shift + 1, size=2) for _ in range(n)])
    samples = np.arange(n)[:, None, None, None]
    planes = np.arange(channels)[:, None, None]
    rows = (corner[:, 0, None] + np.arange(h))[:, None, :, None]
    cols = (corner[:, 1, None] + np.arange(w))[:, None, None, :]
    stack = np.zeros((n, channels, h + 2 * pad, w + 2 * pad))
    stack[samples, planes, rows, cols] = base.stack
    return LabeledSet(stack, base.label_ids)


class EvalResult(Frozen):
    def __init__(
        self, accuracy: float, confusion: np.ndarray, predictions: list[int], exact_fraction: float
    ):
        # confusion[true, predicted]; exact_fraction is the share of distances
        # computed exactly, below 1 only for TI
        self._set(
            accuracy=accuracy, confusion=confusion, predictions=predictions,
            exact_fraction=exact_fraction,
        )


def evaluate_accuracy(
    train: LabeledSet, test: LabeledSet, k: int, kind: str = "manhattan", lam: float = 1.0
) -> EvalResult:
    """Fraction of correct predictions plus the per-class confusion matrix.

    Each query votes on its row of ``_distance_matrix``, exact wherever its
    k nearest can lie (a TI row is +inf where a bound rules a pair out).
    `k` is an integer in 1..len(train); `kind` is "manhattan" or
    "wiener_ti", the TI distance at stabilizer `lam`.
    """
    if train.stack.shape[1:] != test.stack.shape[1:]:
        raise ShapeError(
            f"train shape {train.stack.shape[1:]} != test shape {test.stack.shape[1:]}"
        )
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise ConfigError(f"k must be an integer, got {k!r}")
    k = int(k)
    if not (1 <= k <= len(train)):
        raise ConfigError(f"k must be in 1..{len(train)}, got {k}")
    dists, exact_fraction = _distance_matrix(train, test.stack, kind, lam, k)
    predictions = [_vote(row, train.label_ids, k) for row in dists]
    confusion = np.zeros((N_CLASSES, N_CLASSES), dtype=int)
    np.add.at(confusion, (test.label_ids, predictions), 1)
    correct = int(np.sum(test.label_ids == predictions))
    return EvalResult(correct / len(test), confusion, predictions, exact_fraction)
