import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wienerlab.datasets import _BITMAPS, make_digit_set
from wienerlab.errors import ConfigError, ShapeError
from wienerlab.knn import (
    LabeledSet,
    _distance_matrix,
    _vote,
    evaluate_accuracy,
    make_translated_set,
)
from wienerlab import wiener
from wienerlab.spectral import full_lag
from wienerlab.wiener import QuotientKernel, ti_distance


def sig(arr):
    return np.asarray(arr, dtype=float)[None]


def labeled(images, labels):
    """A single-channel set from a list of equally shaped images."""
    return LabeledSet(np.asarray(images, dtype=float)[:, np.newaxis], labels)


def to_set(query, train, kind, lam=1.0):
    """Distances of `kind` from one query signal (C, *extents) to every sample
    of `train`; k = len(train) makes every entry exact."""
    return _distance_matrix(train, query[np.newaxis], kind, lam, len(train))[0][0]


def classify(train, query, k, kind, lam=1.0):
    """The class ``evaluate_accuracy`` predicts for one query signal."""
    return evaluate_accuracy(train, LabeledSet(query[None], [0]), k, kind, lam).predictions[0]


class TestLabeledSet:
    def test_length_mismatch(self):
        with pytest.raises(ConfigError):
            labeled([np.ones((2, 2))], [0, 1])

    def test_label_range(self):
        with pytest.raises(ConfigError):
            labeled([np.ones((2, 2))], [10])

    def test_mixed_shapes(self):
        with pytest.raises(ShapeError):
            LabeledSet([np.ones((1, 2, 2)), np.ones((1, 3, 3))], [0, 1])

    def test_stack_builds_the_set(self):
        planes = np.random.default_rng(3).random((4, 2, 3, 5))
        for samples in (planes, list(planes)):  # an array or a sequence of sample planes
            ls = LabeledSet(samples, np.array([3, 1, 4, 1]))
            assert len(ls) == 4 and ls.shape == (3, 5)
            assert ls.stack.dtype == np.float64 and ls.stack.tobytes() == planes.tobytes()
            assert ls.label_ids.tolist() == [3, 1, 4, 1]
            np.testing.assert_array_equal(ls.label_ids, [3, 1, 4, 1])

    def test_stack_and_labels_are_read_only_views(self):
        planes = np.random.default_rng(4).random((3, 1, 4, 4))
        ls = LabeledSet(planes, [0, 1, 2])
        assert planes.flags.writeable  # the caller's array is left as it was
        assert np.shares_memory(ls.stack, planes)  # no copy of a float64 stack
        assert not ls.stack.flags.writeable and not ls.label_ids.flags.writeable
        with pytest.raises(ValueError):
            ls.stack[0, 0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            ls.label_ids[0] = 1

    @pytest.mark.parametrize(
        "stack, labels, error",
        [
            (np.ones((2, 1, 3, 3)), [0], ConfigError),  # one label for two samples
            (np.ones((0, 1, 3, 3)), [], ConfigError),  # empty
            (np.full((2, 1, 3), np.nan), [0, 1], ConfigError),  # non-finite
            (np.full((2, 1, 3), np.inf), [0, 1], ConfigError),
            (np.ones((2, 1, 3)), [0, -1], ConfigError),  # label out of range
            (np.ones((2, 3)), [0, 1], ShapeError),  # no channel axis
            (np.ones((2, 1, 2, 2, 2)), [0, 1], ShapeError),  # rank-3 extents
            (np.ones((2, 1, 0)), [0, 1], ShapeError),  # empty extent
        ],
    )
    def test_malformed_stack_rejected(self, stack, labels, error):
        with pytest.raises(error):
            LabeledSet(stack, labels)

    def test_empty_signal_list_rejected(self):
        with pytest.raises(ConfigError):
            LabeledSet([], [])

    @pytest.mark.parametrize(
        "labels",
        [[1.7, 2.2], [0.0, np.nan], [0, np.inf], [1, -np.inf], ["a", "b"], [None, 1], [1, 10.0]],
    )
    def test_non_class_id_labels_rejected(self, labels):
        with pytest.raises(ConfigError):
            LabeledSet(np.ones((2, 1, 3)), labels)

    @pytest.mark.parametrize(
        "labels",
        [
            np.array([3, 9], dtype=np.uint8),  # IDX labels
            np.array([3, 9], dtype=np.int32),
            np.array([3.0, 9.0]),  # integral floats
            [np.int64(3), 9],
        ],
    )
    def test_integral_labels_accepted(self, labels):
        ls = LabeledSet(np.ones((2, 1, 3)), labels)
        assert ls.label_ids.tolist() == [3, 9] and ls.label_ids.dtype == np.int64


class TestDistances:
    def test_manhattan(self):
        a = sig([[0.0, 1.0]])
        b = sig([[0.5, 0.2]])
        one = LabeledSet(b[None], [0])
        assert to_set(a, one, "manhattan")[0] == pytest.approx(1.3)

    def test_euclidean_is_an_unknown_kind(self):
        one = labeled([[0.5, 0.2]], [0])
        with pytest.raises(ConfigError, match="unknown distance kind 'euclidean'"):
            evaluate_accuracy(one, one, 1, "euclidean")

    def test_unknown_kind(self):
        one = labeled([[0.5, 0.2]], [0])
        with pytest.raises(ConfigError):
            evaluate_accuracy(one, one, 1, "cosine")
        with pytest.raises(ConfigError, match="unknown distance kind 'cosine'"):
            _distance_matrix(one, one.stack, "cosine", 1.0, 1)

    def test_wiener_ti_matches_batch_path(self):
        rng = np.random.default_rng(0)
        query = sig(rng.random((8, 8)))
        train = labeled([rng.random((8, 8)) for _ in range(5)], [0, 1, 2, 3, 4])
        batch = to_set(query, train, "wiener_ti", 1.0)
        singles = [ti_distance(query, t, 1.0) for t in train.stack]
        np.testing.assert_allclose(batch, singles, atol=1e-12)
        # a repeated query against the set gives the same bits
        np.testing.assert_array_equal(to_set(query, train, "wiener_ti", 1.0), batch)

    def test_multichannel_ti_matches_pairwise(self):
        rng = np.random.default_rng(1)
        query = rng.random((2, 6, 6))
        planes = rng.random((4, 2, 6, 6))
        train = LabeledSet(planes, [0, 1, 2, 3])
        singles = [ti_distance(query, t, 0.5) for t in train.stack]
        np.testing.assert_allclose(to_set(query, train, "wiener_ti", 0.5), singles, atol=1e-12)

    @pytest.mark.parametrize("channels", [1, 2])
    def test_batched_elementwise_matches_pairwise(self, channels):
        rng = np.random.default_rng(2)
        query = rng.random((channels, 5, 7))
        train = LabeledSet(rng.random((23, channels, 5, 7)), [0] * 23)
        pairs = [float(np.abs(query - t).sum()) for t in train.stack]
        np.testing.assert_array_equal(to_set(query, train, "manhattan"), pairs)

    @pytest.mark.parametrize("kind", ["manhattan"])
    def test_elementwise_distances_hold_one_difference_buffer(self, kind):
        rng = np.random.default_rng(3)
        train = LabeledSet(rng.random((2000, 1, 20, 20)), [0] * 2000)
        qs = rng.random((5, 1, 20, 20))
        buffer = train.stack.nbytes  # one (n, d) difference
        tracemalloc.start()
        try:
            _distance_matrix(train, qs, kind, 1.0, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * buffer, f"peak {peak / buffer:.2f} buffers"

    def test_query_shape_mismatch(self):
        train = labeled([np.ones((4, 4))], [0])
        with pytest.raises(ShapeError):
            classify(train, sig(np.ones((5, 5))), 1, "wiener_ti")


class TestKnnClassify:
    def test_single_sample_forces_its_label(self):
        train = labeled([np.ones((3, 3))], [7])
        rng = np.random.default_rng(1)
        assert classify(train, sig(rng.random((3, 3))), 1, "manhattan") == 7

    @pytest.mark.parametrize("kind", ["manhattan", "wiener_ti"])
    def test_query_equal_to_training_sample(self, kind):
        base = make_digit_set(20, size=8, seed=2)
        pred = classify(base, base.stack[4], 1, kind, 1.0)
        assert pred == base.label_ids.tolist()[4]

    def test_majority_vote(self):
        train = labeled([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0]], [1, 1, 2])
        assert classify(train, sig([0.0, 0.05]), 3, "manhattan") == 1

    def test_tie_broken_by_summed_distance(self):
        train = labeled([[0.0, 0.0], [1.0, 1.0], [0.3, 0.0], [0.8, 1.0]], [3, 3, 5, 5])
        # k=4: two votes each; class 5 has the smaller summed distance to the query
        assert classify(train, sig([0.4, 0.2]), 4, "manhattan") == 5

    def test_exact_tie_falls_back_to_lowest_class(self):
        train = labeled([[1.0, 0.0], [0.0, 1.0]], [6, 4])
        assert classify(train, sig([0.5, 0.5]), 2, "manhattan") == 4

    def test_k_bounds(self):
        train = labeled([[0.0]], [0])
        with pytest.raises(ConfigError):
            classify(train, sig([0.0]), 2, "manhattan")
        with pytest.raises(ConfigError):
            classify(LabeledSet([], []), sig([0.0]), 1, "manhattan")


class TestMakeTranslatedSet:
    def test_zero_shift_is_padded_copy(self):
        base = make_digit_set(5, size=8, seed=3)
        out = make_translated_set(base, 0, 4, seed=0)
        assert out.shape == (16, 16)
        np.testing.assert_array_equal(out.stack[2, 0, 4:12, 4:12], base.stack[2, 0])

    def test_deterministic_under_seed(self):
        base = make_digit_set(10, size=8, seed=4)
        a = make_translated_set(base, 3, 4, seed=12)
        b = make_translated_set(base, 3, 4, seed=12)
        np.testing.assert_array_equal(a.stack, b.stack)

    def test_mass_preserved(self):
        # pad+roll is a pure rearrangement: the nonzero pixel multiset is
        # untouched, so mass is preserved exactly (up to summation order)
        base = make_digit_set(10, size=8, seed=5)
        out = make_translated_set(base, 4, 4, seed=13)
        for s_in, s_out in zip(base.stack, out.stack):
            np.testing.assert_array_equal(np.sort(s_out[s_out != 0]), np.sort(s_in[s_in != 0]))
            assert s_out.sum() == pytest.approx(s_in.sum(), abs=1e-12)

    @pytest.mark.parametrize("max_shift, pad", [(0, 6), (6, 6), (3, 6), (2, 2)])
    def test_bytes_match_pad_and_roll(self, max_shift, pad):
        base = make_digit_set(40, size=8, seed=18)
        out = make_translated_set(base, max_shift, pad, seed=19)
        rng = np.random.default_rng(19)
        for s_in, s_out in zip(base.stack, out.stack):
            planes = np.pad(s_in, ((0, 0), (pad, pad), (pad, pad)))
            dr, dc = rng.integers(-max_shift, max_shift + 1, size=2)
            planes = np.roll(planes, (int(dr), int(dc)), axis=(1, 2))
            assert s_out.shape == planes.shape and s_out.shape[0] == 1
            assert s_out.tobytes() == planes.tobytes()

    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("size", [8, 16])
    @pytest.mark.parametrize("max_shift", [0, 3])
    @pytest.mark.parametrize("channels", [1, 2])
    def test_bytes_match_per_image_loop(self, seed, size, max_shift, channels):
        planes = np.random.default_rng(seed).random((13, channels, size, size))
        base = LabeledSet(planes, np.arange(13) % 10)
        pad = 4
        out = make_translated_set(base, max_shift, pad, seed=seed)
        # reference: each image written at its drawn offset into its own canvas
        rng = np.random.default_rng(seed)
        expected = np.zeros((13, channels, size + 2 * pad, size + 2 * pad))
        for canvas, image in zip(expected, planes):
            dr, dc = rng.integers(-max_shift, max_shift + 1, size=2)
            canvas[:, pad + dr : pad + dr + size, pad + dc : pad + dc + size] = image
        assert out.stack.shape == expected.shape
        assert out.stack.tobytes() == expected.tobytes()
        assert out.label_ids.tolist() == base.label_ids.tolist()

    def test_rank_one_set_rejected(self):
        with pytest.raises(ShapeError):
            make_translated_set(LabeledSet(np.ones((2, 1, 5)), [0, 1]), 0, 2, seed=0)

    def test_shift_exceeding_pad_rejected(self):
        base = make_digit_set(2, size=8, seed=6)
        with pytest.raises(ConfigError):
            make_translated_set(base, 5, 4, seed=0)

    def test_negative_seed_is_a_config_error(self):
        base = make_digit_set(2, size=8, seed=6)
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            make_translated_set(base, 2, 4, seed=-1)


class TestTranslationInvariantRanking:
    def test_rankings_identical_under_query_shift(self):
        # tiny lambda keeps the distance exactly invariant; images carry enough
        # zero margin that shifts never wrap
        base = make_digit_set(12, size=8, seed=7)
        train = make_translated_set(base, 0, 6, seed=0)
        lam = 1e-12
        qbase = make_digit_set(3, size=8, seed=8)
        qpad = make_translated_set(qbase, 0, 6, seed=0)
        rng = np.random.default_rng(9)
        for q in qpad.stack:
            d0 = to_set(q, train, "wiener_ti", lam)
            k = tuple(int(v) for v in rng.integers(-6, 7, size=2))
            shifted = np.roll(q[0], k, axis=(0, 1))[None]
            d1 = to_set(shifted, train, "wiener_ti", lam)
            np.testing.assert_allclose(d0, d1, atol=1e-9)
            np.testing.assert_array_equal(np.argsort(d0, kind="stable"), np.argsort(d1, kind="stable"))


class TestAllQueriesDistanceMatrix:
    # 13 training samples with 2 channels; 10x12 padded extents per plane
    @pytest.mark.parametrize(
        "budget",
        [
            None,  # the library's chunk budget: one tile, one block of all 13 rows
            3 * 5 * 2 * 120,  # tiles of 3 training samples x all 5 queries; 13 % 3 != 0
            2 * 2 * 120,  # tiles of 1 training sample x 2 queries; 5 % 2 != 0
            2 * 120,  # blocks of 1 training row
            3 * 2 * 120,  # blocks of 3 training rows; 13 % 3 != 0
            13 * 2 * 120,  # one block of exactly the 13 rows
        ],
    )
    def test_ti_matrix_equals_per_pair_ti_distance(self, monkeypatch, budget):
        if budget is not None:
            monkeypatch.setattr(wiener, "TI_CHUNK_ELEMENTS", budget)
        rng = np.random.default_rng(60)
        train = LabeledSet(rng.random((13, 2, 5, 6)), np.arange(13) % 10)
        qs = rng.random((5, 2, 5, 6))
        lam = 0.5
        matrix, exact = _distance_matrix(train, qs, "wiener_ti", lam, len(train))
        assert exact == 1.0
        pairs = [
            [ti_distance(q, t, lam) for t in train.stack] for q in qs
        ]
        assert matrix.shape == (5, 13)
        np.testing.assert_array_equal(matrix, pairs)

    @pytest.mark.parametrize("kind", ["manhattan", "wiener_ti"])
    def test_evaluate_accuracy_matches_per_query_classification(self, kind):
        train = make_translated_set(make_digit_set(37, size=8, seed=61), 0, 2, seed=1)
        test = make_translated_set(make_digit_set(11, size=8, seed=62), 2, 2, seed=2)
        res = evaluate_accuracy(train, test, 3, kind, 1.0)
        expected = [classify(train, q, 3, kind, 1.0) for q in test.stack]
        assert res.predictions == expected
        confusion = np.zeros((10, 10), dtype=int)
        for lab, pred in zip(test.label_ids.tolist(), expected):
            confusion[lab, pred] += 1
        np.testing.assert_array_equal(res.confusion, confusion)
        labels = test.label_ids.tolist()
        assert res.accuracy == sum(p == l for p, l in zip(expected, labels)) / len(test)

    @pytest.mark.parametrize("k", [2.5, 2.0, "2", None, True])
    def test_non_integer_k_is_a_config_error(self, k):
        base = make_digit_set(4, size=8, seed=63)
        with pytest.raises(ConfigError, match="k must be an integer"):
            evaluate_accuracy(base, base, k, "manhattan")

    @pytest.mark.parametrize("kind", ["manhattan", "wiener_ti"])
    def test_numpy_integer_k_is_accepted(self, kind):
        base = make_digit_set(6, size=8, seed=64)
        want = evaluate_accuracy(base, base, 3, kind).predictions
        for k in (np.int64(3), np.uint8(3), np.int32(3)):
            assert evaluate_accuracy(base, base, k, kind).predictions == want

    def test_k_checked_before_any_distance(self):
        base = make_digit_set(4, size=8, seed=63)
        with pytest.raises(ConfigError):
            evaluate_accuracy(base, base, 5, "wiener_ti")

    def test_channel_mismatch(self):
        train = LabeledSet(np.ones((2, 2, 3, 3)), [0, 1])
        test = LabeledSet(np.ones((2, 1, 3, 3)), [0, 1])
        with pytest.raises(ShapeError):
            evaluate_accuracy(train, test, 1, "manhattan")


class TestEvaluateAccuracy:
    def test_self_test_is_perfect(self):
        base = make_digit_set(30, size=8, seed=10)
        res = evaluate_accuracy(base, base, 1, "manhattan")
        assert res.accuracy == 1.0
        assert res.confusion.trace() == 30

    def test_single_class_training_set(self):
        ones = make_digit_set(30, size=8, seed=11)
        ones_planes = ones.stack[ones.label_ids == 1]
        train = LabeledSet(ones_planes, [1] * len(ones_planes))
        test = make_digit_set(40, size=8, seed=12)
        res = evaluate_accuracy(train, test, 1, "manhattan")
        freq = sum(1 for l in test.label_ids.tolist() if l == 1) / len(test)
        assert res.accuracy == pytest.approx(freq)

    def test_confusion_rows_sum_to_class_counts(self):
        train = make_digit_set(50, size=8, seed=13)
        test = make_digit_set(20, size=8, seed=14)
        res = evaluate_accuracy(train, test, 3, "manhattan")
        for c in range(10):
            assert res.confusion[c].sum() == sum(1 for l in test.label_ids.tolist() if l == c)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            evaluate_accuracy(
                make_digit_set(10, size=8, seed=15),
                make_digit_set(10, size=9, seed=16),
                1,
                "manhattan",
            )


class TestDigitGlyphs:
    def test_ten_distinct_glyphs(self):
        assert _BITMAPS.shape == (10, 7, 5)
        for d, g in enumerate(_BITMAPS):
            for other in _BITMAPS[d + 1 :]:
                assert np.any(g != other)

    def test_negative_seed_is_a_config_error(self):
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            make_digit_set(3, seed=-1)

    def test_bitmaps_match_string_table(self):
        from wienerlab.datasets import _GLYPHS

        for d, rows in enumerate(_GLYPHS):
            expected = np.array([[float(c) for c in row] for row in rows])
            np.testing.assert_array_equal(_BITMAPS[d], expected)

    def test_digit_set_values_in_unit_interval(self):
        s = make_digit_set(30, size=8, seed=17)
        assert s.stack.min() >= 0.0 and s.stack.max() <= 1.0
        assert s.label_ids.tolist()[:10] == list(range(10))


def reference_digit_set(n, size, seed, noise, jitter, intensity=(0.7, 1.0)) -> np.ndarray:
    """The per-sample loop that make_digit_set replaced: one digit at a time."""
    rng = np.random.default_rng(seed)
    row0, col0 = (size - 7) // 2, (size - 5) // 2
    images = []
    for i in range(n):
        dr = int(rng.integers(0, 2)) if jitter else 0
        dc = int(rng.integers(-1, 2)) if jitter else 0
        r = min(max(row0 + dr, 0), size - 7)
        c = min(max(col0 + dc, 0), size - 5)
        img = np.zeros((size, size))
        img[r : r + 7, c : c + 5] = _BITMAPS[i % 10] * rng.uniform(*intensity)
        if noise > 0:
            img = img + rng.normal(0.0, noise, size=img.shape)
        images.append(np.clip(img, 0.0, 1.0))
    return np.stack(images)[:, np.newaxis]


class TestDigitSetMatchesPerSampleLoop:
    @pytest.mark.parametrize("seed", [0, 3, 11])
    @pytest.mark.parametrize("size", [8, 16])
    @pytest.mark.parametrize(
        "noise, jitter", [(0.05, True), (0.05, False), (0.0, True), (0.0, False)]
    )
    def test_bytes_match(self, seed, size, noise, jitter):
        out = make_digit_set(23, size=size, seed=seed, noise=noise, jitter=jitter)
        expected = reference_digit_set(23, size, seed, noise, jitter)
        assert out.stack.shape == expected.shape == (23, 1, size, size)
        assert out.stack.tobytes() == expected.tobytes()
        assert out.label_ids.tolist() == [i % 10 for i in range(23)]

    def test_intensity_range_and_large_noise(self):
        out = make_digit_set(30, size=9, seed=4, noise=0.7, intensity=(0.2, 0.3))
        expected = reference_digit_set(30, 9, 4, 0.7, True, intensity=(0.2, 0.3))
        assert out.stack.tobytes() == expected.tobytes()


class TestTranslatedQueryConsistency:
    def test_predictions_stable_under_translation(self):
        # 200 query digits classified against a 500-sample padded training
        # set, once unshifted and once shifted by up to 25% of the width;
        # pre-build simulation measured 200/200 agreement, the gate is the
        # calibrated >= 95%
        train = make_translated_set(make_digit_set(500, size=8, seed=11), 0, 6, seed=1)
        qbase = make_digit_set(200, size=8, seed=77)
        plain = make_translated_set(qbase, 0, 6, seed=3)
        shifted = make_translated_set(qbase, 5, 6, seed=4)  # 5 px <= 25% of 20
        a = evaluate_accuracy(train, plain, 10, "wiener_ti", 1.0).predictions
        b = evaluate_accuracy(train, shifted, 10, "wiener_ti", 1.0).predictions
        assert sum(int(p == q) for p, q in zip(a, b)) >= 190


def _pruning_case(data):
    """A random training set and queries with exact ties (duplicated training
    rows), exact translates (a spike filter, where the bound is tight), an
    all-zero query (a constant filter when lambda is 0) and near-constant
    planes: a constant plus noise at 1e-12 relative, and zero-mean training
    rows, whose filter against the zero query at small lambda is a constant
    plus a relative 1e-12, so that the bound on its spread rests on its slack."""
    rank = data.draw(st.sampled_from([1, 2]), label="rank")
    extents = tuple(data.draw(st.integers(2, 6), label="extent") for _ in range(rank))
    channels = data.draw(st.integers(1, 3), label="channels")
    n = data.draw(st.integers(1, 12), label="n")
    lam = data.draw(st.sampled_from([0.0, 1e-12, 0.3, 2.0, 1e8]), label="lam")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    # content in the leading half of each extent, so a shift by less than
    # half an extent is an exact translate that never wraps
    block = (slice(None), slice(None)) + tuple(slice(0, (e + 1) // 2) for e in extents)
    train = np.zeros((n, channels) + extents)
    train[block] = 0.1 + rng.random(train[block].shape)
    lags = tuple(range(1, rank + 1))

    def near_constant():
        return rng.uniform(0.5, 2.0) * (1 + 1e-12 * rng.standard_normal((channels,) + extents))

    for i in range(n):
        kind = rng.random()
        if kind < 0.15:
            train[i] = near_constant()
        elif kind < 0.3 and lam > 0:  # a zero DC bin is singular at lambda 0
            train[i] -= train[i].mean(axis=lags, keepdims=True)
    for i in range(1, n):
        if rng.random() < 0.3:
            train[i] = train[rng.integers(i)]
    queries = [rng.random((channels,) + extents), np.zeros((channels,) + extents), near_constant()]
    for _ in range(data.draw(st.integers(0, 3), label="translates")):
        shift = tuple(int(rng.integers(0, e // 2 + 1)) for e in extents)
        queries.append(np.roll(train[rng.integers(n)], shift, axis=lags))
    k = data.draw(st.one_of(st.sampled_from([1, n]), st.integers(1, n)), label="k")
    labels = rng.integers(0, 10, size=n)
    return LabeledSet(train, labels), np.array(queries), lam, k


def _block_budget(train, rows):
    """A TI_CHUNK_ELEMENTS that streams `train` in blocks of `rows` training rows."""
    return rows * math.prod(full_lag(train.shape)) * train.stack.shape[1]


class TestPrunedTiMatrix:
    # blocks of 1 training row, of 3 (which need not divide n), of at least n
    # rows, and the library's budget
    @pytest.mark.parametrize("rows", [1, 3, "n", None])
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_pruned_neighbours_and_votes_equal_the_full_matrix(self, data, rows):
        train, qs, lam, k = _pruning_case(data)
        with pytest.MonkeyPatch.context() as mp:
            if rows is not None:
                budget = _block_budget(train, len(train) if rows == "n" else rows)
                mp.setattr(wiener, "TI_CHUNK_ELEMENTS", budget)
            full, everything = _distance_matrix(train, qs, "wiener_ti", lam, len(train))
            pruned, fraction = _distance_matrix(train, qs, "wiener_ti", lam, k)
        # the bounds, and so the prunes, do not move with the block size
        assert pruned.tobytes() == _distance_matrix(train, qs, "wiener_ti", lam, k)[0].tobytes()
        assert everything == 1.0 and 0.0 < fraction <= 1.0
        assert np.isfinite(full).all()
        computed = np.isfinite(pruned)
        assert fraction == computed.mean()
        # every computed entry is the full matrix's, and pruned ones are +inf
        assert pruned[computed].tobytes() == full[computed].tobytes()
        assert np.all(pruned[~computed] == np.inf)
        for row, want in zip(pruned, full):
            nearest = np.argsort(row, kind="stable")[:k]
            np.testing.assert_array_equal(nearest, np.argsort(want, kind="stable")[:k])
            assert row[nearest].tobytes() == want[nearest].tobytes()
            assert _vote(row, train.label_ids, k) == _vote(want, train.label_ids, k)
        # each bound is a lower bound on its plane's and its pair's exact
        # value, and a constant plane's bound is -inf
        kernel = QuotientKernel(train.stack[:, np.newaxis], train.shape, lam)
        bounds = kernel.ti_bounds(qs)
        values, constant = kernel.ti_values(qs)
        assert np.all(bounds <= values)
        assert np.all(bounds[constant] == -np.inf)
        lower = bounds.mean(axis=-1).T
        assert np.all(lower <= full)
        # and the exact values are the pairwise ti_distance, bit for bit
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # constant filters
            pairs = [
                [ti_distance(q, t, lam) for t in train.stack] for q in qs
            ]
        assert full.tobytes() == np.array(pairs).tobytes()

    def test_peak_memory_is_below_half_the_whole_set_kernel(self):
        # 1000 training digits padded to 20 x 20: their K and L would take
        # 1000 x 40 x 21 x 24 B, about 20 MB; the streamed passes hold one
        # block of rows at a time, besides the (m, n) bounds and distances
        train = make_translated_set(make_digit_set(1000, size=8, seed=11), 0, 6, seed=1)
        test = make_translated_set(make_digit_set(5, size=8, seed=77), 6, 6, seed=4)
        whole = len(train) * 40 * 21 * 24
        tracemalloc.start()
        try:
            evaluate_accuracy(train, test, 10, "wiener_ti")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < whole / 2, f"peak {peak / 2**20:.1f} MiB"

    def test_pruning_is_on_for_translated_digits(self):
        train = make_translated_set(make_digit_set(200, size=8, seed=11), 0, 6, seed=1)
        test = make_translated_set(make_digit_set(20, size=8, seed=77), 5, 6, seed=4)
        res = evaluate_accuracy(train, test, 10, "wiener_ti", 1.0)
        assert res.exact_fraction < 0.2
        full, _ = _distance_matrix(train, test.stack, "wiener_ti", 1.0, len(train))
        assert res.predictions == [_vote(row, train.label_ids, 10) for row in full]

    def test_element_wise_kinds_are_exact_everywhere(self):
        base = make_digit_set(12, size=8, seed=66)
        assert evaluate_accuracy(base, base, 1, "manhattan").exact_fraction == 1.0
