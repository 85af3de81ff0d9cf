import re
import warnings

import numpy as np
import pytest

from noisylab.data import gen_blobs
from noisylab.losses import LossSpec, SingularTransitionError
from noisylab.model import TrainConfig, predict_probs, train
from noisylab.noise import TransitionMatrix, inject, symmetric_transition
from noisylab.numerics import Rng
from noisylab.reweight import (RunningLossFilter, _PumpoutHook, rank_prune,
                               trimmed_filter)


def skipped(f, loss):
    """The filter's decision on one loss."""
    return bool(f.observe_batch([loss])[0])


def pumpout_weight(T, base, probs, gamma):
    """The pumpout hook's weight of one row (observed label 0; the rule
    reads only the probabilities)."""
    hook = _PumpoutHook(T, gamma, base)
    return hook.batch_weights(np.zeros(1), np.asarray(probs)[None, :],
                              np.zeros(1, dtype=int))[0]


class TestRunningLossFilter:
    def test_warmup_always_updates(self):
        f = RunningLossFilter(warmup=30)
        # wildly varying losses during warmup never skip
        for i in range(30):
            assert not skipped(f, float(i * 100))

    def test_threshold_arithmetic(self):
        f = RunningLossFilter(warmup=30, multiplier=1.5)
        # buffer: mean 1.0, sigma 0.2 (alternating 0.8 / 1.2)
        for i in range(40):
            skipped(f, 0.8 if i % 2 == 0 else 1.2)
        assert skipped(f, 1.4)    # 1.4 > 1.0 + 1.5*0.2
        assert not skipped(f, 1.25)

    def test_constant_buffer_sigma_floor(self):
        f = RunningLossFilter(warmup=30)
        for _ in range(50):
            assert not skipped(f, 1.0)
        assert not skipped(f, 1e9)  # sigma 0, floor guard

    def test_nonfinite_rejected(self):
        f = RunningLossFilter()
        with pytest.raises(ValueError):
            skipped(f, float("nan"))

    def test_skipped_losses_enter_window(self):
        f = RunningLossFilter(warmup=5, window=100)
        for i in range(10):
            skipped(f, 1.0 + 0.01 * (i % 2))
        skipped(f, 50.0)
        assert 50.0 in f.buffer

    @pytest.mark.parametrize("warmup", [-1, -0.5, float("nan")])
    def test_negative_warmup_rejected(self, warmup):
        with pytest.raises(ValueError, match=re.escape(
                "RunningLossFilter: warmup must be in [0, inf), got")):
            RunningLossFilter(warmup=warmup)

    def test_zero_warmup_never_scores_an_empty_window(self):
        # the first loss was decided on the mean and std of no losses:
        # "Mean of empty slice" under -W error, RuntimeWarnings otherwise
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = RunningLossFilter(warmup=0, window=4)
            assert not skipped(f, 5.0)   # no losses before it
            assert not skipped(f, 7.0)   # sigma 0, floor guard
            assert skipped(f, 9.0)       # 9 > 6 + 1.5 * 1
            assert RunningLossFilter(warmup=0).observe_batch(
                [1.0, 3.0, 9.0]).tolist() == [False, False, True]

    def test_gaussian_skip_rate(self):
        # one-sided 1.5 sigma normal tail is ~6.7%
        rng = Rng(99)
        f = RunningLossFilter()
        xs = 5.0 + rng.normal(100_000)
        skips = sum(1 for x in xs if skipped(f, float(x)))
        assert abs(skips / 100_000 - 0.067) < 0.01


class TestRankPrune:
    def test_ranking(self):
        kept = rank_prune([0.9, 0.1, 0.8, 0.2], [0, 0, 0, 0], 0.5)
        assert kept.tolist() == [True, False, True, False]

    def test_zero_fraction(self):
        kept = rank_prune([0.5, 0.5], [0, 1], 0.0)
        assert kept.tolist() == [True, True]

    def test_tie_removes_lower_index(self):
        kept = rank_prune([0.5, 0.5, 0.5, 0.5], [0, 0, 0, 0], 0.25)
        assert kept.tolist() == [False, True, True, True]

    def test_per_class_protects_small_class(self):
        # global pruning would drop the whole low-confidence class
        conf = [0.9, 0.9, 0.9, 0.1, 0.1]
        labels = [0, 0, 0, 1, 1]
        kept = rank_prune(conf, labels, 0.5, per_class=True)
        assert np.any(kept & (np.array(labels) == 1))

    def test_flagging_noisy_blobs(self):
        # frozen seeded oracle: MAE model confidences separate flipped labels
        full = gen_blobs(2, 500, 2, 8.0, 5)
        noisy = inject(full, symmetric_transition(2, 0.3), Rng(50))
        view = noisy.training_view()
        p, _ = train(view, TrainConfig(epochs=10, seed=51,
                                       loss=LossSpec("mae")))
        probs = predict_probs(p, view.features)
        conf = probs[np.arange(view.n), view.labels]
        kept = rank_prune(conf, view.labels, 0.3)
        flagged = ~kept
        true_flip = noisy.labels != noisy.true_labels
        tp = np.sum(flagged & true_flip)
        prec = tp / max(flagged.sum(), 1)
        rec = tp / max(true_flip.sum(), 1)
        f1 = 2 * prec * rec / (prec + rec)
        assert f1 >= 0.8

    def test_permutation_stability(self):
        rng = Rng(3)
        conf = rng.uniform(40)
        labels = rng.integers(0, 3, 40)
        kept = rank_prune(conf, labels, 0.25)
        perm = rng.permutation(40)
        kept_perm = rank_prune(conf[perm], labels[perm], 0.25)
        assert np.array_equal(kept[perm], kept_perm)


class TestTrimmedFilter:
    def test_max_removal(self):
        assert trimmed_filter([1.0, 9.0, 2.0, 3.0], 0.25).tolist() == [
            True, False, True, True]

    def test_zero_fraction_identity(self):
        assert trimmed_filter([5.0, 1.0], 0.0).tolist() == [True, True]

    def test_kept_size(self):
        rng = Rng(1)
        for n in (1, 7, 10, 33):
            losses = rng.uniform(n)
            for f in (0.1, 0.25, 0.5):
                kept = trimmed_filter(losses, f)
                assert kept.sum() == n - int(np.ceil(f * n))

    def test_tie_removes_higher_index(self):
        kept = trimmed_filter([2.0, 2.0, 2.0, 2.0], 0.25)
        assert kept.tolist() == [True, True, True, False]

    def test_never_removes_below_quantile(self):
        rng = Rng(2)
        losses = rng.uniform(50)
        kept = trimmed_filter(losses, 0.2)
        cutoff = np.quantile(losses, 0.8)
        assert np.all(kept[losses < cutoff])


class TestPumpout:
    T = TransitionMatrix(np.array([[0.8, 0.2], [0.3, 0.7]]))

    def test_identity_never_flags_ce(self):
        rng = Rng(4)
        I = TransitionMatrix(np.eye(3))
        from noisylab.numerics import softmax
        for _ in range(50):
            p = softmax(rng.normal(3))
            assert pumpout_weight(I, "ce", p, 0.1) == 1.0

    def test_hand_2x2(self):
        # l = [0.1, 2.0] -> T^-1 l = [-0.66, 3.14], sum 2.48 >= 0
        p = np.exp([-0.1, -2.0])
        assert pumpout_weight(self.T, "ce", p, 0.1) == 1.0

    def test_flagged_sample_scaled_ascent(self):
        # T = [[0.9,0.1],[0.6,0.4]]: columns of T^-1 sum to [-2/3, 8/3],
        # so l = [2.0, 0.1] gives 1^T T^-1 l = -1.067 < 0 -> flagged
        T = TransitionMatrix(np.array([[0.9, 0.1], [0.6, 0.4]]))
        p = np.exp([-2.0, -0.1])
        assert pumpout_weight(T, "ce", p, 0.1) == -0.1
        assert pumpout_weight(T, "ce", p, 0.25) == -0.25

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            pumpout_weight(self.T, "ce", np.array([0.5, 0.5]), 1.0)

    def test_singular_raises(self):
        bad = TransitionMatrix(np.array([[0.5, 0.5], [0.5, 0.5]]))
        with pytest.raises(SingularTransitionError):
            pumpout_weight(bad, "ce", np.array([0.5, 0.5]), 0.1)
