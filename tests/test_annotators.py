import numpy as np
import pytest

from noisylab.annotators import (majority_vote, min_loss_labels, staple,
                                 train_min_loss_label, train_with_confusion)
from noisylab.data import gen_blobs, split
from noisylab.model import TrainConfig
from noisylab.noise import simulate_annotators, symmetric_transition
from noisylab.numerics import Rng, check_prob_vector


class TestMajorityVote:
    def test_basic(self):
        assert majority_vote([0, 0, 1]) == 0
        assert majority_vote([2, 2, 2]) == 2

    def test_tie_rule(self):
        assert majority_vote([0, 1]) == 0
        assert majority_vote([3, 1, 3, 1]) == 1

    def test_permutation_equivariance_untied(self):
        rng = Rng(5)
        for _ in range(50):
            labels = rng.integers(0, 4, 7)
            counts = np.bincount(labels, minlength=4)
            top = counts.max()
            if np.sum(counts == top) > 1:
                continue  # only untied inputs
            perm = rng.permutation(4)
            assert majority_vote(perm[labels]) == perm[majority_vote(labels)]


class TestStaple:
    def test_unanimous_consensus(self):
        L = np.tile(np.array([0, 1, 2, 1, 0])[:, None], (1, 4))
        post, model, fused, loglik = staple(L, 3)
        assert np.array_equal(fused, [0, 1, 2, 1, 0])
        for T in model.confusions:
            assert np.all(np.diag(T.t) > 0.9)

    def test_perfect_annotators_fast_convergence(self):
        rng = Rng(1)
        truth = rng.integers(0, 3, 200)
        L = np.tile(truth[:, None], (1, 3))
        _, _, fused, loglik = staple(L, 3)
        # loglik trace length = iterations + 1; converges in a few EM steps
        assert len(loglik) <= 5
        assert np.array_equal(fused, truth)

    def test_posteriors_valid(self):
        rng = Rng(2)
        L = rng.integers(0, 3, (50, 3))
        post, _, _, _ = staple(L, 3)
        for row in post:
            check_prob_vector(row)

    def test_loglik_nondecreasing(self):
        rng = Rng(3)
        L = rng.integers(0, 4, (200, 5))
        _, _, _, loglik = staple(L, 4)
        assert all(b - a >= -1e-9 for a, b in zip(loglik, loglik[1:]))

    def test_recovery_and_fusion_beats_best_annotator(self):
        # frozen seeded oracle (also exercised at full scale in acceptance)
        full = gen_blobs(3, 500, 2, 8.0, 9)
        rhos = [0.1, 0.15, 0.2, 0.25, 0.3]
        conf = [symmetric_transition(3, r) for r in rhos]
        ds = simulate_annotators(full, conf, Rng(90))
        _, model, fused, _ = staple(ds.annotator_labels, 3)
        for T, rho in zip(model.confusions, rhos):
            assert abs(float(np.diag(T.t).mean()) - (1 - rho)) < 0.05
        ann_acc = [np.mean(ds.annotator_labels[:, a] == ds.true_labels)
                   for a in range(5)]
        assert np.mean(fused == ds.true_labels) > max(ann_acc)

    def test_adversarial_annotator_identified(self):
        full = gen_blobs(3, 500, 2, 8.0, 9)
        rhos = [0.1, 0.15, 0.2, 0.25, 0.8]
        conf = [symmetric_transition(3, r) for r in rhos]
        ds = simulate_annotators(full, conf, Rng(91))
        _, model, _, _ = staple(ds.annotator_labels, 3)
        diags = [float(np.diag(T.t).mean()) for T in model.confusions]
        assert diags[-1] < 0.5
        assert all(d > 0.7 for d in diags[:-1])

    def test_requires_two_annotators(self):
        with pytest.raises(ValueError):
            staple(np.zeros((5, 1), dtype=int), 2)

    @pytest.mark.parametrize("bad", [-1, 2, 7])
    def test_label_outside_classes_is_named(self, bad):
        with pytest.raises(ValueError, match=f"label {bad} outside"):
            staple([[0, 1], [1, bad], [0, 0]], 2)

    # max_iters=2.5 escaped as a raw TypeError and True ran one iteration;
    # a NaN or negative tol ran silently to the cap
    @pytest.mark.parametrize("kwargs, message", [
        ({"max_iters": 2.5}, "max_iters must be an integer, got 2.5"),
        ({"max_iters": True}, "max_iters must be an integer, got True"),
        ({"tol": float("nan")}, "tol must be in [0, inf), got nan"),
        ({"tol": -1.0}, "tol must be in [0, inf), got -1.0"),
    ], ids=["fractional-iters", "bool-iters", "nan-tol", "negative-tol"])
    def test_loop_arguments_are_checked(self, kwargs, message):
        with pytest.raises(ValueError) as info:
            staple([[0, 1], [1, 1], [0, 0]], 2, **kwargs)
        assert str(info.value) == f"staple: {message}"

    def test_zero_iterations_and_integer_tol_accepted(self):
        L = [[0, 1], [1, 1], [0, 0]]
        _, _, _, loglik = staple(L, 2, max_iters=np.int64(0), tol=0)
        assert len(loglik) == 1


class TestMinLossLabel:
    def test_argmin(self):
        a, y = min_loss_labels([[0.2, 0.5, 0.1]], [[1, 2, 0]])
        assert (a.tolist(), y.tolist()) == ([2], [0])

    def test_tie_lowest_annotator(self):
        a, y = min_loss_labels([[0.3, 0.3, 0.3]], [[2, 1, 0]])
        assert (a.tolist(), y.tolist()) == ([0], [2])

    def test_single_annotator(self):
        a, y = min_loss_labels([[0.7]], [[1]])
        assert (a.tolist(), y.tolist()) == ([0], [1])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            min_loss_labels([[float("inf")]], [[0]])


class TestTrainWithConfusion:
    def test_missing_annotator_labels(self):
        ds = gen_blobs(2, 10, 2, 8.0, 1)
        with pytest.raises(ValueError):
            train_with_confusion(ds, TrainConfig(epochs=1, seed=0))

    def test_initial_confusions_diagonal_leaning(self):
        # identity-leaning init: row-softmax diagonal 0.8
        full = gen_blobs(2, 30, 2, 8.0, 2)
        ds = simulate_annotators(full, [symmetric_transition(2, 0.1)], Rng(3))
        cfg = TrainConfig(epochs=1, seed=4, learning_rate=0.0)
        _, model, _ = train_with_confusion(ds.training_view(), cfg, 0.0)
        for T in model.confusions:
            assert np.allclose(np.diag(T.t), 0.8, atol=1e-9)

    def test_estimated_confusions_row_stochastic(self):
        full = gen_blobs(2, 100, 2, 8.0, 5)
        conf = [symmetric_transition(2, r) for r in (0.1, 0.3)]
        ds = simulate_annotators(full, conf, Rng(6))
        cfg = TrainConfig(epochs=5, seed=7)
        _, model, _ = train_with_confusion(ds.training_view(), cfg, 0.01)
        for T in model.confusions:
            assert np.allclose(T.t.sum(axis=1), 1.0, atol=1e-9)

    def test_lambda_zero_control_runs(self):
        full = gen_blobs(2, 60, 2, 8.0, 8)
        ds = simulate_annotators(full, [symmetric_transition(2, 0.2)] * 2,
                                 Rng(9))
        cfg = TrainConfig(epochs=3, seed=10)
        params, model, hist = train_with_confusion(ds.training_view(), cfg,
                                                   0.0)
        assert len(hist) == 3


class TestTrainMinLossLabel:
    def test_runs_and_learns(self):
        full = gen_blobs(2, 200, 2, 8.0, 11)
        tr, te = split(full, 0.25, 12)
        conf = [symmetric_transition(2, r) for r in (0.1, 0.2, 0.4)]
        ds = simulate_annotators(tr, conf, Rng(13))
        cfg = TrainConfig(epochs=20, seed=14)
        params, hist = train_min_loss_label(ds.training_view(), cfg, te)
        assert hist[-1]["test_accuracy"] >= 0.95

