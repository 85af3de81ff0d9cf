import numpy as np
import pytest

from noisylab.losses import (LossSpec, SingularTransitionError,
                             backward_corrected, loss_and_grad, loss_value,
                             loss_vector, mae_grad_logits)
from noisylab.noise import TransitionMatrix, symmetric_transition
from noisylab.numerics import Rng, softmax

CE, MAE = LossSpec("ce"), LossSpec("mae")


def random_probs(rng, K, n=None):
    return softmax(3.0 * rng.normal(K if n is None else (n, K)))


def values(spec, P, y):
    return loss_and_grad(spec, P, y)[0]


def grads(spec, P, y):
    return loss_and_grad(spec, P, y)[1]


class TestCE:
    def test_perfect_prediction(self):
        p = np.array([0.0, 1.0, 0.0])
        assert loss_value(CE, p, 1) == pytest.approx(0.0, abs=1e-9)

    def test_hand_value(self):
        assert loss_value(CE, np.array([0.5, 0.5]), 0) == pytest.approx(
            np.log(2))

    def test_gradient_identity(self):
        g = grads(CE, np.array([[0.25, 0.75]]), [0])
        assert np.allclose(g, [[-0.75, 0.75]])

    def test_clamped_log(self):
        assert np.isfinite(loss_value(CE, np.array([0.0, 1.0]), 0))


class TestMAE:
    def test_perfect(self):
        assert loss_value(MAE, np.array([1.0, 0.0]), 0) == 0.0

    def test_uniform_k4(self):
        assert loss_value(MAE, np.full(4, 0.25), 2) == pytest.approx(1.5)

    def test_maximum(self):
        assert loss_value(MAE, np.array([0.0, 1.0]), 0) == 2.0

    def test_bounds(self):
        v = values(MAE, random_probs(Rng(1), 4, 100), np.zeros(100, int))
        assert np.all((0.0 <= v) & (v <= 2.0))


class TestMAEGradient:
    def test_norm_identity_at_half(self):
        # l1 norm = 4 p (1-p); p=0.5 gives 1.0
        p = np.array([0.5, 0.3, 0.2])
        assert np.abs(mae_grad_logits(p, 0)).sum() == pytest.approx(1.0)

    def test_zero_at_confident(self):
        p = np.array([1.0, 0.0])
        assert np.allclose(mae_grad_logits(p, 0), 0.0)

    def test_norm_identity_1000_random(self):
        rng = Rng(99)
        for K in range(2, 7):
            P = random_probs(rng, K, 200)
            y = rng.integers(0, K, size=200)
            norm = np.abs(grads(MAE, P, y)).sum(axis=1)
            p_y = P[np.arange(200), y]
            assert np.all(np.abs(norm - 4.0 * p_y * (1.0 - p_y)) < 1e-10)


class TestIMAEGradient:
    IMAE = LossSpec("imae", tau=8.0)

    def test_zero_at_confident(self):
        assert np.allclose(grads(self.IMAE, np.array([[1.0, 0.0]]), [0]), 0.0)

    def test_norm_at_half(self):
        # exp(8 * 0.5) * 0.5 = e^4 / 2
        norm = np.abs(grads(self.IMAE, np.array([[0.5, 0.5]]), [0])).sum()
        assert norm == pytest.approx(np.exp(4.0) * 0.5, rel=1e-12)

    def test_confident_correct_dominates(self):
        w_conf = np.exp(8.0 * 0.9) * 0.1
        w_unconf = np.exp(8.0 * 0.1) * 0.9
        # confident row, then unconfident row, both labelled 0
        P = np.array([[0.9, 0.1], [0.1, 0.9]])
        n_conf, n_unconf = np.abs(grads(self.IMAE, P, [0, 0])).sum(axis=1)
        assert n_conf == pytest.approx(w_conf, rel=1e-12)
        assert n_unconf == pytest.approx(w_unconf, rel=1e-12)
        assert n_conf > n_unconf

    def test_direction_matches_mae(self):
        P = random_probs(Rng(4), 3, 50)
        y = np.ones(50, int)
        for g_mae, g_imae in zip(grads(MAE, P, y), grads(self.IMAE, P, y)):
            # positive scalar multiple
            nz = np.abs(g_mae) > 1e-12
            ratio = g_imae[nz] / g_mae[nz]
            assert np.all(ratio > 0)
            assert np.allclose(ratio, ratio[0])


class TestSmoothKL:
    def test_epsilon_zero_is_ce_gradient(self):
        P = np.array([[0.2, 0.5, 0.3]])
        assert np.allclose(grads(LossSpec("smooth_kl", epsilon=0.0), P, [1]),
                           grads(CE, P, [1]))

    def test_zero_at_matching(self):
        q = np.array([0.9, 0.1])  # (1-0.2)*e_0 + 0.2/2
        assert loss_value(LossSpec("smooth_kl", epsilon=0.2), q, 0) == \
            pytest.approx(0.0, abs=1e-12)

    def test_nonnegative(self):
        P = random_probs(Rng(5), 3, 100)
        v = values(LossSpec("smooth_kl", epsilon=0.1), P, np.zeros(100, int))
        assert np.all(v >= -1e-12)


class TestLossVector:
    def test_symmetric(self):
        v = loss_vector("ce", np.array([0.5, 0.5]))
        assert np.allclose(v, np.log(2))

    def test_argmax_is_minimum(self):
        p = np.array([0.1, 0.6, 0.3])
        v = loss_vector("ce", p)
        assert v.argmin() == 1

    def test_length(self):
        assert len(loss_vector("mae", np.full(5, 0.2))) == 5


class TestBackwardCorrection:
    T = TransitionMatrix(np.array([[0.8, 0.2], [0.3, 0.7]]))

    def test_identity_reduces_to_base(self):
        p = np.array([0.3, 0.7])
        I = TransitionMatrix(np.eye(2))
        assert backward_corrected(I, p, 1) == pytest.approx(
            loss_value(CE, p, 1))

    def test_hand_2x2(self):
        # probs engineered so l_ce = [0.1, 2.0]; T^-1 = [[1.4,-0.4],[-0.6,1.6]]
        # (independent hand inversion); observed 0: 1.4*0.1 - 0.4*2.0 = -0.66
        p = np.exp([-0.1, -2.0])
        inv = np.array([[1.4, -0.4], [-0.6, 1.6]])
        assert np.allclose(inv @ self.T.t, np.eye(2))
        got = backward_corrected(self.T, p, 0)
        assert got == pytest.approx(float(inv[0] @ loss_vector("ce", p)),
                                    rel=1e-9)
        assert got == pytest.approx(-0.66, rel=1e-9)

    def test_negative_values_allowed(self):
        p = np.array([0.99, 0.01])
        assert backward_corrected(self.T, p, 0) < loss_value(CE, p, 0)

    def test_singular_raises_with_condition_number(self):
        bad = TransitionMatrix(np.array([[0.5, 0.5], [0.5, 0.5]]))
        with pytest.raises(SingularTransitionError, match="condition"):
            backward_corrected(bad, np.array([0.5, 0.5]), 0)

    def test_monte_carlo_unbiasedness(self):
        # E over noisy labels of corrected loss equals the clean loss
        rng = Rng(13)
        for _ in range(5):
            K = 3
            T = symmetric_transition(K, 0.25)
            p = random_probs(rng, K)
            y = int(rng.integers(0, K))
            clean = loss_value(CE, p, y)
            corrected = np.array([backward_corrected(T, p, j)
                                  for j in range(K)])
            exact_expectation = float(T.t[y] @ corrected)
            assert exact_expectation == pytest.approx(clean, rel=1e-9)


class TestForwardCorrection:
    T = TransitionMatrix(np.array([[0.8, 0.2], [0.3, 0.7]]))
    FORWARD = LossSpec("forward", transition=T)

    def test_identity_reduces_to_ce(self):
        p = np.array([0.25, 0.75])
        spec = LossSpec("forward", transition=TransitionMatrix(np.eye(2)))
        assert loss_value(spec, p, 1) == pytest.approx(loss_value(CE, p, 1))

    def test_hand_value(self):
        # q = T^T [1,0] = [0.8, 0.2]; -ln 0.2
        got = loss_value(self.FORWARD, np.array([1.0, 0.0]), 1)
        assert got == pytest.approx(-np.log(0.2), rel=1e-12)

    def test_nonnegative(self):
        P = random_probs(Rng(7), 2, 100)
        assert np.all(values(self.FORWARD, P, np.zeros(100, int)) >= 0.0)

    def test_symmetric_preserves_argmax(self):
        # for symmetric T with rho < (K-1)/K, argmax(T^T p) = argmax(p)
        rng = Rng(8)
        for K in (2, 3, 5):
            T = symmetric_transition(K, (K - 1) / K - 0.05)
            for _ in range(200):
                p = random_probs(rng, K)
                q = T.t.T @ p
                assert q.argmax() == p.argmax()


class TestLossSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            LossSpec("nope")
        with pytest.raises(ValueError):
            LossSpec("imae", tau=0.0)
        with pytest.raises(ValueError):
            LossSpec("smooth_kl", epsilon=1.0)
        with pytest.raises(ValueError):
            LossSpec("forward")

