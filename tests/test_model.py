from dataclasses import replace

import numpy as np
import pytest

from noisylab.annotators import train_with_confusion
from noisylab.data import gen_blobs, split
from noisylab.losses import LossSpec
from noisylab.model import (DivergedError, TrainConfig, backward_batch, fit,
                            forward, forward_batch, grad_check, init, train)
from noisylab.noise import symmetric_transition
from noisylab.numerics import Rng, softmax
from noisylab.procedures import train_dual_relabel


class TestInit:
    def test_deterministic(self):
        a, b = init("mlp", 3, 2, 7), init("mlp", 3, 2, 7)
        for name in a.arrays:
            assert np.array_equal(a.arrays[name], b.arrays[name])

    def test_zero_biases(self):
        p = init("linear", 4, 3, 1)
        assert np.all(p.arrays["b"] == 0)

    def test_shapes(self):
        p = init("linear", 2, 3, 1)
        assert p.arrays["W"].shape == (2, 3)
        m = init("mlp", 5, 4, 1, hidden=16)
        assert m.arrays["W1"].shape == (5, 16)
        assert m.arrays["W2"].shape == (16, 4)

    # 0 and -4 ran as width 1 and 2.5 as width 2; "8" was a TypeError
    @pytest.mark.parametrize("hidden", ["8", 0, -4, 2.5, True])
    def test_hidden_must_be_a_positive_integer(self, hidden):
        with pytest.raises(ValueError, match="hidden must be an integer >= 1"):
            init("mlp", 2, 3, 0, hidden=hidden)

    def test_dual_relabel_widths(self):
        ds = gen_blobs(2, 10, 2, 8.0, 0)
        small, large, _, _ = train_dual_relabel(
            ds, TrainConfig(epochs=1, hidden=32))
        assert (small.hidden, large.hidden) == (26, 40)
        assert small.arrays["W1"].shape == (2, 26)
        assert large.arrays["W1"].shape == (2, 40)


class TestForward:
    def test_zero_weights_uniform_softmax(self):
        p = init("linear", 2, 3, 1)
        p.arrays["W"][:] = 0.0
        assert np.allclose(softmax(forward(p, [1.0, -2.0])), 1 / 3)

    def test_mlp_zero_second_layer(self):
        p = init("mlp", 2, 3, 1)
        p.arrays["W2"][:] = 0.0
        p.arrays["b2"][:] = [1.0, 2.0, 3.0]
        for x in ([0.0, 0.0], [5.0, -5.0]):
            assert np.allclose(forward(p, x), [1.0, 2.0, 3.0])

    def test_dimension_mismatch(self):
        p = init("linear", 2, 3, 1)
        with pytest.raises(ValueError):
            forward(p, [1.0, 2.0, 3.0])

    def test_fit_checks_the_model_against_the_data_once(self):
        # the steps no longer check their batches: fit refuses a model
        # of another feature count before the first one
        ds = gen_blobs(3, 5, 2, 8.0, 0)
        with pytest.raises(ValueError, match="expected 3 features, got 2"):
            fit(ds, TrainConfig(epochs=1),
                lambda probs, idx: pytest.fail("stepped"),
                params=init("linear", 3, 3, 1))


class TestBackward:
    def test_zero_upstream(self):
        p = init("mlp", 2, 3, 1)
        _, cache = forward_batch(p, [[1.0, 2.0]])
        grads = backward_batch(p, np.zeros((1, 3)), cache)
        assert all(np.all(g == 0) for g in grads.values())

    def test_linear_outer_product(self):
        p = init("linear", 2, 3, 1)
        x = np.array([1.5, -0.5])
        g = np.array([0.2, -0.1, -0.1])
        _, cache = forward_batch(p, x[None, :])
        grads = backward_batch(p, g[None, :], cache)
        assert np.allclose(grads["W"], np.outer(x, g))
        assert np.allclose(grads["b"], g)


class TestGradCheck:
    T = symmetric_transition(3, 0.2)
    SPECS = [LossSpec("ce"), LossSpec("mae"),
             LossSpec("smooth_kl", epsilon=0.1),
             LossSpec("backward", transition=T),
             LossSpec("forward", transition=T)]

    @pytest.mark.parametrize("arch", ["linear", "mlp"])
    def test_all_losses(self, arch):
        rng = Rng(11)
        params = init(arch, 2, 3, 11, hidden=8)
        for spec in self.SPECS:
            for _ in range(5):
                x = rng.normal(2)
                y = int(rng.integers(0, 3))
                p = softmax(forward(params, x))
                if spec.kind == "mae" and (p.max() > 1 - 1e-6
                                           or p.min() < 1e-6):
                    continue  # non-smooth corner
                assert grad_check(params, x, y, spec) < 1e-5

    def test_epsilon_range(self):
        params = init("linear", 2, 2, 0)
        with pytest.raises(ValueError):
            grad_check(params, [0.0, 0.0], 0, LossSpec("ce"), epsilon=1e-3)


class TestNoiseLayer:
    # the layer is the one-annotator, unpenalized confusion that
    # annotators.train_with_confusion trains next to the classifier
    def test_realized_transition_row_stochastic(self):
        ds = gen_blobs(3, 30, 2, 1.0, 6)
        ds = replace(ds, annotator_labels=ds.labels[:, None])
        for lr in (0.1, 5.0):
            _, model, _ = train_with_confusion(
                ds, TrainConfig(epochs=3, seed=6, learning_rate=lr), 0.0)
            (A,) = model.confusions
            assert np.allclose(A.t.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(A.t > 0.0)


class TestTrain:
    def test_clean_blobs_high_accuracy(self):
        full = gen_blobs(2, 200, 2, 8.0, 1)
        tr, te = split(full, 0.25, 2)
        _, hist = train(tr, TrainConfig(epochs=30, seed=3), te)
        assert hist[-1]["test_accuracy"] >= 0.99

    def test_zero_learning_rate(self):
        ds = gen_blobs(2, 20, 2, 8.0, 1)
        cfg = TrainConfig(epochs=3, seed=4, learning_rate=0.0)
        before = init("linear", 2, 2, 4)
        after, _ = train(ds, cfg)
        for name in before.arrays:
            assert np.array_equal(before.arrays[name], after.arrays[name])

    def test_bit_reproducible(self):
        ds = gen_blobs(3, 50, 2, 8.0, 5)
        cfg = TrainConfig(epochs=5, seed=6, arch="mlp")
        p1, h1 = train(ds, cfg)
        p2, h2 = train(ds, cfg)
        assert h1 == h2
        for name in p1.arrays:
            assert np.array_equal(p1.arrays[name], p2.arrays[name])

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_divergence_guard_names_epoch(self):
        ds = gen_blobs(2, 50, 2, 8.0, 7)
        cfg = TrainConfig(epochs=5, seed=8, learning_rate=1e12, arch="mlp")
        with pytest.raises(DivergedError, match="epoch"):
            train(ds, cfg)

