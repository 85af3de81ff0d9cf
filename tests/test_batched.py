"""Equivalence of the batched loss, noise-layer and label-draw code with the
per-sample formulas they replace.

The per-sample reference functions below are the direct one-sample forms
of each formula: a loop over rows of them is what the batched code must
reproduce, bit for bit where the arithmetic is the same and to 1e-12 where
the batched form sums in a different order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisylab.data import LabeledDataset
from noisylab.losses import (LOG_CLAMP, LossSpec, loss_and_grad,
                             loss_grad_logits, loss_value)
from noisylab.model import noise_layer_grads
from noisylab.noise import (TransitionMatrix, draw_labels, inject,
                            simulate_annotators)
from noisylab.numerics import Rng, sample_categorical, softmax

EXACT = ("ce", "mae", "imae", "smooth_kl")


def ref_loss_and_grad(spec, p, y):
    """One sample, written out per kind."""
    K = len(p)
    e = np.eye(K)[y]
    if spec.kind == "ce":
        return -np.log(max(float(p[y]), LOG_CLAMP)), p - e
    if spec.kind == "mae":
        return 2.0 * (1.0 - float(p[y])), -2.0 * p[y] * (e - p)
    if spec.kind == "imae":
        return (2.0 * (1.0 - float(p[y])),
                -0.5 * np.exp(spec.tau * p[y]) * (e - p))
    if spec.kind == "smooth_kl":
        q = np.full(K, spec.epsilon / K)
        q[y] += 1.0 - spec.epsilon
        nz = q > 0
        pc = np.maximum(p, LOG_CLAMP)
        return (float(np.sum(q[nz] * (np.log(q[nz]) - np.log(pc[nz])))),
                p - q)
    T = spec.transition.t
    if spec.kind == "backward":
        inv_row = np.linalg.solve(T.T, e)
        if spec.base == "ce":
            lv = -np.log(np.maximum(p, LOG_CLAMP))
            jac = p[None, :] - np.eye(K)
        else:
            lv = 2.0 * (1.0 - p)
            jac = -2.0 * p[:, None] * (np.eye(K) - p[None, :])
        return float(inv_row @ lv), inv_row @ jac
    q_y = max(float(T.T[y] @ p), LOG_CLAMP)
    v = -T[:, y] / q_y
    return -np.log(q_y), p * (v - float(v @ p))


def ref_noise_layer(q, p, y):
    """One sample through the noise layer: (dlogits, dq, value)."""
    A = softmax(q)
    s_y = max(float((A.T @ p)[y]), 1e-12)
    v = -A[:, y] / s_y
    dA = np.zeros_like(A)
    dA[:, y] = -p / s_y
    return (p * (v - float(v @ p)),
            A * (dA - np.sum(dA * A, axis=1, keepdims=True)), -np.log(s_y))


@st.composite
def batches(draw, max_k=6):
    """(probs (N, K), labels (N,)) with some near-one-hot rows."""
    K = draw(st.integers(2, max_k))
    N = draw(st.integers(1, 12))
    scale = draw(st.sampled_from([1.0, 5.0, 40.0]))
    logits = draw(st.lists(st.floats(-1.0, 1.0), min_size=N * K,
                           max_size=N * K))
    y = draw(st.lists(st.integers(0, K - 1), min_size=N, max_size=N))
    return softmax(scale * np.reshape(logits, (N, K))), np.array(y)


@st.composite
def transitions(draw, K, zeros=False):
    """Row-stochastic K x K matrix: diagonal-dominant (invertible) mixing
    of the identity with random rows, or with some entries zeroed."""
    raw = np.reshape(draw(st.lists(st.floats(0.0, 1.0), min_size=K * K,
                                   max_size=K * K)), (K, K))
    if zeros:
        raw = np.where(raw < 0.4, 0.0, raw)
    raw = raw + np.eye(K) * (1.0 if zeros else 1e-3)
    rows = raw / raw.sum(axis=1, keepdims=True)
    mix = draw(st.floats(0.0, 0.4)) if not zeros else 1.0
    return TransitionMatrix((1.0 - mix) * np.eye(K) + mix * rows)


def specs_for(K, T):
    return [LossSpec("ce"), LossSpec("mae"), LossSpec("imae", tau=8.0),
            LossSpec("smooth_kl", epsilon=0.0),
            LossSpec("smooth_kl", epsilon=0.1),
            LossSpec("backward", transition=T),
            LossSpec("backward", transition=T, base="mae"),
            LossSpec("forward", transition=T)]


class TestLossAndGrad:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_rows_match_per_sample_forms(self, data):
        P, y = data.draw(batches())
        T = data.draw(transitions(P.shape[1]))
        for spec in specs_for(P.shape[1], T):
            values, G = loss_and_grad(spec, P, y)
            assert values.shape == y.shape and G.shape == P.shape
            for r in range(len(y)):
                ref_v, ref_g = ref_loss_and_grad(spec, P[r], y[r])
                wrapped = (loss_value(spec, P[r], y[r]),
                           loss_grad_logits(spec, P[r], y[r]))
                for v, g in ((ref_v, ref_g), wrapped):
                    if spec.kind in EXACT:
                        assert values[r] == v
                        assert np.array_equal(G[r], g)
                    else:
                        assert np.allclose(values[r], v, rtol=1e-12,
                                           atol=1e-12)
                        assert np.allclose(G[r], g, rtol=1e-12, atol=1e-12)

    def test_unknown_kind(self):
        spec = LossSpec("ce")
        spec.kind = "nope"
        with pytest.raises(ValueError):
            loss_and_grad(spec, np.full((1, 2), 0.5), [0])

    def test_backward_caches_inverse(self):
        T = TransitionMatrix(np.array([[0.8, 0.2], [0.3, 0.7]]))
        spec = LossSpec("backward", transition=T)
        assert np.allclose(spec.t_inv @ T.t, np.eye(2))
        assert LossSpec("ce").t_inv is None


class TestNoiseLayerBatch:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_weighted_sum_of_per_sample_grads(self, data):
        P, y = data.draw(batches())
        K, N = P.shape[1], len(y)
        q = np.reshape(data.draw(st.lists(st.floats(-3.0, 3.0),
                                          min_size=K * K, max_size=K * K)),
                       (K, K))
        w = np.array(data.draw(st.lists(
            st.sampled_from([0.0, 1.0, -0.1, 0.5]), min_size=N, max_size=N)))
        G, gq, values = noise_layer_grads(q, P, y, lambda values: w)
        ref_gq = np.zeros((K, K))
        for r in range(N):
            g_log, g_q, val = ref_noise_layer(q, P[r], y[r])
            assert np.allclose(values[r], val, rtol=1e-12, atol=1e-12)
            assert np.allclose(G[r], w[r] * g_log, rtol=1e-12, atol=1e-12)
            ref_gq += w[r] * g_q
        assert np.allclose(gq, ref_gq, rtol=1e-12, atol=1e-12)

    def test_weights_from_values(self):
        P, y = softmax(np.array([[1.0, 0.0], [0.0, 2.0]])), np.array([0, 0])
        q = np.log(np.array([[0.8, 0.2], [0.3, 0.7]]))
        seen = []

        def weigh(values):
            seen.append(values)
            return np.array([1.0, 0.0])

        G, gq, values = noise_layer_grads(q, P, y, weigh)
        assert np.array_equal(seen[0], values)
        assert np.array_equal(G[1], np.zeros(2))
        alone = noise_layer_grads(q, P[:1], y[:1], lambda v: np.ones(1))
        assert np.allclose(gq, alone[1])


class TestLabelDraws:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_sample_categorical_stream(self, data):
        K = data.draw(st.integers(2, 6))
        T = data.draw(transitions(K, zeros=data.draw(st.booleans())))
        n = data.draw(st.integers(0, 40))
        truth = np.array(data.draw(st.lists(st.integers(0, K - 1),
                                            min_size=n, max_size=n)),
                         dtype=np.int64)
        seed = data.draw(st.integers(0, 2**32 - 1))
        ref_rng = Rng(seed)
        expected = [sample_categorical(T.t[c], ref_rng) for c in truth]
        rng = Rng(seed)
        got = draw_labels(T, truth, rng)
        assert got.dtype == np.int64
        assert got.tolist() == expected
        # both consumed exactly one uniform per sample
        assert rng.uniform() == ref_rng.uniform()

    def test_ties_and_clamp_follow_sample_categorical(self):
        class Fixed:
            """Stand-in stream returning chosen uniforms."""

            def __init__(self, values):
                self.values = list(values)

            def uniform(self, size=None):
                if size is None:
                    return self.values.pop(0)
                out, self.values = self.values[:size], self.values[size:]
                return np.array(out)

        # cumsum rows: [0, 0.5, 1], [0.3, 0.3, 1] and one ending below 1
        T = TransitionMatrix(np.array([[0.0, 0.5, 0.5], [0.3, 0.0, 0.7],
                                       [0.1, 0.2, 0.7 - 2e-16]]))
        truth = np.array([0, 0, 1, 1, 2, 2])
        u = [0.0, 0.5, 0.3, 0.2999999999999999, 1.0 - 2**-53,
             float(np.cumsum(T.t[2])[1])]
        expected = [sample_categorical(T.t[c], Fixed([v]))
                    for c, v in zip(truth, u)]
        assert draw_labels(T, truth, Fixed(u)).tolist() == expected
        assert expected == [1, 2, 2, 0, 2, 2]

    def test_zero_rows_never_drawn(self):
        T = TransitionMatrix(np.array([[0.0, 1.0, 0.0], [0.5, 0.0, 0.5],
                                       [0.0, 0.0, 1.0]]))
        drawn = draw_labels(T, np.repeat([0, 1, 2], 200), Rng(3))
        assert set(drawn[:200]) == {1}
        assert set(drawn[200:400]) == {0, 2}
        assert set(drawn[400:]) == {2}

    def test_inject_and_annotators_share_the_stream(self):
        T = TransitionMatrix(np.array([[0.7, 0.3], [0.1, 0.9]]))
        ds = LabeledDataset(np.zeros((50, 2)), np.arange(50) % 2, 2)
        noisy = inject(ds, T, Rng(9)).labels
        ann = simulate_annotators(ds, [T, T], Rng(9)).annotator_labels
        assert np.array_equal(noisy, ann[:, 0])
        ref = Rng(9)
        assert [sample_categorical(T.t[c], ref) for c in ds.labels] \
            == noisy.tolist()
