"""Equivalence of the batched loss, noise-layer, label-draw, trainer-core,
annotator and procedure code with the per-sample formulas they replace,
of the stacked transition-mixing kernel and STAPLE with the
per-transition and per-annotator code they replaced, of the batched
running-loss filter and re-weight hooks with the per-sample rule and
per-row hook loop, of the kept masks and the batched label store with
the index sets and per-row updates they replaced, and of the trainers'
once-per-epoch row gathers with the per-batch index gathers they replaced.

The per-sample reference functions below are the direct one-sample forms
of each formula: a loop over rows of them is what the batched code must
reproduce, bit for bit where the arithmetic is the same and to 1e-12 where
the batched form sums in a different order. A stack of models trained in
lockstep must reproduce, bit for bit, the same models trained one by one.
"""

import json
import math
from collections import deque
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisylab import model, procedures, reweight
from noisylab.annotators import (M_STEP_SMOOTHING, confusion_grads,
                                 majority_vote, min_loss_labels, staple,
                                 train_with_confusion)
from noisylab.data import LabeledDataset, gen_blobs, split
from noisylab.losses import (LOG_CLAMP, LossSpec, kl_to_targets,
                             loss_and_grad, loss_value, loss_vector)
from noisylab.model import (DivergedError, TrainConfig, backward_batch,
                            epoch_batches, epoch_row, fit, forward,
                            forward_batch, init, predict, predict_probs,
                            sgd_epoch, stack, train, unstack)
from noisylab.noise import (TransitionMatrix, class_centroids, draw_labels,
                            inject, simulate_annotators,
                            symmetric_transition)
from noisylab.numerics import Rng, check_prob_vector, softmax
from noisylab.procedures import (SoftLabelStore, cleaning_meta_features,
                                 co_teaching_keep_schedule,
                                 dual_relabel_epoch, fit_meta_classifier,
                                 iterative_clean, mixup,
                                 small_loss_selection, train_co_teaching,
                                 train_mixup)
from noisylab.reweight import (SIGMA_FLOOR, RunningLossFilter,
                               make_reweighter, rank_prune, trimmed_filter)

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


def ref_mixed_ce(T, probs, y):
    """losses.mixed_ce as it was before it took a stack of transitions: one
    T (K, K) against labels y (N,)."""
    cols = T[:, y].T
    q_y = np.maximum(np.sum(cols * probs, axis=1), LOG_CLAMP)
    V = -cols / q_y[:, None]
    return (-np.log(q_y),
            probs * (V - np.sum(V * probs, axis=1, keepdims=True)), q_y)


def ref_noise_layer_init(K):
    """The q every confusion started from, as model.noise_layer_init made
    it."""
    q = np.full((K, K), np.log(max((1.0 - 0.8) / max(K - 1, 1), 1e-12)))
    np.fill_diagonal(q, np.log(0.8))
    return q


def ref_noise_layer_grads(q, probs, y):
    """The noise layer's batch as model.noise_layer_grads ran it: (dloss/
    dlogits (N, K), summed dloss/dq (K, K), loss values (N,))."""
    A = softmax(q)
    values, G, s_y = ref_mixed_ce(A, probs, y)
    dA = (probs * (-1.0 / s_y)[:, None]).T @ np.eye(len(A))[y]
    gq = A * (dA - np.sum(dA * A, axis=1, keepdims=True))
    return G, gq, values


def ref_confusion_grads(qs, probs, labels):
    """annotators.confusion_grads as it was: a loop over a list of
    annotator q's, each through ref_noise_layer_grads."""
    G = np.zeros_like(probs)
    values = np.empty(labels.shape)
    gqs = []
    for a, q in enumerate(qs):
        G_a, gq, values[:, a] = ref_noise_layer_grads(q, probs, labels[:, a])
        G += G_a
        gqs.append(gq)
    return values, G, gqs


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
                one_row = loss_and_grad(spec, P[r:r + 1], y[r:r + 1])
                assert loss_value(spec, P[r], y[r]) == one_row[0][0]
                for v, g in ((ref_v, ref_g), (one_row[0][0], one_row[1][0])):
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
        # the noise layer is the confusion of one annotator
        values, G, gQ = confusion_grads(q[None], P, y[:, None])
        assert values.shape == (N, 1) and gQ.shape == (1, K, K)
        ref_gq = np.zeros((K, K))
        for r in range(N):
            g_log, g_q, val = ref_noise_layer(q, P[r], y[r])
            assert np.allclose(values[r, 0], val, rtol=1e-12, atol=1e-12)
            assert np.allclose(G[r], g_log, rtol=1e-12, atol=1e-12)
            ref_gq += g_q
        assert np.allclose(gQ[0], ref_gq, rtol=1e-12, atol=1e-12)


class TestStackedKernel:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_forward_matches_the_2d_kernel(self, data):
        P, y = data.draw(batches())
        T = data.draw(transitions(P.shape[1]))
        values, G = loss_and_grad(LossSpec("forward", transition=T), P, y)
        ref_values, ref_G, _ = ref_mixed_ce(T.t, P, y)
        assert values.tobytes() == ref_values.tobytes()
        assert G.tobytes() == ref_G.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_confusion_grads_match_the_per_annotator_loop(self, data):
        P, _ = data.draw(batches())
        N, K = P.shape
        A = data.draw(st.integers(1, 4))
        Q = np.reshape(data.draw(st.lists(st.floats(-3.0, 3.0),
                                          min_size=A * K * K,
                                          max_size=A * K * K)), (A, K, K))
        L = np.reshape(data.draw(st.lists(st.integers(0, K - 1),
                                          min_size=N * A, max_size=N * A)),
                       (N, A))
        values, G, gQ = confusion_grads(Q, P, L)
        ref_values, ref_G, ref_gqs = ref_confusion_grads(list(Q), P, L)
        assert values.tobytes() == ref_values.tobytes()
        assert G.tobytes() == ref_G.tobytes()
        assert gQ.shape == (A, K, K)
        for a in range(A):
            assert gQ[a].tobytes() == ref_gqs[a].tobytes()


def ref_sample_categorical(p, rng):
    """One class index drawn with probabilities p from one uniform: the
    per-sample draw that draw_labels batches."""
    p = check_prob_vector(p)
    u = rng.uniform()
    drawn = np.searchsorted(np.cumsum(p), u, side="right")
    return int(min(drawn, len(p) - 1))


class TestLabelDraws:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_per_sample_draw_stream(self, data):
        K = data.draw(st.integers(2, 6))
        T = data.draw(transitions(K, zeros=data.draw(st.booleans())))
        n = data.draw(st.integers(0, 40))
        truth = np.array(data.draw(st.lists(st.integers(0, K - 1),
                                            min_size=n, max_size=n)),
                         dtype=np.int64)
        seed = data.draw(st.integers(0, 2**32 - 1))
        ref_rng = Rng(seed)
        expected = [ref_sample_categorical(T.t[c], ref_rng) for c in truth]
        rng = Rng(seed)
        got = draw_labels(T, truth, rng)
        assert got.dtype == np.int64
        assert got.tolist() == expected
        # both consumed exactly one uniform per sample
        assert rng.uniform() == ref_rng.uniform()

    def test_ties_and_clamp_follow_per_sample_draw(self):
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
        expected = [ref_sample_categorical(T.t[c], Fixed([v]))
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
        assert [ref_sample_categorical(T.t[c], ref) for c in ds.labels] \
            == noisy.tolist()


def ref_confusion_step(qs, P, L):
    """The per-sample, per-annotator confusion step: loss values in (sample,
    annotator) order, summed logit gradients, and each annotator's summed
    dloss/dq."""
    N, K = P.shape
    G = np.zeros((N, K))
    gqs = [np.zeros((K, K)) for _ in qs]
    values = []
    for r in range(N):
        p = P[r]
        for a, q in enumerate(qs):
            theta = softmax(q)
            yo = L[r, a]
            s_y = max(float((theta.T @ p)[yo]), 1e-12)
            values.append(-np.log(s_y))
            dl_dp = -theta[:, yo] / s_y
            G[r] += p * (dl_dp - float(dl_dp @ p))
            dtheta = np.zeros((K, K))
            dtheta[:, yo] = -p / s_y
            gqs[a] += theta * (dtheta - np.sum(dtheta * theta, axis=1,
                                               keepdims=True))
    return np.array(values), G, gqs


class TestConfusionStep:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_per_sample_per_annotator_loop(self, data):
        P, _ = data.draw(batches())
        N, K = P.shape
        A = data.draw(st.integers(1, 4))
        qs = [np.reshape(data.draw(st.lists(st.floats(-3.0, 3.0),
                                            min_size=K * K, max_size=K * K)),
                         (K, K)) for _ in range(A)]
        L = np.reshape(data.draw(st.lists(st.integers(0, K - 1),
                                          min_size=N * A, max_size=N * A)),
                       (N, A))
        values, G, gQ = confusion_grads(np.array(qs), P, L)
        ref_values, ref_G, ref_gqs = ref_confusion_step(qs, P, L)
        assert values.shape == (N, A)
        assert np.allclose(values.ravel(), ref_values, rtol=1e-12, atol=1e-12)
        assert np.allclose(G, ref_G, rtol=1e-12, atol=1e-12)
        assert gQ.shape == (A, K, K)
        for gq, ref_gq in zip(gQ, ref_gqs):
            assert np.allclose(gq, ref_gq, rtol=1e-12, atol=1e-12)


class TestMinLossSelection:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_rows_match_min_loss_label(self, data):
        N = data.draw(st.integers(1, 10))
        A = data.draw(st.integers(1, 5))
        # few distinct values, so ties are common
        losses = np.reshape(data.draw(st.lists(
            st.sampled_from([0.0, 0.1, 0.5, 2.0, 27.6]),
            min_size=N * A, max_size=N * A)), (N, A))
        labels = np.reshape(data.draw(st.lists(
            st.integers(0, 5), min_size=N * A, max_size=N * A)), (N, A))
        a, y = min_loss_labels(losses, labels)
        for r in range(N):
            first_min = losses[r].tolist().index(min(losses[r]))
            assert (a[r], y[r]) == (first_min, labels[r, first_min])

    def test_nonfinite_row_rejected(self):
        with pytest.raises(ValueError):
            min_loss_labels(np.array([[0.1, 0.2], [np.nan, 0.3]]),
                            np.zeros((2, 2), dtype=np.int64))


class TestMajorityVotePanel:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_panel_matches_per_row_bincount(self, data):
        N = data.draw(st.integers(1, 12))
        A = data.draw(st.integers(1, 6))
        K = data.draw(st.integers(1, 5))  # few classes, so ties are common
        L = np.reshape(data.draw(st.lists(
            st.integers(0, K - 1), min_size=N * A, max_size=N * A)), (N, A))
        want = np.array([np.bincount(row).argmax() for row in L])
        got = majority_vote(L)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        for row, label in zip(L, want.tolist()):
            one = majority_vote(row)
            assert type(one) is int and one == label

    def test_ties_go_to_the_lowest_label(self):
        fused = majority_vote([[0, 1], [3, 1], [2, 2], [4, 0]])
        assert fused.tolist() == [0, 1, 2, 0]

    @pytest.mark.parametrize("labels", [[0, -1], [[0, 1], [2, -1]], [],
                                        np.zeros((0, 3), dtype=int)],
                             ids=["negative", "negative-panel", "empty",
                                  "empty-panel"])
    def test_invalid_labels_rejected(self, labels):
        with pytest.raises(ValueError):
            majority_vote(labels)


def ref_staple(L, K, max_iters, tol=1e-6):
    """STAPLE with a list of per-annotator confusions: one gather per
    annotator in the E-step, one masked row sum per annotator and observed
    class in the M-step."""
    def loglik(prior, thetas):
        like = np.tile(prior, (len(L), 1))
        for a, theta in enumerate(thetas):
            like *= theta[:, L[:, a]].T
        return (float(np.sum(np.log(np.maximum(like.sum(axis=1), 1e-300)))),
                like / like.sum(axis=1, keepdims=True))

    prior = np.full(K, 1.0 / K)
    off = 0.2 / (K - 1)
    thetas = [np.full((K, K), off) + (0.8 - off) * np.eye(K)
              for _ in range(L.shape[1])]
    trace = []
    for _ in range(max_iters):
        ll, post = loglik(prior, thetas)
        trace.append(ll)
        new_prior = post.mean(axis=0)
        change = float(np.abs(new_prior - prior).max())
        prior = new_prior
        for a in range(len(thetas)):
            counts = np.zeros((K, K))
            for j in range(K):
                counts[:, j] = post[L[:, a] == j].sum(axis=0)
            theta = ((counts + M_STEP_SMOOTHING)
                     / (counts.sum(axis=1, keepdims=True)
                        + K * M_STEP_SMOOTHING))
            change = max(change, float(np.abs(theta - thetas[a]).max()))
            thetas[a] = theta
        if change < tol:
            break
    ll, post = loglik(prior, thetas)
    trace.append(ll)
    return post, thetas, prior, trace


class TestStapleStack:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_stack_matches_per_annotator_loop(self, data):
        K = data.draw(st.integers(2, 5))
        A = data.draw(st.integers(2, 5))
        N = data.draw(st.integers(1, 400))
        # a panel that mostly agrees with a hidden truth
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        truth = rng.integers(0, K, N)
        L = np.where(rng.random((N, A)) < data.draw(st.floats(0.0, 1.0)),
                     rng.integers(0, K, (N, A)), truth[:, None])
        # annotator 0 never gives the last class, or never a class at all
        # but one
        L[:, 0] = np.minimum(L[:, 0], data.draw(st.integers(0, K - 2)))
        max_iters = data.draw(st.integers(0, 8))
        tol = data.draw(st.sampled_from([1e-6, 0.0]))
        post, model, fused, trace = staple(L, K, max_iters, tol)
        want_post, thetas, prior, want_trace = ref_staple(L, K, max_iters,
                                                          tol)
        assert post.tobytes() == want_post.tobytes()
        assert fused.tobytes() == want_post.argmax(axis=1).tobytes()
        assert model.prior.tobytes() == prior.tobytes()
        assert len(model.confusions) == A
        for T, theta in zip(model.confusions, thetas):
            assert T.t.tobytes() == theta.tobytes()
        assert trace == want_trace


def assert_staple_is_ref(L, K, max_iters=100, tol=1e-6):
    """staple equals ref_staple bit for bit: posteriors, fused labels,
    prior, confusions and log-likelihood trace. Returns the trace."""
    post, model, fused, trace = staple(L, K, max_iters, tol)
    want_post, thetas, prior, want_trace = ref_staple(L, K, max_iters, tol)
    assert post.tobytes() == want_post.tobytes()
    assert fused.tobytes() == want_post.argmax(axis=1).tobytes()
    assert model.prior.tobytes() == prior.tobytes()
    assert [T.t.tobytes() for T in model.confusions] == [
        theta.tobytes() for theta in thetas]
    assert trace == want_trace
    return trace


class TestStaplePatterns:
    """staple's E-step runs once per distinct row of labels; panels whose
    rows repeat must still match the row-by-row EM bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_many_rows_per_pattern(self, data):
        K = data.draw(st.integers(2, 3))
        A = data.draw(st.integers(2, 3))
        N = data.draw(st.integers(K ** A, 3000))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        truth = rng.integers(0, K, N)
        L = np.where(rng.random((N, A)) < data.draw(st.floats(0.0, 1.0)),
                     rng.integers(0, K, (N, A)), truth[:, None])
        assert_staple_is_ref(L, K, data.draw(st.integers(0, 12)),
                             data.draw(st.sampled_from([1e-6, 0.0])))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_one_pattern(self, data):
        K = data.draw(st.integers(2, 5))
        A = data.draw(st.integers(2, 5))
        row = data.draw(st.lists(st.integers(0, K - 1), min_size=A,
                                 max_size=A))
        L = np.tile(row, (data.draw(st.integers(1, 500)), 1))
        assert_staple_is_ref(L, K, data.draw(st.integers(0, 12)),
                             data.draw(st.sampled_from([1e-6, 0.0])))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_one_row(self, data):
        K = data.draw(st.integers(2, 5))
        A = data.draw(st.integers(2, 5))
        L = np.array([data.draw(st.lists(st.integers(0, K - 1), min_size=A,
                                         max_size=A))])
        assert_staple_is_ref(L, K, data.draw(st.integers(0, 12)),
                             data.draw(st.sampled_from([1e-6, 0.0])))

    def test_bench_panel(self):
        # the fusion panel of the benchmark's seed-1 run: 3 blobs x 4,500,
        # the harness's split, annotators at rho 0.2, 0.3 and 0.4
        full = gen_blobs(3, 4500, 2, 3.0, 1)
        train, _ = split(full, 0.25, 2)
        L = simulate_annotators(
            train, [symmetric_transition(3, r) for r in (0.2, 0.3, 0.4)],
            Rng(3).split(1)[0]).annotator_labels
        assert L.shape == (10125, 3)
        assert len(np.unique(L, axis=0)) == 27
        assert len(assert_staple_is_ref(L, 3)) == 101  # stopped by the cap

class TestSgdCore:
    @settings(max_examples=60, deadline=None)
    @given(arch=st.sampled_from(["linear", "mlp"]), n=st.integers(1, 20),
           d=st.integers(1, 3), K=st.integers(2, 4),
           batch_size=st.integers(1, 8),
           lr=st.sampled_from([0.0, 0.1, 1.0]),
           seed=st.integers(0, 2**16))
    def test_ce_epoch_matches_hand_loop(self, arch, n, d, K, batch_size, lr,
                                        seed):
        rng = Rng(seed)
        X = rng.normal((n, d))
        y = rng.integers(0, K, size=n)
        order = rng.permutation(n)
        ref = init(arch, d, K, seed, hidden=4)
        params = ref.copy()
        ref_values = []
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            logits, cache = forward_batch(ref, X[idx])
            probs = softmax(logits)
            grads = backward_batch(ref, probs - np.eye(K)[y[idx]], cache)
            for name in ref.arrays:
                ref.arrays[name] -= (lr / len(idx)) * grads[name]
            ref_values.extend(-np.log(np.maximum(
                probs[np.arange(len(idx)), y[idx]], LOG_CLAMP)))
        values = sgd_epoch(
            params,
            ((X[idx], idx) for idx, in epoch_batches(order, batch_size)),
            lr, lambda probs, idx: loss_and_grad(LossSpec("ce"), probs,
                                                 y[idx]), 0)
        assert np.array_equal(values, ref_values)
        for name in ref.arrays:
            assert np.array_equal(params.arrays[name], ref.arrays[name])

    def test_epoch_batches_cover_order_once(self):
        order = np.array([4, 0, 3, 1, 2])
        got = [idx for idx, in epoch_batches(order, 2)]
        assert [b.tolist() for b in got] == [[4, 0], [3, 1], [2]]

    def test_non_finite_logits_name_the_epoch(self):
        params = init("linear", 2, 2, 0)
        params.arrays["W"][:] = np.inf
        with pytest.raises(DivergedError, match="epoch 4"):
            sgd_epoch(params, [(np.ones((1, 2)), None)], 0.1,
                      lambda probs, key: pytest.fail("loss asked"), 4)


class RefRunningLossFilter:
    """The running filter as it decided one loss at a time: mean and std
    of a copy of the deque of the last `window` losses before it. The one
    change is that an empty window is not scored, which leaves the decision
    ("update": a NaN sigma never passes the floor) as it was."""

    def __init__(self, window=100, multiplier=1.5, warmup=30):
        self.buffer = deque(maxlen=window)
        self.multiplier = multiplier
        self.warmup = warmup

    def observe(self, loss):
        decision = "update"
        if self.buffer and len(self.buffer) >= self.warmup:
            buf = np.fromiter(self.buffer, dtype=np.float64)
            mean, sigma = buf.mean(), buf.std()
            if sigma > SIGMA_FLOOR and loss > mean + self.multiplier * sigma:
                decision = "skip"
        self.buffer.append(float(loss))
        return decision


@st.composite
def loss_streams(draw):
    """(filter args, losses, batch split points): squared normals with a
    run of one repeated loss (a constant window: the sigma floor) and a
    spike after it, split into batches across window boundaries."""
    window = draw(st.integers(1, 150), label="window")
    warmup = draw(st.integers(0, 160), label="warmup")
    multiplier = draw(st.sampled_from([0.5, 1.5, 3.0]), label="multiplier")
    n = draw(st.integers(0, 400), label="n")
    rng = Rng(draw(st.integers(0, 2**16), label="seed"))
    losses = rng.normal(n) ** 2
    if n:
        start = draw(st.integers(0, n - 1), label="constant start")
        stop = min(n, start + draw(st.integers(1, 2 * window),
                                   label="constant length"))
        losses[start:stop] = losses[start]
        losses[stop:stop + 1] += 10.0
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=12),
                       label="cuts"))
    return ({"window": window, "multiplier": multiplier, "warmup": warmup},
            losses, cuts)


class TestRunningFilterBatch:
    @settings(max_examples=300, deadline=None)
    @given(loss_streams())
    def test_matches_per_sample_rule(self, stream):
        args, losses, cuts = stream
        ref = RefRunningLossFilter(**args)
        expected = [ref.observe(x) == "skip" for x in losses]
        f = RunningLossFilter(**args)
        got = np.concatenate([np.zeros(0, dtype=bool)] + [
            f.observe_batch(part) for part in np.split(losses, cuts)])
        assert got.tolist() == expected
        assert np.array_equal(f.buffer, np.array(ref.buffer))
        f = RunningLossFilter(**args)  # one loss per call
        assert [bool(f.observe_batch([x])[0]) for x in losses] == expected

    def test_ramp_then_full_window_in_one_batch(self):
        # the first window positions score their own slices, the rest a
        # full sliding window, within one call
        losses = Rng(7).normal(40) ** 2
        ref = RefRunningLossFilter(window=6, multiplier=0.5, warmup=2)
        f = RunningLossFilter(window=6, multiplier=0.5, warmup=2)
        assert f.observe_batch(losses).tolist() == [
            ref.observe(x) == "skip" for x in losses]
        assert np.array_equal(f.buffer, losses[-6:])


@st.composite
def reweight_runs(draw, kind):
    """(train set, TrainConfig, reweight spec) on a small random set."""
    K = draw(st.integers(2, 3), label="K")
    n = draw(st.integers(4, 60), label="n")
    d = draw(st.integers(1, 3), label="d")
    seed = draw(st.integers(0, 2**16), label="seed")
    rng = Rng(seed)
    ds = LabeledDataset(rng.normal((n, d)) * 2.0,
                        rng.integers(0, K, size=n), K)
    config = TrainConfig(
        epochs=draw(st.integers(1, 3), label="epochs"),
        batch_size=draw(st.integers(1, 9), label="batch_size"),
        learning_rate=draw(st.sampled_from([0.1, 0.5]), label="lr"),
        seed=seed, arch=draw(st.sampled_from(["linear", "mlp"]),
                             label="arch"), hidden=4)
    if kind == "running":
        spec = {"window": draw(st.integers(1, 20), label="window"),
                "warmup": draw(st.integers(0, 25), label="warmup"),
                "multiplier": draw(st.sampled_from([0.5, 1.5]),
                                   label="multiplier")}
    elif kind == "pumpout":
        spec = {"transition": draw(transitions(K), label="T"),
                "gamma": draw(st.sampled_from([0.1, 0.5]), label="gamma")}
    else:
        spec = {"fraction": draw(st.sampled_from([0.0, 0.2, 0.5]),
                                 label="fraction")}
    return ds, config, {"kind": kind, **spec}


def ref_pumpout_row(T, base, gamma, p):
    """Pumpout's rule on one row, as the hook applied it row by row: the
    corrected loss 1^T T^{-1} l(p) and the row's weight."""
    ones_t_inv = np.linalg.solve(T.t.T, np.ones(T.k))
    corrected = float(ones_t_inv @ loss_vector(base, p))
    return corrected, (-gamma if corrected < 0.0 else 1.0)


def ref_reweighted_train(ds, config, spec, test_ds=None):
    """model.train as it weighted a batch before batch_weights: each kept
    row's weight asked one by one, the running filter's by the per-sample
    rule and pumpout's by its one-row rule."""
    hook = make_reweighter(spec)
    if spec["kind"] == "running":
        ref = RefRunningLossFilter(**{k: v for k, v in spec.items()
                                      if k != "kind"})

        def weight(loss, probs, y):
            return 0.0 if ref.observe(loss) == "skip" else 1.0
    elif spec["kind"] == "pumpout":
        def weight(loss, probs, y):
            return ref_pumpout_row(spec["transition"], hook.base, hook.gamma,
                                   probs)[1]
    else:
        weight = hook.sample_weight
    params = init(config.arch, ds.dim, ds.num_classes, config.seed,
                  config.hidden)
    keep = np.ones(ds.n, dtype=bool)

    def batches(order, rng):
        kept = hook.epoch_kept_set(params, ds)
        if kept is not None:
            keep[:] = kept
        return ((ds.features[idx], idx)
                for idx, in epoch_batches(order, config.batch_size))

    def batch_loss(probs, idx):
        yb = ds.labels[idx]
        values, G = loss_and_grad(config.loss, probs, yb)
        w = keep[idx].astype(np.float64)
        for r in np.flatnonzero(w):
            w[r] *= weight(values[r], probs[r], yb[r])
        return values, G * w[:, None]

    return fit(ds, config, batch_loss, test_ds, batches, params)


class TestReweightedTrain:
    @pytest.mark.parametrize("kind", ["running", "trimmed", "rank_prune",
                                      "pumpout"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_per_row_hook_loop(self, kind, data):
        ds, config, spec = data.draw(reweight_runs(kind))
        params, history = train(ds, config, reweight=spec)
        ref, ref_history = ref_reweighted_train(ds, config, spec)
        for name in ref.arrays:
            assert params.arrays[name].tobytes() == ref.arrays[name].tobytes()
        assert history == ref_history

    def test_pumpout_ascent_rows(self, monkeypatch):
        # the training set of the pinned pumpout ascent trajectory (seed 1:
        # data 1, split 2, noise 3), whose asymmetric T and step of 1.0
        # weight some rows -gamma; the drawn examples above reach none
        T = TransitionMatrix(np.array([[0.6, 0.4, 0.0], [0.1, 0.9, 0.0],
                                       [0.0, 0.4, 0.6]]))
        train_ds, _ = split(gen_blobs(3, 60, 2, 8.0, 1), 0.25, 2)
        ds = inject(train_ds, T, Rng(3).split(1)[0]).training_view()
        config = TrainConfig(epochs=2, learning_rate=1.0, seed=1)
        spec = {"kind": "pumpout", "transition": T, "gamma": 0.1}
        flagged = []
        batch_weights = reweight._PumpoutHook.batch_weights

        def spy(hook, *args):
            weights = batch_weights(hook, *args)
            flagged.extend(weights[weights == -hook.gamma].tolist())
            return weights

        monkeypatch.setattr(reweight._PumpoutHook, "batch_weights", spy)
        params, history = train(ds, config, reweight=spec)
        assert flagged
        ref, ref_history = ref_reweighted_train(ds, config, spec)
        for name in ref.arrays:
            assert params.arrays[name].tobytes() == ref.arrays[name].tobytes()
        assert history == ref_history


@st.composite
def flaggable_transitions(draw, K):
    """Row-stochastic K x K matrix that is not doubly stochastic: the
    identity mixed, up to 0.9, with sparse random rows. Often some
    component of 1^T T^{-1} is negative or above K, so that pumpout can
    flag a row under CE or MAE."""
    raw = np.reshape(draw(st.lists(st.floats(0.0, 1.0), min_size=K * K,
                                   max_size=K * K)), (K, K))
    raw = np.where(raw < 0.5, 0.0, raw) + np.eye(K) * 1e-3
    rows = raw / raw.sum(axis=1, keepdims=True)
    mix = draw(st.floats(0.0, 0.9))
    return TransitionMatrix((1.0 - mix) * np.eye(K) + mix * rows)


def sign_boundary_rows(corrected_of, p_neg, p_pos, steps=60):
    """The two rows, one on each side, that bisection along the segment
    from p_neg (corrected loss < 0) to p_pos (>= 0) closes in on where the
    corrected loss changes sign."""
    lo, hi = 0.0, 1.0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if corrected_of((1.0 - mid) * p_neg + mid * p_pos) < 0.0:
            lo = mid
        else:
            hi = mid
    return [(1.0 - t) * p_neg + t * p_pos for t in (lo, hi)]


class TestPumpoutRule:
    def check(self, T, base, gamma, P):
        """batch_weights on the rows P against the one-row rule: every
        corrected loss handed to sample_weight bit-equal, and equal
        weights. Returns the weights."""
        hook = make_reweighter({"kind": "pumpout", "transition": T,
                                "gamma": gamma, "base": base})
        seen = []
        sample_weight = hook.sample_weight
        hook.sample_weight = lambda c: seen.append(c) or sample_weight(c)
        got = hook.batch_weights(np.zeros(len(P)), P,
                                 np.zeros(len(P), dtype=int))
        ref = [ref_pumpout_row(T, base, gamma, p) for p in P]
        assert (np.array(seen, dtype=np.float64).tobytes()
                == np.array([c for c, _ in ref], dtype=np.float64).tobytes())
        assert got.dtype == np.float64 and got.shape == (len(P),)
        assert got.tolist() == [w for _, w in ref]
        return got

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_batch_matches_one_row_rule(self, data):
        K = data.draw(st.integers(2, 6), label="K")
        T = data.draw(st.one_of(transitions(K), flaggable_transitions(K)),
                      label="T")
        base = data.draw(st.sampled_from(["ce", "mae"]), label="base")
        gamma = data.draw(st.sampled_from([0.1, 0.5]), label="gamma")
        n = data.draw(st.integers(1, 20), label="n")
        raw = np.reshape(data.draw(st.lists(
            st.floats(0.0, 1.0), min_size=n * K, max_size=n * K),
            label="rows"), (n, K)) + 1e-9
        eye = np.eye(K, dtype=bool)
        eps = 1e-6  # rows near each vertex, and near zero at each label
        P = np.vstack([raw / raw.sum(axis=1, keepdims=True),
                       np.where(eye, 1.0 - eps, eps / (K - 1)),
                       np.where(eye, eps, (1.0 - eps) / (K - 1))])
        def corrected_of(p):
            return ref_pumpout_row(T, base, gamma, p)[0]

        corrected = [corrected_of(p) for p in P]
        if min(corrected) < 0.0 <= max(corrected):
            P = np.vstack([P] + sign_boundary_rows(
                corrected_of, P[int(np.argmin(corrected))],
                P[int(np.argmax(corrected))]))
        self.check(T, base, gamma, P)

    @pytest.mark.parametrize("base", ["ce", "mae"])
    def test_rows_at_the_sign_boundary(self, base):
        # columns of T^-1 sum to [-2/3, 8/3]: flags under CE and MAE
        T = TransitionMatrix(np.array([[0.9, 0.1], [0.6, 0.4]]))
        # confident in class 1 (flagged) and in class 0 (not)
        neg, pos = np.array([0.001, 0.999]), np.array([0.999, 0.001])
        rows = np.array(sign_boundary_rows(
            lambda p: ref_pumpout_row(T, base, 0.1, p)[0], neg, pos))
        assert self.check(T, base, 0.1, rows).tolist() == [-0.1, 1.0]


def ref_rank_prune(conf, labels, prune_fraction, per_class=True):
    """rank_prune as it returned the kept index set."""
    conf = np.asarray(conf, dtype=np.float64)
    labels = np.asarray(labels)
    kept = set(range(len(conf)))
    groups = ([np.flatnonzero(labels == c) for c in np.unique(labels)]
              if per_class else [np.arange(len(conf))])
    for members in groups:
        n_drop = int(math.floor(prune_fraction * len(members)))
        if n_drop == 0:
            continue
        order = members[np.argsort(conf[members], kind="stable")]
        kept.difference_update(int(i) for i in order[:n_drop])
    return kept


def ref_trimmed_filter(losses, trim_fraction):
    """trimmed_filter as it returned the kept index set."""
    losses = np.asarray(losses, dtype=np.float64)
    n_drop = int(math.ceil(trim_fraction * len(losses)))
    order = np.lexsort((-np.arange(len(losses)), -losses))
    return set(order[n_drop:].tolist())


# few distinct values, so exact ties are common
TIED = st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0, 27.6])
FRACTIONS = st.sampled_from([0.0, 0.1, 0.25, 0.3, 0.5, 0.75, 0.99])


class TestKeptMasks:
    @settings(max_examples=200, deadline=None)
    @given(conf=st.lists(TIED, max_size=40), data=st.data(),
           fraction=FRACTIONS, per_class=st.booleans())
    def test_rank_prune_matches_index_set(self, conf, data, fraction,
                                          per_class):
        labels = data.draw(st.lists(st.integers(0, 3), min_size=len(conf),
                                    max_size=len(conf)))
        kept = rank_prune(conf, labels, fraction, per_class)
        assert kept.dtype == bool and kept.shape == (len(conf),)
        assert set(np.flatnonzero(kept).tolist()) == ref_rank_prune(
            conf, labels, fraction, per_class)

    @settings(max_examples=200, deadline=None)
    @given(losses=st.lists(TIED, max_size=40), fraction=FRACTIONS)
    def test_trimmed_filter_matches_index_set(self, losses, fraction):
        kept = trimmed_filter(losses, fraction)
        assert kept.dtype == bool and kept.shape == (len(losses),)
        assert set(np.flatnonzero(kept).tolist()) == ref_trimmed_filter(
            losses, fraction)


def ref_target_loss(probs, entry_probs):
    """The target loss dual relabeling scored with before it moved into
    losses as kl_to_targets."""
    nz = entry_probs > 0
    logs = (np.log(np.where(nz, entry_probs, 1.0))
            - np.log(np.maximum(probs, LOG_CLAMP)))
    return np.sum(np.where(nz, entry_probs * logs, 0.0), axis=-1)


def ref_smooth_kl_value(P, q):
    """The smooth_kl value expression loss_and_grad used before it called
    kl_to_targets."""
    log_q = np.log(np.where(q > 0, q, 1.0))
    return np.sum(q * (log_q - np.log(np.maximum(P, LOG_CLAMP))), axis=1)


def ref_ensemble_disagreement(models, x):
    """One row's vote disagreement as model.ensemble_disagreement scored
    it: 1 - fraction of models voting with the ensemble majority class."""
    votes = np.array([int(np.argmax(forward(m, x))) for m in models])
    counts = np.bincount(votes, minlength=models[0].K)
    majority = int(counts.argmax())  # ties to lowest class index
    return 1.0 - counts[majority] / len(models)


class TestProcedureBatches:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_target_loss_rows_match_per_sample_form(self, data):
        P, y = data.draw(batches())
        N, K = P.shape
        # some probabilities at, near and below the log clamp
        for i in data.draw(st.lists(st.integers(0, N * K - 1))):
            P.flat[i] = data.draw(st.sampled_from(
                [0.0, 1e-300, LOG_CLAMP / 3, LOG_CLAMP, 2 * LOG_CLAMP]))
        soft = softmax(np.reshape(data.draw(st.lists(
            st.floats(-3.0, 3.0), min_size=N * K, max_size=N * K)), (N, K)))
        soft = np.where(soft < 0.1, 0.0, soft)   # some exact zeros
        soft /= soft.sum(axis=1, keepdims=True)
        kind = np.array(data.draw(st.lists(st.sampled_from(["hard", "soft",
                                                            "zero"]),
                                           min_size=N, max_size=N)))
        targets = np.where((kind == "hard")[:, None], np.eye(K)[y], soft)
        targets[kind == "zero"] = 0.0
        got = kl_to_targets(P, targets)
        assert got.tobytes() == ref_target_loss(P, targets).tobytes()
        assert got.tobytes() == ref_smooth_kl_value(P, targets).tobytes()
        for r in range(N):
            q, pc = targets[r], np.maximum(P[r], LOG_CLAMP)
            nz = q > 0
            ref = float(np.sum(q[nz] * (np.log(q[nz]) - np.log(pc[nz]))))
            assert got[r] == ref
            assert kl_to_targets(P[r], targets[r]) == ref

    @settings(max_examples=40, deadline=None)
    @given(M=st.integers(2, 4), K=st.integers(2, 4), n=st.integers(1, 15),
           seed=st.integers(0, 2**16))
    def test_vote_disagreement_matches_per_row(self, M, K, n, seed):
        rng = Rng(seed)
        ds = LabeledDataset(rng.normal((n, 2)), rng.integers(0, K, size=n), K)
        models = [init("linear", 2, K, seed + m) for m in range(M)]
        feats, _ = cleaning_meta_features(stack(models), ds, ds.labels)
        expected = [ref_ensemble_disagreement(models, x)
                    for x in ds.features]
        assert feats[:, 3].tolist() == expected


@dataclass
class LabelEntry:
    hard: int | None            # exactly one of hard/soft is set
    soft: np.ndarray | None
    provenance: dict


class RefStore:
    """The per-entry soft-label store the array-backed SoftLabelStore
    replaced: a list of LabelEntry, one per sample."""

    def __init__(self, labels, K):
        self.K = K
        self.entries = [LabelEntry(int(y), None, {"kind": "original"})
                        for y in labels]

    def relabel_hard(self, i, label, epoch, source):
        self._check_epoch(i, epoch)
        self.entries[i] = LabelEntry(int(label), None,
                                     {"kind": "relabeled", "epoch": epoch,
                                      "source": source})

    def relabel_soft(self, i, probs, epoch, source):
        self._check_epoch(i, epoch)
        self.entries[i] = LabelEntry(None, np.asarray(probs, dtype=np.float64),
                                     {"kind": "relabeled", "epoch": epoch,
                                      "source": source})

    def _check_epoch(self, i, epoch):
        prov = self.entries[i].provenance
        if prov["kind"] == "relabeled" and epoch < prov["epoch"]:
            raise ValueError("provenance epoch cannot move backwards")

    def as_probs(self, i):
        e = self.entries[i]
        if e.soft is not None:
            return e.soft
        q = np.zeros(self.K)
        q[e.hard] = 1.0
        return q

    @property
    def targets(self):
        """The (n, K) matrix training used to rebuild from the entries."""
        return np.array([self.as_probs(i) for i in range(len(self.entries))])

    def hard_labels(self):
        return np.array([e.hard if e.hard is not None
                         else int(e.soft.argmax()) for e in self.entries],
                        dtype=np.int64)

    def arrays(self):
        """The entries as SoftLabelStore's is_soft, epoch and source (an
        original entry: epoch 0, source None)."""
        return ([e.soft is not None for e in self.entries],
                [e.provenance.get("epoch", 0) for e in self.entries],
                [e.provenance.get("source") for e in self.entries])


def ref_train_epoch_against_store(params, ds, store, peer_pred_probs, rng,
                                   lr, batch_size, epoch):
    """One model's epoch of dual_relabel_epoch as a function of its own:
    each sample's target is whichever of (stored label, peer's predicted
    hard label) currently yields the lower loss."""
    stored = store.targets
    peer = np.eye(store.K)[peer_pred_probs.argmax(axis=1)]

    def batch_loss(probs, idx):
        l_stored = kl_to_targets(probs, stored[idx])
        l_peer = kl_to_targets(probs, peer[idx])
        use_stored = (l_stored <= l_peer)[:, None]
        return (np.minimum(l_stored, l_peer),
                probs - np.where(use_stored, stored[idx], peer[idx]))

    order = rng.permutation(ds.n)
    sgd_epoch(params, ((ds.features[idx], idx)
                       for idx, in epoch_batches(order, batch_size)),
              lr, batch_loss, epoch)


def ref_dual_relabel_epoch(model_small, model_large, ds, store, rng, lr,
                           batch_size, epoch):
    """dual_relabel_epoch with each model's epoch a separate function and
    the relabel rule written per sample."""
    preds_small = predict_probs(model_small, ds.features)
    preds_large = predict_probs(model_large, ds.features)
    rng_a, rng_b = rng.split(2)
    ref_train_epoch_against_store(model_small, ds, store, preds_large, rng_a,
                                  lr, batch_size, epoch)
    ref_train_epoch_against_store(model_large, ds, store, preds_small, rng_b,
                                  lr, batch_size, epoch)
    preds_small = predict_probs(model_small, ds.features)
    preds_large = predict_probs(model_large, ds.features)
    for i in range(ds.n):
        stored = store.as_probs(i)
        wins = []
        for name, probs in (("small", preds_small[i]),
                            ("large", preds_large[i])):
            own = np.zeros(store.K)
            own[int(probs.argmax())] = 1.0
            if ref_target_loss(probs, own) < ref_target_loss(probs, stored):
                wins.append((name, probs))
        if len(wins) == 1:
            name, probs = wins[0]
            store.relabel_hard(i, int(probs.argmax()), epoch, name)
        elif len(wins) == 2:
            avg = 0.5 * (preds_small[i] + preds_large[i])
            store.relabel_soft(i, avg, epoch, "both")
    return store


@st.composite
def soft_rows(draw, K):
    """A probability row; small-integer weights make exact ties common."""
    if draw(st.booleans()):
        w = draw(st.lists(st.integers(0, 2), min_size=K, max_size=K)
                 .filter(lambda w: sum(w) > 0))
        return np.array(w, dtype=np.float64) / sum(w)
    logits = draw(st.lists(st.floats(-3.0, 3.0), min_size=K, max_size=K))
    return softmax(np.array(logits))


@st.composite
def relabel_ops(draw, n, K, max_epoch):
    """A sequence of (kind, rows, targets, epoch, source) store updates:
    distinct rows, one target per row, and one source for all rows or one
    per row."""
    ops = []
    for _ in range(draw(st.integers(0, 6))):
        rows = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
        epoch = draw(st.integers(0, max_epoch))
        names = st.sampled_from(["small", "large", "both"])
        source = draw(names | st.lists(names, min_size=len(rows),
                                       max_size=len(rows)))
        if draw(st.booleans()):
            targets = draw(st.lists(st.integers(0, K - 1), min_size=len(rows),
                                    max_size=len(rows)))
            ops.append(("hard", rows, np.array(targets, dtype=np.intp), epoch,
                        source))
        else:
            targets = [draw(soft_rows(K)) for _ in rows]
            ops.append(("soft", rows, np.reshape(targets, (len(rows), K)),
                        epoch, source))
    return ops


def apply_ops(store, ref, ops):
    """Apply each op to the store in one call and to the per-entry reference
    row by row; an op with a backwards epoch on any row must raise in the
    store, and is applied to neither."""
    for kind, rows, targets, epoch, source in ops:
        update = store.relabel_hard if kind == "hard" else store.relabel_soft
        try:
            for i in rows:
                ref._check_epoch(i, epoch)
        except ValueError:
            with pytest.raises(ValueError, match="backwards"):
                update(rows, targets, epoch, source)
            continue
        update(rows, targets, epoch, source)
        sources = [source] * len(rows) if isinstance(source, str) else source
        ref_update = ref.relabel_hard if kind == "hard" else ref.relabel_soft
        for i, target, name in zip(rows, targets, sources):
            ref_update(i, target, epoch, name)


def assert_stores_equal(store, ref):
    # every entry's hard label or soft row, bit for bit, and provenance
    assert store.targets.tobytes() == ref.targets.tobytes()
    assert np.array_equal(store.hard_labels(), ref.hard_labels())
    is_soft, epoch, source = ref.arrays()
    assert store.is_soft.tolist() == is_soft
    assert store.epoch.tolist() == epoch
    assert store.source.tolist() == source


class TestSoftLabelStoreArrays:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_per_entry_store(self, data):
        K = data.draw(st.integers(2, 5))
        n = data.draw(st.integers(1, 12))
        labels = data.draw(st.lists(st.integers(0, K - 1), min_size=n,
                                    max_size=n))
        store, ref = SoftLabelStore(labels, K), RefStore(labels, K)
        apply_ops(store, ref, data.draw(relabel_ops(n, K, 4)))
        assert_stores_equal(store, ref)

    def test_one_backwards_row_changes_no_row(self):
        store = SoftLabelStore([0, 1, 2], 3)
        store.relabel_hard([1], [2], 5, "small")
        before = [a.copy() for a in (store.targets, store.is_soft,
                                     store.epoch, store.source)]
        with pytest.raises(ValueError, match="backwards"):
            store.relabel_soft([0, 1, 2], np.full((3, 3), 1 / 3), 4, "both")
        for got, want in zip((store.targets, store.is_soft, store.epoch,
                              store.source), before):
            assert np.array_equal(got, want)


class TestDualRelabelBatch:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_epoch_matches_per_sample_rule(self, data):
        K = data.draw(st.integers(2, 5), label="K")
        n = data.draw(st.integers(2, 30), label="n")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        lr = data.draw(st.sampled_from([0.0, 0.1, 1.0]), label="lr")
        batch_size = data.draw(st.integers(1, 8), label="batch_size")
        rng = Rng(seed)
        ds = LabeledDataset(rng.normal((n, 2)), rng.integers(0, K, size=n), K)
        small = init("mlp", 2, K, seed, hidden=3)
        large = init("mlp", 2, K, seed + 1, hidden=5)
        if data.draw(st.booleans(), label="uniform small model"):
            # uniform predictions: every hard target scores -log(1/K), so
            # the model's own argmax ties with any stored hard label
            for a in small.arrays.values():
                a[:] = 0.0
        store, ref = SoftLabelStore(ds.labels, K), RefStore(ds.labels, K)
        apply_ops(store, ref, data.draw(relabel_ops(n, K, 2), label="ops"))
        if data.draw(st.booleans(), label="store the argmax"):
            # with lr 0 the models do not move, so these rows tie exactly
            # with the model's own hard prediction
            own = predict_probs(small, ds.features).argmax(axis=1)
            rows = data.draw(st.lists(st.integers(0, n - 1), unique=True),
                             label="rows")
            apply_ops(store, ref, [("hard", rows, own[rows], 2, "small")])
        models = (small.copy(), large.copy())
        dual_relabel_epoch(*models, ds, store, Rng(seed + 2), lr, batch_size,
                           epoch=3)
        ref_dual_relabel_epoch(small, large, ds, ref, Rng(seed + 2), lr,
                               batch_size, epoch=3)
        assert_stores_equal(store, ref)
        for got, want in zip(models, (small, large)):
            for name in want.arrays:
                assert np.array_equal(got.arrays[name], want.arrays[name])


def ref_noise_layer_train(ds, config, test_ds):
    """The noise-adaptation trainer as model.train ran it: a noise layer q
    next to fresh params, stepped at lr / N inside each batch's loss,
    before the step on the classifier. Returns (params, q, history)."""
    q = ref_noise_layer_init(ds.num_classes)

    def batch_loss(probs, idx):
        G, gq, values = ref_noise_layer_grads(q, probs, ds.labels[idx])
        q[:] -= (config.learning_rate / len(idx)) * gq
        return values, G

    params, history = fit(ds, config, batch_loss, test_ds)
    return params, q, history


def ref_confusion_train(ds, config, lambda_trace, test_ds):
    """train_with_confusion on a list of annotator q's, each stepped on
    its own, with the trace-penalty step always taken, as it was written
    before the lambda = 0 skip. Returns (params, qs, history)."""
    L, K, lr = ds.annotator_labels, ds.num_classes, config.learning_rate
    qs = [ref_noise_layer_init(K) for _ in range(L.shape[1])]
    pen = lambda_trace * np.eye(K)

    def batch_loss(probs, idx):
        values, G, gqs = ref_confusion_grads(qs, probs, L[idx])
        for q, gq in zip(qs, gqs):
            theta = softmax(q)
            gq_pen = theta * (pen - (lambda_trace * np.diag(theta))[:, None])
            q -= (lr / len(idx)) * gq + lr * gq_pen
        return values.ravel(), G

    params, history = fit(ds, config, batch_loss, test_ds)
    return params, qs, history


@st.composite
def small_runs(draw):
    """(train set, test set, TrainConfig) for a few-epoch run."""
    K = draw(st.integers(2, 5), label="K")
    n = draw(st.integers(2, 24), label="n")
    seed = draw(st.integers(0, 2**16), label="seed")
    rng = Rng(seed)
    ds = LabeledDataset(rng.normal((n, 2)), rng.integers(0, K, size=n), K)
    test_ds = LabeledDataset(rng.normal((5, 2)), rng.integers(0, K, size=5),
                             K)
    config = TrainConfig(
        epochs=draw(st.integers(1, 3), label="epochs"),
        batch_size=draw(st.integers(1, 8), label="batch_size"),
        # not powers of two, so a reordered product changes the last bit
        learning_rate=draw(st.sampled_from([0.0, 0.1, 0.3, 0.7]),
                           label="lr"),
        seed=seed, arch=draw(st.sampled_from(["linear", "mlp"]),
                             label="arch"), hidden=4)
    return ds, test_ds, config


def assert_same_run(params, history, ref_params, ref_history):
    """Equal histories and bitwise-equal parameter arrays."""
    assert history == ref_history
    for name, ref in ref_params.arrays.items():
        assert params.arrays[name].tobytes() == ref.tobytes()


class TestNoiseAdaptationAsConfusion:
    @settings(max_examples=60, deadline=None)
    @given(small_runs())
    def test_single_annotator_unpenalized_is_the_noise_layer(self, run):
        ds, test_ds, config = run
        ref_params, ref_q, ref_history = ref_noise_layer_train(ds, config,
                                                               test_ds)
        params, model, history = train_with_confusion(
            replace(ds, annotator_labels=ds.labels[:, None]), config, 0.0,
            test_ds)
        assert_same_run(params, history, ref_params, ref_history)
        assert len(model.confusions) == 1
        assert np.array_equal(model.confusions[0].t,
                              softmax(ref_q))

    @settings(max_examples=60, deadline=None)
    @given(small_runs(), st.integers(1, 3),
           st.sampled_from([0.0, 0.001, 0.01, 0.1]), st.data())
    def test_penalty_step_matches_unskipped_update(self, run, A, lambda_trace,
                                                   data):
        ds, test_ds, config = run
        L = np.reshape(data.draw(st.lists(
            st.integers(0, ds.num_classes - 1), min_size=ds.n * A,
            max_size=ds.n * A), label="annotator labels"), (ds.n, A))
        ds = replace(ds, annotator_labels=L)
        ref_params, ref_qs, ref_history = ref_confusion_train(
            ds, config, lambda_trace, test_ds)
        params, model, history = train_with_confusion(ds, config,
                                                      lambda_trace, test_ds)
        assert_same_run(params, history, ref_params, ref_history)
        for T, q in zip(model.confusions, ref_qs):
            assert np.array_equal(T.t, softmax(q))


@st.composite
def lockstep_runs(draw):
    """(train set, test set, TrainConfig, seeds, loss kind) for a stack of
    1..4 models on a set whose last batch is short."""
    K = draw(st.integers(2, 5), label="K")
    batch_size = draw(st.integers(2, 8), label="batch_size")
    n = (batch_size * draw(st.integers(0, 4), label="full batches")
         + draw(st.integers(1, batch_size - 1), label="last batch"))
    d = draw(st.integers(1, 3), label="d")
    seed = draw(st.integers(0, 2**16), label="seed")
    rng = Rng(seed)
    ds = LabeledDataset(rng.normal((n, d)), rng.integers(0, K, size=n), K)
    test_ds = LabeledDataset(rng.normal((5, d)), rng.integers(0, K, size=5),
                             K)
    config = TrainConfig(
        epochs=draw(st.integers(1, 3), label="epochs"),
        batch_size=batch_size,
        learning_rate=draw(st.sampled_from([0.1, 0.3, 0.7]), label="lr"),
        seed=seed, arch=draw(st.sampled_from(["linear", "mlp"]),
                             label="arch"), hidden=4)
    seeds = draw(st.lists(st.integers(0, 2**31 - 1), min_size=1,
                          max_size=4), label="seeds")
    kind = draw(st.sampled_from(["ce", "mae", "imae"]), label="loss")
    return ds, test_ds, config, seeds, kind


def assert_lockstep_matches_separate(ds, test_ds, config, seeds, kind):
    def batch_loss(probs, idx):
        return loss_and_grad(LossSpec(kind), probs, ds.labels[idx])

    stacked, history = fit(ds, config, batch_loss, test_ds, seeds=seeds)
    models = unstack(stacked)
    assert len(models) == len(seeds)
    for e, (model, seed) in enumerate(zip(models, seeds)):
        ref, ref_history = fit(ds, replace(config, seed=seed), batch_loss,
                               test_ds)
        for name in ref.arrays:
            assert np.array_equal(model.arrays[name], ref.arrays[name])
        assert [{k: v[e] if isinstance(v, list) else v
                 for k, v in row.items()} for row in history] == ref_history


class TestLockstepFit:
    @settings(max_examples=80, deadline=None)
    @given(lockstep_runs())
    def test_stack_matches_separate_fits(self, run):
        assert_lockstep_matches_separate(*run)

    @pytest.mark.parametrize("arch", ["linear", "mlp"])
    def test_stack_matches_separate_fits_at_bench_batch(self, arch):
        # a full-width batch and a short last one, through the BLAS kernels
        # the benchmark's batch size picks
        rng = Rng(3)
        ds = LabeledDataset(rng.normal((1001, 5)),
                            rng.integers(0, 3, size=1001), 3)
        config = TrainConfig(epochs=2, batch_size=32, learning_rate=0.3,
                             arch=arch)
        assert_lockstep_matches_separate(ds, ds, config, [11, 12, 13], "ce")

    def test_epoch_batches_of_a_stacked_order(self):
        order = np.array([[4, 0, 3, 1, 2], [0, 1, 2, 3, 4]])
        got = [idx for idx, in epoch_batches(order, 2)]
        assert [b.tolist() for b in got] == [[[4, 0], [0, 1]],
                                             [[3, 1], [2, 3]], [[2], [4]]]

    def test_stacked_predictions_are_each_models(self):
        rng = Rng(5)
        X = rng.normal((7, 3))
        models = [init("mlp", 3, 4, s, hidden=5) for s in (1, 2)]
        stacked, _ = fit(LabeledDataset(X, np.zeros(7, dtype=int), 4),
                         TrainConfig(epochs=1, learning_rate=0.0, arch="mlp",
                                     hidden=5),
                         lambda probs, idx: (np.zeros(len(probs)),
                                             np.zeros_like(probs)),
                         seeds=[1, 2])
        for e, model in enumerate(models):
            assert np.array_equal(predict_probs(stacked, X)[e],
                                  predict_probs(model, X))
            assert np.array_equal(predict(stacked, X)[e], predict(model, X))


@st.composite
def view_stacks(draw):
    """(views, test set, TrainConfig, reweight spec) for a stack of 1..6
    views of one random set, each view with labels of its own, under a
    loss kind without a transition or forward or backward under one fixed
    T, and any reweight hook or none."""
    K = draw(st.integers(2, 4), label="K")
    n = draw(st.integers(2, 30), label="n")
    d = draw(st.integers(1, 3), label="d")
    seed = draw(st.integers(0, 2**16), label="seed")
    rng = Rng(seed)
    X = rng.normal((n, d)) * 2.0
    views = [LabeledDataset(X, rng.integers(0, K, size=n), K)
             for _ in range(draw(st.integers(1, 6), label="views"))]
    test_ds = LabeledDataset(rng.normal((7, d)), rng.integers(0, K, size=7),
                             K)
    kind = draw(st.sampled_from(EXACT + ("forward", "backward")),
                label="loss")
    T = draw(transitions(K), label="T") if kind in ("forward",
                                                     "backward") else None
    config = TrainConfig(
        epochs=draw(st.integers(1, 3), label="epochs"),
        batch_size=draw(st.integers(1, 9), label="batch_size"),
        learning_rate=draw(st.sampled_from([0.1, 0.3, 0.7]), label="lr"),
        seed=seed, arch=draw(st.sampled_from(["linear", "mlp"]),
                             label="arch"), hidden=4,
        loss=LossSpec(kind, epsilon=0.1 if kind == "smooth_kl" else 0.0,
                      transition=T))
    return views, test_ds, config, draw(hook_specs(K))


@st.composite
def hook_specs(draw, K):
    """A reweight spec of any kind for K classes, or None."""
    hook = draw(st.sampled_from([None, "trimmed", "rank_prune", "running",
                                 "pumpout"]), label="reweight")
    if hook is None:
        return None
    if hook == "running":
        # windows and warmups small beside the 2..30 rows an epoch gives,
        # so that the filter skips, and skips differently per view; a
        # warmup past the window never skips
        window = draw(st.integers(1, 6), label="window")
        spec = {"window": window,
                "warmup": draw(st.integers(0, window + 1), label="warmup"),
                "multiplier": draw(st.sampled_from([0.5, 1.5]),
                                   label="multiplier")}
    elif hook == "pumpout":
        spec = {"transition": draw(flaggable_transitions(K), label="T")}
    else:
        spec = {"fraction": draw(st.sampled_from([0.2, 0.5]),
                                 label="fraction")}
    return {"kind": hook, **spec}


def ref_view_train(view, config, test_ds, spec):
    """One view trained outside model.train: the per-row hook loop under a
    hook, a plain single-model fit without one."""
    if spec is not None:
        return ref_reweighted_train(view, config, spec, test_ds)

    def batch_loss(probs, idx):
        return loss_and_grad(config.loss, probs, view.labels[idx])

    return fit(view, config, batch_loss, test_ds)


def assert_stack_matches_per_view(views, test_ds, config, spec):
    """train over the views as one stack gives, for each view, the params
    (bytes) and history (JSON) of ref_view_train on that view alone."""
    fits = train(views, config, test_ds, reweight=spec)
    assert len(fits) == len(views)
    for view, (params, history) in zip(views, fits):
        ref, ref_history = ref_view_train(view, config, test_ds, spec)
        for name in ref.arrays:
            assert params.arrays[name].tobytes() == ref.arrays[name].tobytes()
        assert json.dumps(history) == json.dumps(ref_history)


class TestStackedTrain:
    @settings(max_examples=100, deadline=None)
    @given(view_stacks())
    def test_matches_per_view_train(self, run):
        assert_stack_matches_per_view(*run)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_mixed_hooks_match_each_view_alone(self, data):
        # one reweight spec per view, each kind and none mixed in a stack
        views, test_ds, config, _ = data.draw(view_stacks())
        specs = [data.draw(hook_specs(views[0].num_classes), label="spec")
                 for _ in views]
        fits = train(views, config, test_ds, reweight=specs)
        assert len(fits) == len(views)
        for view, spec, (params, history) in zip(views, specs, fits):
            alone, alone_history = train(view, config, test_ds, reweight=spec)
            for name in alone.arrays:
                assert (params.arrays[name].tobytes()
                        == alone.arrays[name].tobytes())
            assert json.dumps(history) == json.dumps(alone_history)

    @pytest.mark.parametrize("spec", [
        None, {"kind": "trimmed", "fraction": 0.2},
        {"kind": "rank_prune", "fraction": 0.2}, {"kind": "running"}])
    @pytest.mark.parametrize("arch", ["linear", "mlp"])
    def test_a_sweeps_views_at_bench_batch(self, arch, spec):
        # one set under three noise rates, a full-width batch and a short
        # last one, as a sweep stacks them
        train_ds, test_ds = split(gen_blobs(3, 60, 2, 3.0, 1), 0.25, 2)
        views = [inject(train_ds, symmetric_transition(3, rho),
                        Rng(3)).training_view() for rho in (0.0, 0.2, 0.4)]
        config = TrainConfig(epochs=3, arch=arch, seed=1)
        assert_stack_matches_per_view(views, test_ds, config, spec)

    def test_fails_when_every_model_steps_on_the_first_views_labels(
            self, monkeypatch):
        # the check above against a stack whose models all step on the
        # first view's labels, their own kept masks and test set unchanged
        real = model.epoch_batches

        def first_views_labels(order, batch_size, *arrays):
            for batch in real(order, batch_size, *arrays):
                if len(batch) > 2:  # train's [idx, X, (E, B) labels, kept]
                    batch[2] = np.repeat(batch[2][:1], len(batch[2]), axis=0)
                yield batch

        train_ds, test_ds = split(gen_blobs(3, 60, 2, 3.0, 1), 0.25, 2)
        views = [inject(train_ds, symmetric_transition(3, rho),
                        Rng(3)).training_view() for rho in (0.0, 0.4)]
        config = TrainConfig(epochs=2, seed=1)
        assert_stack_matches_per_view(views, test_ds, config, None)
        monkeypatch.setattr(model, "epoch_batches", first_views_labels)
        with pytest.raises(AssertionError):
            assert_stack_matches_per_view(views, test_ds, config, None)

    def test_views_of_other_shapes_are_refused(self):
        ds = LabeledDataset(np.zeros((4, 2)), np.zeros(4, dtype=int), 2)
        other = LabeledDataset(np.zeros((5, 2)), np.zeros(5, dtype=int), 2)
        for views in ([], [ds, other]):
            with pytest.raises(ValueError, match="one n, d and K"):
                train(views, TrainConfig(epochs=1))
        with pytest.raises(ValueError, match="2 views need one reweight "
                           "spec each, got 1"):
            train([ds, ds], TrainConfig(epochs=1), reweight=[None])


def ref_cleaning_meta_features(models, ds, labels):
    """cleaning_meta_features as it scored a list of models, one forward
    pass per model."""
    probs = predict_probs(models[0], ds.features)
    n = ds.n
    loss = -np.log(np.maximum(probs[np.arange(n), labels], LOG_CLAMP))
    sorted_p = np.sort(probs, axis=1)
    max_prob = sorted_p[:, -1]
    margin = sorted_p[:, -1] - sorted_p[:, -2]
    disagree = np.zeros(n)
    if len(models) > 1:
        votes = np.column_stack([forward_batch(m, ds.features)[0]
                                 .argmax(axis=1) for m in models])
        majority = np.max([np.sum(votes == c, axis=1)
                           for c in range(models[0].K)], axis=0)
        disagree = 1.0 - majority / len(models)
    cents = class_centroids(ds.features, labels, ds.num_classes)
    dist = np.linalg.norm(ds.features - cents[labels], axis=1)
    return np.column_stack([loss, max_prob, margin, disagree, dist])


def ref_iterative_clean(ds_noisy, ds_clean_small, config, rounds=3,
                        threshold=0.5, ensemble_size=3):
    """iterative_clean as it trained its seed ensemble before lockstep: one
    train call per seed, scored model by model, relabeling row by row on
    the per-entry store. The meta-classifier is fit by the same
    fit_meta_classifier: this pins the ensemble, not the meta fit."""
    rng = Rng(config.seed)
    store = RefStore(ds_noisy.labels, ds_noisy.num_classes)
    flags = np.zeros(ds_noisy.n, dtype=bool)
    meta_params = None
    history = []
    for rnd in range(rounds):
        labels = store.hard_labels()
        current = replace(ds_noisy.training_view(), labels=labels)
        seeds = [int(r.integers(0, 2**31)) for r in rng.split(ensemble_size)]
        models = [train(current, replace(config, seed=s))[0] for s in seeds]
        feats_clean = ref_cleaning_meta_features(models, ds_clean_small,
                                                 ds_clean_small.labels)
        target = (ds_clean_small.labels
                  != ds_clean_small.true_labels).astype(np.int64)
        mu, sd = feats_clean.mean(axis=0), feats_clean.std(axis=0) + 1e-9
        meta_params = fit_meta_classifier((feats_clean - mu) / sd, target)
        feats_noisy = (ref_cleaning_meta_features(models, ds_noisy, labels)
                       - mu) / sd
        p_flip = predict_probs(meta_params, feats_noisy)[:, 1]
        base_pred = predict(models[0], ds_noisy.features)
        round_flags = p_flip > threshold
        changed = np.flatnonzero(round_flags & (base_pred != labels))
        for i in changed:
            store.relabel_hard(i, int(base_pred[i]), rnd, "meta_clean")
        flags |= round_flags
        history.append({"round": rnd, "flagged": int(round_flags.sum()),
                        "relabeled": len(changed)})
    return store, flags, meta_params, history


class TestLockstepIterativeClean:
    @settings(max_examples=30, deadline=None)
    @given(run=small_runs(), n_clean=st.integers(2, 8),
           rounds=st.integers(1, 3), ensemble_size=st.integers(1, 4),
           threshold=st.sampled_from([0.3, 0.5]))
    def test_matches_per_model_loop(self, run, n_clean, rounds,
                                    ensemble_size, threshold):
        ds, _, config = run
        rng = Rng(config.seed + 1)
        truth = np.where(rng.uniform(ds.n) < 0.3,
                         rng.integers(0, ds.num_classes, size=ds.n),
                         ds.labels)
        noisy = replace(ds, true_labels=truth)
        clean = noisy.subset(np.arange(min(n_clean, ds.n)))
        args = (noisy.training_view(), clean, config, rounds, threshold,
                ensemble_size)
        store, flags, meta, history = iterative_clean(*args)
        ref_store, ref_flags, ref_meta, ref_history = \
            ref_iterative_clean(*args)
        assert_stores_equal(store, ref_store)
        assert np.array_equal(flags, ref_flags)
        for name in ref_meta.arrays:
            assert np.array_equal(meta.arrays[name], ref_meta.arrays[name])
        assert history == ref_history


def ref_train_co_teaching(ds, config, test_ds=None, noise_rate=0.2,
                          disagreement_only=False):
    """train_co_teaching as it stepped its peers before they were one
    stack: two models, one SGD step each per batch. The history follows
    model A, with its mean step loss as train_loss on an epoch that
    stepped."""
    def step(params, X, y, epoch):
        return sgd_epoch(params, [(X, y)], config.learning_rate,
                         lambda probs, y: loss_and_grad(LossSpec("ce"), probs,
                                                        y), epoch)

    rng = Rng(config.seed)
    seed_a, seed_b = (int(r.integers(0, 2**31)) for r in rng.split(2))
    model_a = init(config.arch, ds.dim, ds.num_classes, seed_a, config.hidden)
    model_b = init(config.arch, ds.dim, ds.num_classes, seed_b, config.hidden)
    history = []
    for epoch in range(config.epochs):
        keep = co_teaching_keep_schedule(epoch, noise_rate)
        order = rng.permutation(ds.n)
        values_a = []
        for idx, in epoch_batches(order, config.batch_size):
            X, y = ds.features[idx], ds.labels[idx]
            if disagreement_only:
                sel = np.flatnonzero(predict(model_a, X)
                                     != predict(model_b, X))
                if sel.size:
                    values_a.append(step(model_a, X[sel], y[sel], epoch))
                    step(model_b, X[sel], y[sel], epoch)
            else:
                sel_a = small_loss_selection(predict_probs(model_a, X), y,
                                             keep)
                sel_b = small_loss_selection(predict_probs(model_b, X), y,
                                             keep)
                step(model_b, X[sel_a], y[sel_a], epoch)
                values_a.append(step(model_a, X[sel_b], y[sel_b], epoch))
        fields = {} if disagreement_only else {"keep_fraction": keep}
        if values_a:
            fields["train_loss"] = float(np.mean(np.concatenate(values_a)))
        history.append(epoch_row(epoch, model_a, test_ds, **fields))
    return model_a, model_b, history


@st.composite
def peer_runs(draw):
    """(train set, test set, TrainConfig, noise_rate) for a pair of peers:
    K 2..5, d 1..3, linear or mlp, a short last batch (the only one when n
    is below the batch size), and up to 8 epochs, so the co-teaching keep
    fraction falls below 1 after its 5 warmup epochs."""
    K = draw(st.integers(2, 5), label="K")
    d = draw(st.integers(1, 3), label="d")
    batch_size = draw(st.integers(2, 8), label="batch_size")
    n = (batch_size * draw(st.integers(0, 3), label="full batches")
         + draw(st.integers(1, batch_size - 1), label="last batch"))
    seed = draw(st.integers(0, 2**16), label="seed")
    rng = Rng(seed)
    ds = LabeledDataset(rng.normal((n, d)), rng.integers(0, K, size=n), K)
    test_ds = LabeledDataset(rng.normal((5, d)), rng.integers(0, K, size=5),
                             K)
    config = TrainConfig(
        epochs=draw(st.integers(1, 8), label="epochs"),
        batch_size=batch_size,
        learning_rate=draw(st.sampled_from([0.1, 0.3, 0.7]), label="lr"),
        seed=seed, arch=draw(st.sampled_from(["linear", "mlp"]),
                             label="arch"), hidden=4)
    noise_rate = draw(st.sampled_from([0.2, 0.45]), label="noise_rate")
    return ds, test_ds, config, noise_rate


class TestStackedPeers:
    @pytest.mark.parametrize("disagreement_only", [False, True],
                             ids=["co_teaching", "disagreement"])
    @settings(max_examples=60, deadline=None)
    @given(run=peer_runs())
    def test_matches_two_model_loop(self, run, disagreement_only):
        ds, test_ds, config, noise_rate = run
        got = train_co_teaching(ds, config, test_ds, noise_rate,
                                disagreement_only)
        ref = ref_train_co_teaching(ds, config, test_ds, noise_rate,
                                    disagreement_only)
        assert got[2] == ref[2]
        for model, ref_model in zip(got[:2], ref[:2]):
            for name in ref_model.arrays:
                assert np.array_equal(model.arrays[name],
                                      ref_model.arrays[name])

    @settings(max_examples=30, deadline=None)
    @given(run=peer_runs())
    def test_disagreement_on_identical_peers_updates_nothing(self, run):
        ds, test_ds, config, _ = run
        model = init(config.arch, ds.dim, ds.num_classes, config.seed, 4)
        with pytest.MonkeyPatch.context() as mp:  # both peers start as model
            mp.setattr(procedures, "init", lambda *args: model.copy())
            *peers, history = train_co_teaching(ds, config, test_ds,
                                                disagreement_only=True)
        for peer in peers:
            for name in model.arrays:
                assert np.array_equal(peer.arrays[name], model.arrays[name])
        assert [sorted(row) for row in history] == (
            [["epoch", "test_accuracy"]] * config.epochs)


def ref_small_loss_selection(probs, y, keep_fraction):
    """small_loss_selection on one model's (B, K) probabilities, as it was
    before it took a stack."""
    losses = loss_vector("ce", probs)[np.arange(len(y)), y]
    n_keep = max(1, int(round(keep_fraction * len(y))))
    order = np.argsort(losses, kind="stable")
    return np.sort(order[:n_keep])


def ref_pair_rows(peers, X, y, keep_fraction=None):
    """peer_rows for one stacked pair as it was before it took a stack of
    pairs: the (2, m) rows each peer steps on, of one (B, d) batch."""
    if keep_fraction is None:
        preds_a, preds_b = predict_probs(peers, X).argmax(axis=-1)
        return np.tile(np.flatnonzero(preds_a != preds_b), (2, 1))
    if max(1, int(round(keep_fraction * len(y)))) == len(y):
        return np.tile(np.arange(len(y)), (2, 1))
    probs = predict_probs(peers, X)
    return np.array([ref_small_loss_selection(probs[1], y, keep_fraction),
                     ref_small_loss_selection(probs[0], y, keep_fraction)])


def ref_view_co_teaching(ds, config, test_ds=None, noise_rate=0.2,
                         disagreement_only=False):
    """train_co_teaching on one view as it was before it took a list of
    views: one stacked pair that fit steps on the rows ref_pair_rows gives,
    skipping a batch that gives none; the history follows the first
    peer."""
    rng = Rng(config.seed)
    peers = stack([init(config.arch, ds.dim, ds.num_classes,
                        int(r.integers(0, 2**31)), config.hidden)
                   for r in rng.split(2)])
    keeps = [None if disagreement_only
             else co_teaching_keep_schedule(epoch, noise_rate)
             for epoch in range(config.epochs)]
    schedule = iter(keeps)

    def batches(order, rng):
        keep = next(schedule)
        for _, X, y in epoch_batches(order, config.batch_size, ds.features,
                                     ds.labels):
            rows = ref_pair_rows(peers, X, y, keep)
            if rows.size:
                yield X[rows], y[rows].ravel()

    peers, history = fit(ds, config,
                         lambda probs, y: loss_and_grad(LossSpec("ce"),
                                                        probs, y),
                         test_ds, batches, peers)
    for row, keep in zip(history, keeps):
        row.update({k: row[k][0] for k in ("train_loss", "test_accuracy")
                    if k in row})
        if keep is not None:
            row["keep_fraction"] = keep
    return (*unstack(peers), history)


@st.composite
def peer_view_stacks(draw):
    """(views, test set, TrainConfig, noise rates) for 1..6 views of one
    shape: each view has labels of its own and, unless the views share
    them, features of its own, and the first view's may all be zero, so
    that disagreement's peers agree on its every row. Each view has its own
    noise rate; 0 and 0.05 keep every row of a batch. K 2..4, d 1..3,
    linear or mlp, a short last batch, and up to 8 epochs, so co-teaching
    ranks after its 5 warm-up epochs."""
    K = draw(st.integers(2, 4), label="K")
    d = draw(st.integers(1, 3), label="d")
    batch_size = draw(st.integers(2, 8), label="batch_size")
    n = (batch_size * draw(st.integers(0, 3), label="full batches")
         + draw(st.integers(1, batch_size - 1), label="last batch"))
    seed = draw(st.integers(0, 2**16), label="seed")
    rng = Rng(seed)
    shared = rng.normal((n, d))
    views = [LabeledDataset(shared if draw(st.booleans(), label="shared")
                            else rng.normal((n, d)),
                            rng.integers(0, K, size=n), K)
             for _ in range(draw(st.integers(1, 6), label="views"))]
    if draw(st.booleans(), label="zero features"):
        views[0] = replace(views[0], features=np.zeros((n, d)))
    rates = [draw(st.sampled_from([0.0, 0.05, 0.2, 0.45]), label="rate")
             for _ in views]
    test_ds = LabeledDataset(rng.normal((5, d)), rng.integers(0, K, size=5),
                             K)
    config = TrainConfig(
        epochs=draw(st.integers(1, 8), label="epochs"),
        batch_size=batch_size,
        learning_rate=draw(st.sampled_from([0.1, 0.3, 0.7]), label="lr"),
        seed=seed, arch=draw(st.sampled_from(["linear", "mlp"]),
                             label="arch"), hidden=4)
    return views, test_ds, config, rates


def assert_peer_stack_matches_per_view(views, test_ds, config, rates,
                                       disagreement_only):
    """train_co_teaching over the views as one stack gives, for each view,
    the peers (bytes) and history (JSON) of ref_view_co_teaching on that
    view alone, or raises where one of those raises."""
    refs = []
    try:
        for view, rate in zip(views, rates):
            refs.append(ref_view_co_teaching(view, config, test_ds, rate,
                                             disagreement_only))
    except (DivergedError, ValueError) as e:
        with pytest.raises(type(e)):
            train_co_teaching(views, config, test_ds, rates,
                              disagreement_only)
        return
    got = train_co_teaching(views, config, test_ds, rates, disagreement_only)
    assert len(got) == len(views)
    for (*peers, history), (*ref_peers, ref_history) in zip(got, refs):
        for peer, ref in zip(peers, ref_peers):
            for name in ref.arrays:
                assert peer.arrays[name].tobytes() == ref.arrays[name].tobytes()
        assert json.dumps(history) == json.dumps(ref_history)


class TestStackedPeerViews:
    @pytest.mark.parametrize("disagreement_only", [False, True],
                             ids=["co_teaching", "disagreement"])
    @settings(max_examples=60, deadline=None)
    @given(run=peer_view_stacks())
    def test_matches_per_view_co_teaching(self, run, disagreement_only):
        assert_peer_stack_matches_per_view(*run, disagreement_only)

    @pytest.mark.parametrize("disagreement_only", [False, True],
                             ids=["co_teaching", "disagreement"])
    @pytest.mark.parametrize("arch", ["linear", "mlp"])
    def test_a_sweeps_views_at_bench_batch(self, arch, disagreement_only):
        # one set under three noise rates, each its co-teaching noise_rate
        # (0.2 at rate 0, as a sweep gives it), past the warm-up, with
        # full-width batches and a short last one
        train_ds, test_ds = split(gen_blobs(3, 60, 2, 3.0, 1), 0.25, 2)
        views = [inject(train_ds, symmetric_transition(3, rho),
                        Rng(3)).training_view() for rho in (0.0, 0.2, 0.4)]
        config = TrainConfig(epochs=8, arch=arch, seed=1)
        assert_peer_stack_matches_per_view(views, test_ds, config,
                                           [0.2, 0.2, 0.4],
                                           disagreement_only)

    def test_a_pair_that_never_steps_keeps_rows_without_train_loss(self):
        # on all-zero features disagreement's peers agree on every row, so
        # the first view's pair never steps while the second's does
        rng = Rng(4)
        X = rng.normal((20, 2))
        views = [LabeledDataset(np.zeros((20, 2)), rng.integers(0, 3, 20), 3),
                 LabeledDataset(X, rng.integers(0, 3, 20), 3)]
        config = TrainConfig(epochs=3, batch_size=8, seed=2)
        assert_peer_stack_matches_per_view(views, views[1], config,
                                           [0.2, 0.2], True)
        (*_, idle), (*_, stepped) = train_co_teaching(views, config,
                                                      views[1],
                                                      disagreement_only=True)
        assert [sorted(row) for row in idle] == (
            [["epoch", "test_accuracy"]] * 3)
        assert all("train_loss" in row for row in stepped)

    def test_views_of_other_shapes_or_rates_are_refused(self):
        ds = LabeledDataset(np.zeros((4, 2)), np.zeros(4, dtype=int), 2)
        other = LabeledDataset(np.zeros((5, 2)), np.zeros(5, dtype=int), 2)
        for views, rates in (([], 0.2), ([ds, other], 0.2),
                             ([ds, ds], [0.2])):
            with pytest.raises(ValueError, match="one n, d and K"):
                train_co_teaching(views, TrainConfig(epochs=1),
                                  noise_rate=rates)


@st.composite
def ragged_runs(draw):
    """(train set, test set, TrainConfig) whose batch size does not divide
    n, so every epoch ends on a short batch; d 1..3, K 2..4, linear or
    mlp, any of the exact loss kinds."""
    K = draw(st.integers(2, 4), label="K")
    d = draw(st.integers(1, 3), label="d")
    batch_size = draw(st.integers(2, 9), label="batch_size")
    n = (batch_size * draw(st.integers(0, 3), label="full batches")
         + draw(st.integers(1, batch_size - 1), label="last batch"))
    seed = draw(st.integers(0, 2**16), label="seed")
    rng = Rng(seed)
    ds = LabeledDataset(rng.normal((n, d)) * 2.0, rng.integers(0, K, size=n),
                        K)
    test_ds = LabeledDataset(rng.normal((5, d)), rng.integers(0, K, size=5),
                             K)
    config = TrainConfig(
        epochs=draw(st.integers(1, 3), label="epochs"),
        batch_size=batch_size,
        learning_rate=draw(st.sampled_from([0.1, 0.3, 0.7]), label="lr"),
        seed=seed, arch=draw(st.sampled_from(["linear", "mlp"]),
                             label="arch"), hidden=4,
        loss=draw(st.sampled_from([LossSpec("ce"), LossSpec("mae"),
                                   LossSpec("imae"),
                                   LossSpec("smooth_kl", epsilon=0.1)]),
                  label="loss"))
    return ds, test_ds, config


def index_gather_batches(ds, batch_size):
    """fit's default batches as they gathered each batch's rows by index:
    the index column of epoch_batches(order, batch_size) and features[idx]."""
    return lambda order, rng: ((ds.features[idx], idx.ravel())
                               for idx, in epoch_batches(order, batch_size))


def ref_index_gather_train(ds, config, test_ds=None, reweight=None):
    """model.train as it gathered each batch's features, labels and kept
    rows by index."""
    hook = make_reweighter(reweight)
    params = init(config.arch, ds.dim, ds.num_classes, config.seed,
                  config.hidden)
    keep = np.ones(ds.n, dtype=bool)

    def batches(order, rng):
        kept = hook.epoch_kept_set(params, ds) if hook else None
        if kept is not None:
            keep[:] = kept
        return ((ds.features[idx], idx)
                for idx, in epoch_batches(order, config.batch_size))

    def batch_loss(probs, idx):
        yb = ds.labels[idx]
        values, G = loss_and_grad(config.loss, probs, yb)
        if hook is None:
            return values, G
        w = keep[idx].astype(np.float64)
        if hook.batch_weights is not None:
            rows = np.flatnonzero(w)
            w[rows] = hook.batch_weights(values[rows], probs[rows], yb[rows])
        return values, G * w[:, None]

    return fit(ds, config, batch_loss, test_ds, batches, params)


def ref_index_gather_mixup(ds, config, test_ds, alpha):
    """train_mixup as it gathered each batch's rows and targets by
    index."""
    Y = np.eye(ds.num_classes)[ds.labels]

    def batches(order, rng):
        return (mixup(ds.features[idx], Y[idx], alpha, rng)
                for idx, in epoch_batches(order, config.batch_size))

    def batch_loss(probs, Y_mix):
        return (np.sum(Y_mix * loss_vector("ce", probs), axis=1),
                probs - Y_mix)

    return fit(ds, config, batch_loss, test_ds, batches)


class TestEpochGather:
    """Each epoch's rows gathered once and sliced per batch give the runs
    that gathering each batch's rows by index gave, bit for bit (the
    peers' runs: TestStackedPeers, whose reference gathers by index)."""

    @settings(max_examples=60, deadline=None)
    @given(run=ragged_runs(), stacked=st.booleans())
    def test_fit(self, run, stacked):
        ds, test_ds, config = run
        seeds = [config.seed, config.seed + 1, 7] if stacked else None

        def batch_loss(probs, idx):
            return loss_and_grad(config.loss, probs, ds.labels[idx])

        assert_same_run(
            *fit(ds, config, batch_loss, test_ds, seeds=seeds),
            *fit(ds, config, batch_loss, test_ds,
                 index_gather_batches(ds, config.batch_size), seeds=seeds))

    @pytest.mark.parametrize("kind", [None, "running", "trimmed",
                                      "rank_prune", "pumpout"])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_train_with_each_hook(self, kind, data):
        ds, config, spec = data.draw(reweight_runs(kind or "trimmed"))
        spec = spec if kind else None
        assert_same_run(*train(ds, config, ds, spec),
                        *ref_index_gather_train(ds, config, ds, spec))

    @settings(max_examples=40, deadline=None)
    @given(run=ragged_runs(), alpha=st.sampled_from([0.2, 1.0]))
    def test_mixup(self, run, alpha):
        ds, test_ds, config = run
        assert_same_run(*train_mixup(ds, config, test_ds, alpha),
                        *ref_index_gather_mixup(ds, config, test_ds, alpha))


def ref_recomputed_dual_relabel_epoch(model_small, model_large, ds, store,
                                      rng, lr, batch_size, epoch):
    """dual_relabel_epoch as it predicted the peers at the start of every
    round, scored both targets of a step by kl_to_targets and gathered each
    batch's rows by index."""
    models = (model_small, model_large)
    eye = np.eye(store.K)
    peers = [eye[predict(m, ds.features)] for m in models[::-1]]

    def batch_loss(probs, targets):
        stored, peer = targets
        l_stored = kl_to_targets(probs, stored)
        l_peer = kl_to_targets(probs, peer)
        return (np.minimum(l_stored, l_peer),
                probs - np.where((l_stored <= l_peer)[:, None], stored, peer))

    for params, peer, stream in zip(models, peers, rng.split(2)):
        order = stream.permutation(ds.n)
        sgd_epoch(params, ((ds.features[idx], (store.targets[idx], peer[idx]))
                           for idx, in epoch_batches(order, batch_size)),
                  lr, batch_loss, epoch)
    preds = np.array([predict_probs(m, ds.features) for m in models])
    own = preds.argmax(axis=-1)
    wins = kl_to_targets(preds, eye[own]) < kl_to_targets(preds, store.targets)
    one = np.flatnonzero(wins[0] ^ wins[1])
    store.relabel_hard(one, np.where(wins[0], own[0], own[1])[one], epoch,
                       np.where(wins[0][one], "small", "large"))
    both = np.flatnonzero(wins[0] & wins[1])
    store.relabel_soft(both, 0.5 * (preds[0][both] + preds[1][both]), epoch,
                       "both")


def ref_recomputed_dual_relabel(ds, config, test_ds, warm_up):
    """train_dual_relabel as it ran ref_recomputed_dual_relabel_epoch
    each round, its models warmed up by warm_up."""
    rng = Rng(config.seed)
    seed_a, seed_b = (int(r.integers(0, 2**31)) for r in rng.split(2))
    store = SoftLabelStore(ds.labels, ds.num_classes)
    warm_cfg = replace(config, epochs=procedures.DUAL_RELABEL_WARMUP_EPOCHS,
                       arch="mlp")
    small, _ = warm_up(ds, replace(warm_cfg, seed=seed_a,
                                   hidden=round(config.hidden * 0.80)))
    large, _ = warm_up(ds, replace(warm_cfg, seed=seed_b,
                                   hidden=round(config.hidden * 1.25)))
    history = []
    for epoch in range(config.epochs):
        ref_recomputed_dual_relabel_epoch(small, large, ds, store, rng,
                                          config.learning_rate,
                                          config.batch_size, epoch)
        history.append(epoch_row(epoch, small, test_ds))
    return small, large, store, history


def zeroed(train_fn):
    """train_fn with every trained parameter set to 0: a uniform model."""
    def train_zeroed(*args, **kwargs):
        params, history = train_fn(*args, **kwargs)
        for a in params.arrays.values():
            a[:] = 0.0
        return params, history
    return train_zeroed


class TestDualRelabelPeerReuse:
    @settings(max_examples=40, deadline=None)
    @given(run=ragged_runs(), epochs=st.integers(2, 4),
           uniform=st.booleans())
    def test_matches_recomputed_predictions(self, run, epochs, uniform):
        ds, test_ds, config = run
        config = replace(config, epochs=epochs, hidden=5)
        warm_up = ref_index_gather_train
        with pytest.MonkeyPatch.context() as mp:
            if uniform:
                # uniform peers at lr 0: every label's loss ties, so each
                # step takes the stored target and no row is relabeled
                config = replace(config, learning_rate=0.0)
                mp.setattr(procedures, "train", zeroed(train))
                warm_up = zeroed(warm_up)
            *models, store, history = procedures.train_dual_relabel(
                ds, config, test_ds)
        *ref_models, ref_store, ref_history = ref_recomputed_dual_relabel(
            ds, config, test_ds, warm_up)
        assert store.targets.tobytes() == ref_store.targets.tobytes()
        for name in ("is_soft", "epoch", "source"):
            assert np.array_equal(getattr(store, name),
                                  getattr(ref_store, name))
        for model, ref_model in zip(models, ref_models):
            assert_same_run(model, history, ref_model, ref_history)
