import numpy as np
import pytest

from noisylab.data import gen_blobs
from noisylab.noise import (TRANSITION_LAPLACE, TransitionMatrix,
                            centroid_margins, draw_labels, estimate_transition,
                            feature_dependent_inject, inject,
                            simulate_annotators, symmetric_transition)
from noisylab.numerics import Rng


class TestSymmetricTransition:
    def test_formula(self):
        T = symmetric_transition(3, 0.3)
        assert np.allclose(np.diag(T.t), 0.7)
        off = T.t[~np.eye(3, dtype=bool)]
        assert np.allclose(off, 0.15)

    def test_zero_rho_identity(self):
        assert np.array_equal(symmetric_transition(4, 0.0).t, np.eye(4))

    def test_rows_sum_to_one(self):
        for K in (2, 3, 7):
            for rho in (0.0, 0.25, 0.9):
                T = symmetric_transition(K, rho)
                assert np.allclose(T.t.sum(axis=1), 1.0, atol=1e-9)

    def test_invalid_rho(self):
        with pytest.raises(ValueError):
            symmetric_transition(3, 1.0)
        with pytest.raises(ValueError):
            symmetric_transition(3, -0.1)


class TestTransitionMatrix:
    def test_rejects_non_stochastic(self):
        with pytest.raises(ValueError):
            TransitionMatrix(np.array([[0.5, 0.4], [0.3, 0.7]]))

    def test_json_round_trip(self):
        T = symmetric_transition(3, 0.2)
        back = TransitionMatrix.from_json({"k": 3, "rows": T.t.tolist()})
        assert np.array_equal(back.t, T.t)

    # the matrix's own checks; the harness prefixes each message with the
    # config path of the matrix (e.g. method.loss.transition.)
    @pytest.mark.parametrize("rows, message", [
        ([[0.5, 0.4], [0.3, 0.7]],
         "rows[0]: invalid probability vector: does not sum to 1"),
        ([[0.5, 0.5], [1.2, -0.2]],
         "rows[1]: invalid probability vector: entries outside [0,1]"),
        ([[1.0, 0.0], [float("nan"), 1.0]],
         "rows[1]: invalid probability vector: entries outside [0,1]"),
        ([[0.7, 0.3], [0.3, "0.7"]], "rows must hold real numbers, got str "
                                     "'0.7'"),
        ([[1.0, 0.0], [None, 1.0]], "rows must hold real numbers, got "
                                    "NoneType None"),
        ([[1.0, 0.0], [False, True]], "rows must hold real numbers, got "
                                      "bool False"),
        ([[1.0, 0.0], [1.0]], "rows must be a square k x k matrix, got "
                              "shape ragged"),
        ([[0.5, 0.5]] * 3, "rows must be a square k x k matrix, got shape "
                           "(3, 2)"),
        ([0.5, 0.5], "rows must be a square k x k matrix, got shape (2,)"),
    ], ids=["row-sum", "row-entries", "nan", "str", "none", "bool", "ragged",
            "3x2", "vector"])
    def test_malformed_rows_are_named(self, rows, message):
        with pytest.raises(ValueError) as info:
            TransitionMatrix(rows)
        assert str(info.value) == message

    @pytest.mark.parametrize("obj, message", [
        ({"k": 3, "rows": np.eye(2)},
         "rows has shape (2, 2), but k 3 needs (3, 3)"),
        ({"k": 2.0, "rows": np.eye(2)}, "k must be an integer >= 2, got 2.0"),
        ({"k": 2, "rows": [[0.5, 0.6], [0.0, 1.0]]},
         "rows[0]: invalid probability vector: does not sum to 1"),
    ], ids=["k-mismatch", "k-float", "row-sum"])
    def test_json_k_and_shape_are_named(self, obj, message):
        with pytest.raises(ValueError) as info:
            TransitionMatrix.from_json(obj)
        assert str(info.value) == message


class TestInject:
    def test_identity_unchanged(self):
        ds = gen_blobs(3, 50, 2, 8.0, 1)
        out = inject(ds, TransitionMatrix(np.eye(3)), Rng(2))
        assert np.array_equal(out.labels, ds.labels)

    def test_preserves_features_and_truth(self):
        ds = gen_blobs(2, 100, 2, 8.0, 1)
        out = inject(ds, symmetric_transition(2, 0.4), Rng(3))
        assert np.array_equal(out.features, ds.features)
        assert np.array_equal(out.true_labels, ds.labels)

    def test_flip_fraction_binomial(self):
        # 3 sigma of Binomial(1e4, 0.3) is ~0.0137
        ds = gen_blobs(2, 5000, 2, 8.0, 2)
        out = inject(ds, symmetric_transition(2, 0.3), Rng(3))
        flipped = np.mean(out.labels != out.true_labels)
        assert abs(flipped - 0.3) < 0.0137

    def test_empirical_confusion_converges(self):
        K = 3
        ds = gen_blobs(K, 10_000, 2, 8.0, 5)
        T = symmetric_transition(K, 0.25)
        out = inject(ds, T, Rng(6))
        counts = np.zeros((K, K))
        for t, o in zip(out.true_labels, out.labels):
            counts[t, o] += 1
        emp = counts / counts.sum(axis=1, keepdims=True)
        assert np.abs(emp - T.t).sum(axis=1).max() < 0.03

    def test_class_mismatch(self):
        ds = gen_blobs(3, 10, 2, 8.0, 1)
        with pytest.raises(ValueError):
            inject(ds, symmetric_transition(2, 0.1), Rng(0))


class TestFeatureDependent:
    def test_beta_zero_uniform_rate(self):
        ds = gen_blobs(2, 5000, 2, 8.0, 7)
        out = feature_dependent_inject(ds, 0.3, 0.0, Rng(8))
        flipped = np.mean(out.labels != out.true_labels)
        assert abs(flipped - 0.3) < 0.0137

    def test_rho_zero_no_flips(self):
        ds = gen_blobs(2, 200, 2, 8.0, 7)
        out = feature_dependent_inject(ds, 0.0, 1.0, Rng(8))
        assert np.array_equal(out.labels, out.true_labels)

    def test_boundary_decile_flips_more(self):
        ds = gen_blobs(2, 5000, 2, 8.0, 9)
        out = feature_dependent_inject(ds, 0.3, 0.3, Rng(10))
        margin, _ = centroid_margins(ds)
        flipped = (out.labels != out.true_labels).astype(float)
        order = np.argsort(margin)
        decile = len(order) // 10
        near = flipped[order[:decile]].mean()    # smallest margin
        far = flipped[order[-decile:]].mean()    # largest margin
        assert near > far

    def test_preserves_truth(self):
        ds = gen_blobs(3, 100, 2, 8.0, 11)
        out = feature_dependent_inject(ds, 0.2, 0.5, Rng(12))
        assert np.array_equal(out.true_labels, ds.labels)


class TestSimulateAnnotators:
    def test_identity_annotators(self):
        ds = gen_blobs(3, 50, 2, 8.0, 1)
        out = simulate_annotators(ds, [TransitionMatrix(np.eye(3))] * 4,
                                  Rng(2))
        for a in range(4):
            assert np.array_equal(out.annotator_labels[:, a], ds.labels)

    def test_error_rates(self):
        # 3 sigma of Binomial(1e4, 0.2) is ~0.012
        ds = gen_blobs(2, 5000, 2, 8.0, 3)
        conf = [symmetric_transition(2, 0.2)] * 3
        out = simulate_annotators(ds, conf, Rng(4))
        for a in range(3):
            err = np.mean(out.annotator_labels[:, a] != out.true_labels)
            assert abs(err - 0.2) < 0.012

    def test_conditional_independence(self):
        ds = gen_blobs(2, 5000, 2, 8.0, 5)
        conf = [symmetric_transition(2, 0.3)] * 2
        out = simulate_annotators(ds, conf, Rng(6))
        e0 = (out.annotator_labels[:, 0] != out.true_labels).astype(float)
        e1 = (out.annotator_labels[:, 1] != out.true_labels).astype(float)
        corr = np.corrcoef(e0, e1)[0, 1]
        assert abs(corr) < 0.02

    def test_class_mismatch(self):
        ds = gen_blobs(3, 10, 2, 8.0, 1)
        with pytest.raises(ValueError):
            simulate_annotators(ds, [symmetric_transition(2, 0.1)], Rng(0))


class TestEstimateTransition:
    def test_counts_arithmetic(self):
        pairs = ([(0, 0)] * 8 + [(0, 1)] * 2 + [(1, 0)] * 1 + [(1, 1)] * 9)
        T = estimate_transition(pairs, 2)
        assert np.allclose(T.t, [[9 / 12, 3 / 12], [2 / 12, 10 / 12]])

    def test_smoothing_limit(self):
        T = estimate_transition([], 4)
        assert np.allclose(T.t, 0.25)

    def test_empty_pair_array(self):
        T = estimate_transition(np.zeros((0, 2), dtype=int), 3)
        assert np.array_equal(T.t, np.full((3, 3), 1.0 / 3))

    @pytest.mark.parametrize("pair", [(-1, 0), (0, -1), (2, 0), (0, 2)])
    def test_label_outside_classes_is_named(self, pair):
        bad = min(pair) if min(pair) < 0 else max(pair)
        with pytest.raises(ValueError, match=f"label {bad} outside"):
            estimate_transition([(0, 1), pair], 2)

    def test_pairs_must_be_pairs(self):
        with pytest.raises(ValueError, match="pairs"):
            estimate_transition([(0, 1, 1)], 2)

    def test_counts_match_pair_loop(self):
        rng = np.random.default_rng(3)
        pairs = rng.integers(0, 4, (500, 2))
        counts = np.zeros((4, 4))
        for ref, noisy in pairs:
            counts[ref, noisy] += 1
        L = TRANSITION_LAPLACE
        want = (counts + L) / (counts.sum(axis=1) + 4 * L)[:, None]
        got = estimate_transition(pairs, 4).t
        assert got.tobytes() == want.tobytes()

    def test_recovery_from_samples(self):
        K = 3
        T = symmetric_transition(K, 0.3)
        truth = np.repeat(np.arange(K), 10_000)
        pairs = np.stack([truth, draw_labels(T, truth, Rng(42))], axis=1)
        est = estimate_transition(pairs, K)
        assert np.abs(est.t - T.t).sum(axis=1).max() < 0.03
