import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from noisylab import model, procedures
from noisylab.data import gen_blobs, split
from noisylab.harness import run_experiment
from noisylab.model import (TrainConfig, init, predict_probs, stack, train,
                            unstack)
from noisylab.noise import (feature_dependent_inject, inject,
                            symmetric_transition)
from noisylab.numerics import Rng, check_prob_vector
from noisylab.procedures import (META_RIDGE, SoftLabelStore,
                                 co_teaching_keep_schedule,
                                 fit_meta_classifier, iterative_clean, mixup,
                                 peer_rows, small_loss_selection,
                                 train_co_teaching, train_dual_relabel,
                                 train_mixup)


def constant_model(cls, K=2, d=2):
    p = init("linear", d, K, 0)
    p.arrays["W"][:] = 0.0
    p.arrays["b"][:] = 0.0
    p.arrays["b"][cls] = 10.0
    return p


class TestMixup:
    def test_convexity_example(self):
        X = np.array([[0.0, 0.0], [2.0, 4.0]])
        Y = np.eye(2)
        lam = 0.5
        x_mix = lam * X[0] + (1 - lam) * X[1]
        y_mix = lam * Y[0] + (1 - lam) * Y[1]
        assert np.allclose(x_mix, [1.0, 2.0])
        assert np.allclose(y_mix, [0.5, 0.5])

    def test_outputs_in_convex_hull(self):
        rng = Rng(1)
        X = rng.normal((16, 3))
        Y = np.eye(4)[rng.integers(0, 4, 16)]
        X_mix, Y_mix = mixup(X, Y, 0.2, Rng(2))
        assert X_mix.min() >= X.min() - 1e-12
        assert X_mix.max() <= X.max() + 1e-12
        for row in Y_mix:
            check_prob_vector(row)

    def test_deterministic(self):
        rng = Rng(3)
        X = rng.normal((8, 2))
        Y = np.eye(2)[rng.integers(0, 2, 8)]
        a = mixup(X, Y, 0.2, Rng(4))
        b = mixup(X, Y, 0.2, Rng(4))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            mixup(np.zeros((2, 2)), np.eye(2), 0.0, Rng(0))

    # inf and NaN passed the old alpha > 0 check, and the Beta draw's
    # rejection loop never accepted a sample: mixup hung
    @pytest.mark.parametrize("alpha", [float("inf"), float("nan")])
    def test_non_finite_alpha_fails_at_once(self, deadline, alpha):
        with pytest.raises(ValueError, match=re.escape(
                f"mixup: alpha must be in (0, inf), got {alpha!r}")):
            mixup(np.zeros((2, 2)), np.eye(2), alpha, Rng(0))

    # a large finite alpha: Johnk's accept rate Gamma(a+1)^2 / Gamma(2a+1)
    # is ~7e-12 at alpha 20, so a per-row rejection loop never returned
    def test_large_alpha_returns(self, deadline):
        X = np.arange(8.0).reshape(4, 2)
        X_mix, Y_mix = mixup(X, np.eye(2)[[0, 1, 0, 1]], 20.0, Rng(0))
        assert X_mix.shape == (4, 2)
        for row in Y_mix:
            check_prob_vector(row)
        report = run_experiment({
            "seed": 1, "dataset": {"kind": "blobs", "k": 3, "n_per_class": 40,
                                   "d": 2, "separation": 8.0},
            "train": {"epochs": 1},
            "method": {"procedure": {"name": "mixup", "alpha": 20}}})
        assert len(report["history"]) == 1

    def test_training_runs(self):
        full = gen_blobs(2, 100, 2, 8.0, 5)
        tr, te = split(full, 0.25, 6)
        cfg = TrainConfig(epochs=15, seed=7)
        _, hist = train_mixup(tr, cfg, te, alpha=0.2)
        assert hist[-1]["test_accuracy"] >= 0.95


def each_models(X, y, E=2):
    """The batch and its labels as each of E stacked models sees them."""
    return np.repeat(X[None], E, axis=0), np.repeat(y[None], E, axis=0)


def pair_rows(peers, X, y, keep=None):
    """The (2, m) rows of peer_rows' one group for a lone pair of peers
    that keeps the keep fraction, the pair's (2, 0) rows when it gives
    none."""
    groups = peer_rows(peers, *each_models(X, y),
                       None if keep is None else [keep])
    if not groups:
        return np.zeros((2, 0), dtype=np.intp)
    (models, rows), = groups
    assert models is None  # a lone pair steps as one stack
    return rows


class TestCoTeachingRows:
    def test_keep_fraction_one_full_batch(self):
        ds = gen_blobs(2, 20, 2, 8.0, 1)
        a, b = init("linear", 2, 2, 1), init("linear", 2, 2, 2)
        rows = pair_rows(stack([a, b]), ds.features[:8], ds.labels[:8], 1.0)
        assert rows.shape == (2, 8)
        assert all(list(r) == list(range(8)) for r in rows)

    def test_selection_count(self):
        ds = gen_blobs(2, 20, 2, 8.0, 1)
        a, b = init("linear", 2, 2, 1), init("linear", 2, 2, 2)
        rows = pair_rows(stack([a, b]), ds.features[:8], ds.labels[:8], 0.5)
        assert rows.shape == (2, 4)

    def test_each_peer_steps_on_the_other_peers_selection(self):
        ds = gen_blobs(2, 20, 2, 8.0, 1)
        a, b = init("linear", 2, 2, 1), init("linear", 2, 2, 2)
        X, y = ds.features[:8], ds.labels[:8]
        rows = pair_rows(stack([a, b]), X, y, 0.5)
        assert list(rows[0]) == list(
            small_loss_selection(predict_probs(b, X), y, 0.5))
        assert list(rows[1]) == list(
            small_loss_selection(predict_probs(a, X), y, 0.5))

    def test_selection_from_predictions_and_labels_only(self):
        # the masking primitive takes (probs, labels) and nothing else
        probs = np.array([[0.9, 0.1], [0.1, 0.9], [0.6, 0.4], [0.4, 0.6]])
        sel = small_loss_selection(probs, np.array([0, 0, 0, 0]), 0.5)
        assert list(sel) == [0, 2]

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_stacked_selection_is_each_rows(self, data):
        E = data.draw(st.integers(1, 4), label="models")
        n = data.draw(st.integers(1, 12), label="batch")
        K = data.draw(st.integers(2, 4), label="K")
        keep = data.draw(st.floats(0.05, 1.0), label="keep")
        rng = Rng(data.draw(st.integers(0, 2**16), label="seed"))
        probs = rng.uniform((E, n, K)) + 0.1
        probs = probs / probs.sum(axis=-1, keepdims=True)
        y = rng.integers(0, K, size=(E, n))
        assert small_loss_selection(probs, y, keep).tolist() == [
            small_loss_selection(p, labels, keep).tolist()
            for p, labels in zip(probs, y)]

    # keep fractions that round up to the batch, and short batches
    @pytest.mark.parametrize("n, keep", [(8, 1.0), (8, 0.95), (7, 0.93),
                                         (1, 0.3)])
    def test_full_keep_makes_no_forward(self, monkeypatch, n, keep):
        def no_forward(*args):
            pytest.fail("peer_rows predicted a batch it keeps whole")

        monkeypatch.setattr(procedures, "predict_probs", no_forward)
        ds = gen_blobs(2, 20, 2, 8.0, 1)
        peers = stack([init("linear", 2, 2, 1), init("linear", 2, 2, 2)])
        rows = pair_rows(peers, ds.features[:n], ds.labels[:n], keep)
        assert rows.tolist() == [list(range(n))] * 2

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_full_keep_matches_ranking(self, data):
        # whatever the probabilities, ties included, ranking keeps every row
        n = data.draw(st.integers(1, 64), label="batch")
        keep = data.draw(st.one_of(
            st.floats(max(1e-9, (n - 0.5) / n), 1.0),
            st.floats(1e-9, 1.0)), label="keep")
        assume(max(1, int(round(keep * n))) == n)
        K = data.draw(st.integers(2, 4), label="K")
        levels = np.array(data.draw(st.lists(
            st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=n * K,
            max_size=n * K), label="levels")).reshape(n, K) + 0.1
        y = np.array(data.draw(st.lists(st.integers(0, K - 1), min_size=n,
                                        max_size=n), label="y"))
        probs = levels / levels.sum(axis=1, keepdims=True)
        ranked = small_loss_selection(probs, y, keep)
        peers = stack([init("linear", 2, K, 1), init("linear", 2, K, 2)])
        X = Rng(n).normal(size=(n, 2))
        rows = pair_rows(peers, X, y, keep)
        assert rows.tolist() == [ranked.tolist()] * 2
        a, b = unstack(peers)  # B's selection steps A, A's steps B
        assert rows.tolist() == [
            small_loss_selection(predict_probs(p, X), y, keep).tolist()
            for p in (b, a)]

    def test_pairs_group_by_the_size_of_their_row_sets(self):
        # three pairs, each with labels of its own: the first and last keep
        # half of the batch and step together, the middle one keeps it whole
        ds = gen_blobs(2, 20, 2, 8.0, 1)
        X = ds.features[:8]
        labels = [ds.labels[:8], 1 - ds.labels[:8], ds.labels[8:16]]
        pairs = [stack([init("linear", 2, 2, 2 * p + 1),
                        init("linear", 2, 2, 2 * p + 2)]) for p in range(3)]
        peers = stack([m for pair in pairs for m in unstack(pair)])
        y = np.repeat(np.array(labels), 2, axis=0)
        groups = peer_rows(peers, np.repeat(X[None], 6, axis=0), y,
                           [0.5, 1.0, 0.5])
        assert [(models.tolist(), rows.shape) for models, rows in groups] == [
            ([0, 1, 4, 5], (4, 4)), ([2, 3], (2, 8))]
        for models, rows in groups:
            for pair_models, pair in zip(rows.reshape(-1, 2, rows.shape[1]),
                                         models.reshape(-1, 2) // 2):
                keep = [0.5, 1.0, 0.5][pair[0]]
                assert np.array_equal(pair_models, pair_rows(
                    pairs[pair[0]], X, labels[pair[0]], keep))

    def test_invalid_fraction(self):
        a, b = init("linear", 2, 2, 1), init("linear", 2, 2, 2)
        with pytest.raises(ValueError):
            peer_rows(stack([a, b]), np.zeros((2, 2)),
                      np.zeros(2, dtype=int), [0.0])

    def test_beats_ce_under_heavy_noise(self):
        # frozen seeded oracle run
        full = gen_blobs(2, 300, 2, 8.0, 21)
        tr, te = split(full, 0.25, 22)
        noisy = inject(tr, symmetric_transition(2, 0.4), Rng(23))
        view = noisy.training_view()
        cfg = TrainConfig(epochs=30, seed=24, learning_rate=0.1,
                          batch_size=32)
        _, _, hist = train_co_teaching(view, cfg, te, noise_rate=0.4)
        _, h_ce = train(view, cfg, te)
        assert hist[-1]["test_accuracy"] >= h_ce[-1]["test_accuracy"]

    # -0.2 failed only at epoch 5 (keep_fraction 1.02); 1.0 ran 14 epochs
    # before its keep fraction reached 0
    @pytest.mark.parametrize("noise_rate", [-0.2, 1.0])
    def test_noise_rate_outside_unit_interval_fails_first(self, monkeypatch,
                                                          noise_rate):
        steps = []
        monkeypatch.setattr(model, "backward_batch",
                            lambda *args: steps.append(args))
        ds = gen_blobs(2, 20, 2, 8.0, 3)
        with pytest.raises(ValueError, match=re.escape(
                "train_co_teaching: noise_rate must be in [0, 1), "
                f"got {noise_rate!r}")):
            train_co_teaching(ds, TrainConfig(epochs=20), None,
                              noise_rate=noise_rate)
        assert steps == []


class TestKeepSchedule:
    def test_warmup_and_decay(self):
        assert co_teaching_keep_schedule(0, 0.4) == 1.0
        assert co_teaching_keep_schedule(4, 0.4) == 1.0
        mid = co_teaching_keep_schedule(9, 0.4)
        assert 0.6 < mid < 1.0
        assert co_teaching_keep_schedule(30, 0.4) == pytest.approx(0.6)


class TestDisagreementRows:
    def test_identical_models_give_no_rows(self):
        ds = gen_blobs(2, 20, 2, 8.0, 1)
        a = init("linear", 2, 2, 5)
        rows = pair_rows(stack([a, a.copy()]), ds.features, ds.labels)
        assert rows.shape == (2, 0)
        assert peer_rows(stack([a, a.copy()]),
                         *each_models(ds.features, ds.labels)) == []

    def test_constant_distinct_models_give_every_row(self):
        ds = gen_blobs(2, 10, 2, 8.0, 1)
        a, b = constant_model(0), constant_model(1)
        rows = pair_rows(stack([a, b]), ds.features, ds.labels)
        assert all(list(r) == list(range(ds.n)) for r in rows)

    def test_only_predictions_decide(self):
        # any labels, even of no class, give the same rows
        ds = gen_blobs(2, 20, 2, 8.0, 1)
        peers = stack([init("linear", 2, 2, 1), init("linear", 2, 2, 2)])
        rows = pair_rows(peers, ds.features, ds.labels)
        for y in (1 - ds.labels, np.full(ds.n, -1)):
            assert np.array_equal(pair_rows(peers, ds.features, y), rows)
        X, _ = each_models(ds.features, ds.labels)
        (_, unlabeled), = peer_rows(peers, X, None)
        assert np.array_equal(unlabeled, rows)
        preds = predict_probs(peers, ds.features).argmax(axis=-1)
        assert list(rows[0]) == list(np.flatnonzero(preds[0] != preds[1]))

    def test_a_pair_that_agrees_everywhere_steps_on_nothing(self):
        # the first pair disagrees on every row, the second on none
        ds = gen_blobs(2, 10, 2, 8.0, 1)
        a = init("linear", 2, 2, 5)
        peers = stack([constant_model(0), constant_model(1), a, a.copy()])
        groups = peer_rows(peers, *each_models(ds.features, ds.labels, 4))
        assert [(models.tolist(), rows.tolist()) for models, rows in groups
                ] == [([0, 1], [list(range(ds.n))] * 2)]


class TestSoftLabelStore:
    def test_initial_state(self):
        store = SoftLabelStore([0, 1, 2], 3)
        assert np.array_equal(store.hard_labels(), [0, 1, 2])
        assert store.source.tolist() == [None] * 3
        assert not store.is_soft.any()

    def test_relabel_and_provenance(self):
        store = SoftLabelStore([0, 1], 2)
        store.relabel_hard([0], [1], epoch=3, source="small")
        assert store.epoch.tolist() == [3, 0]
        assert store.source.tolist() == ["small", None]
        store.relabel_soft([0], [[0.3, 0.7]], epoch=5, source="both")
        assert np.array_equal(store.hard_labels(), [1, 1])

    def test_provenance_never_moves_backwards(self):
        store = SoftLabelStore([0], 2)
        store.relabel_hard([0], [1], epoch=5, source="large")
        with pytest.raises(ValueError):
            store.relabel_hard([0], [0], epoch=3, source="small")

    def test_soft_row(self):
        store = SoftLabelStore([0, 1], 2)
        store.relabel_soft([1], [[0.4, 0.6]], epoch=1, source="both")
        assert store.targets.tolist() == [[1.0, 0.0], [0.4, 0.6]]
        assert store.is_soft.tolist() == [False, True]
        assert store.source.tolist() == [None, "both"]


class TestDualRelabel:
    def test_improves_labels(self):
        # frozen seeded oracle: store match rises from ~0.67 toward 1
        full = gen_blobs(3, 300, 2, 8.0, 17)
        tr, te = split(full, 0.25, 18)
        noisy = inject(tr, symmetric_transition(3, 0.3), Rng(19))
        start = float(np.mean(noisy.labels == noisy.true_labels))
        cfg = TrainConfig(epochs=15, seed=17, learning_rate=0.1,
                          batch_size=16)
        _, _, store, _ = train_dual_relabel(noisy, cfg, te)
        assert store.match_fraction(noisy.true_labels) > start

    def test_confident_agreement_keeps_store(self):
        # both models already predict the stored labels: nothing changes
        from noisylab.procedures import dual_relabel_epoch
        ds = gen_blobs(2, 20, 2, 8.0, 2)
        a = constant_model(0)
        b = constant_model(0)
        labels = np.zeros(ds.n, dtype=int)
        from dataclasses import replace
        ds0 = replace(ds, labels=labels, true_labels=None)
        store = SoftLabelStore(labels, 2)
        dual_relabel_epoch(a, b, ds0, store, Rng(3), 0.0, 8, epoch=0)
        assert np.array_equal(store.hard_labels(), labels)
        assert store.source.tolist() == [None] * ds.n

    def test_confident_disagreement_relabels_soft(self):
        from noisylab.procedures import dual_relabel_epoch
        ds = gen_blobs(2, 10, 2, 8.0, 4)
        a = constant_model(1)
        b = constant_model(1)
        labels = np.zeros(ds.n, dtype=int)
        from dataclasses import replace
        ds0 = replace(ds, labels=labels, true_labels=None)
        store = SoftLabelStore(labels, 2)
        dual_relabel_epoch(a, b, ds0, store, Rng(5), 0.0, 8, epoch=0)
        assert np.array_equal(store.hard_labels(), np.ones(ds.n, dtype=int))
        assert store.is_soft.all()


class TestIterativeClean:
    def _setup(self, seed, noise):
        full = gen_blobs(3, 200, 2, 8.0, seed)
        tr, te = split(full, 0.25, seed + 1)
        noisy = (feature_dependent_inject(tr, 0.3, 0.1, Rng(seed + 2))
                 if noise else tr)
        rng = Rng(seed + 7)
        n_clean = max(2, int(round(0.15 * noisy.n)))
        idx = np.sort(rng.permutation(noisy.n)[:n_clean])
        return noisy, noisy.subset(idx), te

    def test_requires_clean_truth(self):
        ds = gen_blobs(2, 20, 2, 8.0, 1)
        with pytest.raises(ValueError):
            iterative_clean(ds, None, TrainConfig(epochs=1, seed=0))

    def test_zero_noise_control(self):
        noisy, clean_small, _ = self._setup(61, noise=False)
        cfg = TrainConfig(epochs=15, seed=62, learning_rate=0.5)
        _, flags, _, _ = iterative_clean(noisy.training_view(), clean_small,
                                         cfg)
        assert flags.mean() < 0.05

    def test_detects_feature_dependent_flips(self):
        noisy, clean_small, te = self._setup(29, noise=True)
        cfg = TrainConfig(epochs=15, seed=32, learning_rate=0.5)
        store, flags, _, _ = iterative_clean(noisy.training_view(),
                                             clean_small, cfg)
        true_flip = noisy.labels != noisy.true_labels
        tp = np.sum(flags & true_flip)
        assert tp / max(flags.sum(), 1) >= 0.7
        assert tp / max(true_flip.sum(), 1) >= 0.7

    def test_two_row_clean_set(self):
        noisy, _, _ = self._setup(29, noise=True)
        cfg = TrainConfig(epochs=2, seed=32, learning_rate=0.5)
        _, flags, meta, history = iterative_clean(
            noisy.training_view(), noisy.subset(np.array([0, 1])), cfg)
        assert all(np.isfinite(a).all() for a in meta.arrays.values())
        assert len(history) == 3 and flags.shape == (noisy.n,)

    def test_clean_set_targets_zero_when_matching(self):
        noisy, clean_small, _ = self._setup(63, noise=False)
        target = (clean_small.labels != clean_small.true_labels)
        assert not target.any()


def meta_problem(kind, n=400, seed=5):
    """Standardised features and a 0/1 target: flips scattered at random,
    flips a feature separates exactly, or no flips at all."""
    rng = Rng(seed)
    X = rng.normal((n, 5))
    X = (X - X.mean(axis=0)) / X.std(axis=0)
    if kind == "random":
        target = (rng.uniform(n) < 0.3).astype(np.int64)
    elif kind == "separable":
        target = (X[:, 0] > 0.5).astype(np.int64)
    else:
        target = np.zeros(n, dtype=np.int64)
    return X, target


class TestMetaClassifierFit:
    KINDS = ["random", "separable", "no_flips"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_penalised_gradient_vanishes(self, kind):
        X, target = meta_problem(kind)
        meta = fit_meta_classifier(X, target)
        p = predict_probs(meta, X)[:, 1]
        theta = np.append(meta.arrays["W"][:, 1], meta.arrays["b"][1])
        Xb = np.column_stack([X, np.ones(len(X))])
        grad = Xb.T @ (p - target) / len(X) + META_RIDGE * theta
        assert np.abs(grad).max() <= 1e-8

    @pytest.mark.parametrize("kind", KINDS)
    def test_converged_before_the_step_cap(self, monkeypatch, kind):
        X, target = meta_problem(kind)
        meta = fit_meta_classifier(X, target)
        monkeypatch.setattr(procedures, "META_MAX_STEPS",
                            2 * procedures.META_MAX_STEPS)
        longer = fit_meta_classifier(X, target)
        for name in meta.arrays:
            assert np.array_equal(meta.arrays[name], longer.arrays[name])

    def test_class_zero_is_the_reference(self):
        X, target = meta_problem("random")
        meta = fit_meta_classifier(X, target)
        assert not meta.arrays["W"][:, 0].any() and meta.arrays["b"][0] == 0
        assert (meta.arch, meta.d, meta.K) == ("linear", 5, 2)

    def test_no_flips_gives_finite_low_flip_probability(self):
        X, target = meta_problem("no_flips")
        meta = fit_meta_classifier(X, target)
        assert all(np.isfinite(a).all() for a in meta.arrays.values())
        assert predict_probs(meta, X)[:, 1].max() < 0.5

    @pytest.mark.parametrize("target", [[0, 1], [1, 1], [0, 0]])
    def test_two_row_clean_set_gives_finite_params(self, target):
        # a 2-row clean set standardises to +-1 (or 0) in every feature
        X = np.array([[1.0, -1.0, 1.0, 0.0, -1.0],
                      [-1.0, 1.0, -1.0, 0.0, 1.0]])
        meta = fit_meta_classifier(X, np.array(target))
        assert all(np.isfinite(a).all() for a in meta.arrays.values())
        flagged = predict_probs(meta, X)[:, 1] > 0.5
        assert flagged.tolist() == [bool(t) for t in target]
