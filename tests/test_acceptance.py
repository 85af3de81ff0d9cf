"""Acceptance gate: eleven seeded end-to-end checks, one pass/fail line each.

Every numeric target below was frozen from an independent pre-registered run
with the stated seeds before being asserted here. Run with `pytest -s` to see
the per-criterion lines.
"""

import time

import numpy as np

from noisylab.annotators import staple, train_with_confusion
from noisylab.data import gen_blobs, split
from noisylab.harness import report_json, run_experiment, strip_wall_time, sweep
from noisylab.losses import (LossSpec, backward_corrected,
                             has_primitive_value, loss_value,
                             mae_grad_logits)
from noisylab.model import TrainConfig, forward, grad_check, init, train
from noisylab.noise import (TransitionMatrix, feature_dependent_inject,
                            inject, simulate_annotators, symmetric_transition)
from noisylab.numerics import Rng, softmax
from noisylab.procedures import iterative_clean, train_dual_relabel


def report(num, text):
    print(f"[PASS] criterion {num}: {text}")


class TestCriterion1GradientCorrectness:
    def test_finite_difference_all_losses(self):
        t0 = time.time()
        T = symmetric_transition(3, 0.2)
        specs = [LossSpec("ce"), LossSpec("mae"), LossSpec("imae"),
                 LossSpec("smooth_kl", epsilon=0.1),
                 LossSpec("backward", transition=T),
                 LossSpec("forward", transition=T)]
        rng = Rng(1001)
        worst = 0.0
        checked = 0
        for spec in specs:
            if not has_primitive_value(spec):
                continue  # no closed-form primitive to difference against
            for arch in ("linear", "mlp"):
                params = init(arch, 2, 3, 1002, hidden=8)
                n = 0
                while n < 100:
                    x = rng.normal(2)
                    y = int(rng.integers(0, 3))
                    p = softmax(forward(params, x))
                    if spec.kind == "mae" and (p.max() > 1 - 1e-6
                                               or p.min() < 1e-6):
                        continue  # non-smooth corner of MAE
                    # step 1e-5 balances truncation vs rounding error
                    err = grad_check(params, x, y, spec, epsilon=1e-5)
                    worst = max(worst, err)
                    assert err < 1e-5
                    n += 1
                    checked += 1
        elapsed = time.time() - t0
        assert elapsed < 10.0
        report(1, f"finite-difference max rel err {worst:.2e} < 1e-5 over "
                  f"{checked} points ({elapsed:.1f}s)")


class TestCriterion2MaeGradientNorm:
    def test_identity_4p_1mp(self):
        rng = Rng(2001)
        for _ in range(1000):
            p = softmax(3.0 * rng.normal(4))
            y = int(rng.integers(0, 4))
            g = mae_grad_logits(p, y)
            expected = 4.0 * p[y] * (1.0 - p[y])
            assert abs(np.abs(g).sum() - expected) < 1e-10
        report(2, "l1 gradient norm equals 4*p_y*(1-p_y) within 1e-10 "
                  "on 1000 vectors")


class TestCriterion3BackwardUnbiasedness:
    def test_monte_carlo_expectation(self):
        rng = Rng(3002)
        n_draws = 100_000
        for trial in range(20):
            K = int(rng.integers(2, 5))
            rows = [softmax(rng.normal(K) + 2.0 * np.eye(K)[i])
                    for i in range(K)]
            T = TransitionMatrix(np.array(rows))
            p_hat = softmax(rng.normal(K))
            y = int(rng.integers(0, K))
            clean = loss_value(LossSpec("ce"), p_hat, y)
            u = rng.uniform(n_draws)
            draws = np.searchsorted(np.cumsum(T.t[y]), u,
                                    side="right").clip(0, K - 1)
            vals = np.array([backward_corrected(T, p_hat, int(k))
                             for k in range(K)])
            sample = vals[draws]
            mc = sample.mean()
            se = sample.std(ddof=1) / np.sqrt(n_draws)
            assert abs(mc - clean) <= 3.0 * max(se, 1e-12)
        report(3, "Monte-Carlo backward-corrected loss matches clean CE "
                  "within 3 SE for 20 random (T, p, y) triples")


class TestCriterion4MaeNoiseTolerance:
    def test_mae_within_002_ce_worse(self):
        t0 = time.time()
        full = gen_blobs(3, 400, 2, 8.0, 41)
        tr, te = split(full, 0.5, 42)
        noisy = inject(tr, symmetric_transition(3, 0.3), Rng(43))
        view = noisy.training_view()
        accs = {}
        for name, spec, ds in [("clean", LossSpec("ce"), tr),
                               ("mae", LossSpec("mae"), view),
                               ("ce", LossSpec("ce"), view)]:
            _, h = train(ds, TrainConfig(epochs=60, batch_size=4,
                                         learning_rate=2.0, seed=44,
                                         loss=spec), te)
            accs[name] = h[-1]["test_accuracy"]
        mae_gap = accs["clean"] - accs["mae"]
        ce_gap = accs["clean"] - accs["ce"]
        assert mae_gap <= 0.02
        assert ce_gap > mae_gap
        assert time.time() - t0 < 30.0
        report(4, f"MAE gap {mae_gap:.4f} <= 0.02; CE gap {ce_gap:.4f} "
                  "strictly larger")


class TestCriterion5CorrectionEfficacy:
    def test_forward_backward_recover(self):
        t0 = time.time()
        T = symmetric_transition(3, 0.4)
        full = gen_blobs(3, 200, 2, 8.0, 41)
        tr, te = split(full, 0.25, 42)
        noisy = inject(tr, T, Rng(45))
        view = noisy.training_view()
        _, h_clean = train(tr, TrainConfig(epochs=30, seed=44), te)
        clean_acc = h_clean[-1]["test_accuracy"]
        for kind in ("forward", "backward"):
            spec = LossSpec(kind, transition=T)
            _, h = train(view, TrainConfig(epochs=30, seed=46, loss=spec),
                         te)
            assert abs(clean_acc - h[-1]["test_accuracy"]) <= 0.03
        assert time.time() - t0 < 30.0
        report(5, "forward and backward corrected CE within 0.03 of "
                  f"noise-free accuracy {clean_acc:.4f} at rho=0.4")


class TestCriterion6StapleRecovery:
    def test_diagonals_fusion_loglik(self):
        t0 = time.time()
        full = gen_blobs(3, 1667, 2, 8.0, 9)
        rhos = [0.1, 0.15, 0.2, 0.25, 0.3]
        conf = [symmetric_transition(3, r) for r in rhos]
        ds = simulate_annotators(full, conf, Rng(90))
        _, model, fused, loglik = staple(ds.annotator_labels, 3)
        for T, rho in zip(model.confusions, rhos):
            assert abs(float(np.diag(T.t).mean()) - (1 - rho)) < 0.05
        ann_acc = [float(np.mean(ds.annotator_labels[:, a]
                                 == ds.true_labels)) for a in range(5)]
        fused_acc = float(np.mean(fused == ds.true_labels))
        assert fused_acc > max(ann_acc)
        assert all(b - a >= -1e-9 for a, b in zip(loglik, loglik[1:]))
        assert time.time() - t0 < 10.0
        report(6, f"diagonals within 0.05; fused {fused_acc:.4f} > best "
                  f"annotator {max(ann_acc):.4f}; loglik non-decreasing")


class TestCriterion7ConfusionEstimation:
    def test_row_l1_error(self):
        t0 = time.time()
        full = gen_blobs(3, 1000, 2, 8.0, 13)
        conf = [symmetric_transition(3, r) for r in (0.1, 0.2, 0.3)]
        ds = simulate_annotators(full, conf, Rng(130))
        tr, te = split(ds, 0.25, 131)
        _, amodel, _ = train_with_confusion(
            tr.training_view(), TrainConfig(epochs=30, seed=132), 0.01, te)
        errs = [float(np.abs(est.t - true.t).sum(axis=1).mean())
                for est, true in zip(amodel.confusions, conf)]
        mean_err = float(np.mean(errs))
        assert mean_err < 0.1
        assert time.time() - t0 < 60.0
        report(7, f"mean row-wise l1 confusion error {mean_err:.4f} < 0.1 "
                  "at trace penalty 0.01")


class TestCriterion8RelabelingImprovesLabels:
    def test_store_match_increases(self):
        full = gen_blobs(3, 300, 2, 8.0, 17)
        tr, te = split(full, 0.25, 18)
        noisy = inject(tr, symmetric_transition(3, 0.3), Rng(19))
        start = float(np.mean(noisy.labels == noisy.true_labels))
        cfg = TrainConfig(epochs=40, seed=17, learning_rate=0.1,
                          batch_size=16)
        _, _, store, _ = train_dual_relabel(noisy, cfg, te)
        end = store.match_fraction(noisy.true_labels)
        assert end > start
        report(8, f"stored-label agreement with truth rose {start:.4f} -> "
                  f"{end:.4f} over 40 epochs at rho=0.3")


class TestCriterion9CleaningDetectsFlips:
    def test_precision_recall(self):
        full = gen_blobs(3, 300, 2, 8.0, 29)
        tr, _ = split(full, 0.25, 30)
        noisy = feature_dependent_inject(tr, 0.3, 0.1, Rng(31))
        rng = Rng(36)
        n_clean = max(2, int(round(0.15 * noisy.n)))
        idx = np.sort(rng.permutation(noisy.n)[:n_clean])
        clean_small = noisy.subset(idx)
        cfg = TrainConfig(epochs=15, seed=32, learning_rate=0.5)
        _, flags, _, _ = iterative_clean(noisy.training_view(), clean_small,
                                         cfg)
        true_flip = noisy.labels != noisy.true_labels
        tp = float(np.sum(flags & true_flip))
        precision = tp / max(flags.sum(), 1)
        recall = tp / max(true_flip.sum(), 1)
        assert precision >= 0.7
        assert recall >= 0.7
        report(9, f"flag precision {precision:.3f} and recall {recall:.3f} "
                  ">= 0.7 on feature-dependent noise")


class TestCriterion10SweepMonotonicity:
    def test_error_nondecreasing(self):
        t0 = time.time()
        template = {
            "seed": 101,
            "dataset": {"kind": "blobs", "k": 3, "n_per_class": 200,
                        "d": 2, "separation": 8.0},
            "test_fraction": 0.25,
            "train": {"epochs": 30, "batch_size": 32,
                      "learning_rate": 0.1},
        }
        rhos = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
        _, summary, r2 = sweep(template, rhos)
        errs = [row["test_error"] for row in summary]
        for a, b in zip(errs, errs[1:]):
            assert b >= a - 0.02
        assert time.time() - t0 < 120.0
        report(10, f"CE test error non-decreasing in rho within 0.02 slack; "
                   f"quadratic fit R^2 = {r2:.3f} (reported, not asserted)")


class TestCriterion11Determinism:
    CONFIGS = [
        {"seed": 7,
         "dataset": {"kind": "blobs", "k": 2, "n_per_class": 100, "d": 2,
                     "separation": 8.0},
         "test_fraction": 0.25,
         "noise": {"kind": "symmetric", "rho": 0.2},
         "method": {"loss": {"kind": "ce"}},
         "train": {"epochs": 8}},
        {"seed": 7,
         "dataset": {"kind": "blobs", "k": 2, "n_per_class": 100, "d": 2,
                     "separation": 8.0},
         "test_fraction": 0.25,
         "noise": {"kind": "symmetric", "rho": 0.2},
         "method": {"reweight": {"kind": "trimmed", "fraction": 0.2}},
         "train": {"epochs": 8}},
        {"seed": 7,
         "dataset": {"kind": "blobs", "k": 2, "n_per_class": 100, "d": 2,
                     "separation": 8.0},
         "test_fraction": 0.25,
         "noise": {"kind": "annotators", "rhos": [0.1, 0.2, 0.3]},
         "method": {"annotator": {"fusion": "staple"}},
         "train": {"epochs": 8}},
        {"seed": 7,
         "dataset": {"kind": "blobs", "k": 2, "n_per_class": 100, "d": 2,
                     "separation": 8.0},
         "test_fraction": 0.25,
         "noise": {"kind": "symmetric", "rho": 0.2},
         "method": {"procedure": {"name": "mixup", "alpha": 0.2}},
         "train": {"epochs": 8}},
    ]

    def test_byte_identical_reports(self):
        for cfg in self.CONFIGS:
            a = report_json(strip_wall_time(run_experiment(cfg)))
            b = report_json(strip_wall_time(run_experiment(cfg)))
            assert a == b
        report(11, "re-executed reports byte-match (wall time excluded) "
                   f"across {len(self.CONFIGS)} method kinds")
