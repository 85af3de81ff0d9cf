"""Properties the lab claims whatever the implementation, through the
harness on the tests/test_trajectories.py data.

- The truth wall: training code sees only the training view. Permuting
  the hidden truth of the corrupted training set moves no report field but
  the diagnostics the harness scores from that truth. iterative_clean
  reads the truth of its small clean set by design, so for it only the
  rows outside that set are permuted. Permuting the test set's truth moves
  nothing but the scores taken against it, so no method selects on test
  accuracy.
- Every stepped objective has the gradient it claims: the annotator
  confusions' dloss/dQ and dloss/dlogits, and the batch_loss that mixup
  and dual relabel hand sgd_epoch, agree with central differences.
- Degenerate settings give the baseline: each remedy at the setting that
  turns it off (an identity T, a zero fraction, an unreachable cut-off, no
  smoothing) reports CE's history and final metrics.
"""

from dataclasses import replace

import numpy as np
import pytest

from noisylab import harness, model, procedures
from noisylab.annotators import confusion_grads
from noisylab.data import gen_blobs
from noisylab.harness import report_json, run_experiment, strip_wall_time
from noisylab.losses import kl_to_targets, loss_vector
from noisylab.model import TrainConfig
from noisylab.noise import inject, symmetric_transition
from noisylab.numerics import Rng, softmax
from test_trajectories import DATASET, PIPELINES, SYMMETRIC, config

TRUTH_DIAGNOSTICS = ("fused_label_accuracy", "store_match_truth_initial",
                     "store_match_truth_final", "flag_precision",
                     "flag_recall")


def without_truth(report):
    """The stripped report's JSON, less the diagnostics scored from the
    training set's hidden truth."""
    report = strip_wall_time(report)
    report["noise_diagnostics"] = {
        k: v for k, v in report["noise_diagnostics"].items()
        if k not in TRUTH_DIAGNOSTICS}
    return report_json(report)


def clean_rows(seed, n):
    """The rows of the clean set the harness draws for iterative_clean at
    its default clean_fraction 0.1."""
    return Rng(seed + 7).permutation(n)[:max(2, int(round(0.1 * n)))]


def permute_truth(monkeypatch, seed, keep_clean):
    """Make the harness corrupt as before, then permute the hidden truth
    of the rows (outside the clean set, if keep_clean) among themselves.
    Returns the permuted truths."""
    permuted, real = [], harness._apply_noise

    def apply(train_ds, noise, noise_seed):
        noisy, T = real(train_ds, noise, noise_seed)
        rows = np.arange(noisy.n)
        if keep_clean:
            rows = np.setdiff1d(rows, clean_rows(seed, noisy.n))
        truth = noisy.true_labels.copy()
        truth[rows] = truth[np.random.default_rng(seed).permutation(rows)]
        permuted.append((noisy.true_labels, truth))
        return replace(noisy, true_labels=truth), T

    harness._SHARED.clear()
    monkeypatch.setattr(harness, "_apply_noise", apply)
    return permuted


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", list(PIPELINES))
def test_training_never_reads_hidden_truth(monkeypatch, name, seed):
    cfg = config(name, seed)
    plain = run_experiment(cfg)
    permuted = permute_truth(monkeypatch, seed,
                             name == "procedure:iterative_clean")
    moved = run_experiment(cfg)
    (truth, other), = permuted
    assert np.mean(truth != other) > 0.4
    assert without_truth(moved) == without_truth(plain)
    if name == "annotator:majority":  # the truth reaches the diagnostics
        assert (moved["noise_diagnostics"]["fused_label_accuracy"]
                < plain["noise_diagnostics"]["fused_label_accuracy"] - 0.3)


def without_test_scores(report):
    """The stripped report's JSON, less the scores taken against the test
    set's truth: each epoch's test_accuracy and the final metrics."""
    report = strip_wall_time(report)
    del report["final_metrics"]
    report["history"] = [{k: v for k, v in row.items()
                          if k != "test_accuracy"}
                         for row in report["history"]]
    return report_json(report)


def permute_test_truth(monkeypatch, seed):
    """Make the harness split as before, then permute the test set's
    labels, and its hidden truth if it has one, by one permutation."""
    real = harness._split_dataset

    def split(spec, data_seed, fraction):
        K, train_ds, test_ds = real(spec, data_seed, fraction)
        perm = np.random.default_rng(seed).permutation(test_ds.n)
        return K, train_ds, replace(test_ds, **{
            k: getattr(test_ds, k)[perm] for k in ("labels", "true_labels")
            if getattr(test_ds, k) is not None})

    harness._SHARED.clear()
    monkeypatch.setattr(harness, "_split_dataset", split)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", list(PIPELINES))
def test_training_never_reads_test_truth(monkeypatch, name, seed):
    cfg = config(name, seed)
    plain = run_experiment(cfg)
    permute_test_truth(monkeypatch, seed)
    moved = run_experiment(cfg)
    assert without_test_scores(moved) == without_test_scores(plain)
    assert moved["final_metrics"] != plain["final_metrics"]


# central differences at step 1e-6 carry about 1e-10 of rounding; the
# analytic gradients agree to about 1e-8 of the largest entry
FD_STEP = 1e-6
FD_RTOL = 1e-6


def assert_gradient(f, x, analytic):
    """analytic is the gradient of the scalar f at x, to FD_RTOL of its
    largest entry, by central differences over every entry of x."""
    numeric = np.zeros_like(x)
    for i in np.ndindex(x.shape):
        up, down = x.copy(), x.copy()
        up[i] += FD_STEP
        down[i] -= FD_STEP
        numeric[i] = (f(up) - f(down)) / (2.0 * FD_STEP)
    assert np.max(np.abs(analytic - numeric)) <= FD_RTOL * max(
        np.max(np.abs(numeric)), 1.0)


@pytest.mark.parametrize("case", range(40))
def test_confusion_grads_are_the_gradients(case):
    rng = Rng(case)
    K, A, N = 2 + case % 4, 1 + case % 3, 1 + case % 7
    Q = 2.0 * rng.normal((A, K, K))
    logits = 2.0 * rng.normal((N, K))
    labels = rng.integers(0, K, size=(N, A))
    _, G, gQ = confusion_grads(Q, softmax(logits), labels)
    assert_gradient(
        lambda Q: confusion_grads(Q, softmax(logits), labels)[0].sum(), Q, gQ)
    assert_gradient(
        lambda z: confusion_grads(Q, softmax(z), labels)[0].sum(), logits, G)


def stepped_objectives(monkeypatch, module):
    """Every (batch_loss, probs, key) that module's sgd_epoch steps on from
    here on."""
    seen, real = [], module.sgd_epoch

    def spy(params, batches, lr, batch_loss, epoch):
        def recorded(probs, key):
            seen.append((batch_loss, probs.copy(), key))
            return batch_loss(probs, key)
        return real(params, batches, lr, recorded, epoch)

    monkeypatch.setattr(module, "sgd_epoch", spy)
    return seen


def assert_batch_loss_gradient(batch_loss, probs, key, smooth=None):
    """batch_loss's dloss/dlogits is the gradient of its summed loss values
    at the logits log(probs), on the rows where its objective is smooth
    (smooth: a row mask; None, every row)."""
    _, G = batch_loss(probs, key)
    if smooth is None:
        smooth = np.ones(len(G), dtype=bool)
    assert_gradient(lambda z: batch_loss(softmax(z), key)[0][smooth].sum(),
                    np.log(probs), np.where(smooth[:, None], G, 0.0))


def noisy_blobs(seed):
    train_ds = gen_blobs(3, 20, 2, 3.0, seed)
    return inject(train_ds, symmetric_transition(3, 0.4),
                  Rng(seed + 1)).training_view()


@pytest.mark.parametrize("seed", [1, 2])
def test_mixup_steps_on_its_soft_target_gradient(monkeypatch, seed):
    seen = stepped_objectives(monkeypatch, model)
    procedures.train_mixup(noisy_blobs(seed),
                           TrainConfig(epochs=2, batch_size=8, seed=seed),
                           alpha=1.0)
    assert len(seen) == 16
    for batch_loss, probs, Y_mix in seen:
        assert_batch_loss_gradient(batch_loss, probs, Y_mix)
    assert any(np.any((Y_mix > 0.0) & (Y_mix < 1.0)) for *_, Y_mix in seen)


@pytest.mark.parametrize("seed", [1, 2])
def test_dual_relabel_steps_on_its_min_loss_gradient(monkeypatch, seed):
    seen = stepped_objectives(monkeypatch, procedures)
    procedures.train_dual_relabel(
        noisy_blobs(seed), TrainConfig(epochs=3, batch_size=8, seed=seed,
                                       hidden=5))
    assert len(seen) == 2 * 3 * 8  # two models, three rounds
    chose = []
    for batch_loss, probs, key in seen:
        _, stored, _, peer = key
        l_stored = kl_to_targets(probs, stored)
        l_peer = loss_vector("ce", probs)[np.arange(len(peer)), peer]
        # min(l_stored, l_peer) is smooth off its ties
        smooth = np.abs(l_stored - l_peer) > 1e-3
        chose.extend((l_stored < l_peer)[smooth].tolist())
        assert_batch_loss_gradient(batch_loss, probs, key, smooth)
    assert set(chose) == {True, False}


IDENTITY = {"k": 3, "rows": np.eye(3).tolist()}
DEGENERATE = {
    "loss:backward": {"loss": {"kind": "backward", "transition": IDENTITY}},
    "reweight:pumpout": {"reweight": {"kind": "pumpout",
                                      "transition": IDENTITY}},
    "reweight:trimmed": {"reweight": {"kind": "trimmed", "fraction": 0.0}},
    "reweight:rank_prune": {"reweight": {"kind": "rank_prune",
                                         "fraction": 0.0}},
    "reweight:running": {"reweight": {"kind": "running",
                                      "multiplier": 1e9}},
    "loss:smooth_kl": {"loss": {"kind": "smooth_kl", "epsilon": 0.0}},
    "procedure:iterative_clean": {"procedure": {"name": "iterative_clean",
                                                "threshold": 1.0}},
}
# forward correction through T = I takes CE's steps, but its loss values
# are the CE of T^T p, which may round differently from CE's own
FORWARD_LOSS_ATOL = 4.5e-16


def baseline_config(method, seed, arch):
    return {"seed": seed, "dataset": dict(DATASET), "test_fraction": 0.25,
            "noise": dict(SYMMETRIC), "method": method,
            "train": {"epochs": 3, "arch": arch, "hidden": 8}}


def history_and_final(method, seed, arch):
    report = run_experiment(baseline_config(method, seed, arch))
    return report["history"], report["final_metrics"]


@pytest.mark.parametrize("arch", ["linear", "mlp"])
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", list(DEGENERATE))
def test_degenerate_setting_gives_ce(name, seed, arch):
    assert history_and_final(DEGENERATE[name], seed, arch) == \
        history_and_final({"loss": {"kind": "ce"}}, seed, arch)


@pytest.mark.parametrize("arch", ["linear", "mlp"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_forward_at_identity_gives_ce_to_rounding(seed, arch):
    history, final = history_and_final(
        {"loss": {"kind": "forward", "transition": IDENTITY}}, seed, arch)
    ce_history, ce_final = history_and_final({"loss": {"kind": "ce"}}, seed,
                                             arch)
    assert final == ce_final
    for row, ce_row in zip(history, ce_history, strict=True):
        assert abs(row.pop("train_loss") - ce_row.pop("train_loss")) \
            <= FORWARD_LOSS_ATOL
        assert row == ce_row
