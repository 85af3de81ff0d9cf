"""Properties the lab claims whatever the implementation, through the
harness on the tests/test_trajectories.py data.

- The truth wall: training code sees only the training view. Permuting
  the hidden truth of the corrupted training set moves no report field but
  the diagnostics the harness scores from that truth. iterative_clean
  reads the truth of its small clean set by design, so for it only the
  rows outside that set are permuted.
- Degenerate settings give the baseline: each remedy at the setting that
  turns it off (an identity T, a zero fraction, an unreachable cut-off, no
  smoothing) reports CE's history and final metrics.
"""

from dataclasses import replace

import numpy as np
import pytest

from noisylab import harness
from noisylab.harness import report_json, run_experiment, strip_wall_time
from noisylab.numerics import Rng
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
