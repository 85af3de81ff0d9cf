import copy
import itertools
import json
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import noisylab.harness as harness
import noisylab.model as model
from noisylab.harness import (ConfigError, metrics, report_json,
                              run_experiment, strip_wall_time, sweep,
                              sweep_summary_csv, validate_config,
                              write_report)
from noisylab.cli import cli
from noisylab.data import gen_blobs, load_csv, save_csv
from noisylab.model import DivergedError, TrainConfig

import test_trajectories as trajectories


def base_config(**over):
    cfg = {
        "seed": 7,
        "dataset": {"kind": "blobs", "k": 2, "n_per_class": 100, "d": 2,
                    "separation": 8.0},
        "test_fraction": 0.25,
        "method": {"loss": {"kind": "ce"}},
        "train": {"epochs": 10},
    }
    cfg.update(over)
    return cfg


def ref_binary_auc(scores, truth):
    """_binary_auc as it gave midranks, one tie group at a time."""
    pos = truth == 1
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    if n_pos == 0 or n_neg == 0:
        return float("nan")
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(len(scores))
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0)
                 / (n_pos * n_neg))


def ref_ece(probs, pred, truth):
    """metrics' ECE as it masked each of the ECE_BINS bins in turn."""
    conf = probs.max(axis=1)
    correct = (pred == truth).astype(np.float64)
    ece = 0.0
    edges = np.linspace(0.0, 1.0, harness.ECE_BINS + 1)
    for b in range(harness.ECE_BINS):
        lo, hi = edges[b], edges[b + 1]
        mask = (conf > lo) & (conf <= hi) if b else (conf >= lo) & (conf <= hi)
        if mask.any():
            ece += mask.mean() * abs(correct[mask].mean() - conf[mask].mean())
    return float(ece)


class TestMetrics:
    def test_perfect(self):
        probs = np.eye(3)[[0, 1, 2, 1]]
        m = metrics([0, 1, 2, 1], [0, 1, 2, 1], probs, 3)
        assert m["accuracy"] == 1.0
        assert m["macro_f1"] == 1.0
        assert m["ece"] == pytest.approx(0.0, abs=1e-12)

    def test_all_one_class(self):
        # all predicted 0 on balanced binary truth: F1 = (2/3 + 0)/2
        m = metrics([0, 0, 0, 0], [0, 0, 1, 1], num_classes=2)
        assert m["accuracy"] == 0.5
        assert m["macro_f1"] == pytest.approx(1 / 3)
        assert m["per_class_accuracy"] == [1.0, 0.0]

    def test_calibrated_zero_ece(self):
        # confidence 0.7 in every bin, empirical accuracy 0.7
        probs = np.array([[0.7, 0.3]] * 10)
        preds = [0] * 10
        truth = [0] * 7 + [1] * 3
        m = metrics(preds, truth, probs, 2)
        assert m["ece"] == pytest.approx(0.0, abs=1e-12)

    def test_binary_auc(self):
        probs = np.array([[0.9, 0.1], [0.2, 0.8], [0.4, 0.6], [0.7, 0.3]])
        m = metrics(probs.argmax(axis=1), [0, 1, 1, 0], probs, 2)
        assert m["auc"] == 1.0

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0,
                                               np.nan, np.inf]),
                              st.floats(allow_nan=True)),
                    min_size=1, max_size=30), st.data())
    def test_binary_auc_matches_midrank_loop(self, scores, data):
        truth = np.array(data.draw(st.lists(st.integers(0, 1),
                                            min_size=len(scores),
                                            max_size=len(scores))))
        got = harness._binary_auc(np.array(scores), truth)
        ref = ref_binary_auc(np.array(scores), truth)
        assert got == ref or (np.isnan(got) and np.isnan(ref))

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 400), K=st.integers(2, 4),
           seed=st.integers(0, 2**32 - 1),
           odd=st.sampled_from([0.0, 0.05]))
    def test_ece_matches_per_bin_masks(self, n, K, seed, odd):
        # each entry on a bin edge, off the edges, or with probability odd
        # outside [0, 1] or NaN, which no bin counts
        rng = np.random.default_rng(seed)
        edges = np.linspace(0.0, 1.0, harness.ECE_BINS + 1)
        probs = np.where(rng.random((n, K)) < 0.5,
                         rng.choice(np.append(edges, -0.0), (n, K)),
                         rng.random((n, K)))
        flag = rng.random((n, K)) < odd
        probs[flag] = rng.choice([-0.5, 1.5, np.nan], flag.sum())
        pred, truth = rng.integers(0, K, (2, n))
        got = metrics(pred, truth, probs, K)["ece"]
        assert np.float64(got).tobytes() == np.float64(
            ref_ece(probs, pred, truth)).tobytes()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            metrics([], [])

    @pytest.mark.parametrize("pred,truth,k", [([0, -1], [0, 1], None),
                                              ([0, 1], [-1, 1], None),
                                              ([0, 2], [0, 1], 2),
                                              ([0, 1], [0, 3], 3)])
    def test_labels_outside_classes_rejected(self, pred, truth, k):
        with pytest.raises(ValueError, match=r"metrics: label -?\d+ outside"):
            metrics(pred, truth, num_classes=k)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_class_metrics_match_per_class_loop(self, data):
        K = data.draw(st.integers(1, 9))
        n = data.draw(st.integers(1, 40))
        pred, truth = (np.array(data.draw(st.lists(
            st.integers(0, K - 1), min_size=n, max_size=n))) for _ in "pt")
        num_classes = data.draw(st.sampled_from([None, K]))
        K = num_classes or int(max(pred.max(), truth.max())) + 1
        f1s, per_class = [], []
        for c in range(K):
            tp = np.sum((pred == c) & (truth == c))
            fp = np.sum((pred == c) & (truth != c))
            fn = np.sum((pred != c) & (truth == c))
            f1s.append(2.0 * tp / (2 * tp + fp + fn)
                       if (2 * tp + fp + fn) else 0.0)
            mask = truth == c
            per_class.append(float(np.mean(pred[mask] == truth[mask]))
                             if mask.any() else 0.0)
        m = metrics(pred, truth, num_classes=num_classes)
        assert repr(m["macro_f1"]) == repr(float(np.mean(f1s)))
        assert repr(m["per_class_accuracy"]) == repr(per_class)


class TestValidation:
    def test_requires_seed(self):
        cfg = base_config()
        del cfg["seed"]
        with pytest.raises(ConfigError):
            validate_config(cfg)

    def test_exactly_one_pipeline(self):
        cfg = base_config(method={"loss": {"kind": "ce"},
                                  "annotator": {"fusion": "staple"}})
        with pytest.raises(ConfigError, match="exactly one"):
            validate_config(cfg)

    def test_empty_method_rejected(self):
        with pytest.raises(ConfigError):
            validate_config(base_config(method={}))

    @pytest.mark.parametrize("method, train, named", [
        ({"reweight": {"kind": "trimmed"}}, {}, "fraction"),
        ({"reweight": {"kind": "rank_prune"}}, {}, "fraction"),
        ({"reweight": {"kind": "pumpout"}}, {}, "transition"),
        ({"loss": {"kind": "ce"}}, {"epochs": 2.5}, "train.epochs"),
        ({"loss": {"kind": "ce"}}, {"batch_size": 8.0}, "train.batch_size"),
    ], ids=["trimmed", "rank_prune", "pumpout", "epochs", "batch_size"])
    def test_bad_key_is_named_before_any_data(self, monkeypatch, tmp_path,
                                              method, train, named):
        generated = []
        real_make = harness._make_dataset

        def spy(spec, seed):
            generated.append(spec)
            return real_make(spec, seed)

        monkeypatch.setattr(harness, "_make_dataset", spy)
        cfg = base_config(
            dataset={"kind": "blobs", "k": 3, "n_per_class": 50, "d": 2,
                     "separation": 8.0},
            noise={"kind": "symmetric", "rho": 0.2}, method=method,
            train={"epochs": 2, **train})
        with pytest.raises(ConfigError, match=named):
            run_experiment(cfg)
        assert generated == []
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli(["train", "--config", str(path)]) == 1


class TestTrueTransitionNeedsOne:
    @pytest.mark.parametrize("noise, method, named", [
        (None, {"reweight": {"kind": "pumpout", "transition": "true"}},
         "method.reweight.transition"),
        ({"kind": "feature", "rho_max": 0.3},
         {"reweight": {"kind": "pumpout", "transition": "true"}},
         "method.reweight.transition"),
        (None, {"loss": {"kind": "forward", "transition": "true"}},
         "method.loss.transition"),
        ({"kind": "annotators", "rhos": [0.1, 0.2, 0.3]},
         {"loss": {"kind": "backward", "transition": "true"}},
         "method.loss.transition"),
        (None, {"reweight": {"kind": "trimmed", "fraction": 0.2,
                             "loss": {"kind": "forward",
                                      "transition": "true"}}},
         "method.reweight.loss.transition"),
        (None, {"reweight": {"kind": "running"},
                "base_loss": {"kind": "backward", "transition": "true"}},
         "method.base_loss.transition"),
    ], ids=["pumpout-no-noise", "pumpout-feature-noise", "forward-no-noise",
            "backward-annotators", "reweight-loss", "base_loss"])
    def test_named_before_any_data(self, monkeypatch, tmp_path, noise,
                                   method, named):
        generated = []
        real_make = harness._make_dataset

        def spy(spec, seed):
            generated.append(spec)
            return real_make(spec, seed)

        monkeypatch.setattr(harness, "_make_dataset", spy)
        cfg = base_config(
            dataset={"kind": "blobs", "k": 3, "n_per_class": 50, "d": 2,
                     "separation": 8.0},
            noise=noise, method=method, train={"epochs": 2})
        with pytest.raises(ConfigError, match=named):
            run_experiment(cfg)
        assert generated == []
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli(["train", "--config", str(path)]) == 1


class TestConfigSurface:
    """Keys the pipeline would ignore or choke on are named before any
    data is generated, and the CLI exits 1."""

    def _rejected(self, monkeypatch, tmp_path, cfg, named):
        generated = []
        monkeypatch.setattr(harness, "_make_dataset",
                            lambda spec, seed: generated.append(spec))
        with pytest.raises(ConfigError, match=named):
            run_experiment(cfg)
        assert generated == []
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli(["train", "--config", str(path)]) == 1

    @pytest.mark.parametrize("value", [False, 0, 1, "true", None, {}],
                             ids=["false", "zero", "one", "string", "null",
                                  "dict"])
    def test_noise_adaptation_must_be_true(self, monkeypatch, tmp_path,
                                           value):
        cfg = base_config(noise={"kind": "symmetric", "rho": 0.3},
                          method={"noise_adaptation": value})
        self._rejected(monkeypatch, tmp_path, cfg, "method.noise_adaptation")

    def test_noise_adaptation_true_still_runs(self):
        cfg = base_config(noise={"kind": "symmetric", "rho": 0.3},
                          method={"noise_adaptation": True},
                          train={"epochs": 2})
        assert "learned_transition" in run_experiment(cfg)[
            "noise_diagnostics"]

    @pytest.mark.parametrize("method, named", [
        ({"loss": {"kind": "ce", "bogus": 1}}, "method.loss"),
        ({"reweight": {"kind": "running"},
          "base_loss": {"kind": "mae", "bogus": 1}}, "method.base_loss"),
        ({"reweight": {"kind": "trimmed", "fraction": 0.2,
                       "loss": {"kind": "ce", "bogus": 1}}},
         "method.reweight.loss"),
    ], ids=["loss", "base_loss", "reweight.loss"])
    def test_unknown_loss_key_is_named(self, monkeypatch, tmp_path, method,
                                       named):
        cfg = base_config(noise={"kind": "symmetric", "rho": 0.3},
                          method=method)
        self._rejected(monkeypatch, tmp_path, cfg, rf"{named} .*bogus")

    # a bare row list and "false" escaped as a raw TypeError or
    # AttributeError, and an object without k as KeyError: 'k'
    ROWS = [[0.8, 0.2], [0.2, 0.8]]

    @pytest.mark.parametrize("transition", [
        ROWS, "false", {"rows": ROWS}, {"k": 2},
        {"k": 2, "rows": ROWS, "kind": "matrix"}, None, 0.3,
    ], ids=["row-list", "false", "rows-without-k", "k-without-rows",
            "extra-key", "null", "number"])
    @pytest.mark.parametrize("method, named", [
        ({"loss": {"kind": "forward"}}, "method.loss.transition"),
        ({"reweight": {"kind": "pumpout"}}, "method.reweight.transition"),
        ({"reweight": {"kind": "running"},
          "base_loss": {"kind": "backward"}},
         "method.base_loss.transition"),
    ], ids=["forward", "pumpout", "base_loss"])
    def test_transition_is_true_or_k_and_rows(self, monkeypatch, tmp_path,
                                              transition, method, named):
        method = copy.deepcopy(method)
        section = method.get("base_loss") or next(iter(method.values()))
        section["transition"] = transition
        cfg = base_config(noise={"kind": "symmetric", "rho": 0.2},
                          method=method)
        self._rejected(monkeypatch, tmp_path, cfg,
                       re.escape(f"{named} must be 'true' or an object "
                                 "with keys k and rows"))

    @pytest.mark.parametrize("transition", ["true", {"k": 2, "rows": ROWS}],
                             ids=["true", "object"])
    def test_transition_forms_still_run(self, transition):
        cfg = base_config(noise={"kind": "symmetric", "rho": 0.2},
                          method={"reweight": {"kind": "pumpout",
                                               "transition": transition}},
                          train={"epochs": 2})
        assert run_experiment(cfg)["config"]["method"]["reweight"][
            "transition"] == transition

    # "k": "2" failed at train time as "transition json shape mismatch",
    # naming neither the key nor the type
    @pytest.mark.parametrize("k", ["2", 2.0, True, 1, 0, -3, None],
                             ids=["str", "float", "bool", "one", "zero",
                                  "negative", "null"])
    def test_transition_k_is_an_integer_from_2(self, monkeypatch, tmp_path,
                                               k):
        cfg = base_config(noise={"kind": "symmetric", "rho": 0.2},
                          method={"loss": {"kind": "forward", "transition": {
                              "k": k, "rows": self.ROWS}}})
        self._rejected(monkeypatch, tmp_path, cfg,
                       re.escape("method.loss.transition.k must be an "
                                 f"integer >= 2, got {k!r}"))

    # rows not k x k failed at train time as "transition json shape
    # mismatch", naming neither the key nor either shape; rows that are
    # not square fail as any malformed matrix does, before k is compared
    @pytest.mark.parametrize("rows, fault", [
        (ROWS, "has shape (2, 2), but k 3 needs (3, 3)"),
        ([[0.8, 0.2], [0.2]],
         "must be a square k x k matrix, got shape ragged"),
        ([[0.5, 0.3, 0.2]] * 2,
         "must be a square k x k matrix, got shape (2, 3)"),
        (0.5, "must be a square k x k matrix, got shape ()"),
    ], ids=["2x2", "ragged", "2x3", "number"])
    @pytest.mark.parametrize("method, named", [
        ({"loss": {"kind": "forward"}}, "method.loss.transition"),
        ({"reweight": {"kind": "pumpout"}}, "method.reweight.transition"),
    ], ids=["forward", "pumpout"])
    def test_transition_rows_must_be_k_by_k(self, monkeypatch, tmp_path,
                                            rows, fault, method, named):
        method = copy.deepcopy(method)
        next(iter(method.values()))["transition"] = {"k": 3, "rows": rows}
        cfg = base_config(noise={"kind": "symmetric", "rho": 0.2},
                          method=method)
        self._rejected(monkeypatch, tmp_path, cfg,
                       re.escape(f"{named}.rows {fault}"))

    # on 3-class data a 2-class transition escaped as a raw IndexError
    # (forward, backward) or a train-stage NumPy matmul error (pumpout)
    @pytest.mark.parametrize("method, named", [
        ({"loss": {"kind": "forward"}}, "method.loss.transition"),
        ({"loss": {"kind": "backward"}}, "method.loss.transition"),
        ({"reweight": {"kind": "pumpout"}}, "method.reweight.transition"),
        ({"reweight": {"kind": "running"},
          "base_loss": {"kind": "backward"}},
         "method.base_loss.transition"),
    ], ids=["forward", "backward", "pumpout", "base_loss"])
    def test_transition_k_must_match_the_classes(self, tmp_path, method,
                                                 named):
        method = copy.deepcopy(method)
        section = method.get("base_loss") or next(iter(method.values()))
        section["transition"] = {"k": 2, "rows": self.ROWS}
        cfg = base_config(dataset={"kind": "blobs", "k": 3,
                                   "n_per_class": 20, "d": 2,
                                   "separation": 8.0},
                          noise={"kind": "symmetric", "rho": 0.2},
                          method=method, train={"epochs": 2})
        message = re.escape(f"{named} has k 2, but the data has 3 classes")
        with pytest.raises(ConfigError, match=message):
            run_experiment(cfg)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli(["train", "--config", str(path)]) == 1

    # a matrix noise model's rows that were not k x k for the data failed
    # at the corrupt stage (exit 2) with "inject: class count mismatch",
    # NumPy's "inhomogeneous shape" or "must be square", naming neither
    # noise.rows nor a shape
    @pytest.mark.parametrize("rows, shape", [
        ([[0.8, 0.2], [0.2]], "ragged"), ([[0.5, 0.5]] * 3, "(3, 2)"),
    ], ids=["ragged", "3x2"])
    def test_noise_rows_must_be_square(self, monkeypatch, tmp_path, rows,
                                       shape):
        cfg = base_config(noise={"kind": "matrix", "rows": rows})
        self._rejected(monkeypatch, tmp_path, cfg,
                       re.escape("noise.rows must be a square k x k "
                                 f"matrix, got shape {shape}"))

    def test_noise_rows_must_match_the_classes(self, tmp_path):
        cfg = base_config(dataset={"kind": "blobs", "k": 3,
                                   "n_per_class": 20, "d": 2,
                                   "separation": 8.0},
                          noise={"kind": "matrix", "rows": self.ROWS},
                          train={"epochs": 2})
        message = re.escape("noise.rows has shape (2, 2), but the data's "
                            "3 classes need (3, 3)")
        with pytest.raises(ConfigError, match=message):
            run_experiment(cfg)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli(["train", "--config", str(path)]) == 1

    # a transition or noise matrix's entries and rows were checked only
    # when the pipeline built it after the data: a string, bool or
    # out-of-range entry or a row not summing to 1 was a train-stage
    # (transition) or corrupt-stage (noise) PipelineError, exit 2
    PLACES = [
        ("forward", {"loss": {"kind": "forward"}}, "method.loss.transition"),
        ("backward", {"loss": {"kind": "backward"}},
         "method.loss.transition"),
        ("base_loss", {"reweight": {"kind": "running"},
                       "base_loss": {"kind": "backward"}},
         "method.base_loss.transition"),
        ("pumpout", {"reweight": {"kind": "pumpout"}},
         "method.reweight.transition"),
        ("matrix-noise", None, "noise"),
    ]
    FAULTS = [
        ("str", [[0.8, "0.2"], [0.2, 0.8]], 2,
         "rows must hold real numbers, got str '0.2'"),
        ("bool", [[True, False], [False, True]], 2,
         "rows must hold real numbers, got bool True"),
        ("negative", [[0.8, 0.2], [-0.2, 1.0]], 2,
         "rows[1]: invalid probability vector: entries outside [0,1]"),
        ("above-one", [[1.1, 0.0], [0.2, 0.8]], 2,
         "rows[0]: invalid probability vector: entries outside [0,1]"),
        ("row-sum", [[0.8, 0.2], [0.5, 0.6]], 2,
         "rows[1]: invalid probability vector: does not sum to 1"),
        ("ragged", [[0.8, 0.2], [0.2]], 2,
         "rows must be a square k x k matrix, got shape ragged"),
        ("non-square", [[0.5, 0.3, 0.2]] * 2, 2,
         "rows must be a square k x k matrix, got shape (2, 3)"),
        # escaped as a raw OverflowError from NumPy's float conversion
        ("huge-int", [[0.8, 0.2], [10**400, 0.0]], 2,
         "rows[1]: int too large to convert to float"),
        ("k-float", ROWS, 2.0, "k must be an integer >= 2, got 2.0"),
        ("k-mismatch", ROWS, 3, "rows has shape (2, 2), but k 3 needs "
                                "(3, 3)"),
    ]
    # a noise matrix has no k: its rows give it
    MATRIX_CASES = [(f"{place}-{fid}", method, path, rows, k, fault)
                    for (place, method, path), (fid, rows, k, fault)
                    in itertools.product(PLACES, FAULTS)
                    if method or not fid.startswith("k-")]

    @pytest.mark.parametrize("method, path, rows, k, fault",
                             [c[1:] for c in MATRIX_CASES],
                             ids=[c[0] for c in MATRIX_CASES])
    def test_malformed_matrix_is_named_before_any_data(
            self, monkeypatch, tmp_path, method, path, rows, k, fault):
        if method is None:
            cfg = base_config(noise={"kind": "matrix", "rows": rows})
        else:
            method = copy.deepcopy(method)
            section = method.get("base_loss") or next(iter(method.values()))
            section["transition"] = {"k": k, "rows": rows}
            cfg = base_config(noise={"kind": "symmetric", "rho": 0.2},
                              method=method)
        self._rejected(monkeypatch, tmp_path, cfg,
                       "^" + re.escape(f"{path}.{fault}") + "$")

    # a singular transition that a backward loss or pumpout inverts was a
    # train-stage SingularTransitionError (exit 2), raised after the data
    @pytest.mark.parametrize("method, path",
                             [c[1:] for c in PLACES[1:4]],
                             ids=[c[0] for c in PLACES[1:4]])
    def test_singular_inverted_transition_is_named_before_any_data(
            self, monkeypatch, tmp_path, method, path):
        method = copy.deepcopy(method)
        section = method.get("base_loss") or next(iter(method.values()))
        section["transition"] = {"k": 2, "rows": [[0.5, 0.5], [0.5, 0.5]]}
        cfg = base_config(noise={"kind": "symmetric", "rho": 0.2},
                          method=method)
        named = "^" + re.escape(f"{path}: transition matrix ill-conditioned")
        with pytest.raises(ConfigError, match=named):
            validate_config(cfg)
        self._rejected(monkeypatch, tmp_path, cfg, named)

    def test_singular_transition_forward_is_not_inverted(self):
        # the forward correction only mixes by T, so T may be singular
        cfg = base_config(method={"loss": {"kind": "forward", "transition": {
            "k": 2, "rows": [[0.5, 0.5], [0.5, 0.5]]}}}, train={"epochs": 1})
        validate_config(cfg)

    def test_singular_true_transition_stays_a_train_stage_error(self):
        # 'true' is the noise model's T, known only with the data's classes
        cfg = base_config(noise={"kind": "symmetric", "rho": 0.5},
                          method={"loss": {"kind": "backward",
                                           "transition": "true"}},
                          train={"epochs": 1})
        validate_config(cfg)
        with pytest.raises(harness.PipelineError) as info:
            run_experiment(cfg)
        assert info.value.stage == "train"
        assert "ill-conditioned" in str(info.value.cause)

    @pytest.mark.parametrize("key", ["trian", "methods", "rhos"])
    def test_unknown_top_level_key_is_named(self, monkeypatch, tmp_path,
                                            key):
        cfg = base_config(**{key: {"epochs": 2}})
        self._rejected(monkeypatch, tmp_path, cfg, key)

    def test_output_key_is_accepted(self, tmp_path):
        out = tmp_path / "named.json"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_config(output=str(out),
                                               train={"epochs": 2})))
        assert cli(["train", "--config", str(path)]) == 0
        assert out.exists()

    # Without the key table each of these runs on defaults, escapes as a
    # raw KeyError / AttributeError / TypeError, or fails late as a train,
    # generate or corrupt error.
    PROBES = [
        ("train-typo", dict(train={"epoch": 2}), "train.epoch"),
        ("dataset-typo", dict(dataset={"kind": "blobs", "k": 2,
                                       "n_per_class": 100, "n_pre_class": 5,
                                       "d": 2, "separation": 8.0}),
         "dataset.n_pre_class"),
        ("noise-typo", dict(noise={"kind": "symmetric", "rho": 0.3,
                                   "rh": 0.1}), "noise.rh"),
        ("procedure-typo", dict(method={"procedure": {"name": "mixup",
                                                      "alpah": 0.4}}),
         "method.procedure.alpah"),
        ("reweight-typo", dict(method={"reweight": {"kind": "running",
                                                    "multipler": 2.0}}),
         "method.reweight.multipler"),
        ("base_loss-with-loss", dict(method={"loss": {"kind": "ce"},
                                             "base_loss": {"kind": "mae"}}),
         "method.base_loss"),
        ("missing-fusion", dict(noise={"kind": "annotators",
                                       "rhos": [0.1, 0.2, 0.3]},
                                method={"annotator": {}}),
         "method.annotator.fusion"),
        ("missing-procedure-name", dict(method={"procedure": {"alpha": 0.2}}),
         "method.procedure.name"),
        ("method-not-an-object", dict(method=["loss"]), "method"),
        ("learning-rate-string", dict(train={"learning_rate": "0.1"}),
         "train.learning_rate"),
        ("unknown-fusion", dict(noise={"kind": "annotators",
                                       "rhos": [0.1, 0.2, 0.3]},
                                method={"annotator": {"fusion": "vote"}}),
         "method.annotator.fusion"),
        ("unknown-procedure", dict(method={"procedure": {"name": "coteach"}}),
         "method.procedure.name"),
        ("unknown-reweight", dict(method={"reweight": {"kind": "drop"}}),
         "method.reweight.kind"),
        ("unknown-loss", dict(method={"loss": {"kind": "focal"}}),
         "method.loss.kind"),
        ("unknown-noise", dict(noise={"kind": "pair", "rho": 0.3}),
         "noise.kind"),
        ("zero-epochs", dict(train={"epochs": 0}), "train.epochs"),
        ("arch-typo", dict(train={"arch": "mpl"}), "train.arch"),
        ("missing-n_per_class", dict(dataset={"kind": "blobs", "k": 2,
                                              "d": 2, "separation": 8.0}),
         "dataset.n_per_class"),
        ("missing-rho", dict(noise={"kind": "symmetric"}), "noise.rho"),
        ("dataset-not-an-object", dict(dataset="blobs"), "dataset"),
        ("unknown-dataset", dict(dataset={"kind": "moons", "k": 2}),
         "dataset.kind"),
        ("loss-key-of-another-kind", dict(method={"loss": {"kind": "ce",
                                                           "tau": 3}}),
         "method.loss.tau"),
        ("record_skipped", dict(method={"reweight": {
            "kind": "running", "record_skipped": False}}),
         "method.reweight.record_skipped"),
        ("capacity_scale", dict(train={"arch": "mlp", "capacity_scale": 0.5}),
         "train.capacity_scale"),
        ("disagreement-noise_rate", dict(method={"procedure": {
            "name": "disagreement", "noise_rate": 0.4}}),
         "method.procedure.noise_rate"),
    ]

    @pytest.mark.parametrize("over, named", [p[1:] for p in PROBES],
                             ids=[p[0] for p in PROBES])
    def test_probe_is_named_before_any_data(self, monkeypatch, tmp_path,
                                            over, named):
        cfg = base_config(**over)
        self._rejected(monkeypatch, tmp_path, cfg, re.escape(named))

    # a float seed ran truncated while the report echoed it, true ran as
    # 1, and a string failed late as a generate-stage error
    @pytest.mark.parametrize("seed", [7.9, True, "7", -1],
                             ids=["float", "bool", "string", "negative"])
    def test_seed_must_be_an_integer(self, monkeypatch, tmp_path, seed):
        self._rejected(monkeypatch, tmp_path, base_config(seed=seed),
                       "^seed must be an integer")

    # a string escaped as a raw TypeError, and 0, -4, 2.5 and true ran as
    # widths 1, 1, 2 and 1 while the report echoed the value given
    @pytest.mark.parametrize("hidden", ["8", 0, -4, 2.5, True],
                             ids=["string", "zero", "negative", "float",
                                  "bool"])
    def test_hidden_must_be_a_positive_integer(self, monkeypatch, tmp_path,
                                               hidden):
        cfg = base_config(train={"arch": "mlp", "hidden": hidden})
        self._rejected(monkeypatch, tmp_path, cfg,
                       "^train.hidden must be an integer >= 1")

    def test_train_keys_are_the_train_config_fields(self):
        keys = {k.rstrip("!") for k in harness.SCHEMA["train"][1].split()}
        assert {f.name for f in fields(TrainConfig)} == keys | {"seed",
                                                                "loss"}

    def test_report_echoes_config_as_given(self):
        cfg = base_config(method={"reweight": {"kind": "running"}},
                          train={"epochs": 2})
        given = copy.deepcopy(cfg)
        assert run_experiment(cfg)["config"] == given
        assert cfg == given


class TestEveryKeyActs:
    """Every optional key the config table allows, set to a value other
    than its default, changes the run's history, final metrics or
    diagnostics, so no key is accepted and then ignored."""

    BLOBS = {"kind": "blobs", "k": 3, "n_per_class": 40, "d": 2,
             "separation": 3.0}
    COMMON = {"seed": 5, "dataset": BLOBS,
              "noise": {"kind": "symmetric", "rho": 0.3},
              "method": {"loss": {"kind": "ce"}}, "train": {"epochs": 3}}
    ANNOTATORS = {"kind": "annotators", "rhos": [0.2, 0.3, 0.4]}
    # config changes that reach each section variant with optional keys
    REACH = {
        ("dataset", "rings"): {"dataset": {"kind": "rings", "k": 3,
                                           "n_per_class": 40}},
        ("noise", "feature"): {"noise": {"kind": "feature", "rho_max": 0.3}},
        ("train", "mlp"): {"train": {"epochs": 3, "arch": "mlp"}},
        ("method", "reweight"): {"method": {"reweight": {"kind": "running"}}},
        ("loss", "imae"): {"method": {"loss": {"kind": "imae"}}},
        ("loss", "smooth_kl"): {"method": {"loss": {"kind": "smooth_kl"}}},
        ("loss", "backward"): {"method": {"loss": {"kind": "backward",
                                                   "transition": "true"}}},
        ("reweight", "running"): {"method": {"reweight": {"kind": "running"}}},
        ("reweight", "trimmed"): {"method": {"reweight": {
            "kind": "trimmed", "fraction": 0.2}}},
        ("reweight", "rank_prune"): {"method": {"reweight": {
            "kind": "rank_prune", "fraction": 0.2}}},
        # The sum rule never flags a sample under a symmetric transition
        # (CHANGES.md), so gamma and base could not act there: this 2-class
        # T has a negative entry in 1^T T^-1.
        ("reweight", "pumpout"): {
            "dataset": dict(BLOBS, k=2), "noise": None,
            "method": {"reweight": {"kind": "pumpout", "transition": {
                "k": 2, "rows": [[0.9, 0.1], [0.6, 0.4]]}}}},
        ("annotator", "confusion"): {
            "noise": ANNOTATORS,
            "method": {"annotator": {"fusion": "confusion"}}},
        ("procedure", "mixup"): {"method": {"procedure": {"name": "mixup"}}},
        # the keep schedule starts after 5 warm-up epochs
        ("procedure", "co_teaching"): {
            "method": {"procedure": {"name": "co_teaching"}},
            "train": {"epochs": 7}},
        ("procedure", "iterative_clean"): {"method": {"procedure": {
            "name": "iterative_clean"}}},
    }
    PATHS = {"config": (), "dataset": ("dataset",), "noise": ("noise",),
             "train": ("train",), "method": ("method",),
             "loss": ("method", "loss"), "reweight": ("method", "reweight"),
             "annotator": ("method", "annotator"),
             "procedure": ("method", "procedure")}
    # (section, selector value, key) -> a value other than the default
    VALUES = {
        ("config", None, "test_fraction"): 0.4,
        ("config", None, "noise"): {"kind": "symmetric", "rho": 0.3},
        ("config", None, "method"): {"loss": {"kind": "mae"}},
        ("config", None, "train"): {"epochs": 2},
        ("dataset", "rings", "noise_std"): 0.3,
        ("noise", "feature", "beta"): 0.2,
        ("train", None, "epochs"): 2,
        ("train", None, "batch_size"): 8,
        ("train", None, "learning_rate"): 0.3,
        ("train", None, "arch"): "mlp",
        ("train", None, "hidden"): 8,
        ("method", "reweight", "base_loss"): {"kind": "mae"},
        ("loss", "imae", "tau"): 2.0,
        ("loss", "smooth_kl", "epsilon"): 0.3,
        ("loss", "backward", "base"): "mae",
        ("reweight", "running", "window"): 10,
        ("reweight", "running", "multiplier"): 0.5,
        ("reweight", "running", "warmup"): 5,
        # a loss monotone in p_y (ce, mae, imae) trims the same rows
        ("reweight", "trimmed", "loss"): {"kind": "smooth_kl",
                                          "epsilon": 0.5},
        ("reweight", "rank_prune", "per_class"): False,
        ("reweight", "pumpout", "gamma"): 0.5,
        ("reweight", "pumpout", "base"): "mae",
        ("annotator", "confusion", "lambda_trace"): 0.5,
        ("procedure", "mixup", "alpha"): 1.0,
        ("procedure", "co_teaching", "noise_rate"): 0.45,
        ("procedure", "iterative_clean", "clean_fraction"): 0.3,
        ("procedure", "iterative_clean", "rounds"): 1,
        ("procedure", "iterative_clean", "threshold"): 0.9,
    }
    # keys that cannot change a run, with the reason
    EXEMPT = {
        ("config", None, "output"): "names the file `noisylab train` "
                                    "writes; run_experiment does not read it",
    }

    def test_every_optional_key_is_covered(self):
        optional = set()
        for name, (selector, variants) in harness.SCHEMA.items():
            for variant, keys in (variants.items() if selector is not None
                                  else [(None, variants)]):
                optional |= {(name, variant, k) for k in keys.split()
                             if not k.endswith("!")}
        assert optional == set(self.VALUES) | set(self.EXEMPT)

    def _outcome(self, cfg):
        rep = run_experiment(cfg)
        return report_json({k: rep[k] for k in ("history", "final_metrics",
                                                 "noise_diagnostics")})

    def _section(self, cfg, name):
        for k in self.PATHS[name]:
            cfg = cfg[k]
        return cfg

    @pytest.mark.parametrize("address", list(VALUES),
                             ids=[".".join(filter(None, a)) for a in VALUES])
    def test_key_changes_the_run(self, address):
        name, variant, key = address
        reach = ("train", "mlp") if key == "hidden" else (name, variant)
        base = copy.deepcopy({**self.COMMON, **self.REACH.get(reach, {})})
        self._section(base, name).pop(key, None)  # the key at its default
        changed = copy.deepcopy(base)
        self._section(changed, name)[key] = self.VALUES[address]
        assert self._outcome(base) != self._outcome(changed)


class TestGenerateStage:
    def _no_training(self, monkeypatch):
        def spy(*args, **kwargs):
            pytest.fail("training ran")

        monkeypatch.setattr(harness, "train", spy)

    def test_empty_test_split_fails_before_training(self, monkeypatch):
        self._no_training(monkeypatch)
        cfg = base_config(dataset={"kind": "blobs", "k": 3, "n_per_class": 50,
                                   "d": 2, "separation": 8.0},
                          test_fraction=0.001)
        with pytest.raises(harness.PipelineError, match="empty") as info:
            run_experiment(cfg)
        assert info.value.stage == "generate"

    # each failed with "'<' not supported ..." or a TypeError deep in numpy
    @pytest.mark.parametrize("over, named", [
        (dict(dataset={"kind": "blobs", "k": "3", "n_per_class": 50, "d": 2,
                       "separation": 8.0}),
         "gen_blobs: K must be an integer, got '3'"),
        (dict(dataset={"kind": "blobs", "k": 3.0, "n_per_class": 50, "d": 2,
                       "separation": 8.0}),
         "gen_blobs: K must be an integer, got 3.0"),
        (dict(dataset={"kind": "rings", "k": 2, "n_per_class": 50,
                       "noise_std": "0.1"}),
         "gen_rings: noise_std must be a real number, got '0.1'"),
        (dict(test_fraction="0.3"),
         "split: test_fraction must be a real number, got '0.3'"),
    ], ids=["k-string", "k-float", "noise_std-string",
            "test_fraction-string"])
    def test_wrong_type_is_named(self, monkeypatch, over, named):
        self._no_training(monkeypatch)
        with pytest.raises(harness.PipelineError,
                           match=re.escape(named)) as info:
            run_experiment(base_config(**over))
        assert info.value.stage == "generate"

    def test_nan_feature_in_csv_fails_before_training(self, monkeypatch,
                                                      tmp_path):
        self._no_training(monkeypatch)
        path = tmp_path / "nan.csv"
        rows = [f"{i % 3}.5,{i}.0,{i % 3}" for i in range(30)]
        rows[4] = "nan,4.0,1"
        path.write_text("f0,f1,label\n" + "\n".join(rows) + "\n")
        with pytest.raises(ValueError, match="non-finite feature"):
            load_csv(path)
        cfg = base_config(dataset={"kind": "csv", "path": str(path)})
        with pytest.raises(harness.PipelineError,
                           match="non-finite feature") as info:
            run_experiment(cfg)
        assert info.value.stage == "generate"


class TestWrongTypeInMethodOrNoise:
    # each escaped as a raw TypeError or numpy UFuncTypeError, became a
    # corrupt-stage error that named no key, or (noise_rate) ran until the
    # keep schedule read it after warmup
    CASES = [
        ("mixup-alpha", None, {"procedure": {"name": "mixup",
                                             "alpha": "0.2"}}, "alpha"),
        ("trimmed-fraction", None, {"reweight": {"kind": "trimmed",
                                                 "fraction": "0.2"}},
         "trim_fraction"),
        ("rank_prune-fraction", None, {"reweight": {
            "kind": "rank_prune", "fraction": "0.2"}}, "prune_fraction"),
        ("imae-tau", None, {"loss": {"kind": "imae", "tau": "3"}}, "tau"),
        ("smooth_kl-epsilon", None, {"loss": {"kind": "smooth_kl",
                                              "epsilon": "0.1"}}, "epsilon"),
        ("running-window", None, {"reweight": {"kind": "running",
                                               "window": "10"}}, "window"),
        ("running-warmup", None, {"reweight": {"kind": "running",
                                               "warmup": "3"}}, "warmup"),
        ("iterative_clean-rounds", None, {"procedure": {
            "name": "iterative_clean", "rounds": "2"}}, "rounds"),
        ("pumpout-gamma", None, {"reweight": {
            "kind": "pumpout", "transition": "true", "gamma": "0.1"}},
         "gamma"),
        ("confusion-lambda_trace", {"kind": "annotators", "rhos": [0.2, 0.3]},
         {"annotator": {"fusion": "confusion", "lambda_trace": "0.1"}},
         "lambda_trace"),
        ("iterative_clean-threshold", None, {"procedure": {
            "name": "iterative_clean", "threshold": "0.5"}}, "threshold"),
        ("iterative_clean-clean_fraction", None, {"procedure": {
            "name": "iterative_clean", "clean_fraction": "0.1"}},
         "clean_fraction"),
        ("co_teaching-noise_rate", None, {"procedure": {
            "name": "co_teaching", "noise_rate": "0.2"}}, "noise_rate"),
        ("symmetric-rho", {"kind": "symmetric", "rho": "0.3"}, None, "rho"),
        ("feature-beta", {"kind": "feature", "rho_max": 0.3, "beta": "1"},
         None, "beta"),
    ]

    @pytest.mark.parametrize("noise, method, named",
                             [c[1:] for c in CASES],
                             ids=[c[0] for c in CASES])
    def test_string_value_is_named(self, noise, method, named):
        cfg = base_config(
            dataset={"kind": "blobs", "k": 3, "n_per_class": 20, "d": 2,
                     "separation": 8.0},
            noise=noise or {"kind": "symmetric", "rho": 0.3},
            method=method or {"loss": {"kind": "ce"}}, train={"epochs": 2})
        pattern = rf"\b{named} must be an? [a-z ]+, got '"
        with pytest.raises(harness.PipelineError, match=pattern) as info:
            run_experiment(cfg)
        assert info.value.stage == ("corrupt" if method is None else "train")


class TestOutOfRangeValueIsNamed:
    # mixup's alpha hung run_experiment; the running multiplier, feature
    # beta and cleaning threshold ran with a rule that never fired;
    # clean_fraction 5 took the whole training set as the clean set and -1
    # took 2 rows; rounds 0 ran no round; tau and lambda_trace failed late
    # as a divergence naming no key
    NAN, INF = float("nan"), float("inf")
    CASES = [
        ("mixup-alpha-inf", None, {"procedure": {"name": "mixup",
                                                 "alpha": INF}},
         "mixup: alpha must be in (0, inf), got inf"),
        ("mixup-alpha-nan", None, {"procedure": {"name": "mixup",
                                                 "alpha": NAN}},
         "mixup: alpha must be in (0, inf), got nan"),
        ("running-multiplier-nan", None, {"reweight": {
            "kind": "running", "multiplier": NAN}},
         "RunningLossFilter: multiplier must be in (0, inf), got nan"),
        ("feature-beta-nan", {"kind": "feature", "rho_max": 0.3,
                              "beta": NAN}, None,
         "feature_dependent_inject: beta must be in [0, inf), got nan"),
        ("iterative_clean-threshold-nan", None, {"procedure": {
            "name": "iterative_clean", "threshold": NAN}},
         "iterative_clean: threshold must be in [0, 1], got nan"),
        ("iterative_clean-clean_fraction-5", None, {"procedure": {
            "name": "iterative_clean", "clean_fraction": 5}},
         "iterative_clean: clean_fraction must be in (0, 1], got 5"),
        ("iterative_clean-clean_fraction-negative", None, {"procedure": {
            "name": "iterative_clean", "clean_fraction": -1}},
         "iterative_clean: clean_fraction must be in (0, 1], got -1"),
        ("iterative_clean-rounds-0", None, {"procedure": {
            "name": "iterative_clean", "rounds": 0}},
         "iterative_clean: rounds must be in [1, inf), got 0"),
        ("imae-tau-nan", None, {"loss": {"kind": "imae", "tau": NAN}},
         "LossSpec: tau must be in (0, inf), got nan"),
        ("confusion-lambda_trace-nan", {"kind": "annotators",
                                        "rhos": [0.2, 0.3]},
         {"annotator": {"fusion": "confusion", "lambda_trace": NAN}},
         "train_with_confusion: lambda_trace must be in [0, inf), got nan"),
    ]

    @pytest.mark.parametrize("noise, method, message",
                             [c[1:] for c in CASES],
                             ids=[c[0] for c in CASES])
    def test_fails_before_any_step(self, monkeypatch, deadline, noise,
                                   method, message):
        def no_step(*args):
            pytest.fail("a training step ran")

        monkeypatch.setattr(model, "backward_batch", no_step)
        cfg = base_config(
            dataset={"kind": "blobs", "k": 3, "n_per_class": 40, "d": 2,
                     "separation": 8.0},
            noise=noise or {"kind": "symmetric", "rho": 0.3},
            method=method or {"loss": {"kind": "ce"}}, train={"epochs": 3})
        with pytest.raises(harness.PipelineError) as info:
            run_experiment(cfg)
        assert str(info.value.cause) == message
        assert info.value.stage == ("corrupt" if method is None else "train")


class TestWrongEntryType:
    # each trained as if the value were valid: NumPy parsed the strings and
    # bools of the rows as numbers, and any non-empty per_class string
    # counted as true. A matrix is checked whole before any data (stage
    # None: a ConfigError naming its path); per_class only where it is read
    TWO_BY_TWO = [["0.7", "0.3"], ["0.3", "0.7"]]
    CASES = [
        ("matrix-str", {"kind": "matrix", "rows": TWO_BY_TWO}, None,
         r"^noise\.rows must hold real numbers, got str '0\.7'$", None),
        ("matrix-bool", {"kind": "matrix",
                         "rows": [[True, False], [False, True]]}, None,
         r"^noise\.rows must hold real numbers, got bool True$", None),
        ("matrix-mixed-bool", {"kind": "matrix",
                               "rows": [[0.9, 0.1], [False, True]]}, None,
         r"^noise\.rows must hold real numbers, got bool False$", None),
        ("forward-transition-str", None, {"loss": {
            "kind": "forward", "transition": {"k": 2, "rows": TWO_BY_TWO}}},
         r"^method\.loss\.transition\.rows must hold real numbers, "
         r"got str '0\.7'$", None),
        ("rank_prune-per_class-str", None, {"reweight": {
            "kind": "rank_prune", "fraction": 0.2, "per_class": "no"}},
         "rank_prune: per_class must be a bool, got 'no'", "train"),
        ("rank_prune-per_class-int", None, {"reweight": {
            "kind": "rank_prune", "fraction": 0.2, "per_class": 0}},
         "rank_prune: per_class must be a bool, got 0", "train"),
    ]

    @pytest.mark.parametrize("noise, method, message, stage",
                             [c[1:] for c in CASES],
                             ids=[c[0] for c in CASES])
    def test_wrong_type_is_named(self, monkeypatch, noise, method, message,
                                 stage):
        generated = []
        real_make = harness._make_dataset

        def spy(spec, seed):
            generated.append(spec)
            return real_make(spec, seed)

        monkeypatch.setattr(harness, "_make_dataset", spy)
        cfg = base_config(
            dataset={"kind": "blobs", "k": 2, "n_per_class": 20, "d": 2,
                     "separation": 8.0},
            noise=noise or {"kind": "symmetric", "rho": 0.3},
            method=method or {"loss": {"kind": "ce"}}, train={"epochs": 2})
        error = ConfigError if stage is None else harness.PipelineError
        with pytest.raises(error, match=message) as info:
            run_experiment(cfg)
        if stage is None:
            assert generated == []
        else:
            assert info.value.stage == stage


class TestRunExperiment:
    def test_baseline_clean_accuracy(self):
        rep = run_experiment(base_config())
        assert rep["final_metrics"]["accuracy"] >= 0.99
        assert len(rep["history"]) == 10

    def test_deterministic_reports(self):
        r1 = run_experiment(base_config())
        r2 = run_experiment(base_config())
        assert (report_json(strip_wall_time(r1))
                == report_json(strip_wall_time(r2)))

    def test_true_transition_resolution(self):
        cfg = base_config(noise={"kind": "symmetric", "rho": 0.3},
                          method={"loss": {"kind": "forward",
                                           "transition": "true"}})
        rep = run_experiment(cfg)
        assert rep["final_metrics"]["accuracy"] >= 0.95

    @pytest.mark.parametrize("noise", [
        {"kind": "symmetric", "rho": 0.3},
        {"kind": "matrix", "rows": [[0.8, 0.2], [0.3, 0.7]]},
    ], ids=["symmetric", "matrix"])
    def test_noise_transition_built_once(self, monkeypatch, noise):
        # the T that corrupts the labels is the object 'true' resolves to
        seen = {}

        def spy(name, real):
            def call(*args):
                seen[name] = args
                return real(*args)
            return call

        monkeypatch.setattr(harness, "inject", spy("inject", harness.inject))
        monkeypatch.setattr(harness, "_run_method",
                            spy("run", harness._run_method))
        cfg = base_config(noise=noise, method={"loss": {
            "kind": "forward", "transition": "true"}}, train={"epochs": 1})
        rep = run_experiment(cfg)
        assert seen["run"][-1] is seen["inject"][1]
        assert rep["final_metrics"]["accuracy"] >= 0.9

    def test_training_never_sees_truth(self, monkeypatch):
        seen = []
        real_train = harness.train

        def spy(ds, cfg, test_ds=None, **kw):
            seen.append(ds.true_labels)
            return real_train(ds, cfg, test_ds, **kw)

        monkeypatch.setattr(harness, "train", spy)
        run_experiment(base_config(noise={"kind": "symmetric", "rho": 0.2}))
        assert seen and all(t is None for t in seen)

    # both were train-stage PipelineErrors (exit 2); they depend on the
    # generated data, so they surface after it, but as ConfigErrors
    def test_annotator_method_without_labels_fails(self, tmp_path):
        cfg = base_config(method={"annotator": {"fusion": "staple"}})
        with pytest.raises(ConfigError, match="requires annotator labels"):
            run_experiment(cfg)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli(["train", "--config", str(path)]) == 1

    # staple on one annotator was a train-stage PipelineError (exit 2),
    # though noisylab fuse --method staple refused it as a usage error
    def test_staple_needs_two_annotators(self, tmp_path):
        cfg = base_config(noise={"kind": "annotators", "rhos": [0.3]},
                          method={"annotator": {"fusion": "staple"}},
                          train={"epochs": 2})
        with pytest.raises(ConfigError, match=re.escape(
                "method.annotator.fusion 'staple' needs at least 2 "
                "annotators, got 1")):
            run_experiment(cfg)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli(["train", "--config", str(path)]) == 1

    @pytest.mark.parametrize("fusion", ["majority", "min_loss", "confusion"])
    def test_other_fusions_run_on_one_annotator(self, fusion):
        cfg = base_config(noise={"kind": "annotators", "rhos": [0.3]},
                          method={"annotator": {"fusion": fusion}},
                          train={"epochs": 2})
        assert len(run_experiment(cfg)["history"]) == 2

    def test_iterative_clean_without_truth_fails(self, tmp_path):
        data = tmp_path / "observed.csv"
        rows = [f"{i % 7}.5,{i % 5}.0,{i % 2}" for i in range(40)]
        data.write_text("f0,f1,label\n" + "\n".join(rows) + "\n")
        cfg = base_config(dataset={"kind": "csv", "path": str(data)},
                          method={"procedure": {"name": "iterative_clean"}},
                          train={"epochs": 1})
        with pytest.raises(ConfigError, match="needs hidden truth"):
            run_experiment(cfg)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli(["clean", "--config", str(path)]) == 1

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_divergence_is_a_train_stage_error(self):
        cfg = base_config(train={"epochs": 5, "learning_rate": 1e12,
                                 "arch": "mlp"})
        with pytest.raises(harness.PipelineError) as info:
            run_experiment(cfg)
        assert info.value.stage == "train"
        assert isinstance(info.value.cause, DivergedError)

    def test_staple_pipeline_diagnostics(self):
        cfg = base_config(
            noise={"kind": "annotators", "rhos": [0.1, 0.2, 0.3]},
            method={"annotator": {"fusion": "staple"}})
        rep = run_experiment(cfg)
        assert "annotator_model" in rep["noise_diagnostics"]
        assert rep["noise_diagnostics"]["fused_label_accuracy"] > 0.85

    def test_reweight_pipeline(self):
        cfg = base_config(noise={"kind": "symmetric", "rho": 0.2},
                          method={"reweight": {"kind": "running",
                                               "multiplier": 1.5}})
        rep = run_experiment(cfg)
        assert rep["final_metrics"]["accuracy"] >= 0.9

    def test_trimmed_reweight_scores_with_its_loss(self, monkeypatch):
        seen = []
        real_train = harness.train

        def spy(ds, cfg, test_ds=None, **kw):
            seen.append(kw["reweight"]["loss"])
            return real_train(ds, cfg, test_ds, **kw)

        monkeypatch.setattr(harness, "train", spy)
        cfg = base_config(noise={"kind": "symmetric", "rho": 0.2},
                          method={"reweight": {"kind": "trimmed",
                                               "fraction": 0.2,
                                               "loss": {"kind": "mae"}}})
        rep = run_experiment(cfg)
        assert [s.kind for s in seen] == ["mae"]
        assert rep["final_metrics"]["accuracy"] >= 0.9

    def test_trimmed_reweight_unknown_loss_is_named(self):
        cfg = base_config(method={"reweight": {"kind": "trimmed",
                                               "fraction": 0.2,
                                               "loss": {"kind": "nope"}}})
        with pytest.raises((harness.PipelineError, ConfigError),
                           match="unknown loss kind"):
            run_experiment(cfg)


class TestReportIO:
    def test_write_report_and_epoch_csv(self, tmp_path):
        rep = run_experiment(base_config())
        out = tmp_path / "rep.json"
        csv_path = write_report(rep, out)
        loaded = json.loads(out.read_text())
        assert loaded["schema_version"] == 1
        lines = open(csv_path).read().splitlines()
        assert len(lines) == 1 + len(rep["history"])

    @pytest.mark.parametrize("name", ["co_teaching", "disagreement"])
    def test_peer_history_rows_are_scalar(self, tmp_path, name):
        # the history follows the first peer: a list cell would print as
        # "[a, b]" and split the CSV line into more cells than its header
        rep = run_experiment(base_config(
            noise={"kind": "symmetric", "rho": 0.3},
            method={"procedure": {"name": name}}, train={"epochs": 7}))
        keys = ["test_accuracy"] + (["train_loss", "keep_fraction"]
                                    if name == "co_teaching" else [])
        for row in rep["history"]:
            for key in keys:
                assert isinstance(row[key], float), (row["epoch"], key)
            assert all(not isinstance(v, list) for v in row.values())
        if name == "co_teaching":
            assert rep["history"][-1]["keep_fraction"] < 1.0
        header, *lines = open(write_report(
            rep, tmp_path / "rep.json")).read().splitlines()
        assert len(lines) == len(rep["history"])
        assert all(len(line.split(",")) == len(header.split(","))
                   for line in lines)


class TestSweep:
    TEMPLATE = {
        "seed": 101,
        "dataset": {"kind": "blobs", "k": 3, "n_per_class": 100, "d": 2,
                    "separation": 8.0},
        "test_fraction": 0.25,
        "train": {"epochs": 15, "batch_size": 32, "learning_rate": 0.1,
                  "arch": "linear"},
    }

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            sweep(self.TEMPLATE, [])

    # a string grid failed on its first point with "'>' not supported
    # ...", a method without a pipeline key raised a bare StopIteration,
    # and an unknown loss kind gave a summary of error rows
    @pytest.mark.parametrize("rhos, methods, named", [
        ("0.3", None, "rhos must be a non-empty list, got '0.3'"),
        (0.3, None, "rhos must be a non-empty list, got 0.3"),
        ([0.0, "0.3"], None, "rhos[1] must be a real number, got '0.3'"),
        ([0.0, True], None, "rhos[1] must be a real number, got True"),
        ([0.0, 1.0], None, "sweep: rhos[1] must be in [0, 1), got 1.0"),
        ([-0.1], None, "sweep: rhos[0] must be in [0, 1), got -0.1"),
        ([0.2], [{"losses": {"kind": "ce"}}],
         "config must select exactly one method pipeline"),
        ([0.2], [{"loss": {"kind": "ce"}}, {"loss": {"kind": "cee"}}],
         "method.loss.kind: unknown loss kind 'cee'"),
        ([0.2], [{"loss": {"kind": "forward", "transition": "false"}}],
         "method.loss.transition must be 'true' or an object"),
        ([0.2], [{"loss": {"kind": "ce"}},
                 {"loss": {"kind": "forward", "transition": {
                     "k": 3, "rows": [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1],
                                      [0.1, 0.1, 0.9]]}}}],
         "method.loss.transition.rows[2]: invalid probability vector: "
         "does not sum to 1"),
    ], ids=["string", "number", "string-rho", "bool-rho", "rho-one",
            "negative-rho", "no-pipeline", "unknown-loss",
            "bad-transition", "bad-transition-rows"])
    def test_grid_and_methods_checked_before_any_point(
            self, monkeypatch, rhos, methods, named):
        def spy(cfg):
            pytest.fail("a sweep point ran")

        monkeypatch.setattr(harness, "run_experiment", spy)
        with pytest.raises(ConfigError, match=re.escape(named)):
            sweep(self.TEMPLATE, rhos, methods)

    # a fault of the template was caught in every point's run_experiment,
    # and the sweep returned a summary of error rows
    @pytest.mark.parametrize("train, named", [
        ({"epoch": 2}, "train has unknown key(s): train.epoch"),
        ({"epochs": 0}, "train.epochs must be an integer >= 1, got 0"),
    ], ids=["unknown-key", "bad-value"])
    def test_template_checked_before_any_point(self, monkeypatch, train,
                                               named):
        def spy(cfg):
            pytest.fail("a sweep point ran")

        monkeypatch.setattr(harness, "run_experiment", spy)
        with pytest.raises(ConfigError, match=re.escape(named)):
            sweep(dict(self.TEMPLATE, train=train), [0.0, 0.2])

    # a template's method and noise were replaced at every point without a
    # word: a config meant for MAE gave a summary of loss:ce rows
    @pytest.mark.parametrize("over, named", [
        ({"method": {"loss": {"kind": "mae"}}},
         "sweep: the template sets method, which each point sets; give "
         "methods instead"),
        ({"noise": {"kind": "symmetric", "rho": 0.3}},
         "sweep: the template sets noise, which each point sets; give rhos "
         "instead"),
        ({"noise": None}, "the template sets noise"),
    ], ids=["method", "noise", "null-noise"])
    def test_template_method_or_noise_refused(self, monkeypatch, over,
                                              named):
        def spy(cfg):
            pytest.fail("a sweep point ran")

        monkeypatch.setattr(harness, "run_experiment", spy)
        with pytest.raises(ConfigError, match=re.escape(named)):
            sweep(dict(self.TEMPLATE, **over), [0.0, 0.2])

    def test_point_failure_stays_a_summary_row(self):
        methods = [{"loss": {"kind": "forward", "transition": "true"}}]
        _, summary, _ = sweep(dict(self.TEMPLATE, train={"epochs": 2}),
                              [0.0, 0.2], methods)
        assert "defines no transition" in summary[0]["error"]
        assert "error" not in summary[1]

    def test_summary_row_count(self):
        reports, summary, _ = sweep(self.TEMPLATE, [0.0, 0.2])
        assert len(summary) == 2
        assert len(reports) == 2

    def test_error_nondecreasing(self):
        _, summary, r2 = sweep(self.TEMPLATE, [0.0, 0.2, 0.4])
        errs = [r["test_error"] for r in summary]
        assert all(b >= a - 0.02 for a, b in zip(errs, errs[1:]))

    @pytest.mark.parametrize("rhos", [[0.0, 0.0, 0.3], [0.2, 0.2, 0.2, 0.2]])
    def test_r2_needs_three_distinct_rhos(self, rhos):
        # a quadratic through two rho values fits exactly: it was R^2 1.0
        template = dict(self.TEMPLATE, train={"epochs": 2})
        _, summary, r2 = sweep(template, rhos)
        assert len(summary) == len(rhos) and r2 is None

    def test_r2_fits_the_baselines_rows_alone(self):
        # two running variants share the name reweight:running, and the fit
        # took the second's rows too: R^2 0.46 where the baseline's gave 1
        template = {"seed": 1, "test_fraction": 0.25, "train": {"epochs": 3},
                    "dataset": {"kind": "blobs", "k": 3, "n_per_class": 40,
                                "d": 2, "separation": 3.0}}
        rhos = [0.0, 0.2, 0.4]
        methods = [{"reweight": {"kind": "running"}},
                   {"reweight": {"kind": "running", "multiplier": 0.5}}]
        _, summary, r2 = sweep(template, rhos, methods)
        assert {row["method"] for row in summary} == {"reweight:running"}
        assert r2 == harness._quadratic_fit_r2(summary[:3])
        assert r2 != harness._quadratic_fit_r2(summary)

    def test_summary_csv(self):
        _, summary, _ = sweep(self.TEMPLATE, [0.0, 0.2])
        text = sweep_summary_csv(summary)
        assert text.splitlines()[0].startswith("method,rho")
        assert len(text.splitlines()) == 3


def fresh_run(cfg):
    """run_experiment on data made and a model trained anew: the cache
    emptied first."""
    harness._SHARED.clear()
    return run_experiment(cfg)


def fits():
    """The stacked sweep fits in the harness's cache."""
    return harness._SHARED.get("fits", {})


def shared():
    """A copy of the harness's cache, its dicts copied one level down."""
    return {k: copy.copy(v) for k, v in harness._SHARED.items()}


def fresh_sweep(template, rhos, methods):
    """The reports and summary a sweep's points give as fresh runs, one
    after another."""
    reports, summary = [], []
    for method in methods:
        for rho in rhos:
            cfg = dict(copy.deepcopy(template), method=method,
                       noise={"kind": "symmetric", "rho": rho}
                       if rho else None)
            row = {"method": harness._method_name(method), "rho": rho}
            try:
                rep = fresh_run(cfg)
            except Exception as e:
                row["error"] = str(e)
            else:
                reports.append(rep)
                acc = rep["final_metrics"]["accuracy"]
                row.update(test_accuracy=acc, test_error=1.0 - acc,
                           macro_f1=rep["final_metrics"]["macro_f1"])
            summary.append(row)
    return reports, summary


def assert_same_sweep(got, expected):
    """Stripped reports and summary CSV byte-equal."""
    (reports, summary), (expected_reports, expected_summary) = got, expected
    assert [report_json(strip_wall_time(r)) for r in reports] == [
        report_json(strip_wall_time(r)) for r in expected_reports]
    assert sweep_summary_csv(summary) == sweep_summary_csv(expected_summary)


class TestSweepSharesItsData:
    """A sweep generates or reads, and splits, its dataset once, at its
    first point; every point's report is the one a fresh run gives."""

    METHODS = [{"loss": {"kind": "ce"}},
               {"reweight": {"kind": "trimmed", "fraction": 0.2}},
               {"noise_adaptation": True},
               {"procedure": {"name": "mixup"}},
               {"procedure": {"name": "co_teaching"}},
               {"procedure": {"name": "dual_relabel"}},
               {"procedure": {"name": "iterative_clean"}},
               {"loss": {"kind": "mae"}},
               {"loss": {"kind": "imae"}},
               {"loss": {"kind": "smooth_kl", "epsilon": 0.1}},
               {"reweight": {"kind": "rank_prune", "fraction": 0.2}}]
    RHOS = [0.0, 0.3]

    @pytest.fixture
    def csv_template(self, tmp_path):
        path = tmp_path / "data.csv"
        save_csv(gen_blobs(3, 30, 2, 3.0, 4), path)
        return {"seed": 5, "dataset": {"kind": "csv", "path": str(path)},
                "test_fraction": 0.25, "train": {"epochs": 2}}

    @staticmethod
    def count_reads(monkeypatch):
        reads = []

        def counted(path):
            reads.append(path)
            return load_csv(path)

        monkeypatch.setattr(harness, "load_csv", counted)
        return reads

    def test_unchanged_csv_is_read_once(self, monkeypatch, csv_template):
        reads = self.count_reads(monkeypatch)
        sweep(csv_template, self.RHOS, self.METHODS[:3])
        sweep(csv_template, self.RHOS, self.METHODS[:3])
        run_experiment(dict(csv_template, method=self.METHODS[0]))
        run_experiment(dict(csv_template, method=self.METHODS[0]))
        assert len(reads) == 1  # across sweeps and runs alike

    def test_each_noise_rate_is_corrupted_once(self, monkeypatch,
                                               csv_template):
        # every method's points share each rate's corrupted copy, rho 0's
        # uncorrupted one included, and a second sweep makes nothing
        made = []

        def count(name):
            real = getattr(harness, name)

            def call(*args):
                made.append(name)
                return real(*args)
            monkeypatch.setattr(harness, name, call)

        count("_split_dataset")
        count("_apply_noise")
        rhos, methods = [0.0, 0.2, 0.4], self.METHODS[:3]
        first = sweep(csv_template, rhos, methods)
        assert made == ["_split_dataset"] + ["_apply_noise"] * 3
        second = sweep(csv_template, rhos, methods)
        assert len(made) == 4
        assert_same_sweep(second[:2], first[:2])

    @pytest.mark.parametrize("arch", ["linear", "mlp"])
    @pytest.mark.parametrize("kind", ["csv", "blobs"])
    def test_points_match_standalone_runs(self, csv_template, kind, arch):
        # a point that wrote into the shared arrays would move the later ones
        template = dict(csv_template, train={"epochs": 2, "arch": arch,
                                             "hidden": 4})
        if kind == "blobs":
            template["dataset"] = {"kind": "blobs", "k": 3, "n_per_class": 30,
                                   "d": 2, "separation": 3.0}
        reports, summary, _ = sweep(template, self.RHOS, self.METHODS)
        assert_same_sweep((reports, summary),
                          fresh_sweep(template, self.RHOS, self.METHODS))
        assert len(reports) >= len(self.METHODS)

    @pytest.mark.parametrize("vary", ["dataset", "seed", "test_fraction"])
    def test_points_share_only_the_same_data(self, monkeypatch, csv_template,
                                             vary):
        # a sweep's points differ only in noise and method; points made to
        # differ in data, seed or split get their own
        values = {"dataset": [csv_template["dataset"], {
                      "kind": "blobs", "k": 3, "n_per_class": 30, "d": 2,
                      "separation": 3.0}],
                  "seed": [5, 6], "test_fraction": [0.25, 0.3]}[vary]
        points = itertools.cycle(values)
        reports = []

        def varied(cfg):
            cfg[vary] = next(points)
            reports.append(run_experiment(cfg))
            return reports[-1]

        monkeypatch.setattr(harness, "run_experiment", varied)
        sweep(csv_template, [0.0, 0.1, 0.2, 0.3], self.METHODS[:1])
        monkeypatch.undo()
        assert [report_json(strip_wall_time(r)) for r in reports] == [
            report_json(strip_wall_time(fresh_run(r["config"])))
            for r in reports]
        assert len({json.dumps(r["config"][vary]) for r in reports}) == 2

    def test_missing_csv_fails_every_point_at_generate(self, monkeypatch,
                                                       csv_template):
        reads = self.count_reads(monkeypatch)
        template = dict(csv_template, dataset={"kind": "csv",
                                               "path": "no/such.csv"})
        reports, summary, _ = sweep(template, self.RHOS, self.METHODS[:2])
        assert reports == [] and len(summary) == 4
        # the stat stamp of the key raises open's own error, before any read
        with pytest.raises(FileNotFoundError) as opened:
            open("no/such.csv", encoding="utf-8")
        assert [row["error"] for row in summary] == [
            f"pipeline stage 'generate' failed: {opened.value}"] * 4
        assert reads == [] and harness._SHARED == {}


class TestSweepTrainsStacks:
    """Before its first point runs, a sweep trains the points of every loss
    or reweight method that names no 'true' transition in one stack per
    loss they train under, and those of each co_teaching or disagreement
    procedure as one stack. Every point still runs through one
    run_experiment call of its own, looked up on the module and made in
    summary order, which takes the stack's model for it; the cache that
    hands it over holds no fit once the sweep is done."""

    TEMPLATE = {"seed": 3, "dataset": {"kind": "blobs", "k": 3,
                                       "n_per_class": 30, "d": 2,
                                       "separation": 3.0},
                "test_fraction": 0.25, "train": {"epochs": 2}}
    RHOS = [0.0, 0.2, 0.4]
    METHODS = [{"loss": {"kind": "ce"}},
               {"loss": {"kind": "forward", "transition": "true"}},
               {"reweight": {"kind": "trimmed", "fraction": 0.2}},
               {"procedure": {"name": "co_teaching"}},
               {"reweight": {"kind": "running"}},
               {"loss": {"kind": "forward", "transition": {
                   "k": 3, "rows": [[0.8, 0.1, 0.1], [0.2, 0.7, 0.1],
                                    [0.0, 0.3, 0.7]]}}}]

    def point_configs(self):
        return [dict(copy.deepcopy(self.TEMPLATE), method=method,
                     noise={"kind": "symmetric", "rho": rho} if rho else None)
                for method in self.METHODS for rho in self.RHOS]

    @staticmethod
    def count_stacks(monkeypatch, fail=False):
        """Sizes of the stacks harness.train and harness.train_co_teaching
        are given, in sweep order; with fail, each raises DivergedError
        instead of training."""
        stacks = []

        def counted(real):
            def trainer(ds, *args, **kwargs):
                if isinstance(ds, list):
                    stacks.append(len(ds))
                    if fail:
                        raise DivergedError("training diverged at epoch 0")
                return real(ds, *args, **kwargs)
            return trainer

        for name in ("train", "train_co_teaching"):
            monkeypatch.setattr(harness, name,
                                counted(getattr(harness, name)))
        return stacks

    def test_one_run_experiment_call_per_summary_row(self, monkeypatch):
        calls, real = [], harness.run_experiment

        def counted(cfg):
            calls.append((copy.deepcopy(cfg), len(fits())))
            return real(cfg)

        stacks = self.count_stacks(monkeypatch)
        monkeypatch.setattr(harness, "run_experiment", counted)
        reports, summary, _ = sweep(self.TEMPLATE, self.RHOS, self.METHODS)
        assert [cfg for cfg, _ in calls] == self.point_configs()
        assert [(harness._method_name(cfg["method"]),
                 (cfg["noise"] or {"rho": 0.0})["rho"]) for cfg, _ in calls
                ] == [(row["method"], row["rho"]) for row in summary]
        # before the first point: ce, trimmed and running under their one
        # CE loss as one stack, then co_teaching and forward under its
        # explicit T, each point taking its model
        assert stacks == [9, 3, 3]
        assert [held for _, held in calls] == [15, 14, 13, 12, 12, 12,
                                               12, 11, 10, 9, 8, 7,
                                               6, 5, 4, 3, 2, 1]
        assert "defines no transition" in summary[3]["error"]
        assert fits() == {}
        assert_same_sweep((reports, summary),
                          fresh_sweep(self.TEMPLATE, self.RHOS, self.METHODS))

    def test_memo_is_emptied_when_the_sweep_raises(self, monkeypatch):
        class Stop(BaseException):
            pass

        held = []

        def stop(cfg):
            held.append(len(fits()))
            raise Stop

        monkeypatch.setattr(harness, "run_experiment", stop)
        with pytest.raises(Stop):
            sweep(self.TEMPLATE, self.RHOS, self.METHODS)
        assert held == [15] and fits() == {}

    def test_failed_stack_leaves_each_point_its_own_row(self, monkeypatch):
        # the stacks fail; each point then trains alone, and a point whose
        # own training fails keeps its own error row
        stacks = self.count_stacks(monkeypatch, fail=True)

        def odd_fails(real):
            def trainer(ds, *args, **kwargs):
                if not isinstance(ds, list) and ds.labels.sum() % 2:
                    raise DivergedError("training diverged at epoch 1")
                return real(ds, *args, **kwargs)
            return trainer

        for name in ("train", "train_co_teaching"):
            monkeypatch.setattr(harness, name,
                                odd_fails(getattr(harness, name)))
        reports, summary, _ = sweep(self.TEMPLATE, self.RHOS, self.METHODS)
        assert stacks == [9, 3, 3] and fits() == {}
        # a point fails alone where its labels' sum is odd, whatever its
        # method: the same points of every stacked method
        failed = {method: ["error" in row for row in summary
                           if row["method"] == method]
                  for method in ("loss:ce", "reweight:trimmed",
                                 "procedure:co_teaching")}
        assert len({tuple(f) for f in failed.values()}) == 1
        assert set(failed["procedure:co_teaching"]) == {True, False}
        assert_same_sweep((reports, summary),
                          fresh_sweep(self.TEMPLATE, self.RHOS, self.METHODS))

    # five methods under one CE loss, pumpout's under an explicit T, then
    # mae's own loss and co_teaching
    SHARED_LOSS = [{"loss": {"kind": "ce"}},
                   {"reweight": {"kind": "trimmed", "fraction": 0.2}},
                   {"reweight": {"kind": "running", "window": 8,
                                 "warmup": 4}},
                   {"reweight": {"kind": "rank_prune", "fraction": 0.2}},
                   {"reweight": {"kind": "pumpout", "transition": {
                       "k": 3, "rows": [[0.6, 0.4, 0.0], [0.1, 0.9, 0.0],
                                        [0.0, 0.4, 0.6]]}}},
                   {"loss": {"kind": "mae"}},
                   {"procedure": {"name": "co_teaching"}}]

    def test_methods_sharing_a_loss_train_as_one_stack(self, monkeypatch):
        stacks = self.count_stacks(monkeypatch)
        held, real = [], harness.run_experiment

        def spy(cfg):
            held.append(harness._fit_key(cfg) in fits())
            return real(cfg)

        monkeypatch.setattr(harness, "run_experiment", spy)
        got = sweep(self.TEMPLATE, self.RHOS, self.SHARED_LOSS)
        assert stacks == [15, 3, 3]
        assert held == [True] * 21 and fits() == {}
        assert_same_sweep(got[:2], fresh_sweep(self.TEMPLATE, self.RHOS,
                                               self.SHARED_LOSS))

    def test_a_method_failing_in_training_fails_alone(self, monkeypatch):
        # the running window refuses 0 only once its hook is built: the
        # points of that method leave the CE stack and fail alone, while
        # the stack's other points keep their fits
        failing = {"reweight": {"kind": "running", "window": 0}}
        methods = self.SHARED_LOSS[:2] + [failing] + self.SHARED_LOSS[2:]
        stacks = self.count_stacks(monkeypatch)
        held, real = [], harness.run_experiment

        def spy(cfg):
            held.append(harness._fit_key(cfg) in fits())
            return real(cfg)

        monkeypatch.setattr(harness, "run_experiment", spy)
        reports, summary, _ = sweep(self.TEMPLATE, self.RHOS, methods)
        assert stacks == [15, 3, 3]
        n = len(self.RHOS)
        # CE, trimmed, then the failing method, then running, rank_prune
        # and pumpout: the 15 points of the CE stack
        ce_group = held[:2 * n] + held[3 * n:6 * n]
        assert ce_group == [True] * 15 and held[2 * n:3 * n] == [False] * n
        own = summary[2 * n:3 * n]
        assert [row["error"] for row in own] == [
            "pipeline stage 'train' failed: RunningLossFilter: window must "
            "be in [1, inf), got 0"] * n
        without = sweep(self.TEMPLATE, self.RHOS, self.SHARED_LOSS)
        assert_same_sweep((reports, summary[:2 * n] + summary[3 * n:]),
                          without[:2])

    def test_a_method_listed_twice(self, monkeypatch):
        # its points train once in the stack; the second listing's alone
        methods = [self.SHARED_LOSS[0], self.SHARED_LOSS[1],
                   self.SHARED_LOSS[0], self.SHARED_LOSS[6],
                   self.SHARED_LOSS[6]]
        stacks = self.count_stacks(monkeypatch)
        got = sweep(self.TEMPLATE, self.RHOS, methods)
        assert stacks == [6, 3]
        assert_same_sweep(got[:2], fresh_sweep(self.TEMPLATE, self.RHOS,
                                               methods))

    def test_pinned_sweeps_prefit_every_stackable_point(self, monkeypatch,
                                                        tmp_path):
        # a stack that raises leaves its points to train alone and still
        # gives the pinned reports, so the digests cannot show it: each
        # point of a stackable method must find its fit held for it
        held, real = [], harness.run_experiment

        def spy(cfg):
            if harness._stackable(cfg["method"]):
                held.append((harness._method_name(cfg["method"]),
                             harness._fit_key(cfg) in fits()))
            return real(cfg)

        monkeypatch.setattr(harness, "run_experiment", spy)
        trajectories.sweep_digest()
        trajectories.sweep_digest(
            methods=trajectories.PEER_SWEEP_METHODS,
            train={"epochs": trajectories.CO_TEACHING_EPOCHS})
        trajectories.sweep_digest(
            dict(trajectories.DATASET, separation=8.0),
            trajectories.EXPLICIT_T_METHODS,
            {"epochs": 2, "learning_rate": 1.0})
        monkeypatch.chdir(tmp_path)
        save_csv(gen_blobs(3, 60, 2, 3.0, 1), "data.csv")
        trajectories.sweep_digest({"kind": "csv", "path": "data.csv"})
        # every method of these sweeps stacks; the blobs and the CSV sweep
        # share their methods
        methods = (2 * trajectories.SWEEP_METHODS
                   + trajectories.PEER_SWEEP_METHODS
                   + trajectories.EXPLICIT_T_METHODS)
        assert len(held) == len(methods) * len(trajectories.SWEEP_RHOS)
        assert [name for name, ok in held if not ok] == []


class TestRunsShareTheirData:
    """run_experiment keeps the last dataset and split, and every corrupted
    copy of it, in one cache by canonical-JSON keys; a run on other data
    replaces it. A hit gives the report a fresh run gives; a failure keeps
    nothing; the kept arrays are read-only."""

    NOISE = {"kind": "symmetric", "rho": 0.3}

    @staticmethod
    def count_makes(monkeypatch):
        made = {"data": 0, "split": 0, "noise": 0}

        def counted(name, real):
            def call(*args):
                made[name] += 1
                return real(*args)
            return call

        monkeypatch.setattr(harness, "_make_dataset",
                            counted("data", harness._make_dataset))
        monkeypatch.setattr(harness, "split", counted("split", harness.split))
        monkeypatch.setattr(harness, "_apply_noise",
                            counted("noise", harness._apply_noise))
        return made

    def config(self, **over):
        return base_config(**{"noise": self.NOISE, "train": {"epochs": 2},
                              **over})

    def test_runs_on_the_same_data_hit(self, monkeypatch):
        made = self.count_makes(monkeypatch)
        for method in ({"loss": {"kind": "ce"}},
                       {"loss": {"kind": "forward", "transition": "true"}},
                       {"reweight": {"kind": "trimmed", "fraction": 0.2}}):
            run_experiment(self.config(method=method))
        assert made == {"data": 1, "split": 1, "noise": 1}

    @pytest.mark.parametrize("vary, other", [
        ("dataset", {"kind": "blobs", "k": 2, "n_per_class": 90, "d": 2,
                     "separation": 8.0}),
        ("dataset", {"kind": "rings", "k": 2, "n_per_class": 100}),
        ("seed", 8), ("test_fraction", 0.3),
        ("noise", {"kind": "symmetric", "rho": 0.2}), ("noise", None),
    ], ids=["blobs", "rings", "seed", "test_fraction", "rho", "no-noise"])
    def test_keys_split_by_data_seed_fraction_and_noise(self, monkeypatch,
                                                        vary, other):
        made = self.count_makes(monkeypatch)
        first, second = self.config(), self.config(**{vary: other})
        reports = [run_experiment(cfg) for cfg in (first, second, first)]
        # other data replaces the cache; other noise is kept beside it
        data = 1 if vary == "noise" else 3
        assert made == {"data": data, "split": data,
                        "noise": 2 if vary == "noise" else 3}
        monkeypatch.undo()
        assert [report_json(strip_wall_time(r)) for r in reports] == [
            report_json(strip_wall_time(fresh_run(cfg)))
            for cfg in (first, second, first)]

    def test_numpy_values_key_as_the_numbers_they_hold(self, monkeypatch):
        # a library caller may pass NumPy scalars and arrays, which JSON
        # cannot write; they make the key of the plain numbers
        made = self.count_makes(monkeypatch)
        rows = [[0.8, 0.2], [0.3, 0.7]]
        plain = self.config(noise={"kind": "matrix", "rows": rows})
        numpy = self.config(seed=np.int64(7), noise={"kind": "matrix",
                                                     "rows": np.array(rows)})
        numpy["dataset"] = dict(numpy["dataset"], n_per_class=np.int64(100),
                                separation=np.float64(8.0))
        reports = [run_experiment(cfg) for cfg in (numpy, plain)]
        assert made == {"data": 1, "split": 1, "noise": 1}
        assert reports[0]["history"] == reports[1]["history"]

    def test_rewritten_csv_is_read_again(self, monkeypatch, tmp_path):
        path = tmp_path / "data.csv"
        cfg = self.config(dataset={"kind": "csv", "path": str(path)})
        reports = []
        for n in (30, 40):  # a new size, so the stat stamp moves
            save_csv(gen_blobs(2, n, 2, 3.0, 4), path)
            reports.append(report_json(strip_wall_time(run_experiment(cfg))))
        assert reports[0] != reports[1]
        assert reports[1] == report_json(strip_wall_time(fresh_run(cfg)))

    @pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
    @pytest.mark.parametrize("stage", ["generate", "corrupt"])
    def test_a_failure_keeps_nothing(self, monkeypatch, stage, error):
        cfg = self.config()
        kept = run_experiment(cfg)
        cache = shared()

        def fail(*args):
            raise error("made nothing")

        monkeypatch.setattr(harness, "split" if stage == "generate"
                            else "_apply_noise", fail)
        other = self.config(seed=8) if stage == "generate" else self.config(
            noise={"kind": "symmetric", "rho": 0.2})
        with pytest.raises(harness.PipelineError if error is ValueError
                           else KeyboardInterrupt) as info:
            run_experiment(other)
        if error is ValueError:
            assert info.value.stage == stage
        assert shared() == cache
        monkeypatch.undo()
        assert report_json(strip_wall_time(run_experiment(other))) == \
            report_json(strip_wall_time(fresh_run(other)))
        assert report_json(strip_wall_time(run_experiment(cfg))) == \
            report_json(strip_wall_time(kept))

    def test_noise_matrix_for_other_classes_keeps_nothing(self):
        run_experiment(self.config())
        cache = shared()
        with pytest.raises(ConfigError, match="noise.rows has shape"):
            run_experiment(self.config(noise={"kind": "matrix", "rows": [
                [0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]]}))
        assert shared() == cache

    @pytest.mark.parametrize("noise", [
        {"kind": "symmetric", "rho": 0.3},
        {"kind": "annotators", "rhos": [0.2, 0.3]},
    ], ids=["symmetric", "annotators"])
    def test_kept_arrays_are_read_only(self, noise):
        run_experiment(self.config(noise=noise))
        _, train_ds, test_ds = harness._SHARED["split"]
        (noisy, true_T), = harness._SHARED["noisy"].values()
        arrays = [a for obj in (train_ds, test_ds, noisy, true_T)
                  if obj is not None for a in vars(obj).values()
                  if isinstance(a, np.ndarray)]
        assert len(arrays) >= 9
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a.flat[0] = a.flat[0]

    def test_reports_equal_fresh_runs(self):
        # every pipeline in turn on a warm cache, against each on an empty
        # one
        methods = [*TestSweepSharesItsData.METHODS,
                   {"loss": {"kind": "forward", "transition": "true"}},
                   {"reweight": {"kind": "pumpout", "transition": "true"}},
                   {"procedure": {"name": "disagreement"}}]
        panel = {"kind": "annotators", "rhos": [0.2, 0.3, 0.4]}
        configs = [self.config(method=m) for m in methods] + [
            self.config(method={"annotator": {"fusion": f}}, noise=panel)
            for f in ("majority", "staple", "min_loss", "confusion")]
        warm = [report_json(strip_wall_time(run_experiment(cfg)))
                for cfg in configs + configs]
        assert warm == [report_json(strip_wall_time(fresh_run(cfg)))
                        for cfg in configs + configs]
