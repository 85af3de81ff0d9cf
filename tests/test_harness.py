import copy
import json
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import noisylab.harness as harness
from noisylab.harness import (ConfigError, metrics, report_json,
                              run_experiment, strip_wall_time, sweep,
                              sweep_summary_csv, validate_config,
                              write_report)
from noisylab.cli import cli
from noisylab.data import load_csv
from noisylab.model import DivergedError, TrainConfig


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


class TestWrongEntryType:
    # each trained as if the value were valid: NumPy parsed the strings and
    # bools of the rows as numbers, and any non-empty per_class string
    # counted as true
    TWO_BY_TWO = [["0.7", "0.3"], ["0.3", "0.7"]]
    CASES = [
        ("matrix-str", {"kind": "matrix", "rows": TWO_BY_TWO}, None,
         r"transition rows must hold real numbers, got str '0\.7'",
         "corrupt"),
        ("matrix-bool", {"kind": "matrix",
                         "rows": [[True, False], [False, True]]}, None,
         "transition rows must hold real numbers, got bool True", "corrupt"),
        ("matrix-mixed-bool", {"kind": "matrix",
                               "rows": [[0.9, 0.1], [False, True]]}, None,
         "transition rows must hold real numbers, got bool False",
         "corrupt"),
        ("forward-transition-str", None, {"loss": {
            "kind": "forward", "transition": {"k": 2, "rows": TWO_BY_TWO}}},
         r"transition rows must hold real numbers, got str '0\.7'",
         "train"),
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
    def test_wrong_type_is_named(self, noise, method, message, stage):
        cfg = base_config(
            dataset={"kind": "blobs", "k": 2, "n_per_class": 20, "d": 2,
                     "separation": 8.0},
            noise=noise or {"kind": "symmetric", "rho": 0.3},
            method=method or {"loss": {"kind": "ce"}}, train={"epochs": 2})
        with pytest.raises(harness.PipelineError, match=message) as info:
            run_experiment(cfg)
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
        ([0.0, 1.0], None, "every rho must be in [0, 1)"),
        ([-0.1], None, "every rho must be in [0, 1)"),
        ([0.2], [{"losses": {"kind": "ce"}}],
         "config must select exactly one method pipeline"),
        ([0.2], [{"loss": {"kind": "ce"}}, {"loss": {"kind": "cee"}}],
         "method.loss.kind: unknown loss kind 'cee'"),
        ([0.2], [{"loss": {"kind": "forward", "transition": "false"}}],
         "method.loss.transition must be 'true' or an object"),
    ], ids=["string", "number", "string-rho", "bool-rho", "rho-one",
            "negative-rho", "no-pipeline", "unknown-loss",
            "bad-transition"])
    def test_grid_and_methods_checked_before_any_point(
            self, monkeypatch, rhos, methods, named):
        def spy(cfg):
            pytest.fail("a sweep point ran")

        monkeypatch.setattr(harness, "run_experiment", spy)
        with pytest.raises(ConfigError, match=re.escape(named)):
            sweep(self.TEMPLATE, rhos, methods)

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

    def test_summary_csv(self):
        _, summary, _ = sweep(self.TEMPLATE, [0.0, 0.2])
        text = sweep_summary_csv(summary)
        assert text.splitlines()[0].startswith("method,rho")
        assert len(text.splitlines()) == 3
