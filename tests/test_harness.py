import json

import numpy as np
import pytest

import noisylab.harness as harness
from noisylab.harness import (ConfigError, metrics, report_json,
                              run_experiment, strip_wall_time, sweep,
                              sweep_summary_csv, validate_config,
                              write_report)
from noisylab.model import DivergedError


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

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            metrics([], [])


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

    def test_annotator_method_without_labels_fails(self):
        cfg = base_config(method={"annotator": {"fusion": "staple"}})
        with pytest.raises(harness.PipelineError, match="train"):
            run_experiment(cfg)

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
