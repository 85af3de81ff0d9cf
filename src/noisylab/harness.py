"""Experiment configuration, metrics, the generate/corrupt/train/evaluate
pipeline, and noise-rate sweeps with deterministic JSON/CSV reporting.

Reports re-run byte-identically for the same config, except the wall_time
field.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import replace

import numpy as np

from . import __version__
from .annotators import staple, train_min_loss_label, train_with_confusion
from .data import gen_blobs, gen_rings, load_csv, split
from .losses import LossSpec
from .model import DivergedError, TrainConfig, predict_probs, train
from .noise import (TransitionMatrix, feature_dependent_inject, inject,
                    simulate_annotators, symmetric_transition)
from .numerics import Rng
from .procedures import (iterative_clean, train_co_teaching,
                         train_dual_relabel, train_mixup)

SCHEMA_VERSION = 1

METHOD_KEYS = ("loss", "noise_adaptation", "reweight", "annotator",
               "procedure")


class ConfigError(ValueError):
    pass


class PipelineError(RuntimeError):
    """Wraps a module failure with the pipeline stage named."""

    def __init__(self, stage, cause):
        super().__init__(f"pipeline stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause


def validate_config(cfg):
    if "seed" not in cfg:
        raise ConfigError("config requires a seed")
    if "dataset" not in cfg:
        raise ConfigError("config requires a dataset spec")
    method = cfg.get("method", {"loss": {"kind": "ce"}})
    present = [k for k in METHOD_KEYS if k in method]
    if len(present) != 1:
        raise ConfigError(
            f"config must select exactly one method pipeline, got {present}")
    return method, present[0]


def _make_dataset(spec, seed):
    kind = spec["kind"]
    if kind == "blobs":
        return gen_blobs(spec["k"], spec["n_per_class"], spec["d"],
                         spec["separation"], seed)
    if kind == "rings":
        return gen_rings(spec["k"], spec["n_per_class"],
                         spec.get("noise_std", 0.1), seed)
    if kind == "csv":
        return load_csv(spec["path"])
    raise ConfigError(f"unknown dataset kind: {kind}")


def _noise_transition(noise_spec, K):
    if noise_spec is None:
        return None
    kind = noise_spec["kind"]
    if kind == "symmetric":
        return symmetric_transition(K, noise_spec["rho"])
    if kind == "matrix":
        return TransitionMatrix(np.asarray(noise_spec["rows"]))
    return None


def _apply_noise(train_ds, noise_spec, seed):
    if noise_spec is None:
        return train_ds
    rng = Rng(seed).split(1)[0]
    kind = noise_spec["kind"]
    if kind in ("symmetric", "matrix"):
        return inject(train_ds, _noise_transition(noise_spec,
                                                  train_ds.num_classes), rng)
    if kind == "feature":
        return feature_dependent_inject(train_ds, noise_spec["rho_max"],
                                        noise_spec.get("beta", 1.0), rng)
    if kind == "annotators":
        confusions = [symmetric_transition(train_ds.num_classes, r)
                      for r in noise_spec["rhos"]]
        return simulate_annotators(train_ds, confusions, rng)
    raise ConfigError(f"unknown noise kind: {kind}")


def _resolve_loss(loss_spec_json, true_transition):
    spec = dict(loss_spec_json)
    if spec.get("transition") == "true":
        if true_transition is None:
            raise ConfigError("loss correction asked for the true transition "
                              "but the noise model does not define one")
        spec["transition"] = true_transition.to_json()
    return LossSpec.from_json(spec)


def _train_config(cfg, method_loss=None, **overrides):
    t = cfg.get("train", {})
    kw = dict(epochs=t.get("epochs", 30), batch_size=t.get("batch_size", 32),
              learning_rate=t.get("learning_rate", 0.1), seed=cfg["seed"],
              arch=t.get("arch", "linear"), hidden=t.get("hidden", 32),
              capacity_scale=t.get("capacity_scale", 1.0))
    if method_loss is not None:
        kw["loss"] = method_loss
    kw.update(overrides)
    return TrainConfig(**kw)


def metrics(predictions, true_labels, probs=None, num_classes=None, bins=15):
    """Accuracy, macro-F1, per-class accuracy, ECE (15 equal-width bins),
    and one-vs-rest AUC when K=2 and probabilities are supplied."""
    pred = np.asarray(predictions)
    truth = np.asarray(true_labels)
    if pred.size == 0 or pred.shape != truth.shape:
        raise ValueError("metrics: empty or mismatched inputs")
    K = num_classes or int(max(pred.max(), truth.max())) + 1
    out = {"accuracy": float(np.mean(pred == truth))}
    f1s, per_class = [], []
    for c in range(K):
        tp = np.sum((pred == c) & (truth == c))
        fp = np.sum((pred == c) & (truth != c))
        fn = np.sum((pred != c) & (truth == c))
        f1s.append(2.0 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0)
        mask = truth == c
        per_class.append(float(np.mean(pred[mask] == truth[mask]))
                         if mask.any() else 0.0)
    out["macro_f1"] = float(np.mean(f1s))
    out["per_class_accuracy"] = per_class
    if probs is not None:
        probs = np.asarray(probs)
        conf = probs.max(axis=1)
        correct = (pred == truth).astype(np.float64)
        ece = 0.0
        edges = np.linspace(0.0, 1.0, bins + 1)
        for b in range(bins):
            lo, hi = edges[b], edges[b + 1]
            mask = (conf > lo) & (conf <= hi) if b else (conf >= lo) & (conf <= hi)
            if mask.any():
                ece += mask.mean() * abs(correct[mask].mean()
                                         - conf[mask].mean())
        out["ece"] = float(ece)
        if K == 2:
            out["auc"] = _binary_auc(probs[:, 1], truth)
    return out


def _binary_auc(scores, truth):
    """Rank-based one-vs-rest AUC for class 1 (ties get midranks)."""
    scores = np.asarray(scores, dtype=np.float64)
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


def _flag_precision_recall(flags, true_flip):
    flags = np.asarray(flags, dtype=bool)
    true_flip = np.asarray(true_flip, dtype=bool)
    tp = int(np.sum(flags & true_flip))
    precision = tp / max(int(flags.sum()), 1)
    recall = tp / max(int(true_flip.sum()), 1)
    return float(precision), float(recall)


def run_experiment(cfg):
    """Execute generate -> corrupt -> train(with method) -> evaluate and
    return the report dict. Test evaluation is always against true labels."""
    method, method_kind = validate_config(cfg)
    t0 = time.monotonic()
    seed = cfg["seed"]
    try:
        full = _make_dataset(cfg["dataset"], seed)
        train_ds, test_ds = split(full, cfg.get("test_fraction", 0.25),
                                  seed + 1)
    except ConfigError:
        raise
    except Exception as e:
        raise PipelineError("generate", e)
    try:
        noisy = _apply_noise(train_ds, cfg.get("noise"), seed + 2)
    except Exception as e:
        raise PipelineError("corrupt", e)
    true_T = _noise_transition(cfg.get("noise"), full.num_classes)
    diagnostics = {}
    try:
        params, history, diagnostics = _run_method(
            cfg, method, method_kind, noisy, test_ds, true_T)
    except (ValueError, DivergedError) as e:
        raise PipelineError("train", e) from e
    try:
        truth = test_ds.true_labels if test_ds.true_labels is not None \
            else test_ds.labels
        probs = predict_probs(params, test_ds.features)
        final = metrics(probs.argmax(axis=1), truth, probs,
                        full.num_classes)
    except Exception as e:
        raise PipelineError("evaluate", e)
    report = {
        "schema_version": SCHEMA_VERSION,
        "version": __version__,
        "config": cfg,
        "history": history,
        "final_metrics": final,
        "noise_diagnostics": diagnostics,
        "wall_time_s": round(time.monotonic() - t0, 3),
    }
    return report


def _run_method(cfg, method, kind, noisy, test_ds, true_T):
    """Dispatch one method pipeline; returns (params, history, diagnostics).
    Training code only ever sees the training view (truth stripped)."""
    view = noisy.training_view()
    diagnostics = {}
    if kind == "loss":
        spec = _resolve_loss(method["loss"], true_T)
        tc = _train_config(cfg, spec)
        params, history = train(view, tc, test_ds)
    elif kind == "noise_adaptation":
        tc = _train_config(cfg, use_noise_layer=True)
        params, history = train(view, tc, test_ds)
        from .model import realized_transition
        diagnostics["learned_transition"] = \
            realized_transition(params.noise_layer).tolist()
    elif kind == "reweight":
        spec = dict(method["reweight"])
        if spec.get("transition") == "true":
            spec["transition"] = true_T
        elif isinstance(spec.get("transition"), dict):
            spec["transition"] = TransitionMatrix.from_json(spec["transition"])
        loss = (_resolve_loss(method.get("base_loss", {"kind": "ce"}), true_T)
                if "base_loss" in method else LossSpec("ce"))
        tc = _train_config(cfg, loss, reweight=spec)
        params, history = train(view, tc, test_ds)
    elif kind == "annotator":
        params, history, diagnostics = _run_annotator_method(
            cfg, method["annotator"], noisy, view, test_ds)
    elif kind == "procedure":
        params, history, diagnostics = _run_procedure_method(
            cfg, method["procedure"], noisy, view, test_ds)
    else:
        raise ConfigError(f"unknown method kind: {kind}")
    return params, history, diagnostics


def _run_annotator_method(cfg, spec, noisy, view, test_ds):
    if view.annotator_labels is None:
        raise ConfigError("annotator method requires annotator labels "
                          "(noise kind 'annotators')")
    fusion = spec["fusion"]
    diagnostics = {}
    if fusion in ("majority", "staple"):
        if fusion == "majority":
            from .annotators import majority_vote
            fused = np.array([majority_vote(row)
                              for row in view.annotator_labels])
        else:
            _, model, fused, loglik = staple(view.annotator_labels,
                                             view.num_classes)
            diagnostics["annotator_model"] = model.to_json()
            diagnostics["staple_loglik"] = loglik
        fused_ds = replace(view, labels=fused)
        tc = _train_config(cfg)
        params, history = train(fused_ds, tc, test_ds)
        if noisy.true_labels is not None:
            diagnostics["fused_label_accuracy"] = float(
                np.mean(fused == noisy.true_labels))
    elif fusion == "min_loss":
        tc = _train_config(cfg)
        params, history = train_min_loss_label(view, tc, test_ds)
    elif fusion == "confusion":
        tc = _train_config(cfg)
        params, model, history = train_with_confusion(
            view, tc, spec.get("lambda_trace", 0.01), test_ds)
        diagnostics["annotator_model"] = model.to_json()
    else:
        raise ConfigError(f"unknown fusion method: {fusion}")
    return params, history, diagnostics


def _run_procedure_method(cfg, spec, noisy, view, test_ds):
    name = spec["name"]
    diagnostics = {}
    if name == "mixup":
        tc = _train_config(cfg)
        params, history = train_mixup(view, tc, test_ds,
                                      alpha=spec.get("alpha", 0.2))
    elif name in ("co_teaching", "disagreement"):
        tc = _train_config(cfg)
        rho = spec.get("noise_rate")
        if rho is None:
            noise = cfg.get("noise") or {}
            rho = noise.get("rho", 0.2)
        model_a, model_b, history = train_co_teaching(
            view, tc, test_ds, noise_rate=rho,
            disagreement_only=(name == "disagreement"))
        params = model_a
    elif name == "dual_relabel":
        tc = _train_config(cfg)
        params, _, store, history = train_dual_relabel(view, tc, test_ds)
        if noisy.true_labels is not None:
            diagnostics["store_match_truth_final"] = \
                store.match_fraction(noisy.true_labels)
            diagnostics["store_match_truth_initial"] = float(
                np.mean(noisy.labels == noisy.true_labels))
    elif name == "iterative_clean":
        if noisy.true_labels is None:
            raise ConfigError("iterative_clean needs hidden truth to build "
                              "the small clean set")
        clean_fraction = spec.get("clean_fraction", 0.1)
        rng = Rng(cfg["seed"] + 7)
        n_clean = max(2, int(round(clean_fraction * noisy.n)))
        clean_idx = np.sort(rng.permutation(noisy.n)[:n_clean])
        clean_small = noisy.subset(clean_idx)
        tc = _train_config(cfg)
        store, flags, _, rounds = iterative_clean(
            noisy.training_view(), clean_small, tc,
            rounds=spec.get("rounds", 3),
            threshold=spec.get("threshold", 0.5))
        true_flip = noisy.labels != noisy.true_labels
        precision, recall = _flag_precision_recall(flags, true_flip)
        diagnostics["flag_precision"] = precision
        diagnostics["flag_recall"] = recall
        diagnostics["rounds"] = rounds
        cleaned = replace(noisy.training_view(), labels=store.hard_labels())
        params, history = train(cleaned, tc, test_ds)
    else:
        raise ConfigError(f"unknown procedure: {name}")
    return params, history, diagnostics


# --- persistence ------------------------------------------------------------

def atomic_write_text(path, text):
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def report_json(report):
    return json.dumps(report, indent=2, sort_keys=True)


def write_report(report, path):
    atomic_write_text(path, report_json(report) + "\n")
    csv_path = os.path.splitext(path)[0] + "_epochs.csv"
    hist = report["history"]
    if hist:
        cols = sorted({k for row in hist for k in row})
        lines = [",".join(cols)]
        for row in hist:
            lines.append(",".join(
                format(row[c], ".17g") if isinstance(row.get(c), float)
                else str(row.get(c, "")) for c in cols))
        atomic_write_text(csv_path, "\n".join(lines) + "\n")
    return csv_path


def strip_wall_time(report):
    out = dict(report)
    out.pop("wall_time_s", None)
    return out


# --- sweeps -----------------------------------------------------------------

def sweep(template, rhos, methods=None):
    """Run the template config across symmetric noise rates (and optional
    method variants); returns (reports, summary rows, quadratic fit R^2 of
    the baseline CE test error vs rho)."""
    if not rhos:
        raise ConfigError("sweep: empty grid")
    methods = methods or [{"loss": {"kind": "ce"}}]
    reports, summary = [], []
    for method in methods:
        for rho in rhos:
            cfg = json.loads(json.dumps(template))
            cfg["noise"] = ({"kind": "symmetric", "rho": rho} if rho > 0
                            else None)
            cfg["method"] = method
            row = {"method": _method_name(method), "rho": rho}
            try:
                rep = run_experiment(cfg)
                reports.append(rep)
                row["test_accuracy"] = rep["final_metrics"]["accuracy"]
                row["test_error"] = 1.0 - row["test_accuracy"]
                row["macro_f1"] = rep["final_metrics"]["macro_f1"]
            except Exception as e:
                row["error"] = str(e)
            summary.append(row)
    r2 = _quadratic_fit_r2([r for r in summary
                            if r["method"] == _method_name(methods[0])
                            and "test_error" in r])
    return reports, summary, r2


def _method_name(method):
    k = next(k for k in METHOD_KEYS if k in method)
    v = method[k]
    if isinstance(v, dict):
        return f"{k}:{v.get('kind') or v.get('name') or v.get('fusion')}"
    return k


def _quadratic_fit_r2(rows):
    """R^2 of a least-squares quadratic of test error in rho (reported,
    never asserted)."""
    if len(rows) < 3:
        return None
    x = np.array([r["rho"] for r in rows])
    y = np.array([r["test_error"] for r in rows])
    coeffs = np.polyfit(x, y, 2)
    resid = y - np.polyval(coeffs, x)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0:
        return 1.0
    return float(1.0 - np.sum(resid ** 2) / ss_tot)


def sweep_summary_csv(summary):
    cols = ["method", "rho", "test_accuracy", "test_error", "macro_f1",
            "error"]
    lines = [",".join(cols)]
    for row in summary:
        lines.append(",".join(
            format(row[c], ".17g") if isinstance(row.get(c), float)
            else str(row.get(c, "")) for c in cols))
    return "\n".join(lines) + "\n"
