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
from .annotators import (majority_vote, staple, train_min_loss_label,
                         train_with_confusion)
from .data import gen_blobs, gen_rings, load_csv, split
from .losses import LossSpec, SingularTransitionError, _check_invertible
from .model import DivergedError, TrainConfig, predict_probs, train
from .noise import (TransitionMatrix, feature_dependent_inject, inject,
                    simulate_annotators, symmetric_transition)
from .numerics import Rng, _check_args, _check_labels
from .procedures import (CO_TEACHING_NOISE_RATE, iterative_clean,
                         train_co_teaching, train_dual_relabel, train_mixup)
from .reweight import make_reweighter

SCHEMA_VERSION = 1
ECE_BINS = 15
# The one cache of the current dataset, so that experiments on the same data
# share its work: "key", the key of [dataset, seed, test_fraction, a CSV's
# stat stamp]; "split", (num_classes, train set, test set); "noisy", each
# (corrupted train set, noise T) made by the key of its noise section; and
# "fits", a sweep's one-shot stacked (params, history, diagnostics) by the
# key of the noise, method and train config. A run on other data replaces
# it whole; every array kept in it is read-only.
_SHARED = {}

# The allowed keys of each config section, for each value of its selector
# key (None: a section without one; "": the method, selected by which
# pipeline key it holds); "!" marks a required key. A section's other keys
# go to the code that takes them, which holds their defaults.
SCHEMA = {
    "config": (None, "seed! dataset! test_fraction noise method train output"),
    "dataset": ("kind", {"blobs": "k! n_per_class! d! separation!",
                         "rings": "k! n_per_class! noise_std",
                         "csv": "path!"}),
    "noise": ("kind", {"symmetric": "rho!", "matrix": "rows!",
                       "feature": "rho_max! beta", "annotators": "rhos!"}),
    "train": (None, "epochs batch_size learning_rate arch hidden"),
    "method": ("", {"loss": "loss!", "noise_adaptation": "noise_adaptation!",
                    "reweight": "reweight! base_loss",
                    "annotator": "annotator!", "procedure": "procedure!"}),
    "loss": ("kind", {"ce": "", "mae": "", "imae": "tau",
                      "smooth_kl": "epsilon", "forward": "transition!",
                      "backward": "transition! base"}),
    "reweight": ("kind", {"running": "window multiplier warmup",
                          "trimmed": "fraction! loss",
                          "rank_prune": "fraction! per_class",
                          "pumpout": "transition! gamma base"}),
    "annotator": ("fusion", {"majority": "", "staple": "", "min_loss": "",
                             "confusion": "lambda_trace"}),
    "procedure": ("name", {"mixup": "alpha", "co_teaching": "noise_rate",
                           "disagreement": "", "dual_relabel": "",
                           "iterative_clean":
                               "clean_fraction rounds threshold"}),
}


class ConfigError(ValueError):
    pass


class PipelineError(RuntimeError):
    """Wraps a module failure with the pipeline stage named."""

    def __init__(self, stage, cause):
        super().__init__(f"pipeline stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause


def _check_section(value, path, name):
    """Check one config section, and the sections inside it, against
    SCHEMA[name]; a transition must be 'true' or an object of k and rows.
    Returns the paths of its 'transition': 'true' keys."""
    if not isinstance(value, dict):
        raise ConfigError(f"{path or 'config'} must be an object, got "
                          f"{value!r}")
    selector, variants = SCHEMA[name]
    if selector is None:
        keys = variants
    elif selector == "":
        present = [k for k in variants if k in value]
        if len(present) != 1:
            raise ConfigError("config must select exactly one method "
                              f"pipeline, got {present}")
        keys = variants[present[0]]
    elif value.get(selector) in [*variants]:  # no TypeError on a list
        keys = variants[value[selector]]
    else:
        raise ConfigError(f"{path}.{selector}: unknown {name} {selector} "
                          f"{value.get(selector)!r}, expected one of "
                          f"{', '.join(variants)}")
    keys = keys.split()
    allowed = {k.rstrip("!") for k in keys} | {selector} - {None, ""}
    unknown = [f"{path}.{k}".lstrip(".") for k in value if k not in allowed]
    if unknown:
        raise ConfigError(f"{path or 'config'} has unknown key(s): "
                          f"{', '.join(unknown)}")
    for k in keys:
        if k.endswith("!") and k[:-1] not in value:
            raise ConfigError(f"{path}.{k[:-1]} is required".lstrip("."))
    T = value.get("transition", "true")  # absent: nothing to check
    if T != "true" and not (isinstance(T, dict)
                            and sorted(T) == ["k", "rows"]):
        raise ConfigError(f"{path}.transition must be 'true' or an object "
                          f"with keys k and rows, got {T!r}")
    try:  # TransitionMatrix checks k, the shape and every entry and row
        if T != "true":
            t = TransitionMatrix.from_json(T).t
            if value.get("kind") in ("backward", "pumpout"):  # inverted
                _check_invertible(t)
        if "rows" in value:  # a matrix noise model
            TransitionMatrix(value["rows"])
    except ValueError as e:
        sep = ": " if isinstance(e, SingularTransitionError) else "."
        where = f"transition{sep}" if T != "true" else ""
        raise ConfigError(f"{path}.{where}{e}") from e
    true_T = ([f"{path}.transition"] if value.get("transition") == "true"
              else [])
    for k, sub in value.items():
        section = "loss" if k == "base_loss" else k
        if section in SCHEMA and not (k == "noise" and sub is None):
            true_T += _check_section(sub, f"{path}.{k}".lstrip("."), section)
    return true_T


def validate_config(cfg):
    """Check cfg against SCHEMA before any data is generated. Returns the
    method section, its pipeline key and the run's TrainConfig."""
    true_T = _check_section(cfg, "", "config")
    if true_T and (cfg.get("noise") or {}).get("kind") not in ("symmetric",
                                                                "matrix"):
        raise ConfigError(f"{true_T[0]} is 'true' but the noise model "
                          "defines no transition")
    method = cfg.get("method", {"loss": {"kind": "ce"}})
    if method.get("noise_adaptation", True) is not True:
        raise ConfigError("method.noise_adaptation must be true, got "
                          f"{method['noise_adaptation']!r}")
    try:
        tc = TrainConfig(seed=cfg["seed"], **cfg.get("train", {}))
    except ValueError as e:  # seed is the one field from outside train
        where = "" if str(e).startswith("seed ") else "train."
        raise ConfigError(f"{where}{e}") from e
    return method, next(k for k in SCHEMA["method"][1] if k in method), tc


def _make_dataset(spec, seed):
    kind = spec["kind"]
    if kind == "blobs":
        return gen_blobs(spec["k"], spec["n_per_class"], spec["d"],
                         spec["separation"], seed)
    if kind == "rings":
        return gen_rings(spec["k"], spec["n_per_class"],
                         spec.get("noise_std", 0.1), seed)
    return load_csv(spec["path"])  # csv


def _split_dataset(spec, seed, fraction):
    full = _make_dataset(spec, seed)
    return (full.num_classes, *split(full, fraction, seed + 1))


def _key(*parts):
    """Canonical JSON of parts, NumPy values as the numbers they hold and
    other objects as their attributes."""
    return json.dumps(parts, sort_keys=True, default=lambda v: v.tolist()
                      if hasattr(v, "tolist") else vars(v))


def _frozen(value):
    """value, a tuple, with every array in it set read-only: the runs that
    share it must not write into it."""
    for obj in value:  # datasets, a TransitionMatrix, None or K
        for a in getattr(obj, "__dict__", {}).values():
            if isinstance(a, np.ndarray):
                a.flags.writeable = False
    return value


def _apply_noise(train_ds, noise_spec, seed):
    """(the corrupted set, the noise model's transition or None); a matrix
    for other than the data's classes is a ConfigError."""
    if noise_spec is None:
        return train_ds, None
    K, kind = train_ds.num_classes, noise_spec["kind"]
    rng = Rng(seed).split(1)[0]
    if kind == "feature":
        return feature_dependent_inject(train_ds, noise_spec["rho_max"],
                                        noise_spec.get("beta", 1.0),
                                        rng), None
    if kind == "annotators":
        confusions = [symmetric_transition(K, r) for r in noise_spec["rhos"]]
        return simulate_annotators(train_ds, confusions, rng), None
    if kind == "symmetric":
        T = symmetric_transition(K, noise_spec["rho"])
    else:
        T = TransitionMatrix(noise_spec["rows"])  # checked: _check_section
        if T.k != K:
            raise ConfigError(f"noise.rows has shape {T.t.shape}, but the "
                              f"data's {K} classes need ({K}, {K})")
    return inject(train_ds, T, rng), T


def _resolve(section, true_T, K, path):
    """A copy of a config section as the code that takes it reads it: its
    'transition' as a TransitionMatrix ('true': the noise model's T) and
    every nested loss / base_loss section as a LossSpec. The section itself
    is left as given, since reports echo the config. A transition object
    for other than the data's K classes is a ConfigError naming its
    path."""
    out = {}
    for k, v in section.items():
        if k == "transition":  # validate_config: 'true' or {k, rows}
            if v != "true" and v["k"] != K:
                raise ConfigError(f"{path}.transition has k {v['k']}, but "
                                  f"the data has {K} classes")
            v = true_T if v == "true" else TransitionMatrix.from_json(v)
        elif isinstance(v, dict):
            v = _resolve(v, true_T, K, f"{path}.{k}")
            if k in ("loss", "base_loss"):
                v = LossSpec(**v)
        out[k] = v
    return out


def metrics(predictions, true_labels, probs=None, num_classes=None):
    """Accuracy, macro-F1, per-class accuracy, ECE (ECE_BINS equal-width bins),
    and one-vs-rest AUC when K=2 and probabilities are supplied. probs, one
    row per prediction, must hold no NaN and no entry outside [0, 1]."""
    pred = np.asarray(predictions)
    truth = np.asarray(true_labels)
    if pred.size == 0 or pred.shape != truth.shape:
        raise ValueError("metrics: empty or mismatched inputs")
    K = num_classes or int(max(pred.max(), truth.max())) + 1
    _check_labels("metrics", np.stack([pred, truth]), K)
    out = {"accuracy": float(np.mean(pred == truth))}
    # cm[t, p] counts rows of true class t predicted as p
    cm = np.bincount(truth * K + pred, minlength=K * K).reshape(K, K)
    tp, n_true = np.diagonal(cm), cm.sum(axis=1)
    f1_den = n_true + cm.sum(axis=0)  # 2 tp + fp + fn
    out["macro_f1"] = float(np.mean(
        np.where(f1_den > 0, 2.0 * tp / np.maximum(f1_den, 1), 0.0)))
    out["per_class_accuracy"] = np.where(
        n_true > 0, tp / np.maximum(n_true, 1), 0.0).tolist()
    if probs is not None:
        probs = np.asarray(probs)
        if probs.ndim != 2 or len(probs) != len(pred):
            raise ValueError(f"metrics: probs needs one row per prediction "
                             f"({len(pred)}), got shape {probs.shape}")
        bad = ~((probs >= 0.0) & (probs <= 1.0)).all(axis=1)  # NaN too
        if bad.any():
            raise ValueError(f"metrics: probs row {int(bad.argmax())} holds "
                             f"NaN or an entry outside [0, 1]")
        conf = probs.max(axis=1)
        edges = np.linspace(0.0, 1.0, ECE_BINS + 1)
        # bin b holds (edges[b], edges[b + 1]], bin 0 also 0
        bins = np.searchsorted(edges[1:], conf)
        # each bin's rows one slice in row order, summed pairwise as
        # conf[mask].mean() sums them (np.add.reduceat sums in sequence)
        order = np.argsort(bins, kind="stable")
        starts = np.searchsorted(bins[order], np.arange(ECE_BINS + 1))
        conf, correct = conf[order], (pred == truth)[order].astype(np.float64)
        ece = 0.0
        for lo, hi in zip(starts[:-1].tolist(), starts[1:].tolist()):
            if hi > lo:
                m = hi - lo
                ece += m / len(conf) * abs(np.add.reduce(correct[lo:hi]) / m
                                            - np.add.reduce(conf[lo:hi]) / m)
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
    # a tie group of count c starting at sorted position i spans i..i+c-1
    _, first, counts = np.unique(scores[order], return_index=True,
                                 return_counts=True, equal_nan=False)
    ranks = np.empty(len(scores))
    ranks[order] = np.repeat(0.5 * (2 * first + counts - 1) + 1.0, counts)
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
    return the report dict. Test evaluation is always against true labels.
    A sweep point whose method trained in the sweep's stack takes its
    trained model from there."""
    method, method_kind, tc = validate_config(cfg)
    t0 = time.monotonic()
    num_classes, train_ds, test_ds = _generate(cfg)
    noisy, true_T = _corrupt(cfg, train_ds)
    fit = _SHARED["fits"].pop(_fit_key(cfg), None)
    try:
        params, history, diagnostics = fit or _run_method(
            cfg, tc, method, method_kind, noisy, test_ds, true_T)
    except ConfigError:  # a method the generated data cannot serve
        raise
    except (ValueError, DivergedError) as e:
        raise PipelineError("train", e) from e
    try:
        probs = predict_probs(params, test_ds.features)
        final = metrics(probs.argmax(axis=1), test_ds.truth, probs,
                        num_classes)
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


def _generate(cfg):
    """The generate stage of a validated cfg, through _SHARED: (K, train
    set, test set); its failure is a PipelineError and keeps nothing."""
    seed, spec = cfg["seed"], cfg["dataset"]
    fraction = cfg.get("test_fraction", 0.25)
    try:
        stamp = None  # a CSV is read again once edited or replaced
        if spec["kind"] == "csv":  # a missing one raises open's error here
            st = os.stat(spec["path"])
            stamp = [st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns]
        key = _key(spec, seed, fraction, stamp)
        if _SHARED.get("key") != key:  # made before the old entry goes
            made = _frozen(_split_dataset(spec, seed, fraction))
            _SHARED.clear()
            _SHARED.update(key=key, split=made, noisy={}, fits={})
        return _SHARED["split"]
    except Exception as e:
        raise PipelineError("generate", e)


def _corrupt(cfg, train_ds):
    """The corrupt stage of the data _generate just gave, through _SHARED:
    (corrupted train set, noise T or None); its failure is a PipelineError,
    or a ConfigError for a noise matrix the data's classes do not fit, and
    keeps nothing."""
    noise, made = cfg.get("noise"), _SHARED["noisy"]
    try:
        key = _key(noise)
        if key not in made:
            made[key] = _frozen(_apply_noise(train_ds, noise,
                                             cfg["seed"] + 2))
        return made[key]
    except ConfigError:  # a noise matrix for other than the data's classes
        raise
    except Exception as e:
        raise PipelineError("corrupt", e)


def _fit_key(cfg):
    """Key in _SHARED["fits"] of what a run's training depends on beside
    its data: its noise, method and train config."""
    return _key(cfg.get("noise"), cfg.get("method"), cfg.get("train"))


def _run_method(cfg, tc, method, kind, noisy, test_ds, true_T):
    """Run one method pipeline; returns (params, history, diagnostics).
    Training code only ever sees the training view (truth stripped)."""
    view = noisy.training_view()
    if kind == "annotator" and view.annotator_labels is None:
        raise ConfigError("annotator method requires annotator labels "
                          "(noise kind 'annotators')")
    if (kind == "annotator" and method["annotator"]["fusion"] == "staple"
            and view.annotator_labels.shape[1] < 2):
        raise ConfigError("method.annotator.fusion 'staple' needs at least 2 "
                          f"annotators, got {view.annotator_labels.shape[1]}")
    method = _resolve(method, true_T, view.num_classes, "method")
    if kind in ("annotator", "procedure"):
        kwargs = method[kind]
        kind = kwargs.pop(SCHEMA[kind][0])  # the fusion or procedure name
    diagnostics = {}
    if kind in ("loss", "reweight"):
        config, reweight = _train_args(method, tc)
        params, history = train(view, config, test_ds, reweight=reweight)
    elif kind == "noise_adaptation":
        # the observed labels as the one annotator, with no trace penalty
        params, model, history = train_with_confusion(
            replace(view, annotator_labels=view.labels[:, None]), tc, 0.0,
            test_ds)
        diagnostics["learned_transition"] = model.confusions[0].t.tolist()
    elif kind in ("majority", "staple"):
        if kind == "majority":
            fused = majority_vote(view.annotator_labels)
        else:
            _, model, fused, loglik = staple(view.annotator_labels,
                                             view.num_classes)
            diagnostics["annotator_model"] = model.to_json()
            diagnostics["staple_loglik"] = loglik
        fused_ds = replace(view, labels=fused)
        params, history = train(fused_ds, tc, test_ds)
        if noisy.true_labels is not None:
            diagnostics["fused_label_accuracy"] = float(
                np.mean(fused == noisy.true_labels))
    elif kind == "min_loss":
        params, history = train_min_loss_label(view, tc, test_ds)
    elif kind == "confusion":
        params, model, history = train_with_confusion(
            view, tc, test_ds=test_ds, **kwargs)
        diagnostics["annotator_model"] = model.to_json()
    elif kind == "mixup":
        params, history = train_mixup(view, tc, test_ds, **kwargs)
    elif kind in ("co_teaching", "disagreement"):
        params, _, history = train_co_teaching(
            view, tc, test_ds, _noise_rate(cfg, kwargs),
            kind == "disagreement")
    elif kind == "dual_relabel":
        params, _, store, history = train_dual_relabel(view, tc, test_ds)
        if noisy.true_labels is not None:
            diagnostics["store_match_truth_final"] = \
                store.match_fraction(noisy.true_labels)
            diagnostics["store_match_truth_initial"] = float(
                np.mean(noisy.labels == noisy.true_labels))
    else:  # iterative_clean
        if noisy.true_labels is None:
            raise ConfigError("iterative_clean needs hidden truth to build "
                              "the small clean set")
        rng = Rng(cfg["seed"] + 7)
        frac = kwargs.pop("clean_fraction", 0.1)
        _check_args("iterative_clean",
                    reals={"clean_fraction": (frac, "(0, 1]")})
        n_clean = max(2, int(round(frac * noisy.n)))
        clean_idx = np.sort(rng.permutation(noisy.n)[:n_clean])
        clean_small = noisy.subset(clean_idx)
        store, flags, _, rounds = iterative_clean(view, clean_small, tc,
                                                  **kwargs)
        true_flip = noisy.labels != noisy.true_labels
        precision, recall = _flag_precision_recall(flags, true_flip)
        diagnostics["flag_precision"] = precision
        diagnostics["flag_recall"] = recall
        diagnostics["rounds"] = rounds
        cleaned = replace(view, labels=store.hard_labels())
        params, history = train(cleaned, tc, test_ds)
    return params, history, diagnostics


def _noise_rate(cfg, procedure):
    """The noise_rate a co_teaching or disagreement point trains under (the
    second only checks it): its procedure section's own, else its noise
    rho, else train_co_teaching's default."""
    return procedure.get("noise_rate", (cfg.get("noise") or {}).get(
        "rho", CO_TEACHING_NOISE_RATE))


def _train_args(method, tc):
    """train's config and reweight spec for a resolved loss or reweight
    method: a loss pipeline trains on its loss, a reweight one on its
    base_loss."""
    loss = method.get("loss", method.get("base_loss", tc.loss))
    return replace(tc, loss=loss), method.get("reweight")


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


def _csv(cols, rows):
    """Header and one line per row: floats as .17g, other values as str,
    a missing column empty."""
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join(
            format(row[c], ".17g") if isinstance(row.get(c), float)
            else str(row.get(c, "")) for c in cols))
    return "\n".join(lines) + "\n"


def write_report(report, path):
    atomic_write_text(path, report_json(report) + "\n")
    csv_path = os.path.splitext(path)[0] + "_epochs.csv"
    hist = report["history"]
    if hist:
        atomic_write_text(csv_path,
                          _csv(sorted({k for row in hist for k in row}), hist))
    return csv_path


def strip_wall_time(report):
    out = dict(report)
    out.pop("wall_time_s", None)
    return out


# --- sweeps -----------------------------------------------------------------

def sweep(template, rhos, methods=None):
    """Run the template config across symmetric noise rates (and optional
    method variants); returns (reports, summary rows, quadratic fit R^2 of
    the first method's test error vs rho). The template sets neither noise
    nor method, which each point sets. The points share one generated or
    read dataset and split, and one corrupted copy per noise rate, through
    run_experiment's cache. Before the first point runs, the points of
    every loss or reweight method that names no 'true' transition train
    in one stack per loss they train under, and those of each co_teaching
    or disagreement procedure in one stack per method (see _stackable and
    _prefit); those of every other method train one by one. Each point
    runs through a run_experiment call of its own, in summary order."""
    for key, use in (("method", "methods"), ("noise", "rhos")):
        if key in template:
            raise ConfigError(f"sweep: the template sets {key}, which each "
                              f"point sets; give {use} instead")
    if not isinstance(rhos, (list, tuple)) or not rhos:
        raise ConfigError(f"sweep: rhos must be a non-empty list, got "
                          f"{rhos!r}")
    try:
        _check_args("sweep", reals={f"rhos[{i}]": (r, "[0, 1)")
                                    for i, r in enumerate(rhos)})
    except ValueError as e:
        raise ConfigError(str(e)) from e
    methods = methods or [{"loss": {"kind": "ce"}}]
    # before the first point runs: the template, then each method
    validate_config(dict(template, noise=None, method={"loss": {"kind": "ce"}}))
    for method in methods:
        _check_section(method, "method", "method")
    points = []  # (rho, cfg) in summary order
    for method in methods:
        for rho in rhos:
            cfg = json.loads(json.dumps(template))
            cfg["noise"] = ({"kind": "symmetric", "rho": rho} if rho > 0
                            else None)
            cfg["method"] = method
            points.append((rho, cfg))
    reports, summary = [], []
    try:
        _prefit([cfg for _, cfg in points if _stackable(cfg["method"])])
        for rho, cfg in points:
            row = {"method": _method_name(cfg["method"]), "rho": rho}
            try:
                rep = run_experiment(cfg)
                reports.append(rep)
                row["test_accuracy"] = rep["final_metrics"]["accuracy"]
                row["test_error"] = 1.0 - row["test_accuracy"]
                row["macro_f1"] = rep["final_metrics"]["macro_f1"]
            except Exception as e:
                row["error"] = str(e)
            summary.append(row)
    finally:
        _SHARED.get("fits", {}).clear()
    # the baseline's rows come first: another method may share its name
    r2 = _quadratic_fit_r2([r for r in summary[:len(rhos)]
                            if "test_error" in r])
    return reports, summary, r2


def _stackable(method):
    """Whether a sweep trains a method's points in a stack: a loss or
    reweight method that names no 'true' transition resolves the same at
    every rho, and a co_teaching or disagreement procedure differs at most
    in its noise_rate, so that their points differ in their labels and
    that rate alone."""
    if "procedure" in method:
        return method["procedure"]["name"] in ("co_teaching", "disagreement")
    return (("loss" in method or "reweight" in method)
            and not _check_section(method, "method", "method"))


def _prefit(cfgs):
    """Train the points of a sweep's stackable methods, given their
    configs, in stacks: the loss and reweight points that train under one
    resolved loss (CE for a reweight method without base_loss) as one
    stack through model.train, each with its own reweight hook, and each
    co_teaching or disagreement method's points through train_co_teaching,
    each under the noise_rate _run_method would give it. Keep each point's
    fit in _SHARED["fits"] for its run_experiment, which takes its
    corrupted set from _SHARED as the stack did. A point listed twice
    trains once; one whose preparation raises (its reweight hook included),
    and every point of a stack whose training raises, keeps no fit, so
    that it trains alone and fails on its own."""
    stacks = {}  # key -> (config, disagreement, test set, {fit key: point})
    for cfg in cfgs:
        try:
            method, kind, tc = validate_config(cfg)
            K, train_ds, test_ds = _generate(cfg)
            view = _corrupt(cfg, train_ds)[0].training_view()
            if kind == "procedure":  # each point with its noise_rate
                procedure = method["procedure"]
                key, config = _key(method), tc
                own = _noise_rate(cfg, procedure)
                disagreement = procedure["name"] == "disagreement"
            else:  # each point with its reweight spec
                config, own = _train_args(_resolve(method, None, K, "method"),
                                          tc)
                key, disagreement = _key(vars(config.loss)), None
                make_reweighter(own)  # a hook train refuses fails alone
        except Exception:  # its run_experiment meets it again
            continue
        stack = stacks.setdefault(key, (config, disagreement, test_ds, {}))
        stack[3].setdefault(_fit_key(cfg), (view, own))
    # the points of a stack share their train config and test set
    for config, disagreement, test_ds, points in stacks.values():
        views, owns = (list(c) for c in zip(*points.values()))
        try:
            if disagreement is None:
                fits = train(views, config, test_ds, reweight=owns)
            else:
                fits = [(a, history) for a, _, history in train_co_teaching(
                    views, config, test_ds, owns, disagreement)]
        except Exception:  # each point's run_experiment meets it again
            continue
        _SHARED["fits"].update((key, (*fit, {}))
                               for key, fit in zip(points, fits))


def _method_name(method):
    k = next(k for k in SCHEMA["method"][1] if k in method)
    v = method[k]
    if isinstance(v, dict):
        return f"{k}:{v.get('kind') or v.get('name') or v.get('fusion')}"
    return k


def _quadratic_fit_r2(rows):
    """R^2 of a least-squares quadratic of test error in rho (reported,
    never asserted); None for fewer than 3 distinct rho, which a quadratic
    fits exactly."""
    if len({r["rho"] for r in rows}) < 3:
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
    return _csv(["method", "rho", "test_accuracy", "test_error", "macro_f1",
                 "error"], summary)
