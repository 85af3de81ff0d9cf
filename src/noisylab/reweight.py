"""Sample-level filtering and gradient re-weighting: the running-statistics
1.5-sigma skip rule, rank-pruning by confidence, per-epoch trimmed loss, and
Pumpout gradient reversal.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from .losses import (LossSpec, _check_invertible, loss_and_grad,
                     loss_vector)


class RunningLossFilter:
    """Skip a sample when its loss exceeds mean + multiplier*sigma of the
    last `window` observed losses. Never skips during warmup or when sigma
    collapses below the floor. Skipped samples' losses still enter the
    window so it stays an unbiased picture of the stream (configurable)."""

    def __init__(self, window=100, multiplier=1.5, warmup=30,
                 sigma_floor=1e-12, record_skipped=True):
        if multiplier <= 0 or window < 1:
            raise ValueError("invalid filter parameters")
        self.buffer = deque(maxlen=window)
        self.multiplier = multiplier
        self.warmup = warmup
        self.sigma_floor = sigma_floor
        self.record_skipped = record_skipped

    def observe(self, loss):
        """Returns 'update' or 'skip'; statistics are computed over the
        buffer before this loss is appended."""
        loss = float(loss)
        if not math.isfinite(loss):
            raise ValueError("observe: non-finite loss")
        decision = "update"
        if len(self.buffer) >= self.warmup:
            buf = np.fromiter(self.buffer, dtype=np.float64)
            mean, sigma = buf.mean(), buf.std()
            if sigma > self.sigma_floor and loss > mean + self.multiplier * sigma:
                decision = "skip"
        if decision == "update" or self.record_skipped:
            self.buffer.append(loss)
        return decision


def rank_prune(probs_for_observed_label, labels, prune_fraction,
               per_class=True):
    """Remove the least-confident floor(fraction * n) samples, per observed
    class by default; ties remove the lower index first. Returns the kept
    index set."""
    if not 0.0 <= prune_fraction < 1.0:
        raise ValueError("prune_fraction must be in [0,1)")
    conf = np.asarray(probs_for_observed_label, dtype=np.float64)
    labels = np.asarray(labels)
    kept = set(range(len(conf)))
    groups = ([np.flatnonzero(labels == c) for c in np.unique(labels)]
              if per_class else [np.arange(len(conf))])
    for members in groups:
        n_drop = int(math.floor(prune_fraction * len(members)))
        if n_drop == 0:
            continue
        # stable sort ascending by confidence; equal confidences drop the
        # lower original index first
        order = members[np.argsort(conf[members], kind="stable")]
        kept.difference_update(int(i) for i in order[:n_drop])
    return kept


def trimmed_filter(losses, trim_fraction):
    """Drop the ceil(fraction * N) largest losses; ties drop the higher
    index first. Returns the kept index set."""
    if not 0.0 <= trim_fraction < 1.0:
        raise ValueError("trim_fraction must be in [0,1)")
    losses = np.asarray(losses, dtype=np.float64)
    n_drop = int(math.ceil(trim_fraction * len(losses)))
    # sort descending by loss, then descending index among ties
    order = np.lexsort((-np.arange(len(losses)), -losses))
    return set(order[n_drop:].tolist())


def pumpout(T, base, probs, observed_y, gamma):
    """Gradient multiplier: -gamma (scaled ascent) when 1^T T^{-1} l(p) < 0,
    which flags a likely-incorrect label; +1 otherwise."""
    hook = _PumpoutHook({"transition": T, "base": base, "gamma": gamma})
    return hook.sample_weight(None, probs, observed_y)


# --- trainer hooks ----------------------------------------------------------

class _RunningHook:
    def __init__(self, spec):
        self.filter = RunningLossFilter(
            window=spec.get("window", 100),
            multiplier=spec.get("multiplier", 1.5),
            warmup=spec.get("warmup", 30),
            record_skipped=spec.get("record_skipped", True))

    def epoch_kept_set(self, params, ds):
        return None

    def sample_weight(self, loss, probs, y):
        return 0.0 if self.filter.observe(loss) == "skip" else 1.0


class _TrimmedHook:
    def __init__(self, spec):
        self.fraction = spec["fraction"]
        self.loss = spec.get("loss")

    def epoch_kept_set(self, params, ds):
        from .model import predict_probs
        losses, _ = loss_and_grad(self.loss or LossSpec("ce"),
                                  predict_probs(params, ds.features),
                                  ds.labels)
        return trimmed_filter(losses, self.fraction)

    def sample_weight(self, loss, probs, y):
        return 1.0


class _RankPruneHook:
    def __init__(self, spec):
        self.fraction = spec["fraction"]
        self.per_class = spec.get("per_class", True)

    def epoch_kept_set(self, params, ds):
        from .model import predict_probs
        probs = predict_probs(params, ds.features)
        conf = probs[np.arange(ds.n), ds.labels]
        return rank_prune(conf, ds.labels, self.fraction, self.per_class)

    def sample_weight(self, loss, probs, y):
        return 1.0


class _PumpoutHook:
    def __init__(self, spec):
        self.gamma = spec.get("gamma", 0.1)
        self.base = spec.get("base", "ce")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must be in (0,1)")
        T = spec["transition"]
        _check_invertible(T.t)
        self.ones_t_inv = np.linalg.solve(T.t.T, np.ones(T.k))  # 1^T T^{-1}

    def epoch_kept_set(self, params, ds):
        return None

    def sample_weight(self, loss, probs, y):
        corrected = float(self.ones_t_inv @ loss_vector(self.base, probs))
        return -self.gamma if corrected < 0.0 else 1.0


_HOOKS = {"running": _RunningHook, "trimmed": _TrimmedHook,
          "rank_prune": _RankPruneHook, "pumpout": _PumpoutHook}


def make_reweighter(spec):
    """Build a trainer hook from a reweight spec dict ({'kind': ...})."""
    if spec is None:
        return None
    if isinstance(spec, dict):
        kind = spec["kind"]
        if kind not in _HOOKS:
            raise ValueError(f"unknown reweight kind: {kind}")
        return _HOOKS[kind](spec)
    return spec  # already a hook object
