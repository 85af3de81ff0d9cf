"""Sample-level filtering and gradient re-weighting: the running-statistics
1.5-sigma skip rule, rank-pruning by confidence, per-epoch trimmed loss, and
Pumpout gradient reversal.
"""

from __future__ import annotations

import math

import numpy as np

from .losses import (LossSpec, _check_invertible, loss_and_grad,
                     loss_vector)
from .numerics import _check_args

SIGMA_FLOOR = 1e-12


class RunningLossFilter:
    """Skip a sample when its loss exceeds mean + multiplier*sigma of the
    last `window` observed losses. Never skips during warmup or when sigma
    collapses below the floor. Skipped samples' losses still enter the
    window so it stays an unbiased picture of the stream; the statistics
    thus never depend on the decisions, and observe_batch decides a whole
    run of losses at once."""

    def __init__(self, window=100, multiplier=1.5, warmup=30):
        _check_args("RunningLossFilter", {"window": (window, "[1, inf)")},
                    {"multiplier": (multiplier, "(0, inf)"),
                     "warmup": (warmup, "[0, inf)")})
        self.window = window
        self.buffer = np.empty(0)  # the last `window` losses, oldest first
        self.multiplier = multiplier
        self.warmup = warmup

    def observe_batch(self, losses):
        """Skip mask over a run of losses, each decided as if observed one
        by one: on the mean and sigma of the up to `window` losses before
        it, once at least `warmup` (and one) of them exist. A full window
        slides over the buffer and the run in one pass; a window still
        filling, only in the first `window` losses of the filter's life,
        is scored slice by slice."""
        losses = np.asarray(losses, dtype=np.float64)
        if not np.isfinite(losses).all():
            raise ValueError("observe_batch: non-finite loss")
        w = self.window
        seen = len(self.buffer)  # < w only while the window is filling
        stream = np.concatenate([self.buffer, losses])
        self.buffer = stream[-w:].copy()
        skip = np.zeros(len(losses), dtype=bool)
        if w < self.warmup:
            return skip
        # losses[j] is stream position i = seen + j, with the window
        # stream[max(0, i - w):i]; positions from `first` on are decided
        first = max(seen, math.ceil(self.warmup), 1)
        full = min(max(first, w), len(stream))
        filling = [stream[:i] for i in range(first, full)]
        mean = [s.mean() for s in filling]
        sigma = [s.std() for s in filling]
        if full < len(stream):
            # the (n, w) windows as one read-only strided view of the
            # contiguous stream, reduced by the ufuncs ndarray.mean and
            # .std run (so bit-equal to them), with the mean taken once
            windows = np.ndarray((len(stream) - full, w), stream.dtype, stream,
                                 (full - w) * stream.itemsize,
                                 stream.strides * 2)
            windows.flags.writeable = False
            wmean = np.add.reduce(windows, axis=1) / w
            dev = windows - wmean[:, None]
            wsigma = np.sqrt(np.add.reduce(dev * dev, axis=1) / w)
            if filling:
                wmean = np.concatenate([mean, wmean])
                wsigma = np.concatenate([sigma, wsigma])
            mean, sigma = wmean, wsigma
        mean, sigma = np.asarray(mean), np.asarray(sigma)
        skip[first - seen:] = ((sigma > SIGMA_FLOOR) &
                               (losses[first - seen:]
                                > mean + self.multiplier * sigma))
        return skip


def rank_prune(probs_for_observed_label, labels, prune_fraction,
               per_class=True):
    """Remove the least-confident floor(fraction * n) samples, per observed
    class by default; ties remove the lower index first. Returns the kept
    mask."""
    _check_args("rank_prune",
                reals={"prune_fraction": (prune_fraction, "[0, 1)")})
    if not isinstance(per_class, (bool, np.bool_)):
        raise ValueError(f"rank_prune: per_class must be a bool, got "
                         f"{per_class!r}")
    conf = np.asarray(probs_for_observed_label, dtype=np.float64)
    labels = np.asarray(labels)
    kept = np.ones(len(conf), dtype=bool)
    groups = ([np.flatnonzero(labels == c) for c in np.unique(labels)]
              if per_class else [np.arange(len(conf))])
    for members in groups:
        n_drop = int(math.floor(prune_fraction * len(members)))
        if n_drop == 0:
            continue
        # stable sort ascending by confidence; equal confidences drop the
        # lower original index first
        order = members[np.argsort(conf[members], kind="stable")]
        kept[order[:n_drop]] = False
    return kept


def trimmed_filter(losses, trim_fraction):
    """Drop the ceil(fraction * N) largest losses; ties drop the higher
    index first. Returns the kept mask."""
    _check_args("trimmed_filter",
                reals={"trim_fraction": (trim_fraction, "[0, 1)")})
    losses = np.asarray(losses, dtype=np.float64)
    n_drop = int(math.ceil(trim_fraction * len(losses)))
    # sort descending by loss, then descending index among ties
    order = np.lexsort((-np.arange(len(losses)), -losses))
    kept = np.ones(len(losses), dtype=bool)
    kept[order[:n_drop]] = False
    return kept


# --- trainer hooks ----------------------------------------------------------

# Each hook takes its reweight spec's keys other than 'kind' as keyword
# arguments, and holds their defaults. model.train asks a hook for the
# epoch's kept mask, then once per batch for the weights of its kept rows:
# batch_weights(values, probs, y) gives an (N,) array, or None for all
# ones. sample_weight is the one-row weight; pumpout's takes the row's
# corrected loss, which its batch_weights scores for the whole batch.

class _RunningHook:
    def __init__(self, **filter_args):
        self.filter = RunningLossFilter(**filter_args)

    def epoch_kept_set(self, params, ds):
        return None

    def batch_weights(self, values, probs, y):
        return np.where(self.filter.observe_batch(values), 0.0, 1.0)

    def sample_weight(self, loss, probs, y):
        return 0.0 if self.filter.observe_batch([loss])[0] else 1.0


class _TrimmedHook:
    def __init__(self, fraction, loss=None):
        self.fraction = fraction
        self.loss = loss or LossSpec("ce")

    def epoch_kept_set(self, params, ds):
        from .model import predict_probs
        losses, _ = loss_and_grad(self.loss,
                                  predict_probs(params, ds.features),
                                  ds.labels)
        return trimmed_filter(losses, self.fraction)

    def batch_weights(self, values, probs, y):
        return None

    def sample_weight(self, loss, probs, y):
        return 1.0


class _RankPruneHook:
    def __init__(self, fraction, per_class=True):
        self.fraction = fraction
        self.per_class = per_class

    def epoch_kept_set(self, params, ds):
        from .model import predict_probs
        probs = predict_probs(params, ds.features)
        conf = probs[np.arange(ds.n), ds.labels]
        return rank_prune(conf, ds.labels, self.fraction, self.per_class)

    def batch_weights(self, values, probs, y):
        return None

    def sample_weight(self, loss, probs, y):
        return 1.0


class _PumpoutHook:
    """Weight -gamma (scaled ascent) where 1^T T^{-1} l(p) < 0, which flags
    a likely-incorrect label; +1 otherwise. batch_weights scores every
    row's corrected loss 1^T T^{-1} l(p) at once; sample_weight is the
    sign test on one of them."""

    def __init__(self, transition, gamma=0.1, base="ce"):
        _check_args("pumpout", reals={"gamma": (gamma, "(0, 1)")})
        self.gamma = gamma
        self.base = base
        t = transition.t
        _check_invertible(t)
        self.ones_t_inv = np.linalg.solve(t.T, np.ones(len(t)))  # 1^T T^{-1}

    def epoch_kept_set(self, params, ds):
        return None

    def batch_weights(self, values, probs, y):
        # a stack of (1, K) @ (K,) dots is bit-equal to the one-row
        # ones_t_inv @ l(p); the (N, K) @ (K,) gemv is not
        corrected = (loss_vector(self.base, probs)[:, None, :]
                     @ self.ones_t_inv)[:, 0]
        # the sign test row by row: the benchmark counts kept rows by
        # sample_weight call
        return np.array([self.sample_weight(c) for c in corrected.tolist()],
                        dtype=np.float64)

    def sample_weight(self, corrected):
        return -self.gamma if corrected < 0.0 else 1.0


_HOOKS = {"running": _RunningHook, "trimmed": _TrimmedHook,
          "rank_prune": _RankPruneHook, "pumpout": _PumpoutHook}


def make_reweighter(spec):
    """Build a trainer hook from a reweight spec dict ({'kind': ...} and the
    hook's keyword arguments), or None from None."""
    if spec is None:
        return None
    kwargs = dict(spec)
    kind = kwargs.pop("kind")
    if kind not in _HOOKS:
        raise ValueError(f"unknown reweight kind: {kind}")
    return _HOOKS[kind](**kwargs)
