"""Label corruption models: class-independent (symmetric), class-conditional
(arbitrary transition matrix), feature-dependent, multi-annotator simulation,
and empirical transition estimation from paired labels.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace

import numpy as np

from .numerics import _check_args, _check_labels, check_prob_vector

TRANSITION_LAPLACE = 1.0  # estimate_transition's additive smoothing


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic K x K matrix; t[i][j] = p(observed=j | true=i)."""

    t: np.ndarray

    def __post_init__(self):
        try:
            shape = np.shape(self.t)
        except ValueError:  # rows of unequal lengths
            shape = "ragged"
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError("rows must be a square k x k matrix, got shape "
                             f"{shape}")
        # NumPy would parse a string or bool as a number and None as NaN
        for v in np.ravel(np.array(self.t, dtype=object)):
            if isinstance(v, bool) or not isinstance(v, numbers.Real):
                raise ValueError("rows must hold real numbers, got "
                                 f"{type(v).__name__} {v!r}")
        for i, row in enumerate(self.t):
            try:  # an integer too large for a float overflows
                check_prob_vector(row)
            except (ValueError, OverflowError) as e:
                raise ValueError(f"rows[{i}]: {e}") from e
        object.__setattr__(self, "t", np.asarray(self.t, dtype=np.float64))

    @property
    def k(self):
        return self.t.shape[0]

    @classmethod
    def from_json(cls, obj):
        k = obj["k"]
        _check_args(None, {"k": (k, ">= 2")})
        T = cls(obj["rows"])
        if T.k != k:
            raise ValueError(f"rows has shape {T.t.shape}, but k {k} needs "
                             f"({k}, {k})")
        return T


def symmetric_transition(K, rho):
    """Uniform class-independent noise: diag 1-rho, off-diag rho/(K-1)."""
    _check_args("symmetric_transition", {"K": (K, "[2, inf)")},
                {"rho": (rho, "[0, 1)")})
    t = np.full((K, K), rho / (K - 1))
    np.fill_diagonal(t, 1.0 - rho)
    return TransitionMatrix(t)


def inject(ds, T, rng):
    """Corrupt labels by one Markov step of T; features untouched, the
    original labels are preserved as true_labels."""
    if T.k != ds.num_classes:
        raise ValueError("inject: class count mismatch")
    truth = ds.truth
    noisy = draw_labels(T, truth, rng)
    return replace(ds, labels=noisy, true_labels=truth.copy())


def draw_labels(T, truth, rng):
    """One draw per sample from row truth[i] of T, consuming one uniform u
    each in order: the first class whose cumulative probability exceeds u
    (searchsorted's side="right" rule), clamped to K - 1."""
    u = rng.uniform(len(truth))
    drawn = np.sum(np.cumsum(T.t, axis=1)[truth] <= u[:, None], axis=1)
    return np.minimum(drawn, T.k - 1).astype(np.int64)


def class_centroids(features, labels, K):
    cents = np.zeros((K, features.shape[1]))
    for c in range(K):
        members = features[labels == c]
        if members.size:
            cents[c] = members.mean(axis=0)
    return cents


def centroid_margins(ds):
    """Per-sample margin: distance to nearest other-class centroid minus
    distance to own centroid, plus the index of that nearest other class."""
    truth = ds.truth
    cents = class_centroids(ds.features, truth, ds.num_classes)
    dists = np.linalg.norm(ds.features[:, None, :] - cents[None, :, :], axis=2)
    own = dists[np.arange(ds.n), truth]
    masked = dists.copy()
    masked[np.arange(ds.n), truth] = np.inf
    other = masked.argmin(axis=1)
    return masked[np.arange(ds.n), other] - own, other


def feature_dependent_inject(ds, rho_max, beta, rng):
    """Flip sample i to its nearest other-class centroid's class with
    probability min(1, rho_max * exp(-beta * margin_i)): samples near the
    class boundary are mislabeled more often."""
    _check_args("feature_dependent_inject",
                reals={"rho_max": (rho_max, "[0, 1)"),
                       "beta": (beta, "[0, inf)")})
    truth = ds.truth
    margin, other = centroid_margins(ds)
    p_flip = np.minimum(1.0, rho_max * np.exp(-beta * margin))
    u = rng.uniform(ds.n)
    noisy = np.where(u < p_flip, other, truth).astype(np.int64)
    return replace(ds, labels=noisy, true_labels=truth.copy())


def simulate_annotators(ds, confusions, rng):
    """Draw each annotator's labels independently from their confusion rows."""
    for T in confusions:
        if T.k != ds.num_classes:
            raise ValueError("simulate_annotators: class count mismatch")
    truth = ds.truth
    ann = np.empty((ds.n, len(confusions)), dtype=np.int64)
    for a, T in enumerate(confusions):
        ann[:, a] = draw_labels(T, truth, rng)
    return replace(ds, annotator_labels=ann, true_labels=truth.copy())


def estimate_transition(pairs, K):
    """Empirical transition from (reference, noisy) label pairs, smoothed:
    t[i][j] = (n_ij + L) / (n_i. + K*L) with L = TRANSITION_LAPLACE."""
    P = np.asarray(pairs, dtype=np.int64)
    if P.size and (P.ndim != 2 or P.shape[1] != 2):
        raise ValueError("estimate_transition: need (reference, noisy) pairs")
    P = P.reshape(-1, 2)
    _check_labels("estimate_transition", P, K)
    counts = np.bincount(P[:, 0] * K + P[:, 1],
                         minlength=K * K).reshape(K, K).astype(np.float64)
    totals = counts.sum(axis=1)
    t = ((counts + TRANSITION_LAPLACE)
         / (totals + K * TRANSITION_LAPLACE)[:, None])
    return TransitionMatrix(t)
