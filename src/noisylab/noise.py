"""Label corruption models: class-independent (symmetric), class-conditional
(arbitrary transition matrix), feature-dependent, multi-annotator simulation,
and empirical transition estimation from paired labels.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

ROW_ATOL = 1e-9


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic K x K matrix; t[i][j] = p(observed=j | true=i)."""

    t: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=np.float64)
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise ValueError("transition matrix must be square")
        if np.any(t < -ROW_ATOL) or np.any(t > 1 + ROW_ATOL):
            raise ValueError("transition entries outside [0,1]")
        if np.any(np.abs(t.sum(axis=1) - 1.0) > ROW_ATOL):
            raise ValueError("transition rows must sum to 1")
        object.__setattr__(self, "t", t)

    @property
    def k(self):
        return self.t.shape[0]

    def to_json(self):
        return {"k": self.k, "rows": self.t.tolist()}

    @classmethod
    def from_json(cls, obj):
        t = np.asarray(obj["rows"], dtype=np.float64)
        if t.shape != (obj["k"], obj["k"]):
            raise ValueError("transition json shape mismatch")
        return cls(t)

    @classmethod
    def identity(cls, K):
        return cls(np.eye(K))


def symmetric_transition(K, rho):
    """Uniform class-independent noise: diag 1-rho, off-diag rho/(K-1)."""
    if not 0.0 <= rho < 1.0 or K < 2:
        raise ValueError("symmetric_transition: need 0 <= rho < 1 and K >= 2")
    t = np.full((K, K), rho / (K - 1))
    np.fill_diagonal(t, 1.0 - rho)
    return TransitionMatrix(t)


def inject(ds, T, rng):
    """Corrupt labels by one Markov step of T; features untouched, the
    original labels are preserved as true_labels."""
    if T.k != ds.num_classes:
        raise ValueError("inject: class count mismatch")
    truth = ds.true_labels if ds.true_labels is not None else ds.labels
    noisy = draw_labels(T, truth, rng)
    return replace(ds, labels=noisy, true_labels=truth.copy())


def draw_labels(T, truth, rng):
    """One draw per sample from row truth[i] of T, consuming one uniform
    each in order: the stream sample_categorical gives per sample, through
    the same searchsorted side="right" rule and clamp to K - 1."""
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
    truth = ds.true_labels if ds.true_labels is not None else ds.labels
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
    if not 0.0 <= rho_max < 1.0 or beta < 0:
        raise ValueError("feature_dependent_inject: invalid parameters")
    truth = ds.true_labels if ds.true_labels is not None else ds.labels
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
    truth = ds.true_labels if ds.true_labels is not None else ds.labels
    ann = np.empty((ds.n, len(confusions)), dtype=np.int64)
    for a, T in enumerate(confusions):
        ann[:, a] = draw_labels(T, truth, rng)
    return replace(ds, annotator_labels=ann, true_labels=truth.copy())


def estimate_transition(pairs, K, laplace=1.0):
    """Empirical transition from (reference, noisy) label pairs with
    additive smoothing: t[i][j] = (n_ij + laplace) / (n_i. + K*laplace)."""
    if laplace < 0:
        raise ValueError("estimate_transition: laplace must be >= 0")
    counts = np.zeros((K, K))
    for ref, noisy in pairs:
        counts[int(ref), int(noisy)] += 1
    totals = counts.sum(axis=1)
    if laplace == 0 and np.any(totals == 0):
        raise ValueError("estimate_transition: empty reference class with "
                         "laplace=0 gives a degenerate row")
    t = (counts + laplace) / (totals + K * laplace)[:, None]
    return TransitionMatrix(t)


def save_transition(T, path):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(T.to_json(), f, indent=2)


def load_transition(path):
    with open(path, encoding="utf-8") as f:
        return TransitionMatrix.from_json(json.load(f))
