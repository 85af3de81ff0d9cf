"""Multi-annotator label handling: majority vote, STAPLE EM fusion,
minimum-loss label selection, and joint annotator-confusion estimation with
a trace penalty.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .losses import LossSpec, loss_and_grad, loss_vector, mixed_ce
from .model import fit
from .noise import TransitionMatrix
from .numerics import _check_args, _check_labels, softmax

M_STEP_SMOOTHING = 1e-9


@dataclass(frozen=True)
class AnnotatorModel:
    """Per-annotator row-stochastic confusion matrices and a class prior."""

    confusions: tuple
    prior: np.ndarray

    def to_json(self):
        return {"prior": self.prior.tolist(),
                "confusions": [T.t.tolist() for T in self.confusions]}


def majority_vote(labels):
    """Most frequent label along the last axis; ties go to the lowest class
    index. One row of labels gives an int, an (N, A) panel an (N,) array."""
    L = np.asarray(labels)
    if L.ndim < 1 or L.size < 1:
        raise ValueError("majority_vote: need at least one label")
    if L.min() < 0:
        raise ValueError("majority_vote: labels must be non-negative")
    rows = L.reshape(-1, L.shape[-1])
    K = int(rows.max()) + 1
    # one bincount over the whole panel, row r's labels offset by r * K
    counts = np.bincount((np.arange(len(rows))[:, None] * K + rows).ravel(),
                         minlength=len(rows) * K).reshape(-1, K)
    fused = counts.argmax(axis=1).reshape(L.shape[:-1])
    return int(fused) if L.ndim == 1 else fused


def staple(annotator_labels, K, max_iters=100, tol=1e-6):
    """Discrete multi-class STAPLE (Warfield-style EM).

    E-step: posterior(i,c) proportional to pi_c * prod_a theta_a[c, L_ia].
    M-step: count-weighted re-estimates with 1e-9 additive smoothing.
    Returns (posteriors N x K, AnnotatorModel, fused labels, log-likelihood
    trace). Initialization is diagonal-dominant (0.8) so EM selects the
    annotators-are-mostly-right mode. The confusions are one (A, K, K) stack.

    A row's posterior depends on its labels only through their pattern, so
    the E-step runs once per distinct pattern and each row gathers its
    pattern's posterior; the log-likelihood still sums the rows in row
    order. The M-step counts each annotator's (label, class) bins in row
    order. K is an integer >= 1. Runs at most max_iters (an integer >= 0)
    iterations, stopping once no prior or confusion entry moves by tol (a
    real >= 0) or more.
    """
    L = np.asarray(annotator_labels, dtype=np.int64)
    if L.ndim != 2 or L.shape[0] < 1 or L.shape[1] < 2:
        raise ValueError("staple: need N x A labels with A >= 2")
    _check_args("staple", integers={"K": (K, "[1, inf)"),
                                    "max_iters": (max_iters, "[0, inf)")},
                reals={"tol": (tol, "[0, inf)")})
    _check_labels("staple", L, K)
    n, A = L.shape
    prior = np.full(K, 1.0 / K)
    off = 0.2 / (K - 1) if K > 1 else 0.0
    theta = np.broadcast_to(np.full((K, K), off) + (0.8 - off) * np.eye(K),
                            (A, K, K))
    # the distinct rows in np.unique(L, axis=0) order and each row's index
    # among them, one label column at a time: a 1-d unique of prefix codes
    # below n * K is ten times faster than sorting rows
    inv = np.zeros(n, dtype=np.int64)
    for col in L.T:
        _, first, inv = np.unique(inv * K + col, return_index=True,
                                  return_inverse=True)
    patterns = L[first]
    # row i's posterior of class c goes to bin c of the prior and to bin
    # L_ia * K + c of annotator a; bincount adds each bin's weights in row
    # order, as a masked sum does
    prior_bins = np.tile(np.arange(K), n)
    bins = ((L.T * K)[..., None] + np.arange(K)).reshape(A, n * K)
    loglik_trace = []

    def e_step(prior, theta):
        like = np.tile(prior, (len(patterns), 1))
        for cols in theta[np.arange(A)[:, None], :, patterns.T]:
            like *= cols  # theta[a, :, L_ia]
        total = like.sum(axis=1)
        loglik_trace.append(float(np.sum(
            np.take(np.log(np.maximum(total, 1e-300)), inv))))
        return np.take(like / total[:, None], inv, axis=0)

    for _ in range(max_iters):
        weights = e_step(prior, theta).ravel()
        new_prior = np.bincount(prior_bins, weights, minlength=K) / n
        counts = np.ascontiguousarray(np.stack(  # [a, c, j]
            [np.bincount(b, weights, minlength=K * K) for b in bins]
        ).reshape(A, K, K).swapaxes(1, 2))
        new_theta = ((counts + M_STEP_SMOOTHING)
                     / (counts.sum(axis=2, keepdims=True)
                        + K * M_STEP_SMOOTHING))
        max_change = max(np.abs(new_prior - prior).max(),
                         np.abs(new_theta - theta).max())
        prior, theta = new_prior, new_theta
        if max_change < tol:
            break
    post = e_step(prior, theta)
    model = AnnotatorModel(tuple(TransitionMatrix(t) for t in theta), prior)
    return post, model, post.argmax(axis=1), loglik_trace


def min_loss_labels(per_annotator_losses, annotator_labels):
    """Per row of (N, A) losses: the annotator with the smallest loss (ties
    to the lowest index) and that annotator's label, as two (N,) arrays."""
    losses = np.asarray(per_annotator_losses, dtype=np.float64)
    if losses.shape[-1] < 1 or not np.all(np.isfinite(losses)):
        raise ValueError("min_loss_labels: need finite losses for A >= 1")
    a = losses.argmin(axis=1)
    return a, np.asarray(annotator_labels)[np.arange(len(a)), a]


def train_min_loss_label(ds, config, test_ds=None):
    """SGD where each sample back-propagates only the annotator label with
    the smallest current loss (ties to the lowest annotator index)."""
    if ds.annotator_labels is None:
        raise ValueError("train_min_loss_label: dataset has no annotator labels")
    L = ds.annotator_labels
    ce = LossSpec("ce")

    def batch_loss(probs, idx):
        per_ann = loss_vector("ce", probs)[np.arange(len(idx))[:, None],
                                           L[idx]]
        _, y_sel = min_loss_labels(per_ann, L[idx])
        return loss_and_grad(ce, probs, y_sel)

    return fit(ds, config, batch_loss, test_ds)[0]


def confusion_grads(Q, probs, labels, *, theta=None):
    """CE of each annotator's label through its confusion theta_a =
    row-softmax(Q_a), for unconstrained confusions Q (A, K, K), a batch of
    base softmax outputs probs (N, K) and annotator labels (N, A): loss
    values (N, A), dloss/dlogits summed over annotators (N, K), and each
    annotator's dloss/dQ_a summed over the batch (A, K, K). A caller that
    already holds softmax(Q) may pass it as theta."""
    if theta is None:
        theta = softmax(Q)  # row-wise
    values, G, q_y = mixed_ce(theta, probs, labels)
    # dloss_ra/dtheta_a is -p_r / q_ra in column y_ra, formed as
    # p_r * (-1 / q_ra) (p_r / -q_ra rounds differently); sum those over
    # the batch, then chain each row through its softmax
    dtheta = (np.swapaxes(probs * (-1.0 / q_y.T)[..., None], -1, -2)
              @ np.eye(theta.shape[-1])[labels.T])
    gQ = theta * (dtheta - np.add.reduce(dtheta * theta, axis=-1,
                                         keepdims=True))
    return values, np.add.reduce(G, axis=1), gQ


def train_with_confusion(ds, config, lambda_trace=0.01, test_ds=None):
    """Jointly learn the base classifier and per-annotator confusion
    matrices by SGD; confusions are row-softmax of unconstrained matrices
    and their traces are penalized to break the estimation ambiguity.

    Per sample, annotator a's predicted noisy distribution is
    theta_a^T p(.|x) and the loss sums CE terms over annotators; the trace
    penalty lambda * sum_a trace(theta_a) is applied once per batch step;
    with one annotator and lambda = 0 this is the noise-adaptation layer
    (Sukhbaatar et al. 2015). Returns (ModelParams, AnnotatorModel, history).
    """
    if ds.annotator_labels is None:
        raise ValueError("train_with_confusion: dataset has no annotator labels")
    _check_args("train_with_confusion",
                reals={"lambda_trace": (lambda_trace, "[0, inf)")})
    L = ds.annotator_labels
    K = ds.num_classes
    lr = config.learning_rate
    # every theta_a starts at 0.8 on the diagonal and the rest spread evenly
    # over each row; 1.0 - 0.8 rounds to two ulps below 0.2, and trained
    # runs start from it
    Q = np.full((L.shape[1], K, K),
                np.log(max((1.0 - 0.8) / max(K - 1, 1), 1e-12)))
    Q[:, np.arange(K), np.arange(K)] = np.log(0.8)
    pen = lambda_trace * np.eye(K)

    def batch_loss(probs, idx):
        theta = softmax(Q)
        values, G, gQ = confusion_grads(Q, probs, L[idx], theta=theta)
        step = (lr / len(idx)) * gQ
        if lambda_trace:
            # gradient of lambda * trace(theta) through the row-softmax
            diag = lambda_trace * np.diagonal(theta, axis1=-2, axis2=-1)
            step += lr * (theta * (pen - diag[..., None]))
        Q[:] -= step
        return values.ravel(), G

    params, history = fit(ds, config, batch_loss, test_ds)[0]
    model = AnnotatorModel(tuple(TransitionMatrix(t) for t in softmax(Q)),
                           np.full(K, 1.0 / K))
    return params, model, history
