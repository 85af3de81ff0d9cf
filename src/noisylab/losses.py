"""Loss catalog: cross-entropy, MAE, iMAE (gradient rule), smoothed-label KL,
and transition-matrix backward/forward corrections.

Every loss exposes a value and a gradient with respect to the logits; the
gradient is what the trainer consumes. iMAE is defined only at gradient
level: it keeps the MAE gradient direction but rescales the l1 norm to
exp(tau * p_y) * (1 - p_y), so confidently-fit samples dominate. Row
sums run at every SGD step: they call np.add.reduce, not its np.sum wrapper.
"""

from __future__ import annotations

import numpy as np

from .numerics import _check_args

LOG_CLAMP = 1e-12
COND_LIMIT = 1e8


class LossSpec:
    """Selects a loss. kind in {ce, mae, imae, smooth_kl, backward, forward}.
    tau is the imae temperature, epsilon the smooth_kl smoothing, transition
    the matrix for backward/forward, base the backward base loss."""

    def __init__(self, kind, tau=8.0, epsilon=0.0, transition=None, base="ce"):
        if kind not in ("ce", "mae", "imae", "smooth_kl", "backward", "forward"):
            raise ValueError(f"unknown loss kind: {kind}")
        _check_args("LossSpec", reals={"tau": (tau, "(0, inf)"),
                                       "epsilon": (epsilon, "[0, 1)")})
        if kind in ("backward", "forward") and transition is None:
            raise ValueError(f"{kind} correction requires a transition matrix")
        if base not in ("ce", "mae"):
            raise ValueError("backward base must be ce or mae")
        self.t_inv = None
        if kind == "backward":
            _check_invertible(transition.t)
            self.t_inv = np.linalg.inv(transition.t)
        self.kind = kind
        self.tau = float(tau)
        self.epsilon = float(epsilon)
        self.transition = transition
        self.base = base


class SingularTransitionError(ValueError):
    pass


def _check_invertible(t):
    cond = np.linalg.cond(t)
    if not np.isfinite(cond) or cond >= COND_LIMIT:
        raise SingularTransitionError(
            f"transition matrix ill-conditioned for inversion "
            f"(condition number {cond:.3g} >= {COND_LIMIT:.0e})")
    return cond


def loss_and_grad(spec, probs, y):
    """Batched losses: values (N,) and gradients wrt the logits (N, K) for
    softmax outputs probs (N, K) and labels y (N,). The only per-kind
    dispatch; iMAE has no primitive value and reports the MAE value."""
    P = np.asarray(probs, dtype=np.float64)
    y = np.asarray(y, dtype=np.intp)
    rows = np.arange(len(y))
    p_y = P[rows, y]
    if spec.kind == "ce":
        G = P.copy()  # P minus the one-hot labels, as p - 0.0 is p
        G[rows, y] = p_y - 1.0
        return -np.log(np.maximum(p_y, LOG_CLAMP)), G
    onehot = np.zeros(P.shape)
    onehot[rows, y] = 1.0
    if spec.kind in ("mae", "imae"):
        # MAE's gradient has l1 norm 4 p_y (1 - p_y). iMAE keeps its
        # direction, scaled to l1 norm exp(tau p_y)(1 - p_y) since
        # ||e - p||_1 = 2(1 - p_y); the p_y -> 0 limit direction is used so
        # the weight does not vanish on hard samples.
        scale = (-2.0 * p_y if spec.kind == "mae"
                 else -0.5 * np.exp(spec.tau * p_y))
        return 2.0 * (1.0 - p_y), scale[:, None] * (onehot - P)
    if spec.kind == "smooth_kl":
        # KL(q || p) against q = (1 - eps) e_y + eps / K; zero entries of q
        # contribute nothing
        q = spec.epsilon / P.shape[1] + (1.0 - spec.epsilon) * onehot
        return kl_to_targets(P, q), P - q
    if spec.kind == "backward":
        # Patrini backward correction: component y of T^{-1} l(p); may be
        # negative, which unbiasedness requires
        W = spec.t_inv[y]
        values = np.add.reduce(W * loss_vector(spec.base, P), axis=1)
        if spec.base == "ce":
            return values, np.add.reduce(W, axis=1, keepdims=True) * P - W
        WP = W * P
        return values, 2.0 * (np.add.reduce(WP, axis=1, keepdims=True) * P
                              - WP)
    if spec.kind == "forward":
        values, G, _ = mixed_ce(spec.transition.t[None], P, y[:, None])
        return values[:, 0], G[:, 0]
    raise ValueError(spec.kind)


def mixed_ce(T, probs, y):
    """CE of q_a = T_a^T p against label y_a for a stack of A transitions T
    (A, K, K), batched over softmax rows probs (N, K) and labels y (N, A)
    (Patrini forward correction at A = 1; also the noise-adaptation layer
    and per-annotator confusions, T their realized transitions). Returns
    (values (N, A), gradients wrt the logits (N, A, K), clamped q_y
    (N, A))."""
    cols = np.swapaxes(T, -1, -2)[np.arange(len(T)), y]  # d q_{y_ra} / d p
    P = probs[:, None, :]
    q_y = np.maximum(np.add.reduce(cols * P, axis=-1), LOG_CLAMP)
    V = -cols / q_y[..., None]  # dloss/dp, then chained through the softmax
    return (-np.log(q_y),
            P * (V - np.add.reduce(V * P, axis=-1, keepdims=True)), q_y)


def loss_vector(base, probs):
    """Per-label loss vector: component j is the base loss if the label
    were j. Base is ce or mae."""
    p = np.asarray(probs, dtype=np.float64)
    if base == "ce":
        return -np.log(np.maximum(p, LOG_CLAMP))
    if base == "mae":
        return 2.0 * (1.0 - p)
    raise ValueError("loss_vector: base must be ce or mae")


def kl_to_targets(probs, targets):
    """KL(q || p) of each target row q against the softmax row p, along
    the last axis; zero entries of q contribute nothing, so a one-hot q
    scores the cross-entropy of its label."""
    nz = targets > 0
    logs = np.log(np.where(nz, targets, 1.0)) + loss_vector("ce", probs)
    return np.add.reduce(np.where(nz, targets * logs, 0.0), axis=-1)


def loss_value(spec, probs, y):
    """Scalar loss of one sample (iMAE reports the MAE value)."""
    return loss_and_grad(spec, np.asarray(probs)[None, :], [y])[0][0]


# One-row forms that the acceptance tests call, as named in the papers.

def mae_grad_logits(probs, y):
    """MAE gradient wrt the logits; its l1 norm is exactly 4 p_y (1 - p_y)."""
    return loss_and_grad(LossSpec("mae"), np.asarray(probs)[None, :],
                         [y])[1][0]


def backward_corrected(T, probs, observed_y, base="ce"):
    """Patrini backward correction: component observed_y of T^{-1} l(p).
    May be negative; that is required for unbiasedness."""
    return loss_value(LossSpec("backward", transition=T, base=base), probs,
                      observed_y)


def has_primitive_value(spec):
    """Whether finite differences of loss_value recover its gradient."""
    return spec.kind != "imae"
