"""Loss catalog: cross-entropy, MAE, iMAE (gradient rule), smoothed-label KL,
and transition-matrix backward/forward corrections.

Every loss exposes a value and a gradient with respect to the logits; the
gradient is what the trainer consumes. iMAE is defined only at gradient
level: it keeps the MAE gradient direction but rescales the l1 norm to
exp(tau * p_y) * (1 - p_y), so confidently-fit samples dominate.
"""

from __future__ import annotations

import numpy as np

LOG_CLAMP = 1e-12
COND_LIMIT = 1e8


class LossSpec:
    """Selects a loss. kind in {ce, mae, imae, smooth_kl, backward, forward}.
    tau is the imae temperature, epsilon the smooth_kl smoothing, transition
    the matrix for backward/forward, base the backward base loss."""

    def __init__(self, kind, tau=8.0, epsilon=0.0, transition=None, base="ce"):
        if kind not in ("ce", "mae", "imae", "smooth_kl", "backward", "forward"):
            raise ValueError(f"unknown loss kind: {kind}")
        if tau <= 0:
            raise ValueError("tau must be positive")
        if not 0.0 <= epsilon < 1.0:
            raise ValueError("epsilon must be in [0,1)")
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

    def to_json(self):
        obj = {"kind": self.kind}
        if self.kind == "imae":
            obj["tau"] = self.tau
        if self.kind == "smooth_kl":
            obj["epsilon"] = self.epsilon
        if self.kind in ("backward", "forward"):
            obj["transition"] = self.transition.to_json()
        if self.kind == "backward":
            obj["base"] = self.base
        return obj

    @classmethod
    def from_json(cls, obj):
        from .noise import TransitionMatrix
        kw = dict(obj)
        kind = kw.pop("kind")
        if "transition" in kw:
            kw["transition"] = TransitionMatrix.from_json(kw["transition"])
        return cls(kind, **kw)


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
    onehot = np.zeros_like(P)
    onehot[rows, y] = 1.0
    if spec.kind == "ce":
        return -np.log(np.maximum(p_y, LOG_CLAMP)), P - onehot
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
        log_q = np.log(np.where(q > 0, q, 1.0))
        values = np.sum(q * (log_q - np.log(np.maximum(P, LOG_CLAMP))),
                        axis=1)
        return values, P - q
    if spec.kind == "backward":
        # Patrini backward correction: component y of T^{-1} l(p); may be
        # negative, which unbiasedness requires
        W = spec.t_inv[y]
        values = np.sum(W * loss_vector(spec.base, P), axis=1)
        if spec.base == "ce":
            return values, W.sum(axis=1, keepdims=True) * P - W
        WP = W * P
        return values, 2.0 * (WP.sum(axis=1, keepdims=True) * P - WP)
    if spec.kind == "forward":
        values, G, _ = mixed_ce(spec.transition.t, P, y)
        return values, G
    raise ValueError(spec.kind)


def mixed_ce(T, probs, y):
    """CE of q = T^T p against label y, batched (Patrini forward correction;
    also the noise-adaptation layer with T its realized transition). Returns
    (values, gradients wrt the logits, clamped q_y)."""
    cols = T[:, y].T  # row r: d q_{y_r} / d p
    q_y = np.maximum(np.sum(cols * probs, axis=1), LOG_CLAMP)
    V = -cols / q_y[:, None]
    return -np.log(q_y), grad_probs_to_logits(probs, V), q_y


def grad_probs_to_logits(probs, dl_dprobs):
    """Chain a gradient wrt softmax outputs through the softmax Jacobian;
    rows of (N, K) inputs are chained independently."""
    p = np.asarray(probs, dtype=np.float64)
    v = np.asarray(dl_dprobs, dtype=np.float64)
    if v.ndim == 1:
        return p * (v - float(v @ p))
    return p * (v - np.sum(v * p, axis=1, keepdims=True))


def loss_vector(base, probs):
    """Per-label loss vector: component j is the base loss if the label
    were j. Base is ce or mae."""
    p = np.asarray(probs, dtype=np.float64)
    if base == "ce":
        return -np.log(np.maximum(p, LOG_CLAMP))
    if base == "mae":
        return 2.0 * (1.0 - p)
    raise ValueError("loss_vector: base must be ce or mae")


def loss_value(spec, probs, y):
    """Scalar loss of one sample (iMAE reports the MAE value)."""
    return loss_and_grad(spec, np.asarray(probs)[None, :], [y])[0][0]


def loss_grad_logits(spec, probs, y):
    """Gradient wrt the logits of one sample's loss."""
    return loss_and_grad(spec, np.asarray(probs)[None, :], [y])[1][0]


# Per-sample forms of each loss, as named in the papers.

def ce(probs, y):
    """Cross-entropy -log p_y with the log clamped at 1e-12."""
    return loss_value(LossSpec("ce"), probs, y)


def ce_grad_logits(probs, y):
    return loss_grad_logits(LossSpec("ce"), probs, y)


def mae(probs, y):
    """l1 distance between one-hot truth and prediction: 2(1 - p_y)."""
    return loss_value(LossSpec("mae"), probs, y)


def mae_grad_logits(probs, y):
    """Gradient wrt logits; its l1 norm is exactly 4 p_y (1 - p_y)."""
    return loss_grad_logits(LossSpec("mae"), probs, y)


def imae_grad_logits(probs, y, tau=8.0):
    """MAE gradient direction rescaled to l1 norm exp(tau*p_y)(1-p_y)."""
    return loss_grad_logits(LossSpec("imae", tau=tau), probs, y)


def smooth_kl(probs, y, epsilon):
    """KL(q || p) against the smoothed one-hot target q."""
    return loss_value(LossSpec("smooth_kl", epsilon=epsilon), probs, y)


def smooth_kl_grad_logits(probs, y, epsilon):
    return loss_grad_logits(LossSpec("smooth_kl", epsilon=epsilon), probs, y)


def backward_corrected(T, probs, observed_y, base="ce"):
    """Patrini backward correction: component observed_y of T^{-1} l(p).
    May be negative; that is required for unbiasedness."""
    return loss_value(LossSpec("backward", transition=T, base=base), probs,
                      observed_y)


def forward_corrected(T, probs, observed_y):
    """Patrini forward correction: CE of q = T^T p against the observed
    label; q is a valid probability vector by stochastic mixing."""
    return loss_value(LossSpec("forward", transition=T), probs, observed_y)


def has_primitive_value(spec):
    """Whether finite differences of loss_value recover loss_grad_logits."""
    return spec.kind != "imae"
