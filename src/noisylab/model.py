"""Minimal differentiable classifiers: linear softmax and one-hidden-layer
ReLU network, with hand-derived gradients, an optional noise-adaptation
output layer, a deterministic SGD trainer, and finite-difference gradient
verification.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .losses import (LossSpec, loss_and_grad, loss_grad_logits, loss_value,
                     mixed_ce)
from .numerics import Rng, softmax


class DivergedError(RuntimeError):
    pass


class ModelParams:
    """Weights of a linear(d,K) or mlp(d,h,K) classifier. The mlp hidden
    width is round(hidden * capacity_scale). Parameters live in an ordered
    name->array dict so generic SGD and finite differences can walk them."""

    def __init__(self, arch, d, K, hidden=32, capacity_scale=1.0):
        if arch not in ("linear", "mlp"):
            raise ValueError(f"unknown arch: {arch}")
        self.arch = arch
        self.d = int(d)
        self.K = int(K)
        self.hidden = max(1, int(round(hidden * capacity_scale)))
        self.noise_layer = None  # K x K unconstrained q, or None
        self.arrays = {}
        if arch == "linear":
            self.arrays["W"] = np.zeros((d, K))
            self.arrays["b"] = np.zeros(K)
        else:
            h = self.hidden
            self.arrays["W1"] = np.zeros((d, h))
            self.arrays["b1"] = np.zeros(h)
            self.arrays["W2"] = np.zeros((h, K))
            self.arrays["b2"] = np.zeros(K)

    def copy(self):
        out = ModelParams(self.arch, self.d, self.K, self.hidden, 1.0)
        out.hidden = self.hidden
        out.arrays = {k: v.copy() for k, v in self.arrays.items()}
        if self.noise_layer is not None:
            out.noise_layer = self.noise_layer.copy()
        return out

    def to_json(self):
        obj = {"arch": self.arch, "d": self.d, "K": self.K,
               "hidden": self.hidden,
               "arrays": {k: [format(v, ".17g") for v in a.ravel()]
                          for k, a in self.arrays.items()},
               "shapes": {k: list(a.shape) for k, a in self.arrays.items()}}
        if self.noise_layer is not None:
            obj["noise_layer"] = [format(v, ".17g")
                                  for v in self.noise_layer.ravel()]
        return obj

    @classmethod
    def from_json(cls, obj):
        out = cls(obj["arch"], obj["d"], obj["K"], hidden=obj["hidden"])
        out.hidden = obj["hidden"]
        for k, flat in obj["arrays"].items():
            out.arrays[k] = np.array([float(v) for v in flat]).reshape(
                obj["shapes"][k])
        if "noise_layer" in obj:
            out.noise_layer = np.array(
                [float(v) for v in obj["noise_layer"]]).reshape(out.K, out.K)
        return out


def init(arch, d, K, seed, hidden=32, capacity_scale=1.0):
    """Scaled-uniform weight init U(-1/sqrt(fan_in), 1/sqrt(fan_in)),
    zero biases; deterministic per seed."""
    params = ModelParams(arch, d, K, hidden, capacity_scale)
    rng = Rng(seed)
    for name, a in params.arrays.items():
        if name.startswith("W"):
            bound = 1.0 / np.sqrt(a.shape[0])
            params.arrays[name] = bound * (2.0 * rng.uniform(a.shape) - 1.0)
    return params


def forward_batch(params, X):
    """Logits for a batch; returns (logits, cache) with the cache holding
    the hidden activations the backward pass needs."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != params.d:
        raise ValueError(f"expected {params.d} features, got {X.shape[1]}")
    if params.arch == "linear":
        return X @ params.arrays["W"] + params.arrays["b"], {"X": X}
    a1 = X @ params.arrays["W1"] + params.arrays["b1"]
    h = np.maximum(a1, 0.0)
    return h @ params.arrays["W2"] + params.arrays["b2"], {"X": X, "a1": a1,
                                                           "h": h}


def forward(params, x):
    logits, _ = forward_batch(params, np.asarray(x)[None, :])
    return logits[0]


def backward_batch(params, G, cache):
    """Parameter gradients given summed upstream logit gradients G (N x K).
    ReLU uses subgradient 0 at 0."""
    X = cache["X"]
    grads = {}
    if params.arch == "linear":
        grads["W"] = X.T @ G
        grads["b"] = G.sum(axis=0)
        return grads
    h = cache["h"]
    grads["W2"] = h.T @ G
    grads["b2"] = G.sum(axis=0)
    Gh = (G @ params.arrays["W2"].T) * (cache["a1"] > 0)
    grads["W1"] = X.T @ Gh
    grads["b1"] = Gh.sum(axis=0)
    return grads


def backward(params, x, grad_wrt_logits):
    logits, cache = forward_batch(params, np.asarray(x)[None, :])
    return backward_batch(params, np.asarray(grad_wrt_logits)[None, :], cache)


def predict_probs(params, X):
    logits, _ = forward_batch(params, X)
    return softmax(logits)


def predict(params, X):
    return predict_probs(params, X).argmax(axis=1)


def grad_check(params, x, y, loss_spec, epsilon=1e-6):
    """Central finite differences over every parameter entry; returns the
    max relative error against the analytic gradient."""
    if not 1e-8 <= epsilon <= 1e-4:
        raise ValueError("epsilon must be in [1e-8, 1e-4]")
    x = np.asarray(x, dtype=np.float64)

    def value():
        probs = softmax(forward(params, x))
        return loss_value(loss_spec, probs, y)

    probs = softmax(forward(params, x))
    G = loss_grad_logits(loss_spec, probs, y)[None, :]
    _, cache = forward_batch(params, x[None, :])
    analytic = backward_batch(params, G, cache)

    worst = 0.0
    for name, a in params.arrays.items():
        flat = a.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            up = value()
            flat[i] = orig - epsilon
            down = value()
            flat[i] = orig
            numeric = (up - down) / (2.0 * epsilon)
            ana = analytic[name].ravel()[i]
            rel = abs(ana - numeric) / max(1e-12, abs(ana) + abs(numeric))
            worst = max(worst, rel)
    return worst


# --- noise-adaptation output layer -----------------------------------------

def attach_noise_layer(params, diag=0.8):
    """Add a Sukhbaatar-style noise layer: unconstrained q whose row-softmax
    is the learned transition, initialized diagonal-dominant."""
    K = params.K
    q = np.full((K, K), np.log(max((1.0 - diag) / max(K - 1, 1), 1e-12)))
    np.fill_diagonal(q, np.log(diag))
    out = params.copy()
    out.noise_layer = q
    return out


def realized_transition(q):
    return softmax(q)  # row-wise


def noisy_forward(params, x):
    """Distribution over observed labels: (row-softmax q)^T softmax(logits).
    Test-time prediction uses the base softmax only."""
    if params.noise_layer is None:
        raise ValueError("model has no noise layer attached")
    p = softmax(forward(params, x))
    return realized_transition(params.noise_layer).T @ p


def noise_layer_grads(q, probs, observed_y, weigh):
    """CE through the noise layer for a batch of base softmax outputs probs
    (N, K). weigh maps the loss values (N,) to per-sample weights; a
    re-weight hook needs the values first. Returns (weighted dloss/dlogits
    (N, K), weighted sum of dloss/dq (K, K), loss values (N,))."""
    A = realized_transition(q)
    values, G, s_y = mixed_ce(A, probs, observed_y)
    w = weigh(values)
    # dloss_r/dA is -p_r / s_r in column y_r; sum those, then chain each row
    # through its softmax
    dA = (probs * (-w / s_y)[:, None]).T @ np.eye(len(A))[observed_y]
    gq = A * (dA - np.sum(dA * A, axis=1, keepdims=True))
    return w[:, None] * G, gq, values


# --- training ---------------------------------------------------------------

@dataclass
class TrainConfig:
    epochs: int = 30
    batch_size: int = 32
    learning_rate: float = 0.1
    seed: int = 0
    loss: LossSpec = field(default_factory=lambda: LossSpec("ce"))
    arch: str = "linear"
    hidden: int = 32
    capacity_scale: float = 1.0
    use_noise_layer: bool = False
    noise_layer_lr: float | None = None   # defaults to learning_rate
    reweight: object = None               # hook, see reweight module
    include_skipped_in_window: bool = True

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or self.learning_rate < 0:
            raise ValueError("invalid training configuration")


def train(ds, config, test_ds=None, params=None):
    """Mini-batch SGD with per-epoch shuffling, deterministic per seed.
    Losses and their gradients are computed one batch at a time; re-weight
    hooks are asked once per kept sample. Returns (params, history);
    history rows carry the epoch's mean training loss and clean-test
    accuracy when a test set is attached. Aborts with DivergedError if the
    mean epoch loss goes non-finite."""
    from .reweight import make_reweighter
    rng = Rng(config.seed)
    if params is None:
        params = init(config.arch, ds.dim, ds.num_classes, config.seed,
                      config.hidden, config.capacity_scale)
    else:
        params = params.copy()
    if config.use_noise_layer and params.noise_layer is None:
        params = attach_noise_layer(params)
    reweighter = make_reweighter(config.reweight)
    X, y = ds.features, ds.labels
    history = []
    for epoch in range(config.epochs):
        order = rng.permutation(ds.n)
        epoch_losses = []
        kept = reweighter.epoch_kept_set(params, ds) if reweighter else None
        keep = np.ones(ds.n, dtype=bool)
        if kept is not None:
            keep = np.zeros(ds.n, dtype=bool)
            keep[np.fromiter(kept, dtype=np.intp, count=len(kept))] = True
        for start in range(0, ds.n, config.batch_size):
            idx = order[start:start + config.batch_size]
            logits, cache = forward_batch(params, X[idx])
            if not np.all(np.isfinite(logits)):
                raise DivergedError(f"training diverged at epoch {epoch}")
            probs = softmax(logits)
            yb = y[idx]

            def weigh(values):
                w = keep[idx].astype(np.float64)
                if reweighter:
                    for r in np.flatnonzero(w):
                        w[r] *= reweighter.sample_weight(values[r], probs[r],
                                                         yb[r])
                return w

            if params.noise_layer is not None:
                G, gq, values = noise_layer_grads(params.noise_layer, probs,
                                                  yb, weigh)
            else:
                values, G = loss_and_grad(config.loss, probs, yb)
                G *= weigh(values)[:, None]
            epoch_losses.append(values)
            scale = config.learning_rate / len(idx)
            grads = backward_batch(params, G, cache)
            for name in params.arrays:
                params.arrays[name] -= scale * grads[name]
            if params.noise_layer is not None:
                q_lr = (config.noise_layer_lr
                        if config.noise_layer_lr is not None
                        else config.learning_rate)
                params.noise_layer -= (q_lr / len(idx)) * gq
        mean_loss = float(np.mean(np.concatenate(epoch_losses)))
        if not np.isfinite(mean_loss):
            raise DivergedError(f"training diverged at epoch {epoch}")
        row = {"epoch": epoch, "train_loss": mean_loss}
        if test_ds is not None:
            truth = (test_ds.true_labels if test_ds.true_labels is not None
                     else test_ds.labels)
            row["test_accuracy"] = float(
                np.mean(predict(params, test_ds.features) == truth))
        history.append(row)
    return params, history


def ensemble_disagreement(models, x):
    """1 - fraction of models voting with the ensemble majority class."""
    if len(models) < 2:
        raise ValueError("need at least 2 models")
    votes = np.array([int(np.argmax(forward(m, x))) for m in models])
    counts = np.bincount(votes, minlength=models[0].K)
    majority = int(counts.argmax())  # ties to lowest class index
    return 1.0 - counts[majority] / len(models)


def save_params(params, path):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(params.to_json(), f, indent=2)


def load_params(path):
    with open(path, encoding="utf-8") as f:
        return ModelParams.from_json(json.load(f))
