"""Minimal differentiable classifiers: linear softmax and one-hidden-layer
ReLU network, with hand-derived gradients, a deterministic SGD trainer that
can step a stack of same-shape models in lockstep, and finite-difference
gradient verification.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field

import numpy as np

from .losses import LossSpec, loss_and_grad, loss_grad_logits, loss_value
from .numerics import Rng, softmax


ARCHS = ("linear", "mlp")


class DivergedError(RuntimeError):
    pass


class ModelParams:
    """Weights of a linear(d,K) or mlp(d,hidden,K) classifier. Parameters
    live in an ordered name->array dict so generic SGD and finite
    differences can walk them."""

    def __init__(self, arch, d, K, hidden=32):
        if arch not in ARCHS:
            raise ValueError(f"unknown arch: {arch}")
        self.arch = arch
        self.d = int(d)
        self.K = int(K)
        if (not isinstance(hidden, (int, np.integer))
                or isinstance(hidden, bool) or hidden < 1):
            raise ValueError(f"hidden must be an integer >= 1, got {hidden!r}")
        self.hidden = int(hidden)
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
        out = ModelParams(self.arch, self.d, self.K, self.hidden)
        out.arrays = {k: v.copy() for k, v in self.arrays.items()}
        return out

    def to_json(self):
        return {"arch": self.arch, "d": self.d, "K": self.K,
                "hidden": self.hidden,
                "arrays": {k: [format(v, ".17g") for v in a.ravel()]
                           for k, a in self.arrays.items()},
                "shapes": {k: list(a.shape) for k, a in self.arrays.items()}}

    @classmethod
    def from_json(cls, obj):
        out = cls(obj["arch"], obj["d"], obj["K"], hidden=obj["hidden"])
        for k, flat in obj["arrays"].items():
            out.arrays[k] = np.array([float(v) for v in flat]).reshape(
                obj["shapes"][k])
        return out


def init(arch, d, K, seed, hidden=32):
    """Scaled-uniform weight init U(-1/sqrt(fan_in), 1/sqrt(fan_in)),
    zero biases; deterministic per seed."""
    params = ModelParams(arch, d, K, hidden)
    rng = Rng(seed)
    for name, a in params.arrays.items():
        if name.startswith("W"):
            bound = 1.0 / np.sqrt(a.shape[0])
            params.arrays[name] = bound * (2.0 * rng.uniform(a.shape) - 1.0)
    return params


def forward_batch(params, X):
    """Logits for a batch; returns (logits, cache) with the cache holding
    the hidden activations the backward pass needs. Works on the last two
    axes, so a stacked model's (E, B, d) batch gives (E, B, K) logits."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[-1] != params.d:
        raise ValueError(f"expected {params.d} features, got {X.shape[-1]}")
    if params.arch == "linear":
        return (X @ params.arrays["W"] + params.arrays["b"][..., None, :],
                {"X": X})
    a1 = X @ params.arrays["W1"] + params.arrays["b1"][..., None, :]
    h = np.maximum(a1, 0.0)
    return (h @ params.arrays["W2"] + params.arrays["b2"][..., None, :],
            {"X": X, "a1": a1, "h": h})


def forward(params, x):
    logits, _ = forward_batch(params, np.asarray(x)[None, :])
    return logits[0]


def backward_batch(params, G, cache):
    """Parameter gradients given summed upstream logit gradients G (N x K),
    one row per batch row; a stacked model's N = E * B rows are reshaped
    back to (E, B, K). ReLU uses subgradient 0 at 0."""
    X = cache["X"]
    G = G.reshape(X.shape[:-1] + (params.K,))
    grads = {}
    if params.arch == "linear":
        grads["W"] = X.swapaxes(-1, -2) @ G
        grads["b"] = G.sum(axis=-2)
        return grads
    h = cache["h"]
    grads["W2"] = h.swapaxes(-1, -2) @ G
    grads["b2"] = G.sum(axis=-2)
    Gh = (G @ params.arrays["W2"].swapaxes(-1, -2)) * (cache["a1"] > 0)
    grads["W1"] = X.swapaxes(-1, -2) @ Gh
    grads["b1"] = Gh.sum(axis=-2)
    return grads


def backward(params, x, grad_wrt_logits):
    logits, cache = forward_batch(params, np.asarray(x)[None, :])
    return backward_batch(params, np.asarray(grad_wrt_logits)[None, :], cache)


def predict_probs(params, X):
    logits, _ = forward_batch(params, X)
    return softmax(logits)


def predict(params, X):
    return predict_probs(params, X).argmax(axis=-1)


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

    def __post_init__(self):
        for name, least in (("epochs", 1), ("batch_size", 1), ("seed", 0),
                            ("hidden", 1)):
            value = getattr(self, name)
            if (not isinstance(value, (int, np.integer))
                    or isinstance(value, bool) or value < least):
                raise ValueError(f"{name} must be an integer >= {least}, "
                                 f"got {value!r}")
        lr = self.learning_rate
        if not (isinstance(lr, numbers.Real) and lr >= 0):
            raise ValueError("learning_rate must be a number >= 0, got "
                             f"{lr!r}")
        if self.arch not in ARCHS:
            raise ValueError(f"arch must be one of {', '.join(ARCHS)}, got "
                             f"{self.arch!r}")


def minibatches(order, batch_size):
    """Consecutive index slices of `order` along its last axis; the last
    may be short. An (E, n) order of E models gives (E, B) index blocks."""
    for start in range(0, order.shape[-1], batch_size):
        yield order[..., start:start + batch_size]


def sgd_step(params, X, lr, batch_loss, epoch):
    """One SGD step on the batch X, the only place parameters are updated:
    forward, softmax, batch_loss(probs) -> (loss values (N,), dloss/dlogits
    (N, K)), backward, and a step of lr / B on every parameter array, B the
    batch rows per model. A stacked model's (E, B, d) batch steps its E
    models in lockstep; batch_loss still sees N = E * B rows, model by
    model. Returns the loss values, a row per model when stacked; raises
    DivergedError naming the epoch on a non-finite logit."""
    logits, cache = forward_batch(params, X)
    try:
        probs = softmax(logits.reshape(-1, params.K))  # rejects non-finite
    except ValueError as e:
        raise DivergedError(f"training diverged at epoch {epoch}") from e
    values, G = batch_loss(probs)
    grads = backward_batch(params, G, cache)
    scale = lr / X.shape[-2]
    for name, a in params.arrays.items():
        a -= scale * grads[name]
    return values.reshape(X.shape[:-2] + (-1,))


def sgd_epoch(params, batches, lr, batch_loss, epoch):
    """sgd_step over (X_batch, key) pairs, batch_loss(probs, key) seeing
    each batch's key (its indices, or its mixed targets). Returns the loss
    values of the epoch, concatenated along the last axis."""
    return np.concatenate([
        sgd_step(params, X, lr, lambda probs: batch_loss(probs, key), epoch)
        for X, key in batches], axis=-1)


def epoch_row(epoch, params, test_ds, **fields):
    """History row: the epoch, the given fields, and the accuracy of params
    against test_ds's truth (its labels when it has none) when a test set
    is attached; a list of E accuracies for a stacked model."""
    row = {"epoch": epoch, **fields}
    if test_ds is not None:
        row["test_accuracy"] = np.mean(
            predict(params, test_ds.features) == test_ds.truth,
            axis=-1).tolist()
    return row


def stack(models):
    """One ModelParams whose arrays carry a leading model axis E over the
    given same-shape models, so sgd_step trains them in lockstep."""
    out = models[0].copy()
    out.arrays = {k: np.stack([m.arrays[k] for m in models])
                  for k in out.arrays}
    return out


def unstack(params):
    """The E models of a stacked ModelParams, as separate copies."""
    models = []
    for e in range(len(next(iter(params.arrays.values())))):
        m = ModelParams(params.arch, params.d, params.K, params.hidden)
        m.arrays = {k: a[e].copy() for k, a in params.arrays.items()}
        models.append(m)
    return models


def fit(ds, config, batch_loss, test_ds=None, batches=None, params=None,
        seeds=None):
    """config.epochs epochs of sgd_epoch on params (fresh ones from
    config's architecture and seed when not given), shuffled by a stream
    seeded with config.seed. batches(order, rng) is called at the start of
    each epoch with its shuffled row order and gives the (X_batch, key)
    pairs; by default each minibatch's rows keyed by their indices.
    Returns (params, history), one epoch_row with the mean training loss
    per epoch; raises DivergedError if that mean is non-finite.

    Given E seeds, fit trains a stack of E models in lockstep, each
    initialized from and shuffled by its own seed, exactly as E separate
    fits with config.seed set to each: order is then (E, n), rng the list
    of the E streams, and the history's train_loss and test_accuracy are
    lists over the models. unstack splits the returned params."""
    stacked = seeds is not None
    seeds = list(seeds) if stacked else [config.seed]
    if params is None:
        models = [init(config.arch, ds.dim, ds.num_classes, s, config.hidden)
                  for s in seeds]
        params = stack(models) if stacked else models[0]
    streams = [Rng(s) for s in seeds]
    rng = streams if stacked else streams[0]
    if batches is None:
        def batches(order, rng):
            return ((ds.features[idx], idx.ravel())
                    for idx in minibatches(order, config.batch_size))
    history = []
    for epoch in range(config.epochs):
        orders = [r.permutation(ds.n) for r in streams]
        order = np.array(orders) if stacked else orders[0]
        values = sgd_epoch(params, batches(order, rng),
                           config.learning_rate, batch_loss, epoch)
        mean_loss = np.mean(values, axis=-1)
        if not np.all(np.isfinite(mean_loss)):
            raise DivergedError(f"training diverged at epoch {epoch}")
        history.append(epoch_row(epoch, params, test_ds,
                                 train_loss=mean_loss.tolist()))
    return params, history


def train(ds, config, test_ds=None, reweight=None):
    """Mini-batch SGD with per-epoch shuffling, deterministic per seed.
    Losses and their gradients are computed one batch at a time; the hook
    built from the reweight spec (see reweight.make_reweighter), if any, is
    asked once per batch for the weights of the batch's kept rows. Returns
    (params, history); history rows carry the epoch's mean training loss
    and clean-test accuracy when a test set is attached. Aborts with
    DivergedError if the mean epoch loss goes non-finite."""
    from .reweight import make_reweighter
    # made here, not by fit: batches() scores the kept set with them
    params = init(config.arch, ds.dim, ds.num_classes, config.seed,
                  config.hidden)
    reweighter = make_reweighter(reweight)
    X, y = ds.features, ds.labels
    keep = np.ones(ds.n, dtype=bool)

    def batches(order, rng):
        # the epoch's kept set is chosen before its first step
        kept = reweighter.epoch_kept_set(params, ds) if reweighter else None
        if kept is not None:
            keep[:] = False
            keep[np.fromiter(kept, dtype=np.intp, count=len(kept))] = True
        return ((X[idx], idx) for idx in minibatches(order, config.batch_size))

    def batch_loss(probs, idx):
        yb = y[idx]
        values, G = loss_and_grad(config.loss, probs, yb)
        w = keep[idx].astype(np.float64)
        if reweighter:
            rows = np.flatnonzero(w)
            hook_w = reweighter.batch_weights(values[rows], probs[rows],
                                              yb[rows])
            if hook_w is not None:
                w[rows] = hook_w
        return values, G * w[:, None]

    return fit(ds, config, batch_loss, test_ds, batches, params)


def save_params(params, path):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(params.to_json(), f, indent=2)


def load_params(path):
    with open(path, encoding="utf-8") as f:
        return ModelParams.from_json(json.load(f))
