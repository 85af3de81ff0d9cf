"""Minimal differentiable classifiers: linear softmax and one-hidden-layer
ReLU network, with hand-derived gradients, a deterministic SGD trainer that
can step a stack of same-shape models in lockstep, and finite-difference
gradient verification.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .losses import LossSpec, loss_and_grad, loss_value
from .numerics import Rng, _check_args, softmax


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
        _check_args(None, {"hidden": (hidden, ">= 1")})
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
    return _forward(params, X)


def _forward(params, X):
    """forward_batch on a float64 batch already checked against params."""
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
        grads["b"] = np.add.reduce(G, axis=-2)
        return grads
    h = cache["h"]
    grads["W2"] = h.swapaxes(-1, -2) @ G
    grads["b2"] = np.add.reduce(G, axis=-2)
    Gh = (G @ params.arrays["W2"].swapaxes(-1, -2)) * (cache["a1"] > 0)
    grads["W1"] = X.swapaxes(-1, -2) @ Gh
    grads["b1"] = np.add.reduce(Gh, axis=-2)
    return grads


def predict_probs(params, X):
    logits, _ = forward_batch(params, X)
    return softmax(logits)


def predict(params, X):
    return predict_probs(params, X).argmax(axis=-1)


def grad_check(params, x, y, loss_spec, epsilon=1e-6):
    """Central finite differences over every parameter entry; returns the
    max relative error against the analytic gradient."""
    _check_args("grad_check", reals={"epsilon": (epsilon, "[1e-8, 1e-4]")})
    x = np.asarray(x, dtype=np.float64)

    def value():
        probs = softmax(forward(params, x))
        return loss_value(loss_spec, probs, y)

    logits, cache = forward_batch(params, x[None, :])
    _, G = loss_and_grad(loss_spec, softmax(logits), [y])
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
        # the config's train keys: named as given, without a prefix
        _check_args(None, {"epochs": (self.epochs, ">= 1"),
                           "batch_size": (self.batch_size, ">= 1"),
                           "seed": (self.seed, ">= 0"),
                           "hidden": (self.hidden, ">= 1")},
                    {"learning_rate": (self.learning_rate, ">= 0")})
        if self.arch not in ARCHS:
            raise ValueError(f"arch must be one of {', '.join(ARCHS)}, got "
                             f"{self.arch!r}")


def epoch_batches(order, batch_size, *arrays):
    """Each minibatch of `order` as a list [indices, *rows]: every array is
    gathered once in epoch order, array[order], and a batch's rows are a
    slice of that along order's last axis ((E, B, ...) for an (E, n) order)."""
    gathered = [order, *(a[order] for a in arrays)]
    lead = (slice(None),) * (order.ndim - 1)
    for start in range(0, order.shape[-1], batch_size):
        rows = lead + (slice(start, start + batch_size),)
        yield [g[rows] for g in gathered]


def sgd_epoch(params, batches, lr, batch_loss, epoch):
    """One SGD step per (X, key) pair of batches, the only place parameters
    are updated: forward, softmax, batch_loss(probs, key) -> (loss values
    (N,), dloss/dlogits (N, K)), backward, and a step of lr / B on every
    parameter array, B the batch rows per model. The key is the batch's
    indices or its mixed targets. A stacked model's (E, B, d) batch steps
    its E models in lockstep; batch_loss still sees N = E * B rows, model
    by model. Returns the epoch's loss values joined along the last axis, a
    row per model when stacked (None: no batch); raises DivergedError
    naming the epoch on a non-finite logit. X (dataset rows) is used as
    given; forward_batch is the one that converts and checks."""
    values = []
    for X, key in batches:
        logits, cache = _forward(params, X)
        try:
            probs = softmax(logits.reshape(-1, params.K))  # rejects non-finite
        except ValueError as e:
            raise DivergedError(f"training diverged at epoch {epoch}") from e
        step_values, G = batch_loss(probs, key)
        grads = backward_batch(params, G, cache)
        scale = lr / X.shape[-2]
        for name, a in params.arrays.items():
            a -= scale * grads[name]
        values.append(step_values.reshape(X.shape[:-2] + (-1,)))
    return np.concatenate(values, axis=-1) if values else None


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
    given same-shape models, so sgd_epoch trains them in lockstep."""
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
    Returns (params, history), one epoch_row per epoch with the mean
    training loss of its steps, if any; raises DivergedError if that mean
    is non-finite.

    A stack of E models trains in lockstep, and the history's train_loss
    and test_accuracy are lists over the models; unstack splits the
    returned params. Given E seeds, fit makes the stack, each model
    initialized from and shuffled by its own seed, exactly as E separate
    fits with config.seed set to each: order is then (E, n) and rng the
    list of the E streams. A stack given as params without seeds shares
    config.seed's one shuffle, and batches gives each model's rows as an
    (E, m, d) block; fit checks the model's feature count against ds once."""
    stacked = seeds is not None
    seeds = list(seeds) if stacked else [config.seed]
    if params is None:
        models = [init(config.arch, ds.dim, ds.num_classes, s, config.hidden)
                  for s in seeds]
        params = stack(models) if stacked else models[0]
    if params.d != ds.dim:
        raise ValueError(f"expected {params.d} features, got {ds.dim}")
    streams = [Rng(s) for s in seeds]
    rng = streams if stacked else streams[0]
    if batches is None:
        def batches(order, rng):
            return ((X, idx.ravel()) for idx, X in
                    epoch_batches(order, config.batch_size, ds.features))
    history = []
    for epoch in range(config.epochs):
        orders = [r.permutation(ds.n) for r in streams]
        order = np.array(orders) if stacked else orders[0]
        values = sgd_epoch(params, batches(order, rng),
                           config.learning_rate, batch_loss, epoch)
        fields = {}
        if values is not None:
            mean_loss = np.mean(values, axis=-1)
            if not np.all(np.isfinite(mean_loss)):
                raise DivergedError(f"training diverged at epoch {epoch}")
            fields["train_loss"] = mean_loss.tolist()
        history.append(epoch_row(epoch, params, test_ds, **fields))
    return params, history


def train(ds, config, test_ds=None, reweight=None):
    """Mini-batch SGD with per-epoch shuffling, deterministic per seed.
    Losses and their gradients are computed one batch at a time; the hook
    built from the reweight spec (see reweight.make_reweighter), if any,
    gives each epoch's kept mask and is asked once per batch for the
    weights of the batch's kept rows. Returns (params, history); history
    rows carry the epoch's mean training loss and clean-test accuracy when
    a test set is attached. Aborts with DivergedError if the mean epoch
    loss goes non-finite.

    Given a list of training views of one shape (n, d and K) in place of
    ds, train returns one (params, history) per view, each the pair train
    gives on that view alone. Either way the views train as one stack
    through fit's seeds path, every model from config.seed and with its
    own view's labels, hook and kept mask; a lone view is a stack of one."""
    from .reweight import make_reweighter
    views = ds if isinstance(ds, list) else [ds]
    if len({(v.n, v.dim, v.num_classes) for v in views}) != 1:
        raise ValueError("train: a stack takes one or more views of one "
                         "n, d and K")
    n, E = views[0].n, len(views)
    # made here, not by fit: batches() scores the kept sets with them
    params = stack([init(config.arch, views[0].dim, views[0].num_classes,
                         config.seed, config.hidden)] * E)
    hooks = [make_reweighter(reweight) for _ in views]
    # the views' rows end to end, and the row each view starts at
    features, labels = (np.concatenate([getattr(v, a) for v in views])
                        for a in ("features", "labels"))
    first = n * np.arange(E)[:, None]
    keep = np.ones(n * E, dtype=bool)

    def batches(order, rng):
        # the epoch's kept masks are chosen before its first step
        if hooks[0] is not None:
            kept = [h.epoch_kept_set(m, v)
                    for h, m, v in zip(hooks, unstack(params), views)]
            if kept[0] is not None:
                keep[:] = np.concatenate(kept)
        # (E, B) rows, model by model as sgd_epoch's probs has them
        return ((X, (yb.ravel(), kb.ravel())) for _, X, yb, kb in
                epoch_batches(order + first, config.batch_size, features,
                              labels, keep))

    def batch_loss(probs, key):
        yb, kb = key
        values, G = loss_and_grad(config.loss, probs, yb)
        if hooks[0] is None:
            return values, G
        w = kb.astype(np.float64)
        B = len(w) // E
        for e, hook in enumerate(hooks):  # on its own model's kept rows
            rows = e * B + w[e * B:(e + 1) * B].nonzero()[0]
            hook_w = hook.batch_weights(values[rows], probs[rows], yb[rows])
            if hook_w is not None:
                w[rows] = hook_w
        return values, G * w[:, None]

    params, history = fit(views[0], config, batch_loss, test_ds, batches,
                          params, seeds=[config.seed] * E)
    fits = [(model, [{k: v[e] if isinstance(v, list) else v
                      for k, v in row.items()} for row in history])
            for e, model in enumerate(unstack(params))]
    return fits if views is ds else fits[0]
