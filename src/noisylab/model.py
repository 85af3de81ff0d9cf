"""Minimal differentiable classifiers: linear softmax and one-hidden-layer
ReLU network, with hand-derived gradients, a deterministic SGD trainer that
can step a stack of same-shape models in lockstep, and finite-difference
gradient verification.
"""

from __future__ import annotations

import copy
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


def stack_batches(views, batch_size):
    """The batches of a stack of E models in one shuffle, model e on
    views[e], once the views are checked to have one n, d and K: returns
    batches(order, *columns), which yields each minibatch of the epoch's
    (n,) order as [X, y, *rows], the (E, B, d) features, (E, B) labels and
    (E, B) rows of each column, a list of one (n,) array per model. Each
    distinct array is gathered once per epoch, and one that every model
    has is broadcast over the stack (np.broadcast_to), never copied."""
    if len({(v.n, v.dim, v.num_classes) for v in views}) != 1:
        raise ValueError("a stack takes one or more views of one n, d and K")

    def gather(arrays, order):
        distinct = {id(a): a for a in arrays}  # each gathered once
        rows = {key: a[order] for key, a in distinct.items()}
        if len(rows) == 1:
            g, = rows.values()
            return np.broadcast_to(g, (len(arrays),) + g.shape)
        return np.stack([rows[id(a)] for a in arrays])

    def batches(order, *columns):
        gathered = [gather(arrays, order) for arrays in (
            [v.features for v in views], [v.labels for v in views],
            *columns)]
        for start in range(0, len(order), batch_size):
            yield [g[:, start:start + batch_size] for g in gathered]

    return batches


def sgd_epoch(params, batches, lr, batch_loss, epoch):
    """One SGD step per (X, key) pair of batches, the only place parameters
    are updated: forward, softmax, batch_loss(probs, key) -> (loss values
    (N,), dloss/dlogits (N, K)), backward, and a step of lr / B on every
    parameter array, B the batch rows per model. A stacked model's (E, B,
    d) batch steps its E models in lockstep; batch_loss still sees N = E *
    B rows, model by model. An (X, key, models) triple steps only the
    models that the index array models names (all when it is None), on
    their (len(models), B, d) rows, and leaves the others as they are.

    Returns each model's loss values over the epoch's steps: one array for
    a single model, a list of E arrays for a stack (an empty one for a
    model no step reached), None when there was no step at all. Raises
    DivergedError naming the epoch on a non-finite logit; X goes unchecked."""
    values, subs = [], {}  # subs: the models of each sub-stack step
    for batch in batches:
        X, key = batch[0], batch[1]
        models = batch[2] if len(batch) > 2 else None
        step = params
        if models is not None:  # a sub-stack, stepped on a copy of its arrays
            step = copy.copy(params)
            step.arrays = {k: a[models] for k, a in params.arrays.items()}
        logits, cache = _forward(step, X)
        try:
            probs = softmax(logits.reshape(-1, params.K))  # rejects non-finite
        except ValueError as e:
            raise DivergedError(f"training diverged at epoch {epoch}") from e
        step_values, G = batch_loss(probs, key)
        grads = backward_batch(step, G, cache)
        scale = lr / X.shape[-2]
        for name, a in step.arrays.items():
            a -= scale * grads[name]
        if models is not None:
            subs[len(values)] = models
            for name, a in step.arrays.items():
                params.arrays[name][models] = a
        values.append(step_values.reshape(X.shape[:-2] + (-1,)))
    if not values:
        return None
    if not subs:  # every step stepped every model
        joined = np.concatenate(values, axis=-1)
        return list(joined) if joined.ndim > 1 else joined
    per_model = [[] for _ in next(iter(params.arrays.values()))]
    for i, v in enumerate(values):
        for e, row in zip(subs.get(i, range(len(v))), v):
            per_model[e].append(row)
    return [np.concatenate(rows) if rows else np.empty(0)
            for rows in per_model]


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
    """config.epochs epochs of sgd_epoch on params, fresh ones from
    config's architecture when not given: one model from config.seed, or a
    stack of one from each of seeds. batches(order, rng), called at the
    start of each epoch with its shuffled row order, gives the (X_batch,
    key) pairs; by default each minibatch's rows, model by model, keyed by
    their indices. Returns (params, history), one epoch_row per epoch with
    the mean training loss of its steps, if any; raises DivergedError if
    that mean is non-finite, and ValueError if params do not fit ds's d.

    A stack of E models trains in lockstep, and the history's train_loss
    and test_accuracy are lists over the models, train_loss None for a
    model no step of the epoch reached. Each model shuffles by its seed,
    config.seed without seeds, and models with one seed share one stream
    and one permutation per epoch, drawn once, so each model trains as its
    own fit with config.seed set to its seed. order is (n,) and rng the
    stream, or given seeds (E, n) and a list, one row and stream per model."""
    stacked = seeds is not None
    seeds = list(seeds) if stacked else [config.seed]
    if params is None:
        models = [init(config.arch, ds.dim, ds.num_classes, s, config.hidden)
                  for s in seeds]
        params = stack(models) if stacked else models[0]
    if params.d != ds.dim:
        raise ValueError(f"expected {params.d} features, got {ds.dim}")
    streams = {s: Rng(s) for s in seeds}  # one per distinct seed
    rng = [streams[s] for s in seeds] if stacked else streams[config.seed]
    if batches is None:
        def batches(order, rng):
            return ((X, idx.ravel()) for idx, X in
                    epoch_batches(order, config.batch_size, ds.features))
    history = []
    for epoch in range(config.epochs):
        perms = {s: r.permutation(ds.n) for s, r in streams.items()}
        order = (np.array([perms[s] for s in seeds]) if stacked
                 else perms[config.seed])
        values = sgd_epoch(params, batches(order, rng),
                           config.learning_rate, batch_loss, epoch)
        fields = {}
        if values is not None:
            per_model = isinstance(values, list)  # a stack's
            means = [np.mean(v).item() if v.size else None
                     for v in (values if per_model else [values])]
            if not all(np.isfinite(m) for m in means if m is not None):
                raise DivergedError(f"training diverged at epoch {epoch}")
            fields["train_loss"] = means if per_model else means[0]
        history.append(epoch_row(epoch, params, test_ds, **fields))
    return params, history


def train(ds, config, test_ds=None, reweight=None):
    """Mini-batch SGD with per-epoch shuffling, deterministic per seed. The
    hook built from the reweight spec (see reweight.make_reweighter), if
    any, gives each epoch's kept mask, and one whose batch_weights is not
    None is asked once per batch for the weights of the batch's kept rows.
    Returns (params, history); history rows carry the epoch's mean
    training loss and clean-test accuracy when a test set is attached.
    Aborts with DivergedError if the mean epoch loss goes non-finite.

    Given a list of training views of one shape (n, d and K) in place of
    ds, train returns one (params, history) per view, each the pair train
    gives on that view alone; reweight is then one spec for every view or
    a list of one per view. Either way the views train as one stack of
    models from config.seed in one shuffle (see stack_batches), each on its
    own view's labels, hook and kept mask; a lone view is a stack of one."""
    from .reweight import make_reweighter
    views = ds if isinstance(ds, list) else [ds]
    source = stack_batches(views, config.batch_size)
    n, E = views[0].n, len(views)
    specs = reweight if isinstance(reweight, list) else [reweight] * E
    if len(specs) != E:
        raise ValueError(f"train: {E} views need one reweight spec each, "
                         f"got {len(specs)}")
    # made here, not by fit: batches() scores the kept sets with them
    params = stack([init(config.arch, views[0].dim, views[0].num_classes,
                         config.seed, config.hidden)] * E)
    hooks = [make_reweighter(spec) for spec in specs]
    hooked = [e for e, hook in enumerate(hooks) if hook is not None]
    weighing = [e for e in hooked if hooks[e].batch_weights is not None]
    keep = [np.ones(n, dtype=bool)] * E  # each model's kept mask

    def batches(order, rng):
        # the epoch's kept masks are chosen before its first step
        models = unstack(params) if hooked else []
        for e in hooked:
            kept = hooks[e].epoch_kept_set(models[e], views[e])
            if kept is not None:
                keep[e] = kept
        # (E, B) rows, model by model as sgd_epoch's probs has them
        return ((X, (yb.ravel(), kb.ravel()))
                for X, yb, kb in source(order, keep))

    def batch_loss(probs, key):
        yb, kb = key
        values, G = loss_and_grad(config.loss, probs, yb)
        if not hooked:
            return values, G
        if not weighing:  # bit-equal to the 0/1 weights as floats
            return values, G * kb[:, None]
        w = kb.astype(np.float64)
        B = len(w) // E
        for e in weighing:  # on its own model's kept rows
            rows = e * B + kb[e * B:(e + 1) * B].nonzero()[0]
            w[rows] = hooks[e].batch_weights(values[rows], probs[rows],
                                             yb[rows])
        return values, G * w[:, None]

    params, history = fit(views[0], config, batch_loss, test_ds, batches,
                          params)
    fits = [(model, [{k: v[e] if isinstance(v, list) else v
                      for k, v in row.items()} for row in history])
            for e, model in enumerate(unstack(params))]
    return fits if views is ds else fits[0]
