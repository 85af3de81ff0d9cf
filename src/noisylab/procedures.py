"""Training-procedure remedies: mixup, co-teaching, disagreement-only
updates, dual-model iterative label update with a soft-label store, and
iterative label cleaning driven by a meta-classifier over prediction
features.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .losses import LossSpec, kl_to_targets, loss_and_grad, loss_vector
from .model import (DivergedError, ModelParams, epoch_row, fit,
                    forward_batch, init, predict, predict_probs, sgd_epoch,
                    stack, stack_batches, train)
from .noise import class_centroids
from .numerics import Rng, _check_args, softmax

CE = LossSpec("ce")
DUAL_RELABEL_WARMUP_EPOCHS = 5  # each model's, before the first relabel


# --- soft-label store -------------------------------------------------------

class SoftLabelStore:
    """Per-sample label state with provenance; a row's provenance epoch only
    moves forward. `targets` (n, K) holds each row's one-hot or soft target
    and is the single source of truth; `is_soft` says which rows are soft,
    and `epoch` and `source` say when and by which rule each row was last
    relabeled (source None: the row holds its original label)."""

    def __init__(self, labels, K):
        self.K = K
        self.targets = np.eye(K)[np.asarray(labels, dtype=np.int64)]
        self.is_soft = np.zeros(len(self.targets), dtype=bool)
        self.epoch = np.zeros(len(self.targets), dtype=np.int64)
        self.source = np.full(len(self.targets), None, dtype=object)

    def relabel_hard(self, rows, labels, epoch, source):
        """Set the distinct `rows` to the one-hot `labels` (one per row)."""
        self._relabel(rows, np.eye(self.K)[labels], False, epoch, source)

    def relabel_soft(self, rows, probs, epoch, source):
        """Set the distinct `rows` to the soft targets `probs` (m, K)."""
        self._relabel(rows, probs, True, epoch, source)

    def _relabel(self, rows, targets, soft, epoch, source):
        """Write the rows at `epoch` from `source`, one string or one per
        row. Every row's epoch is checked before any row is written, so a
        refused call changes nothing."""
        rows = np.asarray(rows, dtype=np.intp)
        relabeled = ~np.equal(self.source[rows], None)
        if np.any(relabeled & (epoch < self.epoch[rows])):
            raise ValueError("provenance epoch cannot move backwards")
        self.targets[rows] = targets
        self.is_soft[rows] = soft
        self.epoch[rows] = epoch
        self.source[rows] = source

    def hard_labels(self):
        """Argmax view (soft entries collapse to their mode)."""
        return self.targets.argmax(axis=1)

    def match_fraction(self, truth):
        return float(np.mean(self.hard_labels() == np.asarray(truth)))


# --- mixup ------------------------------------------------------------------

def mixup(X, Y_onehot, alpha, rng):
    """Convex combinations of the batch against a seeded shuffle of itself;
    one Beta(alpha, alpha) coefficient per pair, all drawn in one call."""
    _check_args("mixup", reals={"alpha": (alpha, "(0, inf)")})
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y_onehot, dtype=np.float64)
    perm = rng.permutation(len(X))
    lam = rng.beta(alpha, alpha, len(X))
    X_mix = lam[:, None] * X + (1.0 - lam[:, None]) * X[perm]
    Y_mix = lam[:, None] * Y + (1.0 - lam[:, None]) * Y[perm]
    return X_mix, Y_mix


def train_mixup(ds, config, test_ds=None, alpha=0.2):
    """SGD on mixup batches; soft targets trained with CE (grad p - y).
    Returns fit's (params, history), its model's rows mixed by its stream."""
    Y = np.eye(ds.num_classes)[ds.labels]
    source = stack_batches([ds], config.batch_size)

    def batches(order, rng):
        # lazy, so each batch's mixing draws follow the previous step
        for X, _, Yb in source(order, [Y]):
            X_mix, Y_mix = mixup(X[0], Yb[0], alpha, rng[0])
            yield X_mix[None], Y_mix

    def batch_loss(probs, Y_mix):
        return (np.add.reduce(Y_mix * loss_vector("ce", probs), axis=1),
                probs - Y_mix)

    return fit(ds, config, batch_loss, test_ds, batches)[0]


# --- peer models ------------------------------------------------------------

def small_loss_selection(probs, y, keep_fraction):
    """Indices of the keep_fraction smallest-CE samples, in order
    (predictions plus labels only; no other state). Works on the last axes,
    so a stack's (..., B, K) probabilities and (..., B) labels give each
    model's (..., n_keep) rows."""
    y = np.asarray(y)
    ce = loss_vector("ce", probs).reshape(-1, probs.shape[-1])
    losses = ce[np.arange(len(ce)), y.ravel()].reshape(y.shape)
    n_keep = max(1, int(round(keep_fraction * y.shape[-1])))
    order = np.argsort(losses, axis=-1, kind="stable")
    return np.sort(order[..., :n_keep], axis=-1)


def peer_rows(peers, X, y, keep_fraction=None):
    """The batch rows each model of a stack of P peer pairs [a0, b0, a1,
    b1, ...] steps on, from predictions taken before the step, as a list of
    (models, rows) groups: the models whose row sets have one size m > 0
    (an index array into the stack; None: every model) and their
    (len(models), m) rows. X (2P, B, d) and y (2P, B) are the batch and its
    labels as each model sees them. Given keep_fraction, a list of one per
    pair, co-teaching: each peer steps on the other's keep_fraction
    smallest-CE rows, and a keep_fraction that keeps the whole batch gives
    every row unranked. Without, disagreement: both peers step on the rows
    where their argmax predictions differ; the labels play no part."""
    P, B = len(X) // 2, X.shape[-2]
    if keep_fraction is None:
        preds = predict_probs(peers, X).argmax(axis=-1)
        differ = preds[0::2] != preds[1::2]  # (P, B)
        sizes = np.add.reduce(differ, axis=-1).tolist()
    else:
        _check_args("peer_rows", reals={
            f"keep_fraction[{p}]": (keep, "(0, 1]")
            for p, keep in enumerate(keep_fraction)})
        sizes = [max(1, int(round(keep * B))) for keep in keep_fraction]
        probs = None
    by_size = {}  # the pairs whose row sets have each size, in stack order
    for pair, m in enumerate(sizes):
        if m:  # a pair with no rows does not step
            by_size.setdefault(m, []).append(pair)
    groups = []
    for m, pairs in by_size.items():
        models = (None if len(pairs) == P  # every model
                  else (2 * np.array(pairs)[:, None] + (0, 1)).ravel())
        if keep_fraction is None:
            rows = differ if models is None else differ[pairs]
            rows = rows.nonzero()[1].reshape(-1, m).repeat(2, axis=0)
        elif m == B:
            rows = np.arange(B)[None].repeat(2 * len(pairs), axis=0)
        else:
            if probs is None:
                probs = predict_probs(peers, X)
            at = slice(None) if models is None else models
            rows = small_loss_selection(probs[at], y[at],
                                        keep_fraction[pairs[0]])
            # B's selection steps A, A's steps B
            rows = rows.reshape(-1, 2, m)[:, ::-1].reshape(-1, m)
        groups.append((models, rows))
    return groups


CO_TEACHING_WARM_EPOCHS = 5
CO_TEACHING_DECAY_EPOCHS = 10
CO_TEACHING_NOISE_RATE = 0.2  # train_co_teaching's default


def co_teaching_keep_schedule(epoch, noise_rate):
    """Keep everything for CO_TEACHING_WARM_EPOCHS epochs, then decay
    linearly to 1 - noise_rate over CO_TEACHING_DECAY_EPOCHS."""
    if epoch < CO_TEACHING_WARM_EPOCHS:
        return 1.0
    frac = min(1.0, (epoch - CO_TEACHING_WARM_EPOCHS + 1)
               / CO_TEACHING_DECAY_EPOCHS)
    return 1.0 - frac * noise_rate


def train_co_teaching(ds, config, test_ds=None,
                      noise_rate=CO_TEACHING_NOISE_RATE,
                      disagreement_only=False):
    """Two peer models trained with co-teaching, or with disagreement-only
    updates when disagreement_only is set; only co-teaching keeps a
    noise_rate schedule and reports its keep_fraction. Returns (peer a,
    peer b, history), the history fit's for peer a with each epoch's
    keep_fraction added.

    Given a list of views of one n, d and K in place of ds, and noise_rate
    one rate or a list of one per view, returns one such triple per view,
    each the one train_co_teaching gives on that view alone. Either way the
    2P peers [a0, b0, a1, b1, ...], each pair initialized from config.seed,
    are one stack in one shuffle (see stack_batches), a lone view a stack
    of one pair. Each batch, peer_rows ranks every peer in one forward
    pass, and the peers whose row sets have one size step together as one
    sub-stack; a batch that gives a pair no row steps neither peer."""
    views = ds if isinstance(ds, list) else [ds]
    P = len(views)
    source = stack_batches([v for v in views for _ in (0, 1)],
                           config.batch_size)  # a pair's peers on its view
    rates = noise_rate if isinstance(noise_rate, list) else [noise_rate] * P
    if len(rates) != P:
        raise ValueError(f"train_co_teaching: {P} views of one n, d and K "
                         f"need one noise_rate each, got {len(rates)}")
    for rate in rates:
        _check_args("train_co_teaching", reals={"noise_rate": (rate, "[0, 1)")})
    rng = Rng(config.seed)
    pair = [init(config.arch, views[0].dim, views[0].num_classes,
                 int(r.integers(0, 2**31)), config.hidden)
            for r in rng.split(2)]
    peers = stack(pair * P)
    keeps = [None if disagreement_only
             else [co_teaching_keep_schedule(epoch, r) for r in rates]
             for epoch in range(config.epochs)]
    schedule = iter(keeps)
    lead = np.arange(2 * P)[:, None]

    def batches(order, rng):
        # lazy, so each batch's rows come from the peers as last stepped
        keep = next(schedule)
        for X, y in source(order):
            for models, rows in peer_rows(peers, X, y, keep):
                if models is None and rows.shape[1] == X.shape[1]:
                    yield X, y.ravel()  # every peer on every row
                else:
                    at = lead if models is None else models[:, None]
                    yield X[at, rows], y[at, rows].ravel(), models

    # fit's stream is Rng(config.seed) too: split leaves it where it was
    fits = fit(views[0], config, lambda probs, y: loss_and_grad(CE, probs, y),
               test_ds, batches, peers)
    triples = []
    for p, ((a, rows), (b, _)) in enumerate(zip(fits[::2], fits[1::2])):
        for row, keep in zip(rows, keeps):
            if keep is not None:
                row["keep_fraction"] = keep[p]
        triples.append((a, b, rows))
    return triples if views is ds else triples[0]


# --- dual models with iterative label update --------------------------------

def dual_relabel_epoch(model_small, model_large, ds, store, rng, lr,
                       batch_size, epoch, own=None):
    """One round of dual-model training plus the end-of-epoch relabel rule.
    Each model trains one epoch in which a sample's target is whichever of
    (stored label, the peer's hard prediction from before the round)
    yields the lower loss. Then a sample's stored label is replaced by a
    model's hard prediction when exactly one model's prediction beats the
    stored label's loss, and by the average of the two predicted
    distributions (soft) when both do. own holds the models' (2, n) argmax
    predictions on ds, small's first, as the last round left them (None:
    predicted here); returns them as this round leaves them."""
    models = (model_small, model_large)
    if own is None:
        own = np.array([predict(m, ds.features) for m in models])
    # kl_to_targets against the store, its log terms taken once (the store
    # changes only after training); a one-hot peer target's KL is exactly
    # the CE of its label
    nz = store.targets > 0
    log_stored = np.log(np.where(nz, store.targets, 1.0))
    eye = np.eye(store.K)

    def batch_loss(probs, key):
        nz, stored, log_stored, peer = key
        ce = loss_vector("ce", probs)
        l_stored = np.add.reduce(np.where(nz, stored * (log_stored + ce),
                                          0.0), axis=-1)
        l_peer = ce[np.arange(len(ce)), peer]
        return (np.minimum(l_stored, l_peer),
                probs - np.where((l_stored <= l_peer)[:, None], stored,
                                 eye[peer]))

    source = stack_batches([ds], batch_size)
    for params, peer, stream in zip(models, own[::-1], rng.split(2)):
        batches = ((X[0], [k[0] for k in key]) for X, _, *key in source(
            stream.permutation(ds.n), [nz], [store.targets], [log_stored],
            [peer]))
        sgd_epoch(params, batches, lr, batch_loss, epoch)
    preds = np.array([predict_probs(m, ds.features) for m in models])
    own = preds.argmax(axis=-1)  # (2, n): small's, then large's
    wins = kl_to_targets(preds, eye[own]) < kl_to_targets(preds, store.targets)
    one = np.flatnonzero(wins[0] ^ wins[1])
    store.relabel_hard(one, np.where(wins[0], own[0], own[1])[one], epoch,
                       np.where(wins[0][one], "small", "large"))
    both = np.flatnonzero(wins[0] & wins[1])
    store.relabel_soft(both, 0.5 * (preds[0][both] + preds[1][both]), epoch,
                       "both")
    return own


def train_dual_relabel(ds, config, test_ds=None):
    """Full dual-model procedure: mlps 0.8 and 1.25 times config.hidden
    wide warm up on the noisy labels for DUAL_RELABEL_WARMUP_EPOCHS, then
    alternate training against the store with end-of-epoch relabeling,
    each round's peer targets the predictions the last round ended on."""
    rng = Rng(config.seed)
    seed_a, seed_b = (int(r.integers(0, 2**31)) for r in rng.split(2))
    store = SoftLabelStore(ds.labels, ds.num_classes)
    warm_cfg = replace(config, epochs=DUAL_RELABEL_WARMUP_EPOCHS, arch="mlp")
    model_small, _ = train(ds, replace(warm_cfg, seed=seed_a,
                                       hidden=round(config.hidden * 0.80)))
    model_large, _ = train(ds, replace(warm_cfg, seed=seed_b,
                                       hidden=round(config.hidden * 1.25)))
    history, own = [], None
    for epoch in range(config.epochs):
        own = dual_relabel_epoch(model_small, model_large, ds, store, rng,
                                 config.learning_rate, config.batch_size,
                                 epoch, own)
        history.append(epoch_row(epoch, model_small, test_ds))
    return model_small, model_large, store, history


# --- iterative label cleaning ----------------------------------------------

META_FEATURE_NAMES = ("loss", "max_prob", "margin", "disagreement",
                      "centroid_distance")

# Ridge on every meta-classifier weight, the bias too, against the mean
# logistic loss: small beside the data's curvature on standardised
# features (up to 0.25 per row), it only binds where the data leave a
# direction free, so a separable clean set or one without flips still has
# one finite optimum.
META_RIDGE = 1e-3
META_TOL = 1e-10  # largest Newton step entry at convergence
META_MAX_STEPS = 50


def cleaning_meta_features(ensemble, ds, labels):
    """Five per-sample features for the cleaning meta-classifier, from one
    forward pass of the stacked seed ensemble (see model.stack): CE loss of
    the observed label, max probability and top1-top2 margin of the first
    model, the ensemble's vote disagreement, and distance to the
    observed-class centroid. Returns the (n, 5) features and the first
    model's softmax outputs."""
    logits, _ = forward_batch(ensemble, ds.features)
    probs = softmax(logits[0])
    loss = loss_vector("ce", probs)[np.arange(ds.n), labels]
    sorted_p = np.sort(probs, axis=1)
    max_prob = sorted_p[:, -1]
    margin = sorted_p[:, -1] - sorted_p[:, -2]
    votes = logits.argmax(axis=-1)  # (E, n)
    counts = (votes[..., None] == np.arange(ensemble.K)).sum(axis=0)
    disagree = 1.0 - counts.max(axis=-1) / len(votes)
    cents = class_centroids(ds.features, labels, ds.num_classes)
    dist = np.linalg.norm(ds.features - cents[labels], axis=1)
    return np.column_stack([loss, max_prob, margin, disagree, dist]), probs


def fit_meta_classifier(features, target):
    """Ridge-penalised logistic regression of target (0/1) on the (n, d)
    features by Newton's method: each step solves the (d+1)-square Hessian
    of the mean logistic loss plus META_RIDGE/2 times the squared weights
    and bias, from zero weights, until the largest step entry is below
    META_TOL (at most META_MAX_STEPS steps). Returns a 2-class linear
    ModelParams whose class-0 column and bias are zero, so
    predict_probs(params, features)[:, 1] is the fitted probability;
    raises DivergedError on non-finite weights."""
    n, d = features.shape
    X = np.column_stack([features, np.ones(n)])
    ridge = META_RIDGE * np.eye(d + 1)
    theta = np.zeros(d + 1)
    params = ModelParams("linear", d, 2)
    for _ in range(META_MAX_STEPS):
        p = predict_probs(params, features)[:, 1]
        grad = X.T @ (p - target) / n + META_RIDGE * theta
        hess = (X.T * (p * (1.0 - p))) @ X / n + ridge
        step = np.linalg.solve(hess, grad)
        theta = theta - step
        if not np.isfinite(theta).all():
            raise DivergedError("meta-classifier fit diverged")
        params.arrays["W"][:, 1], params.arrays["b"][1] = theta[:d], theta[d]
        if np.abs(step).max() < META_TOL:
            break
    return params


def iterative_clean(ds_noisy, ds_clean_small, config, rounds=3,
                    threshold=0.5, ensemble_size=3):
    """Iterative label cleaning: train on current labels, score every sample
    with five meta-features, fit a logistic meta-classifier on the small
    clean set (target: observed label differs from truth), then relabel the
    noisy samples it flags with the base model's prediction. The
    meta-classifier is fit to convergence on the clean set's standardised
    features (see fit_meta_classifier), so its flags do not depend on where
    an optimiser stops. Each round's seed ensemble trains as one stack of
    models, each exactly as train would with its seed, scored in one pass.

    Returns (SoftLabelStore, flag indicator array, meta-classifier params,
    per-round history).
    """
    if ds_clean_small is None or ds_clean_small.true_labels is None:
        raise ValueError("iterative_clean: clean set with true labels required")
    _check_args("iterative_clean", {"rounds": (rounds, "[1, inf)"),
                                     "ensemble_size": (ensemble_size,
                                                       "[1, inf)")},
                {"threshold": (threshold, "[0, 1]")})
    rng = Rng(config.seed)
    store = SoftLabelStore(ds_noisy.labels, ds_noisy.num_classes)
    flags = np.zeros(ds_noisy.n, dtype=bool)
    meta_params = None
    history = []
    for rnd in range(rounds):
        labels = store.hard_labels()
        current = replace(ds_noisy.training_view(), labels=labels)
        seeds = [int(r.integers(0, 2**31)) for r in rng.split(ensemble_size)]
        ensemble = stack([model for model, _ in fit(
            current, config,
            lambda probs, idx: loss_and_grad(config.loss, probs, labels[idx]),
            seeds=seeds)])
        feats_clean, _ = cleaning_meta_features(ensemble, ds_clean_small,
                                                ds_clean_small.labels)
        target = (ds_clean_small.labels
                  != ds_clean_small.true_labels).astype(np.int64)
        mu, sd = feats_clean.mean(axis=0), feats_clean.std(axis=0) + 1e-9
        meta_params = fit_meta_classifier((feats_clean - mu) / sd, target)
        feats_noisy, base_probs = cleaning_meta_features(ensemble, ds_noisy,
                                                         labels)
        p_flip = predict_probs(meta_params, (feats_noisy - mu) / sd)[:, 1]
        base_pred = base_probs.argmax(axis=1)
        round_flags = p_flip > threshold
        changed = np.flatnonzero(round_flags & (base_pred != labels))
        store.relabel_hard(changed, base_pred[changed], rnd, "meta_clean")
        flags |= round_flags
        history.append({"round": rnd, "flagged": int(round_flags.sum()),
                        "relabeled": len(changed)})
    return store, flags, meta_params, history
