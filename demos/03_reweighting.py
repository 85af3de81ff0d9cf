"""Sample re-weighting rules for suspected label noise.

Four rules that decide, per sample, whether (or how strongly) it should
contribute to the update: a running-statistics loss filter, confidence
rank-pruning, loss trimming, and the transition-aware scaled-ascent rule.
"""

import numpy as np

from noisylab.data import gen_blobs
from noisylab.losses import LossSpec
from noisylab.model import TrainConfig, predict_probs, train
from noisylab.noise import TransitionMatrix, inject, symmetric_transition
from noisylab.numerics import Rng
from noisylab.reweight import (RunningLossFilter, make_reweighter,
                               rank_prune, trimmed_filter)

# -- running loss filter: skip outliers beyond mean + 1.5 sigma --------------
f = RunningLossFilter(window=100, multiplier=1.5, warmup=30)
rng = Rng(1)
losses = 1.0 + 0.2 * rng.normal(500)
losses[::50] += 3.0  # plant some outliers
n_skip = f.observe_batch(losses).sum()  # each decided as if one by one
print(f"running filter: skipped {n_skip}/500 losses "
      f"(planted 10 outliers; ~1.5-sigma tail adds a few more)")

# -- rank pruning on a trained model's confidences ---------------------------
full = gen_blobs(2, 500, 2, 8.0, 5)
noisy = inject(full, symmetric_transition(2, 0.3), Rng(50))
view = noisy.training_view()
params, _ = train(view, TrainConfig(epochs=10, seed=51,
                                    loss=LossSpec("mae")))
probs = predict_probs(params, view.features)
conf = probs[np.arange(view.n), view.labels]

kept = rank_prune(conf, view.labels, prune_fraction=0.3)
flagged = ~kept  # rank_prune returns the kept mask
true_flip = noisy.labels != noisy.true_labels
tp = np.sum(flagged & true_flip)
print(f"\nrank pruning (drop lowest 30% confidence per class):")
print(f"  flagged {flagged.sum()} samples; true flips {true_flip.sum()}")
print(f"  precision {tp / flagged.sum():.3f}, recall "
      f"{tp / true_flip.sum():.3f}")

# -- trimmed filter: drop the largest losses each epoch ----------------------
epoch_losses = -np.log(np.clip(conf, 1e-12, None))
kept_t = trimmed_filter(epoch_losses, trim_fraction=0.3)
flagged_t = ~kept_t
tp_t = np.sum(flagged_t & true_flip)
print(f"\nloss trimming (drop top 30% losses): precision "
      f"{tp_t / flagged_t.sum():.3f}, recall {tp_t / true_flip.sum():.3f}")

# -- transition-aware scaled ascent ------------------------------------------
# When 1^T T^{-1} l < 0 the sample's corrected loss mass points the wrong
# way, so its gradient is applied with a small negative weight instead.
T = TransitionMatrix(np.array([[0.9, 0.1], [0.6, 0.4]]))
p_suspicious = np.exp([-2.0, -0.1])   # losses l = [2.0, 0.1]
p_benign = np.exp([-0.1, -2.0])
hook = make_reweighter({"kind": "pumpout", "transition": T, "gamma": 0.1})
# the weights of a batch of two rows, both observed as class 0 (the rule
# reads only the probabilities)
w_benign, w_suspicious = hook.batch_weights(
    np.zeros(2), np.array([p_benign, p_suspicious]), np.zeros(2, dtype=int))
print("\nscaled-ascent rule with an asymmetric transition:")
print(f"  benign sample weight:     {w_benign:+.2f}")
print(f"  suspicious sample weight: "
      f"{w_suspicious:+.2f} (gentle un-learning)")
