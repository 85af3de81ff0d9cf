"""Fusing labels from multiple imperfect annotators.

Simulates a panel of annotators with different error rates, then compares
majority vote, STAPLE's EM consensus (which also recovers each annotator's
confusion matrix), the per-sample min-loss label, and joint training that
learns per-annotator confusion matrices alongside the classifier.
"""

import numpy as np

from noisylab.annotators import (majority_vote, min_loss_labels, staple,
                                 train_with_confusion)
from noisylab.data import gen_blobs, split
from noisylab.model import TrainConfig, predict_probs, train
from noisylab.noise import simulate_annotators, symmetric_transition
from noisylab.numerics import Rng

# Five annotators, from careful (10% errors) to sloppy (30%).
rhos = [0.1, 0.15, 0.2, 0.25, 0.3]
full = gen_blobs(3, 1000, 2, 8.0, 9)
ds = simulate_annotators(full, [symmetric_transition(3, r) for r in rhos],
                         Rng(90))
L = ds.annotator_labels
truth = ds.true_labels

per_ann = [float(np.mean(L[:, a] == truth)) for a in range(5)]
print("single-annotator accuracies:", [f"{a:.3f}" for a in per_ann])

mv = majority_vote(L)  # one vote per row of the whole N x A panel
print(f"majority vote accuracy:      {np.mean(mv == truth):.3f}")

# -- STAPLE: EM over a latent true label and per-annotator confusions --------
post, model, fused, loglik = staple(L, 3)
print(f"STAPLE fused accuracy:       {np.mean(fused == truth):.3f} "
      f"({len(loglik) - 1} EM iterations, loglik {loglik[0]:.0f} -> "
      f"{loglik[-1]:.0f})")
print("recovered annotator reliabilities (mean confusion diagonal):")
for a, (T, rho) in enumerate(zip(model.confusions, rhos)):
    print(f"  annotator {a}: estimated {np.diag(T.t).mean():.3f}, "
          f"true {1 - rho:.2f}")

# -- min-loss label: pick the annotator the current model agrees with --------
tr, te = split(ds, 0.25, 91)
params, _ = train(tr.training_view(), TrainConfig(epochs=10, seed=92))
probs = predict_probs(params, tr.features)
L_tr = tr.annotator_labels
# (N, A) CE of each annotator's label under the model
losses = -np.log(np.maximum(probs[np.arange(tr.n)[:, None], L_tr], 1e-12))
_, picks = min_loss_labels(losses, L_tr)
print(f"\nmin-loss label accuracy on train set: "
      f"{np.mean(picks == tr.true_labels):.3f}")

# -- joint confusion estimation with a trace penalty -------------------------
cfg = TrainConfig(epochs=30, seed=93)
_, amodel, hist = train_with_confusion(tr.training_view(), cfg,
                                       lambda_trace=0.01, test_ds=te)
errs = [np.abs(est.t - symmetric_transition(3, r).t).sum(axis=1).mean()
        for est, r in zip(amodel.confusions, rhos)]
print("\njointly trained confusion estimates (mean row-wise l1 error):")
for a, e in enumerate(errs):
    print(f"  annotator {a}: {e:.4f}")
print(f"classifier test accuracy: {hist[-1]['test_accuracy']:.3f}")
print("(the trace penalty pushes each confusion off the trivial identity,")
print(" making annotator noise identifiable)")
