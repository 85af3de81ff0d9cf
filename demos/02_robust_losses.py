"""Noise-robust losses and transition-matrix corrections.

Shows why plain cross-entropy degrades under label noise and how the
alternatives behave: MAE's bounded, self-damping gradient; the iMAE
re-weighting; smoothed-KL targets; and the backward/forward corrections
that use the known transition matrix to recover an unbiased training
signal.
"""

import numpy as np

from noisylab.data import gen_blobs, split
from noisylab.losses import LossSpec, loss_and_grad, loss_value
from noisylab.model import TrainConfig, train
from noisylab.noise import inject, symmetric_transition
from noisylab.numerics import Rng, softmax

# -- gradient geometry -------------------------------------------------------
p = softmax(np.array([2.0, 0.5, -1.0]))
y = 0
print(f"probs = {np.round(p, 4)}, label = {y}")
print(f"CE  value {loss_value(LossSpec('ce'), p, y):.4f}")
print(f"MAE value {loss_value(LossSpec('mae'), p, y):.4f} (bounded in [0, 2])")

# the losses take a batch: here one row of probabilities and its label
_, g_mae = loss_and_grad(LossSpec("mae"), p[None, :], [y])
print(f"MAE gradient l1 norm {np.abs(g_mae).sum():.6f} "
      f"= 4*p_y*(1-p_y) = {4 * p[y] * (1 - p[y]):.6f}")
print("  -> the MAE update vanishes for both confident fits (p_y ~ 1) and")
print("     confident misfits (p_y ~ 0), so wrong labels self-silence.")

_, g_imae = loss_and_grad(LossSpec("imae", tau=8.0), p[None, :], [y])
print(f"iMAE gradient l1 norm {np.abs(g_imae).sum():.4f} "
      "(exponentially up-weights confident samples)")

# -- corrections with a known transition matrix ------------------------------
T = symmetric_transition(3, 0.3)
# the corrected losses of p for each observed label 0, 1, 2, as one batch
backward, _ = loss_and_grad(LossSpec("backward", transition=T),
                            np.tile(p, (3, 1)), np.arange(3))
print(f"\nbackward-corrected loss for observed label 1: "
      f"{backward[1]:.4f}")
print("  (can be negative for individual samples; only its expectation")
print("   over the noise process matches the clean loss)")
print(f"forward-corrected loss for observed label 1:  "
      f"{loss_value(LossSpec('forward', transition=T), p, 1):.4f}")

# Monte-Carlo check of backward unbiasedness on this one example.
rng = Rng(7)
draws = np.searchsorted(np.cumsum(T.t[y]), rng.uniform(200_000))
print(f"\nE[backward loss under noise] ~= {backward[draws].mean():.4f}; "
      f"clean CE = {loss_value(LossSpec('ce'), p, y):.4f}")

# -- training comparison under 30% symmetric noise ---------------------------
full = gen_blobs(3, 400, 2, 8.0, 41)
tr, te = split(full, 0.5, 42)
noisy = inject(tr, T, Rng(43)).training_view()

print("\ntraining a linear model on 30% symmetric noise:")
for name, spec, ds in [("clean CE (reference)", LossSpec("ce"), tr),
                       ("noisy CE", LossSpec("ce"), noisy),
                       ("noisy MAE", LossSpec("mae"), noisy),
                       ("noisy forward-corrected",
                        LossSpec("forward", transition=T), noisy),
                       ("noisy backward-corrected",
                        LossSpec("backward", transition=T), noisy)]:
    cfg = TrainConfig(epochs=60, batch_size=4, learning_rate=2.0, seed=44,
                      loss=spec)
    _, hist = train(ds, cfg, te)
    print(f"  {name:28s} test accuracy {hist[-1]['test_accuracy']:.4f}")
