"""Training procedures that fight label noise during optimization.

Covers mixup's convex interpolation, co-teaching's cross-model small-loss
selection (with its keep-fraction schedule), disagreement-only updates,
dual-model relabeling into a soft-label store, and iterative cleaning with
a small trusted set.
"""

import numpy as np

from noisylab.data import gen_blobs, split
from noisylab.model import TrainConfig, train
from noisylab.noise import (feature_dependent_inject, inject,
                            symmetric_transition)
from noisylab.numerics import Rng
from noisylab.procedures import (co_teaching_keep_schedule, iterative_clean,
                                 mixup, train_co_teaching,
                                 train_dual_relabel, train_mixup)

# -- mixup -------------------------------------------------------------------
X = np.array([[0.0, 0.0], [2.0, 4.0]])
Y = np.eye(2)
Xm, Ym = mixup(X, Y, alpha=0.2, rng=Rng(1))
print("mixup blends pairs of samples and their one-hot labels:")
print(f"  mixed point {np.round(Xm[0], 3)} with soft label "
      f"{np.round(Ym[0], 3)}")

full = gen_blobs(2, 300, 2, 8.0, 21)
tr, te = split(full, 0.25, 22)
noisy = inject(tr, symmetric_transition(2, 0.4), Rng(23)).training_view()
cfg = TrainConfig(epochs=30, seed=24, learning_rate=0.1, batch_size=32)

_, h_mix = train_mixup(noisy, cfg, te, alpha=0.2)
print(f"mixup training at rho=0.4: test accuracy "
      f"{h_mix[-1]['test_accuracy']:.3f}")

# -- co-teaching -------------------------------------------------------------
print("\nco-teaching keep-fraction schedule (rho=0.4):")
for e in (0, 4, 7, 10, 15, 30):
    print(f"  epoch {e:2d}: keep {co_teaching_keep_schedule(e, 0.4):.2f}")

_, _, h_co = train_co_teaching(noisy, cfg, te, noise_rate=0.4)
_, h_ce = train(noisy, cfg, te)
print(f"co-teaching {h_co[-1]['test_accuracy']:.3f} vs plain CE "
      f"{h_ce[-1]['test_accuracy']:.3f} at rho=0.4")
print("(each model keeps only its small-loss samples and teaches the peer)")

_, _, h_dis = train_co_teaching(noisy, cfg, te, disagreement_only=True)
print(f"disagreement-only variant: {h_dis[-1]['test_accuracy']:.3f}")

# -- dual-model relabeling ---------------------------------------------------
full3 = gen_blobs(3, 300, 2, 8.0, 17)
tr3, te3 = split(full3, 0.25, 18)
noisy3 = inject(tr3, symmetric_transition(3, 0.3), Rng(19))
start = float(np.mean(noisy3.labels == noisy3.true_labels))
cfg3 = TrainConfig(epochs=40, seed=17, learning_rate=0.1, batch_size=16)
_, _, store, _ = train_dual_relabel(noisy3.training_view(), cfg3, te3)
print(f"\ndual-model relabeling: stored-label agreement with truth "
      f"{start:.3f} -> {store.match_fraction(noisy3.true_labels):.3f}")
original = int(np.equal(store.source, None).sum())  # source None: never
print(f"  provenance: {original} original, "
      f"{len(store.source) - original} relabeled entries")

# -- iterative cleaning with a small trusted set ------------------------------
full_c = gen_blobs(3, 300, 2, 8.0, 29)
tr_c, _ = split(full_c, 0.25, 30)
noisy_c = feature_dependent_inject(tr_c, 0.3, 0.1, Rng(31))
rng = Rng(36)
idx = np.sort(rng.permutation(noisy_c.n)[:int(round(0.15 * noisy_c.n))])
clean_small = noisy_c.subset(idx)

cfg_c = TrainConfig(epochs=15, seed=32, learning_rate=0.5)
_, flags, _, history = iterative_clean(noisy_c.training_view(), clean_small,
                                       cfg_c)
true_flip = noisy_c.labels != noisy_c.true_labels
tp = np.sum(flags & true_flip)
print(f"\niterative cleaning on feature-dependent noise:")
print(f"  flagged {flags.sum()} of {noisy_c.n} samples "
      f"({true_flip.sum()} truly corrupted)")
print(f"  precision {tp / max(flags.sum(), 1):.3f}, "
      f"recall {tp / max(true_flip.sum(), 1):.3f}")
for row in history:
    print(f"  round {row['round']}: flagged {row['flagged']}, "
          f"relabeled {row['relabeled']}")
