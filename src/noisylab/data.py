"""Synthetic dataset generation, stratified splitting, and CSV persistence.

CSV schema: header ``f0,...,f{d-1},label[,true][,ann0..ann{A-1}]``,
comma-separated, UTF-8, LF line endings, floats written with 17 significant
digits so round trips are lossless at float64 precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .numerics import Rng, _check_args, _check_labels


@dataclass(frozen=True)
class LabeledDataset:
    """Feature matrix plus observed labels, optional hidden truth and
    per-annotator labels."""

    features: np.ndarray          # (N, d) float64, d >= 1
    labels: np.ndarray            # (N,) int
    num_classes: int
    true_labels: np.ndarray | None = None       # (N,) int, evaluation only
    annotator_labels: np.ndarray | None = None  # (N, A) int

    def __post_init__(self):
        object.__setattr__(self, "features",
                           np.asarray(self.features, dtype=np.float64))
        object.__setattr__(self, "labels",
                           np.asarray(self.labels, dtype=np.int64))
        if self.features.ndim != 2 or self.features.shape[1] < 1:
            raise ValueError("features must be an (N, d) array with d >= 1, "
                             f"got shape {self.features.shape}")
        n = self.features.shape[0]
        if not np.isfinite(self.features).all():  # then name the first row
            bad = np.flatnonzero(~np.isfinite(self.features).all(axis=-1))
            raise ValueError(f"non-finite feature in sample {bad[0]}")
        if self.labels.shape != (n,):
            raise ValueError("labels length must match feature rows")
        _check_labels("labels", self.labels, self.num_classes)
        if self.true_labels is not None:
            t = np.asarray(self.true_labels, dtype=np.int64)
            if t.shape != (n,):
                raise ValueError("true_labels length must match feature rows")
            _check_labels("true_labels", t, self.num_classes)
            object.__setattr__(self, "true_labels", t)
        if self.annotator_labels is not None:
            a = np.asarray(self.annotator_labels, dtype=np.int64)
            if a.ndim != 2 or a.shape[0] != n or a.shape[1] < 1:
                raise ValueError("annotator_labels must be N x A with A >= 1")
            _check_labels("annotator_labels", a, self.num_classes)
            object.__setattr__(self, "annotator_labels", a)

    @property
    def n(self):
        return self.features.shape[0]

    @property
    def dim(self):
        return self.features.shape[1]

    @property
    def truth(self):
        """The hidden truth when present, else the observed labels."""
        return self.labels if self.true_labels is None else self.true_labels

    def training_view(self):
        """Copy with hidden truth stripped; what training code may see."""
        return replace(self, true_labels=None)

    def subset(self, idx):
        idx = np.asarray(idx, dtype=np.int64)
        return LabeledDataset(
            self.features[idx], self.labels[idx], self.num_classes,
            None if self.true_labels is None else self.true_labels[idx],
            None if self.annotator_labels is None else self.annotator_labels[idx],
        )


def blob_centers(K, d, separation):
    """Deterministic class centers with pairwise distance >= separation.

    d >= 2: vertices of a regular K-gon in the first two coordinates,
    radius chosen so the minimum chord equals `separation` exactly.
    d == 1: collinear points spaced by `separation`.
    """
    centers = np.zeros((K, d))
    if d == 1:
        centers[:, 0] = separation * np.arange(K)
    else:
        radius = separation / (2.0 * math.sin(math.pi / K))
        ang = 2.0 * math.pi * np.arange(K) / K
        centers[:, 0] = radius * np.cos(ang)
        centers[:, 1] = radius * np.sin(ang)
    return centers


def gen_blobs(K, n_per_class, d, separation, seed):
    """Isotropic unit-variance Gaussian blobs at fixed separated centers."""
    _check_args("gen_blobs", {"K": (K, "[2, inf)"),
                              "n_per_class": (n_per_class, "[1, inf)"),
                              "d": (d, "[1, inf)")},
                {"separation": (separation, "(0, inf)")})
    rng = Rng(seed)
    centers = blob_centers(K, d, separation)
    X = np.empty((K * n_per_class, d))
    y = np.empty(K * n_per_class, dtype=np.int64)
    for c in range(K):
        sl = slice(c * n_per_class, (c + 1) * n_per_class)
        X[sl] = centers[c] + rng.normal((n_per_class, d))
        y[sl] = c
    return LabeledDataset(X, y, K, true_labels=y.copy())


def gen_rings(K, n_per_class, noise_std, seed):
    """Concentric rings in 2-d: class c at radius c+1 with radial jitter."""
    _check_args("gen_rings", {"K": (K, "[2, inf)"),
                              "n_per_class": (n_per_class, "[1, inf)")},
                {"noise_std": (noise_std, "[0, inf)")})
    rng = Rng(seed)
    X = np.empty((K * n_per_class, 2))
    y = np.empty(K * n_per_class, dtype=np.int64)
    for c in range(K):
        theta = 2.0 * math.pi * rng.uniform(n_per_class)
        r = (c + 1) + noise_std * rng.normal(n_per_class)
        sl = slice(c * n_per_class, (c + 1) * n_per_class)
        X[sl, 0] = r * np.cos(theta)
        X[sl, 1] = r * np.sin(theta)
        y[sl] = c
    return LabeledDataset(X, y, K, true_labels=y.copy())


def split(ds, test_fraction, seed):
    """Stratified train/test split; per-class test counts within 1 of the
    requested fraction. Stratifies by true labels when present."""
    _check_args("split", reals={"test_fraction": (test_fraction, "(0, 1)")})
    if ds.n < 2:
        raise ValueError("split: need at least 2 samples")
    rng = Rng(seed)
    test_idx = []
    for c in range(ds.num_classes):
        members = np.flatnonzero(ds.truth == c)
        if members.size == 0:
            continue
        order = members[rng.permutation(members.size)]
        n_test = int(round(test_fraction * members.size))
        test_idx.append(order[:n_test])
    test_idx = np.sort(np.concatenate(test_idx)) if test_idx else np.empty(0, int)
    if not 0 < len(test_idx) < ds.n:
        raise ValueError(f"split: test_fraction {test_fraction} of {ds.n} "
                         f"rows leaves an empty train or test set")
    mask = np.ones(ds.n, dtype=bool)
    mask[test_idx] = False
    return ds.subset(np.flatnonzero(mask)), ds.subset(test_idx)


class CsvFormatError(ValueError):
    pass


def save_csv(ds, path):
    cols = [f"f{j}" for j in range(ds.dim)] + ["label"]
    if ds.true_labels is not None:
        cols.append("true")
    if ds.annotator_labels is not None:
        cols += [f"ann{a}" for a in range(ds.annotator_labels.shape[1])]
    lines = [",".join(cols)]
    for i in range(ds.n):
        row = [format(v, ".17g") for v in ds.features[i]]
        row.append(str(int(ds.labels[i])))
        if ds.true_labels is not None:
            row.append(str(int(ds.true_labels[i])))
        if ds.annotator_labels is not None:
            row += [str(int(v)) for v in ds.annotator_labels[i]]
        lines.append(",".join(row))
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def load_csv(path):
    """Read a CSV of the module's schema, finding each column by its header
    name: features f0..f{d-1}, then label, true and the ann columns."""
    with open(path, encoding="utf-8") as f:
        header = f.readline().strip().split(",")
        if "label" not in header:
            raise CsvFormatError("missing label column in header")
        d = sum(1 for h in header if h.startswith("f") and h[1:].isdigit())
        if d == 0:
            raise CsvFormatError("header: no feature column f0")
        for j in range(d):
            if header.count(f"f{j}") != 1:
                problem = "repeated" if f"f{j}" in header else "missing"
                raise CsvFormatError(f"header: feature column f{j} {problem} "
                                     f"(expected f0..f{d - 1})")
        feat_cols = [header.index(f"f{j}") for j in range(d)]
        ann_cols = [i for i, h in enumerate(header)
                    if h.startswith("ann") and h[3:].isdigit()]
        label_cols = [header.index(h) for h in ("label", "true")
                      if h in header] + ann_cols
        feats, labels = [], []  # flat: one row after another
        for rownum, line in enumerate(f, start=2):
            cells = line.rstrip("\n").split(",")
            if len(cells) != len(header):
                raise CsvFormatError(f"row {rownum}: expected {len(header)} "
                                     f"cells, got {len(cells)}")
            try:
                feats += [float(cells[j]) for j in feat_cols]
                labels += [int(cells[j]) for j in label_cols]
            except ValueError as e:
                raise CsvFormatError(f"row {rownum}: non-numeric cell ({e})")
    if not labels:
        raise CsvFormatError("no data rows after the header")
    n = len(labels) // len(label_cols)
    # columns label[, true], ann0, ...
    L = np.asarray(labels, dtype=np.int64).reshape(n, len(label_cols))
    bad = np.argwhere(L < 0)
    if bad.size:
        i, j = bad[0]
        raise CsvFormatError(f"row {i + 2}: {header[label_cols[j]]} "
                             f"{L[i, j]} is negative")
    first_ann = len(label_cols) - len(ann_cols)
    return LabeledDataset(
        np.asarray(feats, dtype=np.float64).reshape(n, d), L[:, 0],
        max(int(L.max()) + 1, 2), L[:, 1] if first_ann == 2 else None,
        L[:, first_ann:] if ann_cols else None)
