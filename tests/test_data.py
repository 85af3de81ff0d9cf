import re

import numpy as np
import pytest

from noisylab.data import (CsvFormatError, LabeledDataset, blob_centers,
                           gen_blobs, gen_rings, load_csv, save_csv, split)
from noisylab.model import TrainConfig, train
from noisylab.noise import simulate_annotators, symmetric_transition
from noisylab.numerics import Rng


class TestGenBlobs:
    def test_construction(self):
        ds = gen_blobs(2, 100, 2, 8.0, 1)
        assert ds.n == 200 and ds.dim == 2
        assert np.sum(ds.labels == 0) == 100 and np.sum(ds.labels == 1) == 100
        assert np.array_equal(ds.labels, ds.true_labels)

    def test_center_separation_exact(self):
        for K in (2, 3, 5):
            c = blob_centers(K, 3, 8.0)
            dists = [np.linalg.norm(c[i] - c[j])
                     for i in range(K) for j in range(i + 1, K)]
            assert min(dists) >= 8.0 - 1e-9

    def test_nearest_centroid_oracle(self):
        # centers 8 sigma apart: nearest-centroid error is astronomically small
        ds = gen_blobs(2, 500, 2, 8.0, 123)
        centers = blob_centers(2, 2, 8.0)
        d = np.linalg.norm(ds.features[:, None] - centers[None], axis=2)
        assert np.mean(d.argmin(axis=1) == ds.true_labels) >= 0.99

    def test_deterministic(self):
        a, b = gen_blobs(3, 50, 4, 6.0, 7), gen_blobs(3, 50, 4, 6.0, 7)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            gen_blobs(1, 10, 2, 8.0, 0)
        with pytest.raises(ValueError):
            gen_blobs(2, 10, 2, -1.0, 0)


class TestGenRings:
    def test_zero_noise_exact_radius(self):
        ds = gen_rings(3, 50, 0.0, 5)
        r = np.linalg.norm(ds.features, axis=1)
        for c in range(3):
            assert np.allclose(r[ds.labels == c], c + 1, atol=1e-12)

    def test_deterministic(self):
        a, b = gen_rings(2, 40, 0.1, 9), gen_rings(2, 40, 0.1, 9)
        assert np.array_equal(a.features, b.features)

    def test_linear_fails_mlp_succeeds(self):
        # rings are not linearly separable; the hidden layer is required
        full = gen_rings(2, 400, 0.1, 7)
        tr, te = split(full, 0.25, 8)
        _, h_lin = train(tr, TrainConfig(epochs=30, seed=9, arch="linear",
                                         learning_rate=0.5), te)
        _, h_mlp = train(tr, TrainConfig(epochs=60, seed=9, arch="mlp",
                                         learning_rate=0.5, batch_size=16), te)
        assert h_lin[-1]["test_accuracy"] <= 0.60
        assert h_mlp[-1]["test_accuracy"] >= 0.95


class TestSplit:
    def test_stratified_counts(self):
        ds = gen_blobs(2, 100, 2, 8.0, 1)
        tr, te = split(ds, 0.25, 2)
        assert np.sum(te.labels == 0) == 25 and np.sum(te.labels == 1) == 25
        assert tr.n + te.n == ds.n

    def test_partition(self):
        ds = gen_blobs(3, 30, 2, 8.0, 4)
        tr, te = split(ds, 0.3, 5)
        rows = np.vstack([tr.features, te.features])
        assert rows.shape[0] == ds.n
        # every original row appears exactly once
        orig = {tuple(r) for r in ds.features}
        assert {tuple(r) for r in rows} == orig

    def test_deterministic(self):
        ds = gen_blobs(2, 50, 2, 8.0, 3)
        a = split(ds, 0.2, 11)
        b = split(ds, 0.2, 11)
        assert np.array_equal(a[0].features, b[0].features)
        assert np.array_equal(a[1].features, b[1].features)

    def test_invalid_fraction(self):
        ds = gen_blobs(2, 10, 2, 8.0, 0)
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                split(ds, bad, 0)

    @pytest.mark.parametrize("n_per_class, fraction", [(50, 0.001),
                                                       (1, 0.9)],
                             ids=["empty-test", "empty-train"])
    def test_empty_side_rejected(self, n_per_class, fraction):
        ds = gen_blobs(3, n_per_class, 2, 8.0, 0)
        with pytest.raises(ValueError, match="empty"):
            split(ds, fraction, 0)


class TestCsv:
    def test_round_trip(self, tmp_path):
        ds = gen_blobs(3, 20, 4, 6.0, 2)
        path = tmp_path / "ds.csv"
        save_csv(ds, path)
        back = load_csv(path)
        assert np.array_equal(back.labels, ds.labels)
        assert np.array_equal(back.true_labels, ds.true_labels)
        assert np.allclose(back.features, ds.features, rtol=1e-12, atol=0)

    def test_annotator_header(self, tmp_path):
        ds = gen_blobs(2, 10, 2, 8.0, 3)
        conf = [symmetric_transition(2, 0.1)] * 3
        multi = simulate_annotators(ds, conf, Rng(4))
        path = tmp_path / "multi.csv"
        save_csv(multi, path)
        header = path.read_text().splitlines()[0]
        assert header.endswith("label,true,ann0,ann1,ann2")
        back = load_csv(path)
        assert np.array_equal(back.annotator_labels, multi.annotator_labels)

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1\n0.1,0.2\n")
        with pytest.raises(CsvFormatError):
            load_csv(path)

    def test_header_only_has_no_data_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("f0,f1,label\n")
        with pytest.raises(CsvFormatError, match="no data rows"):
            load_csv(path)

    def test_non_numeric_cell_reports_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,label\n0.1,0\nfoo,1\n")
        with pytest.raises(CsvFormatError, match="row 3"):
            load_csv(path)

    # each loaded without an error: by position, the label cell became
    # feature 0 and f1 was dropped, and f0,f2 loaded as d = 2
    def test_features_read_by_header_name(self, tmp_path):
        path = tmp_path / "moved.csv"
        path.write_text("label,true,f1,ann0,f0\n1,0,2.5,1,1.5\n"
                        "0,0,4.5,0,3.5\n")
        ds = load_csv(path)
        assert ds.features.tolist() == [[1.5, 2.5], [3.5, 4.5]]
        assert ds.labels.tolist() == [1, 0]
        assert ds.true_labels.tolist() == [0, 0]
        assert ds.annotator_labels.tolist() == [[1], [0]]

    @pytest.mark.parametrize("header, named", [
        ("f0,f2,label", "feature column f1 missing"),
        ("f0,f0,label", "feature column f0 repeated"),
        ("f1,f2,label", "feature column f0 missing"),
        ("x0,x1,label", "no feature column f0"),
    ], ids=["gap", "repeated", "no-f0", "no-features"])
    def test_feature_columns_must_be_f0_to_f_d(self, tmp_path, header,
                                               named):
        path = tmp_path / "bad.csv"
        path.write_text(f"{header}\n0.1,0.2,0\n")
        with pytest.raises(CsvFormatError, match=named):
            load_csv(path)

    @pytest.mark.parametrize("row, named", [
        ("0.1,-1,0,0", "row 3: label -1 is negative"),
        ("0.1,1,-2,0", "row 3: true -2 is negative"),
        ("0.1,1,1,-1", "row 3: ann0 -1 is negative"),
    ], ids=["label", "true", "annotator"])
    def test_negative_label_cell_names_row_and_value(self, tmp_path, row,
                                                     named):
        path = tmp_path / "bad.csv"
        path.write_text(f"f0,label,true,ann0\n0.2,0,0,0\n{row}\n")
        with pytest.raises(CsvFormatError, match=named):
            load_csv(path)


class TestInvariants:
    def test_dataset_validation(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros((3, 2)), [0, 1, 5], 2)
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros((3, 2)), [0, 1], 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        X = np.zeros((3, 2))
        X[2, 1] = bad
        with pytest.raises(ValueError, match="non-finite feature in sample 2"):
            LabeledDataset(X, [0, 1, 0], 2)

    # each was accepted: 1-d features failed later in .dim with an
    # IndexError, 3-d ones in train with a broadcast error, and d = 0
    # trained a bias-only model
    @pytest.mark.parametrize("shape", [(4,), (4, 2, 2), (4, 0)],
                             ids=["1-d", "3-d", "no-feature"])
    def test_features_must_be_n_by_d(self, shape):
        with pytest.raises(ValueError, match=re.escape(
                f"features must be an (N, d) array with d >= 1, got shape "
                f"{shape}")):
            LabeledDataset(np.zeros(shape), [0, 1, 0, 1], 2)

    def test_training_view_strips_truth(self):
        ds = gen_blobs(2, 10, 2, 8.0, 1)
        assert ds.training_view().true_labels is None

    # true_labels=[0, -1, 1] was accepted: split never put that row in the
    # test set, and inject drew its noisy label from T's last row
    @pytest.mark.parametrize("over, named", [
        (dict(labels=[0, -1, 1]), "labels: label -1 outside [0, 2)"),
        (dict(true_labels=[0, -1, 1]),
         "true_labels: label -1 outside [0, 2)"),
        (dict(true_labels=[0, 2, 1]), "true_labels: label 2 outside [0, 2)"),
        (dict(annotator_labels=[[0], [1], [-3]]),
         "annotator_labels: label -3 outside [0, 2)"),
    ], ids=["labels", "true-negative", "true-too-large", "annotator"])
    def test_one_label_contract(self, over, named):
        args = dict(features=np.zeros((3, 2)), labels=[0, 1, 1],
                    num_classes=2)
        with pytest.raises(ValueError, match=re.escape(named)):
            LabeledDataset(**{**args, **over})

    def test_truth_is_hidden_truth_else_labels(self):
        ds = LabeledDataset(np.zeros((3, 2)), [0, 1, 1], 2,
                            true_labels=[1, 1, 0])
        assert ds.truth.tolist() == [1, 1, 0]
        assert ds.training_view().truth.tolist() == [0, 1, 1]


class TestArgumentTypes:
    # each of these failed with "'<' not supported ..." or a TypeError deep
    # in numpy, or ran with a bool taken as 0 / 1
    BAD = [
        ("gen_blobs", dict(K="3"), "K must be an integer, got '3'"),
        ("gen_blobs", dict(K=3.0), "K must be an integer, got 3.0"),
        ("gen_blobs", dict(K=True), "K must be an integer, got True"),
        ("gen_blobs", dict(n_per_class=10.0), "n_per_class must be an"),
        ("gen_blobs", dict(d="2"), "d must be an integer"),
        ("gen_blobs", dict(separation="8"), "separation must be a real"),
        ("gen_blobs", dict(separation=True), "separation must be a real"),
        ("gen_rings", dict(K=2.5), "K must be an integer"),
        ("gen_rings", dict(n_per_class=False), "n_per_class must be an"),
        ("gen_rings", dict(noise_std="0.1"), "noise_std must be a real"),
    ]
    GOOD = {"gen_blobs": dict(K=3, n_per_class=10, d=2, separation=8.0,
                              seed=0),
            "gen_rings": dict(K=2, n_per_class=10, noise_std=0.1, seed=0)}

    @pytest.mark.parametrize("fn, over, named", BAD,
                             ids=[f"{b[0]}-{b[2].split()[0]}-{i}"
                                  for i, b in enumerate(BAD)])
    def test_generator_names_the_argument(self, fn, over, named):
        gen = {"gen_blobs": gen_blobs, "gen_rings": gen_rings}[fn]
        with pytest.raises(ValueError, match=f"^{fn}: {named}"):
            gen(**{**self.GOOD[fn], **over})

    @pytest.mark.parametrize("fraction", ["0.3", None, True])
    def test_split_names_test_fraction(self, fraction):
        ds = gen_blobs(2, 10, 2, 8.0, 0)
        with pytest.raises(ValueError,
                           match="^split: test_fraction must be a real"):
            split(ds, fraction, 0)

    def test_numpy_scalars_are_accepted(self):
        a = gen_blobs(np.int64(3), np.int32(10), 2, np.float64(8.0), 0)
        b = gen_blobs(3, 10, 2, 8.0, 0)
        assert np.array_equal(a.features, b.features)
        tr, _ = split(a, np.float64(0.3), 1)
        assert np.array_equal(tr.features, split(b, 0.3, 1)[0].features)
