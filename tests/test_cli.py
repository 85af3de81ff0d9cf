import json
import re

import numpy as np
import pytest

from noisylab.cli import cli
from noisylab.data import load_csv


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


BASE_CFG = {
    "seed": 3,
    "dataset": {"kind": "blobs", "k": 2, "n_per_class": 80, "d": 2,
                "separation": 8.0},
    "test_fraction": 0.25,
    "method": {"loss": {"kind": "ce"}},
    "train": {"epochs": 5},
}


class TestGen:
    def test_blobs_roundtrip(self, tmp_path):
        out = str(tmp_path / "ds.csv")
        assert cli(["gen", "--blobs", "--out", out,
                    "k=3", "n=50", "d=2", "sep=8", "seed=1"]) == 0
        ds = load_csv(out)
        assert ds.n == 150 and ds.num_classes == 3 and ds.dim == 2

    def test_rings(self, tmp_path):
        out = str(tmp_path / "rings.csv")
        assert cli(["gen", "--rings", "--out", out, "k=2", "n=40"]) == 0
        assert load_csv(out).n == 80

    def test_bad_param_is_usage_error(self, tmp_path):
        out = str(tmp_path / "x.csv")
        assert cli(["gen", "--blobs", "--out", out, "bogus"]) == 1

    # the values were truncated to int before gen_blobs saw them: a 2-class,
    # 10-per-class CSV was written and the command exited 0
    def test_fractional_counts_are_named(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert cli(["gen", "--blobs", "--out", str(out), "k=2.7",
                    "n=10.9"]) == 1
        assert "K must be an integer, got 2.7" in capsys.readouterr().err
        assert cli(["gen", "--blobs", "--out", str(out), "n=10.9"]) == 1
        assert ("n_per_class must be an integer, got 10.9"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_unknown_flag(self):
        assert cli(["gen", "--frobnicate"]) == 1

    # each ran and exited 0: the unknown key was ignored and the seed
    # truncated to 2
    @pytest.mark.parametrize("argv, named", [
        (["--blobs", "k=3", "sepp=1", "n=5"], "sepp"),
        (["--blobs", "noise_std=0.1"], "noise_std"),
        (["--rings", "sep=2"], "sep"),
        (["--blobs", "k=3", "n=5", "seed=2.9"], "seed"),
        (["--rings", "seed=-1"], "seed"),
        (["--rings", "seed=one"], "seed"),
    ], ids=["blobs-typo", "blobs-rings-key", "rings-blobs-key",
            "fractional-seed", "negative-seed", "string-seed"])
    def test_bad_parameter_is_named(self, tmp_path, capsys, argv, named):
        out = tmp_path / "x.csv"
        assert cli(["gen", "--out", str(out), *argv]) == 1
        assert re.search(rf"error: .*\b{named}\b", capsys.readouterr().err)
        assert not out.exists()


class TestNoise:
    def test_symmetric_flips_labels(self, tmp_path):
        clean = str(tmp_path / "clean.csv")
        noisy = str(tmp_path / "noisy.csv")
        cli(["gen", "--blobs", "--out", clean, "k=2", "n=100", "seed=2"])
        assert cli(["noise", "--in", clean, "--kind", "symmetric",
                    "--out", noisy, "rho=0.3", "seed=5"]) == 0
        ds = load_csv(noisy)
        assert ds.true_labels is not None
        flip = np.mean(ds.labels != ds.true_labels)
        assert 0.2 < flip < 0.4

    def test_annotator_columns(self, tmp_path):
        clean = str(tmp_path / "clean.csv")
        noisy = str(tmp_path / "ann.csv")
        cli(["gen", "--blobs", "--out", clean, "k=2", "n=50", "seed=2"])
        assert cli(["noise", "--in", clean, "--kind", "annotators",
                    "--out", noisy, "rhos=0.1:0.2:0.3", "seed=6"]) == 0
        ds = load_csv(noisy)
        assert ds.annotator_labels.shape == (100, 3)

    # the seed was truncated to 1 and the noisy CSV written
    @pytest.mark.parametrize("seed", ["1.7", "-2", "abc"])
    def test_seed_must_be_a_non_negative_integer(self, tmp_path, capsys,
                                                 seed):
        clean = str(tmp_path / "clean.csv")
        noisy = tmp_path / "noisy.csv"
        cli(["gen", "--blobs", "--out", clean, "k=2", "n=10", "seed=2"])
        assert cli(["noise", "--in", clean, "--kind", "symmetric",
                    "--out", str(noisy), "rho=0.3", f"seed={seed}"]) == 1
        assert ("seed must be an integer >= 0, got"
                in capsys.readouterr().err)
        assert not noisy.exists()

    # "runtime error: could not convert string to float: 'abc'", exit 2
    @pytest.mark.parametrize("rhos", ["0.2:abc", "abc", "0.2::0.3"])
    def test_rhos_must_be_numbers(self, tmp_path, capsys, rhos):
        clean = str(tmp_path / "clean.csv")
        noisy = tmp_path / "ann.csv"
        cli(["gen", "--blobs", "--out", clean, "k=2", "n=10", "seed=2"])
        assert cli(["noise", "--in", clean, "--kind", "annotators",
                    "--out", str(noisy), f"rhos={rhos}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: noise.rhos must be numbers joined by "
                              f"':', got '{rhos}'")
        assert not noisy.exists()

    def test_missing_input(self, tmp_path):
        assert cli(["noise", "--in", str(tmp_path / "nope.csv"),
                    "--kind", "symmetric", "--out",
                    str(tmp_path / "o.csv"), "rho=0.1"]) == 1


class TestTrain:
    def test_deterministic_reports(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CFG)
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert cli(["train", "--config", cfg, "--out", a]) == 0
        assert cli(["train", "--config", cfg, "--out", b]) == 0
        ra = json.loads(open(a).read())
        rb = json.loads(open(b).read())
        ra.pop("wall_time_s", None)
        rb.pop("wall_time_s", None)
        assert ra == rb

    def test_invalid_config(self, tmp_path):
        cfg = dict(BASE_CFG)
        del cfg["seed"]
        path = write_config(tmp_path, cfg)
        assert cli(["train", "--config", path]) == 1


class TestConfigMustBeAnObject:
    # sweep and clean exited 2 with "pop expected at most 1 argument" and
    # "'list' object has no attribute 'setdefault'", and --seed with train
    # with "list indices must be integers or slices, not str"
    @pytest.mark.parametrize("argv", [
        ["sweep"], ["clean"], ["--seed", "3", "train"], ["train"],
    ], ids=["sweep", "clean", "seed-train", "train"])
    def test_list_config_is_a_usage_error(self, tmp_path, capsys, argv):
        path = write_config(tmp_path, [1, 2])
        assert cli(argv + ["--config", path, "--out",
                           str(tmp_path / "out")]) == 1
        assert ("error: config must be an object, got [1, 2]"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()


class TestFuse:
    def test_staple_outputs(self, tmp_path):
        clean = str(tmp_path / "clean.csv")
        noisy = str(tmp_path / "ann.csv")
        cli(["gen", "--blobs", "--out", clean, "k=2", "n=100", "seed=7"])
        cli(["noise", "--in", clean, "--kind", "annotators",
             "--out", noisy, "rhos=0.1:0.1:0.2", "seed=8"])
        model_out = str(tmp_path / "model.json")
        assert cli(["fuse", "--in", noisy, "--method", "staple",
                    "--out", model_out]) == 0
        model = json.loads(open(model_out).read())
        assert len(model["confusions"]) == 3
        fused = load_csv(str(tmp_path / "model_fused.csv"))
        assert np.mean(fused.labels == fused.true_labels) > 0.9

    # both exited 2 as runtime errors; the negative cell named neither row
    # nor value
    @pytest.mark.parametrize("text, named", [
        ("f0,label,ann0,ann1\n0.1,0,0,1\n0.2,x,1,1\n",
         "row 3: non-numeric cell"),
        ("f0,label,ann0,ann1\n0.1,0,0,1\n0.2,1,-1,1\n",
         "row 3: ann0 -1 is negative"),
        ("f1,label,ann0,ann1\n0.1,0,0,1\n", "feature column f0 missing"),
    ], ids=["non-numeric", "negative", "feature-missing"])
    @pytest.mark.parametrize("command", [
        ["fuse", "--method", "majority"],
        ["noise", "--kind", "symmetric", "rho=0.2"],
    ], ids=["fuse", "noise"])
    def test_malformed_csv_is_a_usage_error(self, tmp_path, capsys, text,
                                            named, command):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        argv = command + ["--in", str(bad), "--out",
                          str(tmp_path / "out.csv")]
        assert cli(argv) == 1
        assert named in capsys.readouterr().err

    def test_fuse_without_annotators(self, tmp_path):
        clean = str(tmp_path / "clean.csv")
        cli(["gen", "--blobs", "--out", clean, "k=2", "n=20", "seed=1"])
        assert cli(["fuse", "--in", clean, "--out",
                    str(tmp_path / "m.json")]) == 1

    def test_staple_needs_two_annotators(self, tmp_path, capsys):
        clean = str(tmp_path / "clean.csv")
        noisy = str(tmp_path / "ann.csv")
        cli(["gen", "--blobs", "--out", clean, "k=2", "n=20", "seed=1"])
        assert cli(["noise", "--in", clean, "--kind", "annotators",
                    "--out", noisy, "rhos=0.1", "seed=2"]) == 0
        assert load_csv(noisy).annotator_labels.shape[1] == 1
        capsys.readouterr()
        assert cli(["fuse", "--in", noisy, "--method", "staple",
                    "--out", str(tmp_path / "m.json")]) == 1
        assert "need at least 2 annotator columns" in capsys.readouterr().err
        assert cli(["fuse", "--in", noisy, "--method", "majority",
                    "--out", str(tmp_path / "m.json")]) == 0


class TestSweepAndReport:
    def test_sweep_csv(self, tmp_path):
        cfg = {"seed": 9,
               "dataset": {"kind": "blobs", "k": 2, "n_per_class": 80,
                           "d": 2, "separation": 8.0},
               "test_fraction": 0.25,
               "train": {"epochs": 5, "learning_rate": 0.1,
                         "batch_size": 32},
               "rhos": [0.0, 0.2]}
        path = write_config(tmp_path, cfg)
        out = str(tmp_path / "sweep.csv")
        assert cli(["sweep", "--config", path, "--out", out]) == 0
        lines = open(out).read().splitlines()
        assert len(lines) == 3

    # a string grid exited 2 with "'>' not supported ...", and an unknown
    # loss kind or a typo in the template's train section exited 0 with
    # an error on every summary row
    @pytest.mark.parametrize("over, named", [
        ({"rhos": "0.3"}, "rhos must be a non-empty list"),
        ({"methods": [{"loss": {"kind": "cee"}}]}, "unknown loss kind"),
        ({"methods": [{"lss": {"kind": "ce"}}]}, "exactly one method"),
        ({"train": {"epoch": 2}}, "train has unknown key(s): train.epoch"),
        ({"method": {"loss": {"kind": "mae"}}},
         "the template sets method, which each point sets; give methods"),
        ({"noise": {"kind": "symmetric", "rho": 0.3}},
         "the template sets noise, which each point sets; give rhos"),
    ], ids=["string-grid", "unknown-loss", "no-pipeline", "template-typo",
            "template-method", "template-noise"])
    def test_bad_sweep_is_a_usage_error(self, tmp_path, capsys, over,
                                        named):
        cfg = {k: v for k, v in BASE_CFG.items() if k != "method"}
        cfg.update(over)
        out = tmp_path / "sweep.csv"
        assert cli(["sweep", "--config", write_config(tmp_path, cfg),
                    "--out", str(out)]) == 1
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_report_prints_summary(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_CFG)
        rep = str(tmp_path / "r.json")
        cli(["train", "--config", cfg, "--out", rep])
        assert cli(["report", "--in", rep]) == 0
        out = capsys.readouterr().out
        assert "accuracy" in out
