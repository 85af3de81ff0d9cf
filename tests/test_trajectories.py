"""Pinned trajectories: the sha256 of every stripped report (wall time
removed) of the 20 benchmark pipelines on 3 blobs x 60 rows, 2 epochs,
seeds 1 and 2; of co-teaching run for 8 epochs, long enough to keep fewer
than every row; of pumpout under an asymmetric T, where it takes ascent
steps; of one 3-method noise-rate sweep (its reports and its summary CSV)
over blobs and over a CSV file; and of one sweep of the methods that stack
under an explicit T.

A digest here may change only together with a CHANGES.md entry that names
the trajectory it moves and argues why the new trajectory is correct. A
speed-up or a refactor that leaves these digests alone has moved no
trajectory; one that changes them has, whatever its other tests say.
"""

import hashlib

import pytest

from noisylab import reweight
from noisylab.data import gen_blobs, save_csv
from noisylab.harness import (report_json, run_experiment, strip_wall_time,
                              sweep, sweep_summary_csv)

DATASET = {"kind": "blobs", "k": 3, "n_per_class": 60, "d": 2,
           "separation": 3.0}
SYMMETRIC = {"kind": "symmetric", "rho": 0.3}
PANEL = {"kind": "annotators", "rhos": [0.2, 0.3, 0.4]}

PIPELINES = {
    "loss:ce": {"loss": {"kind": "ce"}},
    "loss:mae": {"loss": {"kind": "mae"}},
    "loss:imae": {"loss": {"kind": "imae"}},
    "loss:smooth_kl": {"loss": {"kind": "smooth_kl", "epsilon": 0.1}},
    "loss:backward": {"loss": {"kind": "backward", "transition": "true"}},
    "loss:forward": {"loss": {"kind": "forward", "transition": "true"}},
    "noise_adaptation": {"noise_adaptation": True},
    "reweight:running": {"reweight": {"kind": "running"}},
    "reweight:trimmed": {"reweight": {"kind": "trimmed", "fraction": 0.2}},
    "reweight:rank_prune": {"reweight": {"kind": "rank_prune",
                                         "fraction": 0.2}},
    "reweight:pumpout": {"reweight": {"kind": "pumpout",
                                      "transition": "true"}},
    **{f"annotator:{f}": {"annotator": {"fusion": f}}
       for f in ("majority", "staple", "min_loss", "confusion")},
    **{f"procedure:{p}": {"procedure": {"name": p}}
       for p in ("mixup", "co_teaching", "disagreement", "dual_relabel",
                 "iterative_clean")},
}
SWEEP_RHOS = [0.0, 0.2, 0.4]
SWEEP_METHODS = [{"loss": {"kind": "ce"}},
                 {"reweight": {"kind": "trimmed", "fraction": 0.2}},
                 {"procedure": {"name": "co_teaching"}}]

DIGESTS = {
    "loss:ce@1":
        "04ebfa9776a37cc3869d627897125e94968811c19446f81328c0037879123843",
    "loss:ce@2":
        "daa599a214c558430d12d8edbd09c10225d89ac31a6e8135d9e360095b30b2d9",
    "loss:mae@1":
        "bd8bf77affe62462c49a186cc60ba979f096d8ebca4e74c96247a2431c1d78a4",
    "loss:mae@2":
        "3da7ceedeedf6919de53baed970688c36b082ac93dee2cabf81d6b1fa32f8f8e",
    "loss:imae@1":
        "74dc30875ae7ef4e8782576891ccfabe601c64e590da3c7e82eea149c6c8d228",
    "loss:imae@2":
        "e17a53c769c9c8eeb620d01cf660a2c4aa17dacc9733f694960a70be709f0745",
    "loss:smooth_kl@1":
        "9915f31df7bde4f05c0ff70ae68eae42bfd4c4aa6535e14a1da5d2a42e396ebb",
    "loss:smooth_kl@2":
        "d0ad6ffbf218dc64a9d4415cfedd452c0e63a9c244f00f0345886236df0ec145",
    "loss:backward@1":
        "c2bc5f347a198ab509d765166f10c2e8f983ea584cc5cfa855e47769d4b388a8",
    "loss:backward@2":
        "c7944b7a48d417528ac1f9c027467ae3ba3232653e35c07a3fcb62115592e3ff",
    "loss:forward@1":
        "5fc615071a2d412d3987ddc3e8ad839a50d3d36e76b657fc7bdc7df9c041e4ea",
    "loss:forward@2":
        "031b234dfe0658a82063e88afa2eff2ad352f179f86d6a2ad7c170e72c78790c",
    "noise_adaptation@1":
        "7444d1bccdfcc036538869f379de2ee2816e015629c30deb1eb32e61203c74bd",
    "noise_adaptation@2":
        "b9b5952282397a6869d9ee55e55861eecd2a8a63de64c0d1ad605b64caf46496",
    "reweight:running@1":
        "ad65c36e3c4bd46a715db31ae9f170d4f0020a0f93d0c28f4a8ac780a16a548b",
    "reweight:running@2":
        "950db5c4144fb07bd77815f8d07d5a38040327ba5457805bdc2161ca100ab0a3",
    "reweight:trimmed@1":
        "09face821646a8a0549cbc961007ce6e4a980e9ffea914e5e41a189dffb33cdb",
    "reweight:trimmed@2":
        "778c07d61d6f45b3a08925b6c3a98ac23ef1afdc1077d2a30fdfa90780d72f11",
    "reweight:rank_prune@1":
        "2305ce5ab447297db8ce74ad472ac4e881d985f600bae4eb0ece4ab9d50c50ed",
    "reweight:rank_prune@2":
        "8c7419b35dd47e65f3ff1bd1088d0a0bd0db05a61fce297c5539f3867edb7a75",
    "reweight:pumpout@1":
        "a27ee2741c13c917d0d9f8fd74f66d446dda4ec6e8271de5252ba837fd3288f6",
    "reweight:pumpout@2":
        "72fa7263d6e6210fd363c7084a417bc4c4e663fe14ed97cab213f55b584e3998",
    "annotator:majority@1":
        "fd969b9d5d4e22ecd316ca041135859be39c574603e57f9702146e0d52cf3cc2",
    "annotator:majority@2":
        "84700c64cfc53bf90487440698b1ccafe1bffe477b3ca1d527f8df7ca6705edc",
    "annotator:staple@1":
        "e36ae35e3382731827f17cf88181b303e0dfd8767c0c16781f9bafdd1e18b61c",
    "annotator:staple@2":
        "4e89f72fb900862dcad254993bc3673f8519e9a2b57c6dbf505a21644cacd0f8",
    "annotator:min_loss@1":
        "a8715ef85537a23bab10e06f9eb3b8d2f51f1983d94901ba5ab900d78c9c4347",
    "annotator:min_loss@2":
        "16f5d4b121aa7875ea388f77a780cd062520bb308b90edaa8ac3863b57aa911f",
    "annotator:confusion@1":
        "7ae0a974c634c39359d21d16df57ae697ebda134f2873285f78ef900e13edfea",
    "annotator:confusion@2":
        "83adff7e69cefa0000decdfb635893b977da6b07732fb648372cead4115f9130",
    "procedure:mixup@1":
        "f3978d0954a875370b8a9b937569abf418ef86e21c41492a76ea01b2dd41a346",
    "procedure:mixup@2":
        "e947ae7863d02d78c82a8994783823e7cc48be808f72beedc726c8ed46a001dd",
    "procedure:co_teaching@1":
        "e02403fd6d9f1b6927c2c8604913ce309689e9e0d1c96df279b996ba30ab801b",
    "procedure:co_teaching@2":
        "f4d754616f0e03ed7c7fe515df4d60e2d8b57fbda0e020255f72c4ae9e8040e5",
    "procedure:disagreement@1":
        "7462d94c1218498979b053f4830a1386571a57dcb574692c377db3fa0fe4b4eb",
    "procedure:disagreement@2":
        "9bbf03189ba42c9d554ade4260a75e598b714eaf40b820538b9b66ca4524783d",
    "procedure:dual_relabel@1":
        "0b89f4c3ff9e9f3b13139de4412c228d7706712050e7f8bdc2b248ba6e7b59bf",
    "procedure:dual_relabel@2":
        "9f1f81df130fd7f8278ced00eb5305f7de151a30794d142fe12e075e26c049f4",
    "procedure:iterative_clean@1":
        "3d09ece936fcffdfd3cabceed506976a1c55d72fc974398732099e388b6b966d",
    "procedure:iterative_clean@2":
        "8678cbc3c0fa3faf5b66fcf7d0dab800351c7bce3957184bd877a96d33578797",
}
SWEEP_DIGEST = (
    "2d42201f595202d78d4f68330c8ce0f4819244fe911d53f12ebbac2e77b4ae3e")
# co-teaching keeps every row for its first 5 epochs; from the sixth it
# ranks the peers' losses on full batches (round(0.97 * 32) = 31) and still
# keeps a whole short last batch (135 = 4 * 32 + 7 training rows)
CO_TEACHING_EPOCHS = 8
CO_TEACHING_DIGESTS = {
    1: "41d7741ac4e9056d97af72075640c85771bfb358f8965c89f86d99c8424f339e",
    2: "9f7288e836e2e2d53941dc70403015001de74aa10c5f4183deca15f55d88f8dd",
}
# under a symmetric T pumpout's corrected loss is never negative, so the
# pipelines above never weight a row -gamma; on well-separated blobs this
# asymmetric T and a step of 1.0 flag 5 of the 270 weighted rows
PUMPOUT_ASCENT_ROWS = [[0.6, 0.4, 0.0], [0.1, 0.9, 0.0], [0.0, 0.4, 0.6]]
PUMPOUT_ASCENT_DIGEST = (
    "870e703684f36af92e4f35b358a98bff7badaa627196dac89a75cecba4044cec")
# running, and pumpout, forward, backward and trimmed's scoring loss under
# the asymmetric T given explicitly, on the ascent run's data and step
EXPLICIT_T = {"k": 3, "rows": PUMPOUT_ASCENT_ROWS}
EXPLICIT_T_METHODS = [
    {"reweight": {"kind": "running"}},
    {"reweight": {"kind": "pumpout", "transition": EXPLICIT_T}},
    {"loss": {"kind": "forward", "transition": EXPLICIT_T}},
    {"loss": {"kind": "backward", "transition": EXPLICIT_T}},
    {"reweight": {"kind": "trimmed", "fraction": 0.2,
                  "loss": {"kind": "forward", "transition": EXPLICIT_T}}}]
EXPLICIT_T_SWEEP_DIGEST = (
    "09dffbd568dec20492f906bc7c35cda291c795a1edce8b34b068859684d950e8")
CSV_SWEEP_DIGEST = (
    "cde61660036188532ae4d2222a89f3aabca6e08d35f435a8ed22ce27f4276a48")


def config(name, seed):
    method = PIPELINES[name]
    return {"seed": seed, "dataset": dict(DATASET), "test_fraction": 0.25,
            "noise": dict(PANEL if "annotator" in method else SYMMETRIC),
            "method": method, "train": {"epochs": 2}}


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def report_digest(report):
    return digest(report_json(strip_wall_time(report)))


def sweep_digest(dataset=DATASET, methods=SWEEP_METHODS,
                 train={"epochs": 2}):
    """One digest over the sweep's stripped reports, in order, and its
    summary CSV."""
    template = {"seed": 1, "dataset": dict(dataset), "test_fraction": 0.25,
                "train": dict(train)}
    reports, summary, _ = sweep(template, SWEEP_RHOS, methods)
    return digest("\n".join([report_digest(r) for r in reports]
                            + [sweep_summary_csv(summary)]))


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", list(PIPELINES))
def test_pipeline_report_is_pinned(name, seed):
    assert report_digest(run_experiment(config(name, seed))) == DIGESTS[
        f"{name}@{seed}"]


def test_sweep_reports_and_summary_are_pinned():
    assert sweep_digest() == SWEEP_DIGEST


@pytest.mark.parametrize("seed", [1, 2])
def test_co_teaching_past_its_warm_up_is_pinned(seed):
    cfg = config("procedure:co_teaching", seed)
    cfg["train"] = {"epochs": CO_TEACHING_EPOCHS}
    report = run_experiment(cfg)
    assert report["history"][-1]["keep_fraction"] < 1.0
    assert report_digest(report) == CO_TEACHING_DIGESTS[seed]


def pumpout_flags(monkeypatch):
    """The weights of the rows pumpout flags from here on, -gamma each."""
    flagged = []
    batch_weights = reweight._PumpoutHook.batch_weights

    def spy(hook, *args):
        weights = batch_weights(hook, *args)
        flagged.extend(weights[weights == -hook.gamma].tolist())
        return weights

    monkeypatch.setattr(reweight._PumpoutHook, "batch_weights", spy)
    return flagged


def test_pumpout_ascent_is_pinned(monkeypatch):
    flagged = pumpout_flags(monkeypatch)
    cfg = config("reweight:pumpout", 1)
    cfg["dataset"]["separation"] = 8.0
    cfg["noise"] = {"kind": "matrix", "rows": PUMPOUT_ASCENT_ROWS}
    cfg["train"] = {"epochs": 2, "learning_rate": 1.0}
    report = run_experiment(cfg)
    assert flagged
    assert report_digest(report) == PUMPOUT_ASCENT_DIGEST


def test_csv_sweep_reports_and_summary_are_pinned(tmp_path, monkeypatch):
    # a relative path, so the reports echo the same config wherever it runs
    monkeypatch.chdir(tmp_path)
    save_csv(gen_blobs(3, 60, 2, 3.0, 1), "data.csv")
    assert sweep_digest({"kind": "csv", "path": "data.csv"}) == \
        CSV_SWEEP_DIGEST


def test_explicit_transition_sweep_is_pinned(monkeypatch):
    flagged = pumpout_flags(monkeypatch)
    assert sweep_digest(dict(DATASET, separation=8.0), EXPLICIT_T_METHODS,
                        {"epochs": 2, "learning_rate": 1.0}) == \
        EXPLICIT_T_SWEEP_DIGEST
    assert flagged
