"""Workloads of the noisylab benchmark and the check on their outputs.

Each workload is one researcher calling noisylab from a single process, one
call after another (a closed loop with one caller). Its inputs come only
from the workload seed: the seed picks the dataset draw, the split and the
label noise through the experiment configs, and the CSV the sweep reads.

- train_large: the 11 pipelines that train through `model.train` (six loss
  kinds, the noise-adaptation layer, four reweight rules) on 10k noisy
  training samples. Per-sample loss and hook dispatch is where `losses`,
  `model` and `reweight` do their work; `annotators` and `procedures` do
  none.
- fusion_procedures_large: the four annotator fusions on a 3-annotator
  panel and the five training procedures, same data size. `annotators`,
  `procedures` and `noise.simulate_annotators` do most of the work.
- sweep_small: a 6-point noise-rate sweep over a few-hundred-row CSV for
  three methods from different modules, writing every report and the
  summary. Fixed per-experiment costs (`data.load_csv`, `noise.inject`,
  `harness`) take their largest share here, so a change that speeds up
  large inputs but adds per-call cost shows up.
"""

from __future__ import annotations

import copy
import hashlib
import math
import time
from dataclasses import dataclass, field

from noisylab import data, harness
from noisylab.harness import report_json, strip_wall_time

TEST_FRACTION = 0.25
SYMMETRIC = {"kind": "symmetric", "rho": 0.3}
PANEL = {"kind": "annotators", "rhos": [0.2, 0.3, 0.4]}

LARGE_DATASET = {"kind": "blobs", "k": 3, "n_per_class": 4500, "d": 2,
                 "separation": 3.0}
LARGE_EPOCHS = 3
WARMUP_DATASET = dict(LARGE_DATASET, n_per_class=40)

TRAIN_METHODS = {
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
}
FUSION_METHODS = {f"annotator:{f}": {"annotator": {"fusion": f}}
                  for f in ("majority", "staple", "min_loss", "confusion")}
PROCEDURE_METHODS = {f"procedure:{p}": {"procedure": {"name": p}}
                     for p in ("mixup", "co_teaching", "disagreement",
                               "dual_relabel", "iterative_clean")}

SWEEP_ROWS_PER_CLASS = 100
SWEEP_EPOCHS = 10
SWEEP_RHOS = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
SWEEP_METHODS = {
    "loss:ce": {"loss": {"kind": "ce"}},
    "reweight:trimmed": {"reweight": {"kind": "trimmed", "fraction": 0.2}},
    "procedure:co_teaching": {"procedure": {"name": "co_teaching"}},
}


def n_train(rows_per_class, classes):
    """Training rows left by the harness's stratified split."""
    return classes * (rows_per_class
                      - int(round(TEST_FRACTION * rows_per_class)))


@dataclass
class PassResult:
    """One pass over a workload's experiments. Times are kept as
    `time.perf_counter()` stamps (start, end): the pass's in `span`, each
    experiment's in `spans`; hostspeed.py turns them into seconds."""

    span: tuple = (0.0, 0.0)
    keys: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    sample_epochs: int = 0
    accuracies: list = field(default_factory=list)
    store_match: list = field(default_factory=list)

    def add(self, key, span, work, report):
        self.keys.append(key)
        self.spans.append(span)
        self.sample_epochs += work
        if report is not None:
            self.accuracies.append(report["final_metrics"]["accuracy"])
            diag = report["noise_diagnostics"]
            if "store_match_truth_final" in diag:
                self.store_match.append(diag["store_match_truth_final"])


def _finite(value):
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return all(_finite(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


class OutputCheck:
    """Counts an experiment as failed when it raised, when its sweep row
    carries an error, when a final metric is non-finite, or when its report
    (wall time stripped) is not byte-identical to the one an earlier pass
    produced for the same config."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self._digests = {}

    def record(self, key, report=None, error=None):
        self.attempted += 1
        problem = error
        if problem is None and not _finite(report["final_metrics"]):
            problem = "non-finite final metric"
        if problem is None:
            digest = hashlib.sha256(report_json(strip_wall_time(report))
                                    .encode("utf-8")).hexdigest()
            if self._digests.setdefault(key, digest) != digest:
                problem = "report differs from an earlier pass"
        if problem is not None:
            self.failures.append({"experiment": key, "problem": problem})
        return problem is None


class ExperimentList:
    """Workload that calls `harness.run_experiment` once per pipeline."""

    def __init__(self, seed, methods, dataset=LARGE_DATASET,
                 epochs=LARGE_EPOCHS):
        self.epochs = epochs
        self.n_train = n_train(dataset["n_per_class"], dataset["k"])
        self.pipelines = list(methods)
        self.configs = [
            (name, {"seed": seed, "dataset": dict(dataset),
                    "test_fraction": TEST_FRACTION,
                    "noise": copy.deepcopy(PANEL if "annotator" in method
                                           else SYMMETRIC),
                    "method": copy.deepcopy(method),
                    "train": {"epochs": epochs}})
            for name, method in methods.items()]

    def warm_up(self):
        """Run every pipeline once on a small dataset for one epoch."""
        for _, cfg in self.configs:
            harness.run_experiment(dict(cfg, dataset=WARMUP_DATASET,
                                        train={"epochs": 1}))

    def run_pass(self, check):
        outcomes = []
        for name, cfg in self.configs:
            cfg = copy.deepcopy(cfg)
            t0 = time.perf_counter()
            try:
                report = harness.run_experiment(cfg)
            except Exception as e:  # counted as a failed experiment
                report, error = None, f"{type(e).__name__}: {e}"
            else:
                error = None
            outcomes.append((name, (t0, time.perf_counter()), report, error))
        return _checked_pass((outcomes[0][1][0], outcomes[-1][1][1]),
                             outcomes, self.n_train * self.epochs, check)


class SweepPlan:
    """Workload that runs `harness.sweep` over a CSV written at set-up, then
    writes every report and the summary."""

    def __init__(self, seed, out_dir):
        self.epochs = SWEEP_EPOCHS
        self.n_train = n_train(SWEEP_ROWS_PER_CLASS, 3)
        self.out_dir = out_dir
        self.pipelines = list(SWEEP_METHODS)
        (out_dir / "reports").mkdir(parents=True, exist_ok=True)
        csv_path = out_dir / "data.csv"
        data.save_csv(data.gen_blobs(3, SWEEP_ROWS_PER_CLASS, 2, 3.0, seed),
                      csv_path)
        self.template = {"seed": seed,
                         "dataset": {"kind": "csv", "path": str(csv_path)},
                         "test_fraction": TEST_FRACTION,
                         "train": {"epochs": SWEEP_EPOCHS}}

    def warm_up(self):
        """One sweep point per method, with its report written."""
        reports, _, _ = harness.sweep(self.template, [0.3],
                                     list(SWEEP_METHODS.values()))
        for i, report in enumerate(reports):
            harness.write_report(report,
                                 str(self.out_dir / f"warmup-{i}.json"))

    def run_pass(self, check):
        spans = []
        run_experiment = harness.run_experiment

        def timed(cfg):
            t0 = time.perf_counter()
            try:
                return run_experiment(cfg)
            finally:
                spans.append((t0, time.perf_counter()))

        t_pass = time.perf_counter()
        harness.run_experiment = timed
        try:
            reports, summary, _ = harness.sweep(
                self.template, SWEEP_RHOS, list(SWEEP_METHODS.values()))
        finally:
            harness.run_experiment = run_experiment
        done = iter(reports)
        rows = []
        for row in summary:
            key = f"{row['method']}@rho={row['rho']}"
            report = None if "error" in row else next(done)
            if report is not None:
                harness.write_report(report, str(
                    self.out_dir / "reports" / f"{key}.json"))
            rows.append((key, report, row.get("error")))
        harness.atomic_write_text(str(self.out_dir / "summary.csv"),
                                  harness.sweep_summary_csv(summary))
        span = (t_pass, time.perf_counter())
        outcomes = [(key, s, report, error)
                    for (key, report, error), s in zip(rows, spans)]
        return _checked_pass(span, outcomes, self.n_train * self.epochs,
                             check)


def _checked_pass(span, outcomes, work, check):
    """Run the output check on a pass's (key, span, report, error)
    outcomes, after its wall time was taken."""
    result = PassResult(span=span)
    for key, s, report, error in outcomes:
        ok = check.record(key, report, error)
        result.add(key, s, work, report if ok else None)
    return result


WORKLOADS = {
    "train_large": lambda seed, out_dir: ExperimentList(seed, TRAIN_METHODS),
    "fusion_procedures_large": lambda seed, out_dir: ExperimentList(
        seed, {**FUSION_METHODS, **PROCEDURE_METHODS}),
    "sweep_small": SweepPlan,
}
