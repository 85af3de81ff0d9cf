"""Self-tests of the noisylab benchmark: span arithmetic, restoration of
traced functions, the output check, and metric names against
BENCHMARK.json. Run with `PYTHONPATH=src python3 -m pytest bench`."""

import json
import random
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import noisylab.harness as harness  # noqa: E402
import noisylab.model as model  # noqa: E402
import noisylab.numerics as numerics  # noqa: E402
import noisylab.procedures as procedures  # noqa: E402
import noisylab.reweight as reweight  # noqa: E402
import run  # noqa: E402
from hostspeed import REF_S, SpeedProbe  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

TINY_METHODS = {
    "loss:ce": {"loss": {"kind": "ce"}},
    "reweight:pumpout": {"reweight": {"kind": "pumpout",
                                      "transition": "true"}},
    "annotator:staple": {"annotator": {"fusion": "staple"}},
    "procedure:dual_relabel": {"procedure": {"name": "dual_relabel"}},
}


def tiny_plan(methods=TINY_METHODS):
    return workloads.ExperimentList(3, methods, workloads.WARMUP_DATASET, 1)


def test_self_time_of_nested_spans():
    # x.a [0,10] holds x.b [1,4] (which holds y.c [2,3]) and x.d [5,9]
    table = tracing.SpanTable(["x.a", "x.b", "y.c", "x.d"],
                              name_id=[0, 1, 2, 3], parent=[-1, 0, 1, 0],
                              start=[0.0, 1.0, 2.0, 5.0],
                              end=[10.0, 4.0, 3.0, 9.0])
    assert table.self_time.tolist() == [3.0, 2.0, 1.0, 4.0]
    x = table.select(layer="x")
    assert table.self_s(x) == 9.0
    assert table.inclusive_s(x) == 10.0
    assert table.inclusive_s(table.select({"x.b", "x.d"})) == 7.0
    assert table.under(table.select({"x.b"})).tolist() == [False, False,
                                                           True, False]
    assert table.entries("x") == 1
    assert table.entries("y") == 1
    assert table.count(x) == 3


def _callables():
    found = {}
    for name, mod in list(sys.modules.items()):
        if name == "noisylab" or name.startswith("noisylab."):
            for attr, value in vars(mod).items():
                if callable(value):
                    found[(name, attr)] = value
    for cls in [procedures.SoftLabelStore, *reweight._HOOKS.values()]:
        for attr, value in vars(cls).items():
            found[(cls.__name__, attr)] = value
    return found


def test_tracer_wraps_every_binding_and_restores_them():
    before = _callables()
    original = model.forward_batch
    with tracing.Tracer() as tracer:
        assert model.forward_batch is not original
        assert model.forward_batch.__wrapped__ is original
        assert procedures.forward_batch is model.forward_batch
        assert model.loss_value is not before[("noisylab.model",
                                               "loss_value")]
        assert (reweight._PumpoutHook.sample_weight
                is not before[("_PumpoutHook", "sample_weight")])
        with pytest.raises(ValueError):
            numerics.softmax([np.nan])
    after = _callables()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    table = tracer.table()
    assert table.names[table.name_id[0]] == "numerics.softmax"
    assert table.end[0] >= table.start[0] > 0.0


def test_traced_run_restores_functions_and_reports_every_layer_metric(
        tmp_path):
    before = _callables()
    check = workloads.OutputCheck()
    measured = run.run_traced(tiny_plan(), 0.0, check,
                              tmp_path / "spans.npz")
    after = _callables()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert set(measured) == {m["name"] for m in SPEC["per_layer"]}
    assert check.failures == []
    assert measured["harness.experiments"][0] == len(TINY_METHODS)
    assert measured["annotators.staple_iters"][0] > 0
    assert 0.0 < measured["reweight.kept_fraction"][0] <= 1.0
    assert (tmp_path / "spans.npz").is_file()


def test_untraced_metrics_match_benchmark_json():
    check = workloads.OutputCheck()
    probe = SpeedProbe()
    passes = run.run_untraced(tiny_plan({"loss:ce": TINY_METHODS["loss:ce"]}),
                              0.0, check, probe)
    measured = run.end_to_end(passes, probe, 0.5)
    assert set(measured) == {m["name"] for m in SPEC["end_to_end"]}
    assert check.failures == [] and check.attempted == 2
    assert set(workloads.WORKLOADS) == {w["name"] for w in SPEC["workloads"]}


def test_non_deterministic_report_counts_as_failure(monkeypatch):
    def flaky(cfg):
        acc = random.random()
        return {"config": cfg, "final_metrics": {"accuracy": acc},
                "noise_diagnostics": {}, "wall_time_s": acc}

    monkeypatch.setattr(harness, "run_experiment", flaky)
    check = workloads.OutputCheck()
    run.run_untraced(tiny_plan(), 0.0, check, SpeedProbe())
    assert check.attempted == 2 * len(TINY_METHODS)
    assert len(check.failures) == len(TINY_METHODS)
    assert {f["problem"] for f in check.failures} == {
        "report differs from an earlier pass"}


def test_output_check_failure_kinds():
    def report(acc, wall):
        return {"final_metrics": {"accuracy": acc, "per_class": [acc]},
                "wall_time_s": wall}

    check = workloads.OutputCheck()
    assert check.record("a", report(0.5, 1.0))
    assert check.record("a", report(0.5, 2.0))  # wall time is ignored
    assert not check.record("b", report(float("nan"), 1.0))
    assert not check.record("c", error="PipelineError: boom")
    assert check.attempted == 4
    assert [f["experiment"] for f in check.failures] == ["b", "c"]


def test_harrell_davis_median():
    assert run.harrell_davis_median([4.0]) == pytest.approx(4.0)
    assert run.harrell_davis_median([1.0, 2.0, 3.0]) == pytest.approx(2.0)
    # two clusters of equal size: the estimate sits between them
    assert run.harrell_davis_median([1.0] * 5 + [3.0] * 5) == pytest.approx(
        2.0)
    # a large sample: close to the sample median
    values = [float(i) for i in range(1001)]
    assert run.harrell_davis_median(values) == pytest.approx(500.0, abs=0.5)


def test_probe_times_the_host_and_removes_its_own_time(monkeypatch):
    probe = SpeedProbe()
    previous = signal.getsignal(signal.SIGALRM)
    with probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            pass
        t1 = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    inside = [t for s, t in zip(probe.starts, probe.samples) if t0 <= s < t1]
    assert len(inside) >= 2
    assert probe.wall(t0, t1) == pytest.approx(t1 - t0 - sum(inside))
    # a host at half the nominal speed: reference calls take 2 * REF_S
    monkeypatch.setattr(probe, "samples", [2 * REF_S] * len(probe.samples))
    assert probe.normalised(t0, t1) == pytest.approx(
        probe.wall(t0, t1) / 2)
    assert probe.scale() == pytest.approx(0.5)


def test_passes_are_stamped_in_order():
    check = workloads.OutputCheck()
    probe = SpeedProbe()
    passes = run.run_untraced(tiny_plan({"loss:ce": TINY_METHODS["loss:ce"]}),
                              0.0, check, probe)
    assert len(passes) == 2
    for p in passes:
        (start, end), = p.spans
        assert p.span[0] <= start < end <= p.span[1]
    timed = run.durations(passes, probe.normalised)
    assert all(x > 0.0 for wall, lat in timed for x in [wall, *lat])
