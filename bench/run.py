"""Benchmark of noisylab: one workload, one process, one caller.

Usage, from the repository root:

    python3 bench/run.py --workload train_large --seed 1 --seconds 40 --trace 0

With `--trace 0` it prints every end-to-end metric of BENCHMARK.json; with
`--trace 1` it runs the workload untraced and then traced, and prints every
per-layer metric. The last line of standard output is one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`. The run record
(environment, sample counts, failures) goes to `bench/out/<workload>/`.
Exits with 2, printing no result, when the noisylab sources are missing.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "bench" / "out"
DEFAULT_SEED = 1
HELD_OUT_SEED = 2
SETUP_REPEATS = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); import numpy, noisylab; "
                "print(time.perf_counter() - t)")
# Each workload is one single-threaded caller on a 2-core machine.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def import_seconds(src):
    """Seconds `import numpy, noisylab` takes in a fresh interpreter: the
    median of SETUP_REPEATS imports, each in its own child process."""
    env = dict(os.environ, PYTHONPATH=str(src))
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                             check=True, capture_output=True, text=True,
                             timeout=60).stdout)
        for _ in range(SETUP_REPEATS))


def git_sha(root):
    """Commit of the checkout, read from .git without running git; None
    when the checkout is not a git repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def tail_percentile(values):
    """Highest of p99/p90 with at least ten samples beyond it, or None."""
    ordered = sorted(values)
    for q in (99, 90):
        if len(ordered) * (100 - q) / 100 >= 10:
            return {"percentile": q, "value": statistics.quantiles(
                ordered, n=100)[q - 1]}
    return None


def harrell_davis_median(values, steps=20000):
    """Harrell-Davis estimate of the median: the mean of the order
    statistics weighted by a Beta((n+1)/2, (n+1)/2) density. With a few
    pipelines of different speeds the sample median is one pipeline's
    latency and jumps between pipelines from run to run; this estimate
    weighs every call near the middle rank."""
    x = sorted(values)
    n = len(x)
    shape = (n - 1) / 2
    # Beta density at midpoints, scaled so its peak at 1/2 is 1.
    density = [math.exp(shape * math.log(4 * t * (1 - t)))
               for t in ((k + 0.5) / steps for k in range(steps))]
    cdf = [0.0, *itertools.accumulate(density)]
    edges = [cdf[round(i * steps / n)] / cdf[-1] for i in range(n + 1)]
    return sum((hi - lo) * v for lo, hi, v in zip(edges, edges[1:], x))


def durations(passes, seconds):
    """Per pass, (pass seconds, [experiment seconds]), with `seconds`
    turning a pair of stamps into seconds."""
    return [(seconds(*p.span), [seconds(*span) for span in p.spans])
            for p in passes]


def pipeline_medians(passes, seconds):
    """Median latency of each experiment across passes."""
    by_key = {}
    for p, (_, latencies) in zip(passes, durations(passes, seconds)):
        for key, latency in zip(p.keys, latencies):
            by_key.setdefault(key, []).append(latency)
    return {k: statistics.median(v) for k, v in by_key.items()}


def timings(passes, seconds):
    """{metric: (value, sample count)} for the timing metrics."""
    timed = durations(passes, seconds)
    latencies = [x for _, lat in timed for x in lat]
    return {
        "sample_epochs_per_s": (sum(p.sample_epochs for p in passes)
                                / sum(wall for wall, _ in timed),
                                len(passes)),
        "experiment_s_p50": (harrell_davis_median(latencies),
                             len(latencies)),
        "slowest_pipeline_s": (max(pipeline_medians(passes,
                                                    seconds).values()),
                               len(passes)),
    }


def end_to_end(passes, probe, setup_s):
    """{metric: (value, sample count)} from the untraced passes."""
    accuracies = [a for p in passes for a in p.accuracies]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        **timings(passes, probe.normalised),
        "peak_rss_mb": (peak_kib / 1024.0, 1),
        "final_accuracy_mean": (statistics.fmean(accuracies)
                                if accuracies else 0.0, len(accuracies)),
        "setup_s": (setup_s, SETUP_REPEATS),
    }


def fill(plan, seconds, check, minimum):
    """At least `minimum` passes, and more while one more pass of average
    length would end within `seconds`."""
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(plan.run_pass(check))
        elapsed = time.perf_counter() - t0
        n = len(passes)
        if n >= minimum and elapsed * (n + 1) / n > seconds:
            return passes


def run_untraced(plan, seconds, check, probe):
    """At least two passes (the output check compares them), as many as
    fit in `seconds`, with `probe` timing the host's speed throughout."""
    with probe:
        return fill(plan, seconds, check, 2)


def run_traced(plan, seconds, check, spans_path):
    """Untraced passes for a third of `seconds`, then as many traced ones;
    {metric: (value, traced passes)} for the per-layer metrics, each per
    pass. No speed probe runs, so spans hold only noisylab's time."""
    from tracing import Tracer, layer_metrics

    untraced = fill(plan, seconds / 3, check, 1)
    n = len(untraced)
    with Tracer() as tracer:
        traced = [plan.run_pass(check) for _ in range(n)]
    table = tracer.table()
    table.save(spans_path)
    metrics = layer_metrics(table, tracer.counters, n)
    store = [v for p in traced for v in p.store_match]
    metrics["procedures.store_match_truth"] = (statistics.fmean(store)
                                               if store else 0.0)
    wall = [sum(p.span[1] - p.span[0] for p in ps)
            for ps in (traced, untraced)]
    metrics["trace.overhead_ratio"] = wall[0] / wall[1]
    return {k: (v, n) for k, v in metrics.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "noisylab" / "__init__.py").is_file():
        print(f"noisylab sources not found under {src}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"

    import_s = import_seconds(src)
    sys.path.insert(0, str(src))
    import hostspeed
    import numpy
    import noisylab
    import workloads
    if Path(noisylab.__file__).resolve().parent != src / "noisylab":
        print(f"imported noisylab from {noisylab.__file__}, not {src}",
              file=sys.stderr)
        return 2

    out_dir = OUT / args.workload
    builds = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        plan = workloads.WORKLOADS[args.workload](args.seed, out_dir)
        plan.warm_up()
        builds.append(time.perf_counter() - t)
    out_dir.mkdir(parents=True, exist_ok=True)

    check = workloads.OutputCheck()
    if args.trace:
        measured = run_traced(plan, args.seconds, check,
                              out_dir / "spans.npz")
        declared = spec["per_layer"]
    else:
        probe = hostspeed.SpeedProbe()
        passes = run_untraced(plan, args.seconds, check, probe)
        setup_wall_s = import_s + statistics.median(builds)
        measured = end_to_end(passes, probe, setup_wall_s * probe.scale())
        declared = spec["end_to_end"]

    units = {m["name"]: m["unit"] for m in declared}
    metrics = {name: {"value": measured[name][0], "unit": units[name]}
               for name in units}
    failed = len(check.failures)
    record = {
        "workload": args.workload, "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED, "trace": args.trace,
        "seconds": args.seconds, "n_train": plan.n_train,
        "epochs": plan.epochs, "pipelines": plan.pipelines,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "git_sha": git_sha(ROOT),
        "import_s": import_s, "setup_builds_s": builds,
        "metrics": {name: dict(metrics[name], samples=measured[name][1])
                    for name in metrics},
        "failed_fraction": failed / check.attempted,
        "failures": check.failures,
    }
    if not args.trace:
        record["experiment_s_tail"] = tail_percentile(
            [x for _, lat in durations(passes, probe.normalised)
             for x in lat])
        record["pipeline_s_p50"] = pipeline_medians(passes, probe.normalised)
        record["wall_clock"] = {k: v[0] for k, v in
                                timings(passes, probe.wall).items()}
        record["wall_clock"]["setup_s"] = setup_wall_s
        record["reference_s"] = {"nominal": hostspeed.REF_S,
                                 "median": statistics.median(probe.samples),
                                 "samples": len(probe.samples)}
    record_path = out_dir / f"record-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n")

    for name, m in record["metrics"].items():
        print(f"{name} = {m['value']!r} {m['unit']} (samples: {m['samples']})")
    print(f"failed_fraction = {record['failed_fraction']!r} "
          f"({failed}/{check.attempted})")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": check.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
