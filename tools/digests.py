"""Print the sha256 of every stripped report (wall time removed) of one
untimed pass of each benchmark workload, seeds 1-3, and of each sweep's
summary CSV: one sorted `workload key seed sha256` line each.

Run it on two checkouts and diff the outputs: an empty diff means the
change moved no trajectory the benchmark runs.

    python3 tools/digests.py > digests.txt

It takes no options. It imports bench/workloads.py from its own checkout
and writes nothing under bench/: the sweep's CSV, reports and summary go
to a temporary directory, named by a relative path so that the reports
echo the same config wherever it runs.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
import workloads  # noqa: E402
sys.dont_write_bytecode = _write

from noisylab.harness import report_json, strip_wall_time  # noqa: E402

SEEDS = (1, 2, 3)


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Digests:
    """Takes the place of the workloads' OutputCheck: keeps each report's
    digest, or its error, by key."""

    def __init__(self):
        self.by_key = {}

    def record(self, key, report=None, error=None):
        self.by_key[key] = (f"error: {error}" if error is not None
                            else sha256(report_json(strip_wall_time(report))))
        return error is None


def pass_digests(name, seed, plan):
    """`name key seed digest` lines of one pass of a workload plan."""
    digests = Digests()
    plan.run_pass(digests)
    return [f"{name} {key} {seed} {d}" for key, d in digests.by_key.items()]


def workload_digests(name, seed):
    """pass_digests of one workload and seed, and for the sweep its
    summary CSV's digest."""
    if name != "sweep_small":
        return pass_digests(name, seed, workloads.WORKLOADS[name](seed, None))
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            lines = pass_digests(name, seed,
                                 workloads.SweepPlan(seed, Path(".")))
            summary = Path("summary.csv").read_text(encoding="utf-8")
        finally:
            os.chdir(cwd)
    return lines + [f"{name} summary.csv {seed} {sha256(summary)}"]


def main():
    lines = [line for name in workloads.WORKLOADS for seed in SEEDS
             for line in workload_digests(name, seed)]
    print("\n".join(sorted(lines)))


if __name__ == "__main__":
    main()
