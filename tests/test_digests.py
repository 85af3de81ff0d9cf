"""tools/digests.py prints, for each report of a workload pass, the sha256
of the report with its wall time stripped."""

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import digests  # noqa: E402

from noisylab import harness  # noqa: E402
from noisylab.harness import report_json, strip_wall_time  # noqa: E402


def test_a_line_holds_the_stripped_reports_sha256():
    workloads = digests.workloads
    plan = workloads.ExperimentList(
        4, {"loss:mae": workloads.TRAIN_METHODS["loss:mae"]},
        dataset=workloads.WARMUP_DATASET, epochs=1)
    line, = digests.pass_digests("tiny", 4, plan)
    harness._SHARED.clear()
    report = harness.run_experiment(plan.configs[0][1])
    assert line == "tiny loss:mae 4 " + hashlib.sha256(
        report_json(strip_wall_time(report)).encode("utf-8")).hexdigest()
