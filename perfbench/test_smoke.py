"""Smoke test of the benchmark: each workload at a tiny size, traced and not.

Run from the repository root with `python -m pytest perfbench/test_smoke.py`.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

HARNESS_CHECKS = (
    "exit_code", "row_count", "point_errored", "required_cells", "pfa_calibration",
    "pd_calibration",
)
CHECKS = {
    "desk_recipes": HARNESS_CHECKS,
    "large_array": HARNESS_CHECKS,
    "design_grid": ("raised", "non_finite", "threshold_above_bulk", "pfa_oracle"),
}
HARNESS_REPORT = (
    "setup_s", "trials_per_s", "run_p50_ms", "run_p95_ms", "peak_rss_mb", "fail_share",
)
REPORT = {
    "desk_recipes": HARNESS_REPORT,
    "large_array": HARNESS_REPORT,
    "design_grid": ("setup_s", "design_points_per_s", "design_p50_ms", "design_p95_ms",
                    "peak_rss_mb", "fail_share"),
}


def _run(cwd, workload, trace):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "5", "--seconds", "0.5", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=170)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric_and_runs_every_check(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    *report, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for metric in spec:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert math.isfinite(entry["value"])
        if not trace:
            assert entry["value"] > 0
    names = {line.split()[0] for line in report}
    assert set(REPORT[workload]) <= names
    checks = {line.split()[1].rstrip(":"): line.split() for line in report
              if line.startswith("check ")}
    for check in CHECKS[workload]:
        # "check <name>: <failed> failed of <examined>"
        assert int(checks[check][-1]) > 0, f"check {check} examined nothing"


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(str(tmp_path), "design_grid", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_excludes_wrapped_children():
    sys.path.insert(0, HERE)
    import tracing

    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)), span=True)
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)], span=True)
    outer()
    (outer_span,) = [s for s in tracer.spans if s[1] == "outer"]
    inner_spans = [s for s in tracer.spans if s[1] == "inner"]
    assert tracer.calls == {"inner": 3, "outer": 1}
    assert all(s[4] == outer_span[0] for s in inner_spans)
    covered = sum(s[3] - s[2] for s in inner_spans)
    assert tracer.self_time["outer"] == pytest.approx(tracer.busy["outer"] - covered)
    assert tracer.self_time["inner"] == pytest.approx(tracer.busy["inner"])
