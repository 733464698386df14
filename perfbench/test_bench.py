"""Fast checks of the benchmark itself: every workload and the traced run at
tiny sizes with all output checks on, plus the tracer's bookkeeping.

Run from the repository root: python3 -m pytest perfbench -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "1",
                           "--smoke", *args], cwd=cwd, capture_output=True, text=True, timeout=300)


def last_json(proc):
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_all_workloads_print_every_end_to_end_metric():
    proc = run_bench("--workload", "all", "--trace", "0")
    doc = last_json(proc)
    assert doc["correct"] and doc["failed"] == 0
    expected = {f"{w}.{m['name']}" for w in WORKLOADS for m in BENCHMARK["end_to_end"]}
    assert set(doc["metrics"]) == expected
    for name in ("setup_s", "wall_s", "peak_rss_mib", "failed_ratio", "convert_rps",
                 "score_rps", "eval_iqa_rps", "eval_iqa_logistic_rps", "oracle_calls", "rerun_s"):
        assert f"  {name} " in proc.stdout
    assert re.search(r"^  oracle_calls +58 count ", proc.stdout, re.M)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_reports_every_layer(workload):
    doc = last_json(run_bench("--workload", workload, "--trace", "1"))
    assert doc["correct"] and doc["failed"] == 0
    # A layer named in tracing.EXPECTED that records no calls makes the run incorrect.
    assert list(doc["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] \
        == [tuple(m) for m in tracing.PER_LAYER]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = run_bench("--workload", "mix-search", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_rebinds_every_named_site():
    code = ("import json, sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; import tracing; "
            "print(json.dumps(sorted(tracing.Tracer().install())))")
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "src"), str(HERE)],
                          capture_output=True, text=True, check=True)
    assert tracing.REQUIRED_SITES <= set(json.loads(proc.stdout))


def test_self_time_subtracts_the_union_of_children():
    parent = [1, "p", None, 10, 0.0, 10.0, 10.0, None]
    overlapping = [[2, "c", 1, 11, 1.0, 4.0, 3.0, None], [3, "c", 1, 12, 3.0, 6.0, 3.0, None]]
    generator = [4, "g", 1, 10, 6.0, 9.0, 2.0, {"generator": 1, "records": 5, "diagnostics": 1}]
    totals = tracing.layer_totals([parent, *overlapping, generator])
    assert totals["p.self_s"] == pytest.approx(10.0 - 5.0 - 2.0)
    assert totals["c.calls"] == 2 and totals["c.s"] == pytest.approx(6.0)
    assert totals["g.records"] == 5 and "g.generator" not in totals
    assert tracing.top_level_s([parent, *overlapping, generator]) == pytest.approx(10.0)
