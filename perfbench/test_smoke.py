"""Smoke test of the benchmark itself, on tiny job lists.

    python3 -m pytest perfbench/test_smoke.py

Checks that every metric named in ``BENCHMARK.json`` is emitted with its
unit and placed in ``layers.json``, that a wrong expected answer (injected
in the checker, not in fmtk) is counted as a failure, and that the runner
refuses to run without the fmtk sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_emitted(workload, trace):
    result = run.run_workload(workload, seed=3, seconds=0.01, trace=trace, tiny=True)
    assert result["correct"], result["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"], m["name"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_layer_map_names_every_per_layer_metric():
    with open(os.path.join(run.HERE, "layers.json")) as fh:
        rows = json.load(fh)["layers"]
    mapped = [name for row in rows for name in row["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in BENCH["per_layer"])
    workloads = {w["name"] for w in BENCH["workloads"]}
    for row in rows:
        assert set(row["on"]) | set(row["control"]) <= workloads, row["metrics"]


def test_wrong_expected_answer_counts_in_fail_ratio():
    first = run.run_workload("equiv-mix", seed=3, seconds=0.01, trace=False, tiny=True)
    recorded = dict(first["answers"])
    victim = sorted(recorded)[0]
    recorded[victim] = "0" * 16
    second = run.run_workload("equiv-mix", seed=3, seconds=0.01, trace=False, tiny=True,
                              recorded=recorded)
    assert not second["correct"]
    assert [job for job, _ in second["failures"]] == [victim]
    assert second["failed"] / second["attempted"] > 0


def test_last_line_is_the_result_object():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", "translate-mix",
         "--seed", "5", "--seconds", "0.01", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", "equiv-mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_quantile_estimate_and_scaling():
    assert run.quantile_ms([0.004] * 50, 0.9) == pytest.approx(4.0)
    values = [i / 1000 for i in range(1, 102)]  # 1 .. 101 ms
    assert run.quantile_ms(values, 0.5) == pytest.approx(51.0, abs=0.5)
    assert run.quantile_ms(values, 0.9) == pytest.approx(91.0, abs=1.0)
    # a job that ran while the probe took twice its reference time
    # counts half its wall time
    ref = run.PROBE_REF_S
    assert run.scaled(0.010, 2 * ref, 2 * ref) == pytest.approx(0.005)
