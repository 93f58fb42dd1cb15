"""Self-test of the benchmark harness at tiny sizes.

Run from the repository root:

    python3 -m pytest -q bench

Each workload is built small, analysed, gated and traced, and must report
every metric BENCHMARK.json names.  The gate's checks are also shown to
fail on outputs that are wrong.
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import gate
import run
from workloads import WORKLOADS

with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
    SPEC = json.load(fh)


def tiny(workload):
    """A seconds-long variant of ``workload``: one small draw, B = 3."""
    return dataclasses.replace(
        workload,
        n=min(workload.n, 1000),
        replicates=3,
        grid_points=5 if workload.grid_points else None,
        datasets=1,
        phi_tol=1.0,
    )


def test_benchmark_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["command"] == ["python3", "bench/run.py"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_gates_and_emits_every_metric(name, tmp_path):
    correct, attempted, failed, end_to_end, per_layer, report = run.measure(
        tiny(WORKLOADS[name]), seed=3, seconds=0, trace=1, work=tmp_path)
    assert correct
    assert attempted > 0 and failed == 0
    assert set(end_to_end) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(per_layer) == {m["name"] for m in SPEC["per_layer"]}
    assert all(np.isfinite(v) for v in [*end_to_end.values(), *per_layer.values()])
    assert report["gate"][0]["repeats_identical"]
    assert report["environment"]["nproc"] >= 1
    calls = per_layer["quantreg.calls"]
    assert calls == 2 * attempted / len(report["runs"])
    assert per_layer["design.check_full_rank_calls"] == 1.5 * calls
    if WORKLOADS[name].workers > 1:
        assert 0.0 < per_layer["bootstrap.parallel_efficiency"] <= 1.0


def test_command_prints_result_last(capsys):
    wl = tiny(WORKLOADS["boot-n5k-groups"])
    assert run.main(["--workload", wl.name, "--seed", "4", "--seconds", "0",
                     "--trace", "0"], workload=wl) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert json.loads(lines[-2])["seed"] == 4


def test_fails_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "boot-n5k-groups", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _fit(n=200, tau=0.25, seed=0):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.uniform(size=n)])
    y = X @ np.array([1.0, 2.0]) + rng.normal(size=n)
    # the exact tau-quantile of y - 2x as the intercept: a valid vertex
    r = y - 2.0 * X[:, 1]
    return X, y, np.array([np.sort(r)[int(n * tau)], 2.0])


def test_quantile_property_flags_a_shifted_fit():
    X, y, beta = _fit()
    assert gate.quantile_property([("0.25", "y", X, y, beta)])[0]["ok"]
    shifted = beta + np.array([0.5, 0.0])
    assert not gate.quantile_property([("0.25", "y", X, y, shifted)])[0]["ok"]


def test_lp_gap_is_positive_off_the_optimum():
    X, y, beta = _fit()
    assert gate.lp_gap([("0.25", "y", X, y, beta)]) > -1e-6
    assert gate.lp_gap([("0.25", "y", X, y, beta + np.array([3.0, 0.0]))]) > 0.1
