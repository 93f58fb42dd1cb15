"""quantcord benchmark: ``quantcord analyze`` on synthetic workloads.

Usage, from the repository root:

    python3 bench/run.py --workload boot-n5k-groups --seed 1 --seconds 15 --trace 0

A run makes its datasets from the seed with ``quantcord synth``.  A fresh
process then imports ``quantcord.cli`` and analyses every dataset in turn;
after it, one fresh process per analysis repeats the datasets round-robin,
starting with the first, until ``--seconds`` have passed since the first
process started (at least one repeat).  The gate checks every output tree,
and the repeats must match their first tree byte for byte.

The report line printed before the result has every sample, the checks and
the machine.  The last line is the result object: the end-to-end metrics
with ``--trace 0``; with ``--trace 1`` the per-layer metrics of one more,
traced, analysis of the first dataset.  A dataset's cost is the median over
its analyses; a metric is the median of those over the datasets.  ``setup_s``
is the median over every process.  See README.md for the definitions.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy
import yaml

import gate
import tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BUDGET_S = 170.0  # a run must exit within 180 s
MIN_SETUP_SAMPLES = 3
GATE_RESERVE_S = 10.0
# claims made with this benchmark must also hold on this seed, which was not
# used while the benchmark or the code it measured was written
HELD_OUT_SEED = 7919


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _spawn(cmd, cwd, deadline):
    """Run ``cmd`` in its own process group; kill the group at the deadline.

    Returns the exit code (None on timeout), stderr and the start time.
    """
    start = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=cwd, env=_child_env(), stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
        rc = proc.returncode
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        _, err = proc.communicate()
        rc = None
    return rc, err.decode(errors="replace"), start


def _process(work, deadline, name, configs, outs=(), spool=None):
    """One fresh ``child.py`` process analysing ``configs`` into ``outs``
    (set-up only when there are none), traced when ``spool`` is a
    directory; returns its result dict, or None."""
    request, result_path = work / f"{name}.request.json", work / f"{name}.result.json"
    with open(request, "w", encoding="utf-8") as fh:
        json.dump({"configs": list(configs), "outs": list(outs), "spool": spool}, fh)
    rc, err, start = _spawn(
        [sys.executable, str(BENCH / "child.py"), str(request), str(result_path)],
        work, deadline)
    if rc != 0 or not result_path.exists():
        sys.stderr.write(f"{name}: exit {rc}\n{err[-2000:]}")
        return None
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    if not result["package"].startswith(str(SRC)):
        raise RuntimeError(f"measured {result['package']}, not the code under {SRC}")
    result["setup_s"] = result["setup_end"] - start
    result["wall_s"] = time.monotonic() - start
    return result


def _make_inputs(wl, seed, work):
    """Write each dataset's scenario and run config and synthesise its CSV."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from quantcord.cli import main as quantcord

    configs = []
    for i in range(wl.datasets):
        data_seed = seed * 1000 + i
        with open(work / f"scenario_{i}.yaml", "w", encoding="utf-8") as fh:
            yaml.safe_dump(wl.scenario(data_seed), fh)
        with open(work / f"run_{i}.yaml", "w", encoding="utf-8") as fh:
            yaml.safe_dump(wl.run_config(f"data_{i}.csv", data_seed), fh)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = quantcord(["synth", "--config", str(work / f"scenario_{i}.yaml"),
                            "--out", str(work / f"data_{i}.csv")])
        if rc != 0:
            raise RuntimeError(f"quantcord synth failed with exit code {rc}")
        configs.append(f"run_{i}.yaml")
    return configs


def _check(wl, work, runs):
    """Gate every dataset's outputs.

    Returns the per-dataset findings, the attempted and failed fits, and
    the first dataset's step-1 fits.
    """
    attempted = failed = 0
    report, first_fits = [], None
    for i in range(wl.datasets):
        mine = [r for r in runs if r["dataset"] == i]
        attempted += wl.attempts() * len(mine)
        ok_runs = [r for r in mine if r["rc"] == 0]
        if not ok_runs:
            failed += wl.attempts() * len(mine)
            report.append({"dataset": i, "runs": len(mine), "ok": False})
            continue
        ref = work / ok_runs[0]["out"]
        data = gate.read_columns(work / f"data_{i}.csv")
        fits = gate.step1_fits(ref, data)
        first_fits = first_fits or fits
        quantile = gate.quantile_property(fits)
        phi = gate.phi_errors(ref, data, work / f"data_{i}.csv.oracle.json")
        missed = {q["tau"] for q in quantile if not q["ok"]}
        missed |= {tau for tau, err in phi.items() if err > wl.phi_tol}
        digest = gate.tree_digest(ref)
        for r in mine:
            r["digest"] = gate.tree_digest(work / r["out"]) if r["rc"] == 0 else None
            if r["digest"] != digest:
                failed += wl.attempts()
            else:
                failed += gate.replicate_failures(work / r["out"]) + len(missed)
        identical = all(r["digest"] == digest for r in mine)
        report.append({
            "dataset": i,
            "runs": len(mine),
            "ok": identical and not missed,
            "repeats_identical": identical and len(mine) > 1,
            "digest": digest,
            "quantile_property": quantile,
            "strict_quantile_misses": sum(not q["strict"] for q in quantile),
            "phi_abs_err": {str(t): e for t, e in phi.items()},
            "phi_tol": wl.phi_tol,
            "missed_taus": sorted(missed),
        })
    return report, attempted, failed, first_fits


def _environment():
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads_env": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _typical(runs, key):
    """Median over datasets of the median over each dataset's runs."""
    by_ds = {}
    for r in runs:
        by_ds.setdefault(r["dataset"], []).append(r[key])
    return statistics.median(statistics.median(v) for v in by_ds.values())


def measure(wl, seed, seconds, trace, work):
    """One benchmark run in the empty directory ``work``; returns
    (correct, attempted, failed, end-to-end metrics, per-layer metrics or
    None, report)."""
    deadline = time.monotonic() + BUDGET_S
    configs = _make_inputs(wl, seed, work)

    runs, setups = [], []

    def analyse(datasets):
        outs = [f"out_{len(runs) + k}" for k in range(len(datasets))]
        result = _process(work, deadline, f"proc_{len(setups)}",
                          [configs[i] for i in datasets], outs)
        if result is None:
            runs.extend({"dataset": i, "rc": None, "out": o} for i, o in zip(datasets, outs))
            return None
        setups.append(result["setup_s"])
        runs.extend(dict(call, dataset=i, out=o)
                    for i, o, call in zip(datasets, outs, result["calls"]))
        return result["wall_s"]

    loop_start = time.monotonic()
    wall = analyse(range(wl.datasets))
    repeat = 0
    while wall is not None and (repeat == 0 or time.monotonic() - loop_start < seconds):
        reserve = GATE_RESERVE_S + (2 * wall if trace else 0.0)
        if repeat and time.monotonic() + wall > deadline - reserve:
            break
        wall = analyse([repeat % wl.datasets])
        repeat += 1
    while len(setups) < MIN_SETUP_SAMPLES and time.monotonic() < deadline - GATE_RESERVE_S:
        result = _process(work, deadline, f"setup_{len(setups)}", configs[:1])
        if result is None:
            break
        setups.append(result["setup_s"])

    gated, attempted, failed, first_fits = _check(wl, work, runs)
    done = [r for r in runs if r["rc"] == 0]
    if not done or not setups:
        raise RuntimeError("no analyze run finished")
    phi_max = max((e for g in gated for e in g.get("phi_abs_err", {}).values()), default=0.0)
    end_to_end = {
        "analyze_s": _typical(done, "analyze_s"),
        "setup_s": statistics.median(setups),
        "cpu_s": _typical(done, "cpu_s"),
        "peak_rss_mb": _typical(done, "peak_rss_mb"),
        "fit_success_share": 1.0 - failed / attempted,
    }
    correct = all(g["ok"] for g in gated) and gated[0].get("repeats_identical", False)

    per_layer = absent = None
    if trace:
        traced = _process(work, deadline, "traced", configs[:1], ["out_traced"], str(work))
        if traced is None:
            raise RuntimeError("traced analyze failed")
        # tracing must not change a byte of the outputs
        correct = (correct and traced["calls"][0]["rc"] == 0
                   and gate.tree_digest(work / "out_traced") == gated[0]["digest"])
        lp = gate.lp_gap(first_fits)
        untraced = statistics.median(
            r["analyze_s"] for r in done if r["dataset"] == 0)
        per_layer, absent = tracer.layer_metrics(
            traced["spans"], traced["pid"], untraced, lp, phi_max)

    report = {
        "workload": wl.name,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": seconds,
        "trace": trace,
        "environment": _environment(),
        "runs": [{k: r.get(k) for k in
                  ("dataset", "rc", "analyze_s", "cpu_s", "peak_rss_mb", "setup_s", "digest")}
                 for r in runs],
        "setup_samples": setups,
        "gate": gated,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "phi_abs_err_max": phi_max,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "per_layer_not_applicable": absent,
    }
    return correct, attempted, failed, end_to_end, per_layer, report


def main(argv=None, workload=None):
    """Command-line entry; ``workload`` overrides the named one (self-test)."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "quantcord" / "cli.py").is_file():
        print(f"error: no quantcord sources under {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)

    wl = workload or WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{wl.name}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        correct, attempted, failed, end_to_end, per_layer, report = measure(
            wl, args.seed, args.seconds, args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values = per_layer if args.trace else end_to_end
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        raise RuntimeError(f"metrics {sorted(values)} differ from BENCHMARK.json")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
