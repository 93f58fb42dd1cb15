"""Outside-in tracing of quantcord's module boundaries.

Nothing in the package changes.  ``install`` wraps the names through which
one module calls another, in the namespace of the caller: ``pipeline`` and
``bootstrap`` import their callees by name, so patching the defining module
would miss those calls.  Each wrapped call records a span (pid, id, parent
id, name, start, end and a few result attributes) in memory.

Forked pool workers inherit the wrapped names.  After each replicate task a
worker appends its spans to ``spans-<pid>.jsonl`` in the spool directory,
and ``collect`` merges those files with the parent's spans.

``layer_metrics`` turns the spans into the benchmark's per-layer metrics.
Times named ``*_s`` are self times (a span's duration minus its child
spans) summed over every process; composite units of work
(``run_two_step``, one bootstrap replicate) are reported per call.
"""

import functools
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np


class Tracer:
    def __init__(self, spool_dir):
        self.spool_dir = spool_dir
        self.root_pid = os.getpid()
        self._reset()

    def _reset(self):
        self.pid = os.getpid()
        self.spans = []
        self.stack = []
        self.next_id = 0

    def _own(self):
        # a forked worker starts with a copy of its parent's spans
        if os.getpid() != self.pid:
            self._reset()

    def begin(self, name):
        self._own()
        span = {
            "pid": self.pid,
            "id": self.next_id,
            "parent": self.stack[-1]["id"] if self.stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        self.next_id += 1
        self.spans.append(span)
        self.stack.append(span)
        return span

    def end(self, span, **attrs):
        span["end"] = time.perf_counter()
        span.update(attrs)
        if self.stack and self.stack[-1] is span:
            self.stack.pop()

    def wrap(self, name, fn, attrs=None):
        """``fn`` recording one span per call; ``attrs(result)`` adds fields."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(span, error=True)
                raise
            self.end(span, **(attrs(result) if attrs else {}))
            return result

        return traced

    def flush(self):
        """Append this worker's finished spans to its spool file."""
        self._own()
        path = os.path.join(self.spool_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []

    def collect(self):
        """The parent's spans plus every span the workers spooled."""
        spans = list(self.spans)
        for name in sorted(os.listdir(self.spool_dir)):
            if name.startswith("spans-"):
                with open(os.path.join(self.spool_dir, name), encoding="utf-8") as fh:
                    spans.extend(json.loads(line) for line in fh)
        return spans


def install(tracer):
    """Wrap quantcord's module boundaries; returns nothing, patches in place."""
    import quantcord.cli as cli
    import quantcord.multinomial as multinomial
    import quantcord.pipeline as pipeline
    import quantcord.quantreg as quantreg
    from quantcord.dataset import Dataset

    # the package attribute ``quantcord.bootstrap`` is the function
    boot = sys.modules["quantcord.bootstrap"]

    def patch(owner, attr, name, attrs=None):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), attrs))

    patch(cli, "load_run_config", "config.load")
    patch(cli, "read_csv", "dataset.read_csv", lambda r: {"rows": r[0].n})
    patch(Dataset, "take", "dataset.take")
    patch(pipeline, "build_design", "basis.build_design")
    patch(quantreg, "check_full_rank", "design.check_full_rank")
    patch(multinomial, "check_full_rank", "design.check_full_rank")
    patch(pipeline, "fit_quantile_regression", "quantreg.fit",
          lambda f: {"iterations": f.iterations})
    patch(pipeline, "classify", "concordance.classify")
    patch(pipeline, "empirical_cells", "concordance.empirical_cells")
    patch(pipeline, "fit_multinomial", "multinomial.fit",
          lambda f: {"iterations": f.iterations, "separation": bool(f.separation),
                     "converged": bool(f.converged)})
    patch(pipeline, "build_grid", "pipeline.build_grid")
    patch(pipeline, "evaluate_surface", "pipeline.evaluate_surface")
    patch(cli, "run_two_step", "pipeline.run_two_step")
    patch(boot, "run_two_step", "pipeline.run_two_step")
    patch(cli, "bootstrap", "bootstrap.bootstrap")
    patch(boot, "_run_replicate", "bootstrap.replicate",
          lambda r: {"ok": r is not None})

    # pool.map pickles the task by its qualified name, which now resolves
    # to this wrapper, so workers run it and spool their spans per task
    task = boot._replicate_task

    @functools.wraps(task)
    def spooling_task(b):
        try:
            return task(b)
        finally:
            tracer.flush()

    boot._replicate_task = spooling_task

    class TracedPool(ProcessPoolExecutor):
        """Records the pool's wall time, from creation to shutdown."""

        def __init__(self, max_workers=None, *args, **kwargs):
            self._span = tracer.begin("bootstrap.pool")
            super().__init__(max_workers, *args, **kwargs)
            self._span["workers"] = self._max_workers

        def shutdown(self, *args, **kwargs):
            try:
                super().shutdown(*args, **kwargs)
            finally:
                if self._span["end"] is None:
                    tracer.end(self._span)

    boot.ProcessPoolExecutor = TracedPool


def _pct(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def _mean(values):
    return float(np.mean(values)) if values else 0.0


def layer_metrics(spans, root_pid, analyze_s, lp_gap_max, phi_abs_err_max):
    """Per-layer metrics from one traced analyze.

    ``analyze_s`` is the untraced time of the same input, for the overhead.
    Returns the metrics and the names with nothing to measure (reported as
    0): the pool's efficiency when the bootstrap runs in-process.
    """
    child_time = {}
    for s in spans:
        s["dur"] = s["end"] - s["start"]
        if s["parent"] is not None:
            key = (s["pid"], s["parent"])
            child_time[key] = child_time.get(key, 0.0) + s["dur"]
    for s in spans:
        s["self"] = s["dur"] - child_time.get((s["pid"], s["id"]), 0.0)

    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def named(name):
        return by_name.get(name, [])

    def self_s(name):
        return sum(s["self"] for s in named(name))

    def dur_s(name):
        return sum(s["dur"] for s in named(name))

    root = named("cli.analyze")[0]
    # busy time across processes: the analyze call and worker spans, without
    # the parent's wait on the pool and the set-up's config load
    busy = sum(
        s["self"] for s in spans
        if s["name"] != "bootstrap.pool"
        and (s["pid"] != root_pid or s is root or s["parent"] is not None)
    )
    replicates = named("bootstrap.replicate")
    worker_busy = sum(s["dur"] for s in replicates if s["pid"] != root_pid)
    pool_capacity = sum(s["workers"] * s["dur"] for s in named("bootstrap.pool"))
    read_s = dur_s("dataset.read_csv")
    boot_s = dur_s("bootstrap.bootstrap")

    metrics = {
        "config.load_s": _mean([s["dur"] for s in named("config.load")]),
        "dataset.read_csv_s": self_s("dataset.read_csv"),
        "dataset.rows_per_s": (
            sum(s["rows"] for s in named("dataset.read_csv")) / read_s if read_s else 0.0),
        "dataset.take_s": self_s("dataset.take"),
        "basis.build_design_s": self_s("basis.build_design"),
        "basis.build_design_calls": len(named("basis.build_design")),
        "design.check_full_rank_s": self_s("design.check_full_rank"),
        "design.check_full_rank_calls": len(named("design.check_full_rank")),
        "quantreg.fit_s": self_s("quantreg.fit"),
        "quantreg.fit_ms_p50": 1e3 * _pct([s["self"] for s in named("quantreg.fit")], 50),
        "quantreg.fit_ms_p90": 1e3 * _pct([s["self"] for s in named("quantreg.fit")], 90),
        "quantreg.calls": len(named("quantreg.fit")),
        "quantreg.iterations_mean": _mean([s["iterations"] for s in named("quantreg.fit")]),
        "quantreg.share": self_s("quantreg.fit") / busy,
        "quantreg.lp_gap_max": lp_gap_max,
        "concordance.classify_s": self_s("concordance.classify"),
        "concordance.empirical_cells_s": self_s("concordance.empirical_cells"),
        "multinomial.fit_s": self_s("multinomial.fit"),
        "multinomial.fit_ms_p50": 1e3 * _pct([s["self"] for s in named("multinomial.fit")], 50),
        "multinomial.newton_iters_mean": _mean(
            [s["iterations"] for s in named("multinomial.fit")]),
        "multinomial.separation_count": sum(
            s["separation"] for s in named("multinomial.fit")),
        "multinomial.nonconverged_count": sum(
            not s["converged"] for s in named("multinomial.fit")),
        "pipeline.run_two_step_ms_p50": 1e3 * _pct(
            [s["dur"] for s in named("pipeline.run_two_step")], 50),
        "pipeline.evaluate_surface_s": self_s("pipeline.evaluate_surface"),
        "pipeline.build_grid_s": self_s("pipeline.build_grid"),
        "pipeline.phi_abs_err_max": phi_abs_err_max,
        "bootstrap.replicate_ms_p50": 1e3 * _pct([s["dur"] for s in replicates], 50),
        "bootstrap.replicate_ms_p90": 1e3 * _pct([s["dur"] for s in replicates], 90),
        "bootstrap.replicates_per_s": len(replicates) / boot_s if boot_s else 0.0,
        "bootstrap.success_ratio": (
            sum(s["ok"] for s in replicates) / len(replicates) if replicates else 0.0),
        "bootstrap.intervals_s": self_s("bootstrap.bootstrap"),
        "bootstrap.parallel_efficiency": (
            worker_busy / pool_capacity if pool_capacity else 0.0),
        "cli.self_s": root["self"],
        "trace.overhead_s": root["dur"] - analyze_s,
    }
    absent = [] if pool_capacity else ["bootstrap.parallel_efficiency"]
    return metrics, absent
