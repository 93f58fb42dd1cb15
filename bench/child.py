"""``quantcord analyze`` in a fresh process, with its cost.

Usage: python child.py REQUEST_JSON RESULT_JSON

The request names the run configs and one output directory per config;
with no output directories the process stops after set-up.  Set-up is
importing ``quantcord.cli`` and loading the first run config; the parent
times it from just before it starts this process to ``setup_end`` (both on
the system-wide monotonic clock).  Each config is then analysed in turn.
With a ``spool`` directory the run is traced (see ``tracer``) and its spans
go into the result too.
"""

import json
import os
import resource
import sys
import time
import traceback


def _cpu_s(usage):
    return usage.ru_utime + usage.ru_stime


def main(request_path, result_path):
    with open(request_path, encoding="utf-8") as fh:
        request = json.load(fh)

    import quantcord.cli as cli

    tracer = None
    if request["spool"] is not None:
        import tracer as tracing

        tracer = tracing.Tracer(request["spool"])
        tracing.install(tracer)
    cli.load_run_config(request["configs"][0])
    result = {"setup_end": time.monotonic(), "package": cli.__file__, "calls": []}

    for config, out_dir in zip(request["configs"], request["outs"]):
        own0 = resource.getrusage(resource.RUSAGE_SELF)
        workers0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        root = tracer.begin("cli.analyze") if tracer else None
        start = time.perf_counter()
        try:
            rc = cli.main(["analyze", "--config", config, "--out", out_dir])
        except Exception:
            # one crashed call must not lose the costs of the others
            traceback.print_exc()
            rc = -1
        analyze_s = time.perf_counter() - start
        if tracer:
            tracer.end(root)
        own = resource.getrusage(resource.RUSAGE_SELF)
        # the reaped pool workers of this call
        workers = resource.getrusage(resource.RUSAGE_CHILDREN)
        result["calls"].append({
            "rc": rc,
            "analyze_s": analyze_s,
            "cpu_s": _cpu_s(own) - _cpu_s(own0) + _cpu_s(workers) - _cpu_s(workers0),
            # high-water marks in KiB; the children figure is the largest child
            "peak_rss_mb": (own.ru_maxrss + workers.ru_maxrss) / 1024.0,
        })
    if tracer:
        result.update(spans=tracer.collect(), pid=os.getpid())

    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(*sys.argv[1:])
