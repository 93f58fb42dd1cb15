"""The benchmark's tracer can still wrap every name it patches.

``bench/tracer.py`` wraps quantcord's module boundaries by attribute name
(for example ``pipeline.empirical_cells`` and ``quantreg.check_full_rank``),
so a renamed or removed name breaks the traced benchmark runs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys
import tracer
tracer.install(tracer.Tracer(sys.argv[1]))
"""


def test_tracer_installs(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)], env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


POOL_SCRIPT = """
import json
import sys
import numpy as np
import tracer
from quantcord import AnalysisSpec, Dataset, build_designs
t = tracer.Tracer(sys.argv[1])
tracer.install(t)
boot = sys.modules["quantcord.bootstrap"]
boot._usable_cpus = lambda: 2  # a pool of one child on a one-CPU host too
rng = np.random.default_rng(4)
e = rng.standard_normal((2, 80))
data = Dataset(columns={"y1": e[0], "y2": 0.5 * e[0] + e[1]})
spec = AnalysisSpec(responses=("y1", "y2"), taus=(0.25, 0.75))
boot.bootstrap(build_designs(data, spec), B=6, seed=1, workers=2)
spans = t.collect()
print(json.dumps({
    "parent": t.root_pid,
    "replicates": [s["pid"] for s in spans if s["name"] == "bootstrap.replicate"],
    "pools": [s["workers"] for s in spans if s["name"] == "bootstrap.pool"],
    "fits": sum(s["name"] == "pipeline.run_two_step" for s in spans),
    "grids": sum(s["name"] == "pipeline.build_grid" for s in spans),
}))
"""


def test_tracer_reads_the_parent_and_its_pool(tmp_path):
    # at workers=2 the parent runs replicates beside a pool of one child
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    proc = subprocess.run(
        [sys.executable, "-c", POOL_SCRIPT, str(tmp_path)], env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    pids = out["replicates"]
    assert len(pids) == 12
    assert out["parent"] in pids
    assert len(set(pids) - {out["parent"]}) == 1
    assert out["pools"] == [1]
    # the two full-sample fits and the 6 replicates' at each tau, on one grid
    assert out["fits"] == 2 + 12
    assert out["grids"] == 1
