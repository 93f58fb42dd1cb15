"""The benchmark's tracer can still wrap every name it patches.

``bench/tracer.py`` wraps quantcord's module boundaries by attribute name
(for example ``pipeline.empirical_cells`` and ``quantreg.check_full_rank``),
so a renamed or removed name breaks the traced benchmark runs.
"""

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
