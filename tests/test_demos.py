"""Every demo script, and the README's Python example, runs to completion
against the package sources, with every warning an error."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run_python(args, cwd):
    """Run the interpreter on ``args`` under ``-W error``, as pytest's
    ``filterwarnings = ["error"]`` treats warnings raised in process."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-W", "error", *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_exits_0(script, tmp_path):
    _run_python([str(script)], tmp_path)


def test_readme_python_example_exits_0(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    assert len(blocks) == 1
    _run_python(["-c", blocks[0]], tmp_path)


def test_readme_configs_synthesise_and_analyse(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for name in ("scenario.yaml", "run.yaml"):
        (block,) = re.findall(rf"^```yaml\n(# {re.escape(name)}\n.*?)^```", readme,
                              re.S | re.M)
        (tmp_path / name).write_text(block, encoding="utf-8")
    # without the README's 1000 replicates, to keep the test short
    run = yaml.safe_load((tmp_path / "run.yaml").read_text(encoding="utf-8"))
    run["bootstrap"]["enabled"] = False
    (tmp_path / "run.yaml").write_text(yaml.safe_dump(run), encoding="utf-8")
    cli = ["-m", "quantcord.cli"]
    _run_python([*cli, "synth", "--config", "scenario.yaml", "--out", "copula.csv"],
                tmp_path)
    _run_python([*cli, "analyze", "--config", "run.yaml", "--out", "results"], tmp_path)
    assert sorted(p.name for p in (tmp_path / "results").iterdir()) == [
        "metadata.json", "phi_profile_g.csv", "phi_profile_x.csv",
        "step1_coefficients.csv", "step2_coefficients.csv", "summary.txt"]


def test_demos_found():
    assert DEMOS
