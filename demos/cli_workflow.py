"""Drive the command-line interface end to end in a scratch directory.

Writes a scenario config and a run config, calls ``quantcord synth``
to simulate a dataset (with its oracle sidecar), then ``quantcord
analyze`` with a small bootstrap, and shows what landed on disk.
Everything is seeded, so rerunning this script reproduces the same
bytes; the same two commands work verbatim from a shell.
"""

import json
import os
import pathlib
import tempfile

import yaml

from quantcord.cli import main

scenario = {
    "n": 500,
    "seed": 29,
    "rho": 0.5,
    "covariates": [{"name": "x", "kind": "uniform", "low": -1.0, "high": 1.0}],
    "coefficients": {"y1": {"intercept": 1.0, "x": 0.5}, "y2": {"x": -0.25}},
}

run = {
    "input": "copula.csv",
    "responses": ["y1", "y2"],
    "taus": [0.25, 0.5, 0.75],
    "step1_terms": [{"column": "x", "transform": "identity"}],
    "step2_terms": [{"column": "x", "transform": "identity"}],
    "grid": {"points": 5},
    "bootstrap": {"enabled": True, "replicates": 32, "seed": 7},
}

start_dir = os.getcwd()
with tempfile.TemporaryDirectory() as tmp:
    root = pathlib.Path(tmp)
    (root / "scenario.yaml").write_text(yaml.safe_dump(scenario))
    (root / "run.yaml").write_text(yaml.safe_dump(run))

    rc = main(["synth", "--config", str(root / "scenario.yaml"),
               "--out", str(root / "copula.csv")])
    print(f"synth exit code: {rc}")
    sidecar = json.loads((root / "copula.csv.oracle.json").read_text())
    print(f"oracle phi at the median: {sidecar['oracle']['phi']['0.5']:.4f}")

    os.chdir(root)  # run config paths are relative to the cwd
    try:
        rc = main(["analyze", "--config", "run.yaml", "--out", "results"])
        print(f"analyze exit code: {rc}\n")

        out = root / "results"
        print("output files:")
        for p in sorted(out.iterdir()):
            print(f"  {p.name}  ({p.stat().st_size} bytes)")

        print("\nsummary.txt:")
        print((out / "summary.txt").read_text())
    finally:
        os.chdir(start_dir)
