"""Seeded mutants of valid run and scenario configs, each run through
``cli.main``: a config gives a result or a one-line error.

``mutants(seed, count)`` draws mutants from a ``random.Random(seed)``, so
a seed fixes every mutant.  Each changes one or two values of ``RUN`` (the
run config of ``analyze``) or ``SCENARIO`` (the scenario config of
``synth``): a wrong type, null, a missing or unknown key, an empty list, a
repeated name, a number written as a string, or an extreme number.  The
invariant, which :func:`broken` checks: exit 0 with nothing on stderr, or
exit 2 with exactly one stderr line, which starts with ``error: ``, and
nothing written.  A warning fails a mutant: pytest's ``filterwarnings =
["error"]`` makes it raise in tier 1, and from a shell it is one more
stderr line.  Tier 1 runs the first ``SLICE`` mutants at seed 0.
``python tests/test_config_mutants.py`` runs ``SWEEP`` mutants at each of
seeds 0-4 under the interpreter's default warning filters, in a temporary
directory, and exits 1 listing each mutant that breaks the invariant.
"""

import contextlib
import copy
import io
import os
import random
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
import yaml

from quantcord.cli import main
from quantcord.synthetic import MAX_ROWS

# the shape of tests/fixtures/analyze_config.yaml, with every section set
RUN = {
    "input": "data.csv",
    "responses": ["y1", "y2"],
    "taus": [0.25, 0.75],
    "merged": False,
    "binary": ["g"],
    "step1_terms": [{"column": "x"}],
    "step2_terms": [{"column": "x", "transform": "spline"}, {"interaction": ["x", "g"]}],
    "grid": {"points": 5, "values": {"g": [0, 1]}, "held": {"x": 0.0, "g": 1}},
    "bootstrap": {"enabled": True, "replicates": 4, "seed": 3, "level": 0.9, "workers": 1},
}
SCENARIO = {
    "n": 300,
    "seed": 5,
    "rho_by_group": {"column": "g", "values": [0.2, 0.8]},
    "covariates": [{"name": "x", "kind": "uniform", "low": -1.0, "high": 1.0},
                   {"name": "g", "kind": "binary", "p": 0.5}],
    "coefficients": {"y1": {"intercept": 1.0, "x": 0.5}, "y2": {"g": -0.25}},
    "responses": ["y1", "y2"],
    "taus": [0.25, 0.5],
}
EXTREMES = (10**30, -10**30, -1, 0, -0.5, 1e-300)
OTHER_TYPES = (True, "text", [1], {"key": 1}, 2.5)
SLICE = 200
SWEEP = 2440


def _paths(node, path=()):
    """Every (path, value) below ``node``, the root included."""
    yield path, node
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield from _paths(value, path + (key,))


def _number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _kinds(path, value):
    """The mutations that apply to ``value`` at ``path``; the root, a
    mapping, only gains a key."""
    if not path:
        return ["unknown"]
    kinds = ["type", "null", "missing"]
    if isinstance(value, dict):
        kinds += ["unknown", "empty"]
    elif isinstance(value, list):
        kinds += ["empty"] + (["repeat"] if value else [])
    elif _number(value):
        kinds += ["string", "extreme"]
    return kinds


def _mutate(config, rng):
    """Mutate one value of ``config`` in place; returns its description."""
    path, value = rng.choice(list(_paths(config)))
    kind = rng.choice(_kinds(path, value))
    parent = config
    for key in path[:-1]:
        parent = parent[key]
    if kind == "unknown":
        value["extra"] = 1
    elif kind == "missing":
        del parent[path[-1]]
    elif kind == "repeat":
        value.append(copy.deepcopy(value[0]))
    else:
        parent[path[-1]] = {
            "type": lambda: copy.deepcopy(
                rng.choice([t for t in OTHER_TYPES if type(t) is not type(value)])),
            "null": lambda: None,
            "empty": lambda: [],
            "string": lambda: str(value),
            "extreme": lambda: rng.choice(EXTREMES),
        }[kind]()
    return f"{'.'.join(map(str, path)) or '(root)'}:{kind}"


def _small(command, config):
    """Whether ``config`` would stay a small run if it were valid.  A run
    that passes its checks does its full work, so a mutant may not ask for
    more than 20 replicates (a null or missing count means the default
    1000), more than 2 processes (each forks a pool child), or a scenario
    of more than 10^4 rows (a valid n up to ``MAX_ROWS`` is drawn and
    written); such mutants are drawn again."""
    if command == "synth":
        n = config.get("n")
        return not (_number(n) and 10**4 < n <= MAX_ROWS)
    boot = config.get("bootstrap")
    if not isinstance(boot, dict):
        return True
    replicates, workers = boot.get("replicates"), boot.get("workers")
    if boot.get("enabled") is True and (replicates is None or _number(replicates)
                                        and replicates > 20):
        return False
    return not (_number(workers) and workers > 2)


def mutants(seed, count):
    """``count`` mutants from ``seed``: (command, config, description) each."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        command, base = rng.choice((("analyze", RUN), ("synth", SCENARIO)))
        config = copy.deepcopy(base)
        what = [_mutate(config, rng) for _ in range(rng.choice((1, 2)))]
        if _small(command, config):
            out.append((command, config, ",".join(what)))
    return out


def scenario_csv(root):
    """The CSV of ``SCENARIO``, 300 rows, which every analyze mutant reads,
    synthesised under ``root``."""
    (root / "s.yaml").write_text(yaml.safe_dump(SCENARIO), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--config", str(root / "s.yaml"), "--out", str(root / "d.csv")]) == 0
    return (root / "d.csv").read_bytes()


def broken(command, config, csv_bytes, workdir):
    """Run one mutant through ``cli.main`` in the empty directory
    ``workdir``: None when it keeps the invariant, else how it breaks it."""
    if command == "analyze":
        (workdir / "data.csv").write_bytes(csv_bytes)
    out = "out" if command == "analyze" else "x.csv"
    (workdir / "config.yaml").write_text(yaml.safe_dump(config), encoding="utf-8")
    before = sorted(p.name for p in workdir.iterdir())
    err, cwd = io.StringIO(), os.getcwd()
    os.chdir(workdir)  # a mutated input or output path is relative
    try:
        # a fresh registry per mutant, so that each warning is shown again
        with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            rc = main([command, "--config", "config.yaml", "--out", out])
    finally:
        os.chdir(cwd)
    err = err.getvalue()
    if rc == 0:
        return f"exit 0 with stderr {err!r}" if err else None
    if rc != 2 or not (err.startswith("error: ") and err.count("\n") == 1
                       and err.endswith("\n")):
        return f"exit {rc} with stderr {err!r}"
    if sorted(p.name for p in workdir.iterdir()) != before:
        return "exit 2, but it wrote files"
    return None


@pytest.fixture(scope="module")
def csv_bytes(tmp_path_factory):
    return scenario_csv(tmp_path_factory.mktemp("mutant-data"))


@pytest.mark.parametrize("command, config, what", [
    pytest.param(*mutant, id=f"{i:03d}-{mutant[0]}-{mutant[2]}")
    for i, mutant in enumerate(mutants(0, SLICE))])
def test_a_mutant_gives_a_result_or_one_error_line(command, config, what, csv_bytes, tmp_path):
    reason = broken(command, config, csv_bytes, tmp_path)
    assert reason is None, (what, reason)


def sweep(seeds=range(5), count=SWEEP):
    """Run ``count`` mutants of each seed, each in its own temporary
    directory, and print each one that breaks the invariant; 1 if any did."""
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        data = scenario_csv(Path(tmp))
        for seed in seeds:
            for i, (command, config, what) in enumerate(mutants(seed, count)):
                workdir = Path(tmp, f"{seed}-{i}")
                workdir.mkdir()
                try:
                    reason = broken(command, config, data, workdir)
                except Exception as exc:  # from a shell, a traceback and exit 1
                    reason = f"raised {type(exc).__name__}: {exc}"
                shutil.rmtree(workdir)
                if reason:
                    failed.append(f"seed {seed} mutant {i:04d} {command} {what}: {reason}")
    print(*failed, f"{len(failed)} of {len(seeds) * count} mutants break the invariant",
          sep="\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(sweep())
