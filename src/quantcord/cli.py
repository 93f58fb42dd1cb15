"""Command-line front end: ``quantcord analyze`` and ``quantcord synth``.

Each command takes a YAML config and an output path, both required, and
nothing else: the config and the input fix every output byte, and
``--out`` alone says where the files go.  ``analyze`` writes into a
missing or empty directory only, so a directory holds one run: an
``--out`` that holds any entry, or that is not a directory, is an error
before the config is read.  Each command renders every output file to
text before it writes any, and :func:`_write_outputs` removes the files
already written if a later write fails, so a failing run leaves no
partial outputs.  Outputs contain no timestamps; rerunning a config
reproduces every file byte for byte.
"""

import argparse
import json
import math
import os
import platform
import sys

import numpy as np

from . import __version__
from .bootstrap import bootstrap
from .config import load_run_config, load_scenario
from .dataset import FLOAT_FMT, csv_text, read_csv
from .exceptions import InvalidArgumentError, QuantcordError
from .concordance import LABELS, MERGED_LABELS, phi_bounds
from .pipeline import CONSTANT_PROFILE, build_designs, run_two_step
from .synthetic import generate, oracle


def _fmt(x):
    if x is None:
        return ""
    x = float(x)
    if math.isnan(x):
        return ""
    return FLOAT_FMT % x


def _json_text(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write_outputs(files):
    """Write each ``{path: text}`` entry in order, with ``"\\n"`` line ends;
    if any write fails, remove the files this call opened and re-raise."""
    opened = []
    try:
        for path, text in files.items():
            with open(path, "w", encoding="utf-8", newline="") as fh:
                opened.append(path)
                fh.write(text)
    except BaseException:
        for path in opened:
            if os.path.exists(path):
                os.unlink(path)
        raise


def _profile_filename(covariate):
    safe = "".join(ch if ch.isalnum() or ch in "_-" else "" for ch in covariate)
    return f"phi_profile_{safe or 'constant'}.csv"


def _render_analysis(cfg, sample, dropped, results):
    """Every output file of ``analyze`` as ``{file name: text}``, in the
    order that ``metadata.json`` lists them under ``outputs``.

    ``sample`` is the SampleDesigns that was fitted, ``dropped`` is
    ``read_csv``'s tuple of dropped data row numbers, and ``results``
    holds one (TwoStepResult, BootstrapResult or None) pair per tau, in
    spec order; with the bootstrap, the first is the second's estimate.
    """
    spec, boot_cfg, grid = cfg.spec, cfg.bootstrap, sample.grid
    categories = (MERGED_LABELS if spec.merged else LABELS)[1:]
    files = {}

    rows = []
    for run, boot in results:
        for j, name in enumerate(spec.responses):
            fit = run.step1[j]
            se = boot.beta_se[name] if boot is not None else None
            for k, term in enumerate(sample.X1.columns):
                rows.append([
                    _fmt(run.tau), name, term, _fmt(fit.beta[k]),
                    _fmt(se[k]) if se is not None else "",
                ])
    files["step1_coefficients.csv"] = csv_text(
        ["tau", "response", "term", "estimate", "se"], rows)

    rows = []
    for run, boot in results:
        fit2 = run.step2
        for k, cat in enumerate(categories):
            for q, term in enumerate(sample.X2.columns):
                se = lo = hi = ""
                if boot is not None:
                    se = _fmt(boot.gamma_se[k, q])
                    lo = _fmt(boot.gamma_lower[k, q])
                    hi = _fmt(boot.gamma_upper[k, q])
                rows.append([
                    _fmt(run.tau), cat, term, _fmt(fit2.gamma[k, q]), se, lo, hi,
                ])
    files["step2_coefficients.csv"] = csv_text(
        ["tau", "category", "term", "estimate", "se", "ci_lower", "ci_upper"],
        rows)

    header = ["tau", "covariate", "value", "phi_hat", "ci_lower", "ci_upper",
              "phi_min", "phi_max", "out_of_bounds_flag"]
    for cov in dict.fromkeys(grid.varying):
        at = np.flatnonzero(np.asarray(grid.varying) == cov)
        # the constant profile has no column, and _fmt leaves NaN blank
        value = grid.columns.get(cov, np.full(len(grid.varying), np.nan))
        rows = []
        for run, boot in results:
            bounds = phi_bounds(run.tau)
            for i in at:
                lo, hi = (None, None) if boot is None else (
                    boot.phi_lower[i], boot.phi_upper[i])
                rows.append([_fmt(run.tau), cov, *map(_fmt, (
                    value[i], run.phi[i], lo, hi, bounds.phi_min, bounds.phi_max,
                )), int(run.out_of_bounds[i])])
        files[_profile_filename(cov)] = csv_text(header, rows)

    files = dict(sorted(files.items()))
    meta = {
        "command": "analyze",
        "package_version": __version__,
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
        "input": cfg.input,
        "n_rows": sample.data.n,
        "dropped_rows": list(dropped),
        "responses": list(spec.responses),
        "taus": list(spec.taus),
        "merged": spec.merged,
        "bootstrap": {
            "enabled": boot_cfg.enabled,
            "replicates": boot_cfg.replicates if boot_cfg.enabled else 0,
            "level": boot_cfg.level,
            "seed": boot_cfg.seed if boot_cfg.enabled else None,
        },
        "replicate_failures": {
            _fmt(run.tau): (boot.failures if boot is not None else 0)
            for run, boot in results
        },
        "winsorized_draws": {
            _fmt(run.tau): (int(boot.winsorized.sum()) if boot is not None else 0)
            for run, boot in results
        },
        "outputs": [*files, "metadata.json", "summary.txt"],
    }
    files["metadata.json"] = _json_text(meta)
    files["summary.txt"] = _summary_text(sample, dropped, results)
    return files


def _summary_text(sample, dropped, results):
    """Human-readable recap, 3 decimals; arguments as in ``_render_analysis``."""
    spec = sample.spec
    categories = (MERGED_LABELS if spec.merged else LABELS)[1:]
    lines = [
        "quantcord analysis summary",
        f"rows used: {sample.data.n} (dropped: {len(dropped)})",
        f"responses: {spec.responses[0]}, {spec.responses[1]}"
        + ("  [merged discordant categories]" if spec.merged else ""),
        "",
    ]
    for run, boot in results:
        lines.append(f"tau = {run.tau:g}")
        for j, name in enumerate(spec.responses):
            fit = run.step1[j]
            coefs = "  ".join(
                f"{c}={v:.3f}" for c, v in zip(sample.X1.columns, fit.beta))
            lines.append(f"  quantile fit {name}: {coefs}")
        fit2 = run.step2
        for k, cat in enumerate(categories):
            coefs = "  ".join(
                f"{c}={v:.3f}" for c, v in zip(sample.X2.columns, fit2.gamma[k]))
            lines.append(f"  log-odds {cat} vs 00: {coefs}")
        bounds = phi_bounds(run.tau)
        for cov in dict.fromkeys(sample.grid.varying):
            mask = np.asarray(sample.grid.varying) == cov
            label = "phi (constant model)" if cov == CONSTANT_PROFILE \
                else f"phi along {cov}"
            lines.append(
                f"  {label}: {np.min(run.phi[mask]):.3f} "
                f"to {np.max(run.phi[mask]):.3f} "
                f"(bounds {bounds.phi_min:.3f}, {bounds.phi_max:.3f})")
        if boot is not None:
            lines.append(
                f"  bootstrap: B={boot.B}, failures={boot.failures}, "
                f"level={boot.level:g}")
        lines.append("")
    return "\n".join(lines)


def _cmd_analyze(args):
    if os.path.isdir(args.out):
        if os.listdir(args.out):
            raise InvalidArgumentError(f"output directory {args.out} is not empty")
    elif os.path.lexists(args.out):
        raise InvalidArgumentError(f"output path {args.out} is not a directory")
    cfg = load_run_config(args.config)
    spec, boot_cfg = cfg.spec, cfg.bootstrap
    profiles = {}
    for cov in spec.profile_columns:
        name = _profile_filename(cov)
        if name in profiles:
            raise InvalidArgumentError(
                f"covariates {profiles[name]!r} and {cov!r} would both write {name}")
        profiles[name] = cov

    data, dropped = read_csv(cfg.input, columns=spec.columns)
    if dropped:
        print(f"dropped {len(dropped)} rows with missing cells (data rows {list(dropped)})",
              file=sys.stderr)

    sample = build_designs(data, spec)
    if boot_cfg.enabled:
        boots = bootstrap(sample, B=boot_cfg.replicates, seed=boot_cfg.seed,
                          level=boot_cfg.level, workers=boot_cfg.workers)
        results = [(boot.estimate, boot) for boot in boots]
    else:
        results = [(run_two_step(sample, tau), None) for tau in spec.taus]

    files = _render_analysis(cfg, sample, dropped, results)
    os.makedirs(args.out, exist_ok=True)
    _write_outputs({os.path.join(args.out, name): text for name, text in files.items()})
    print(f"wrote {len(files)} files to {args.out}")
    return 0


def _cmd_synth(args):
    scenario, taus = load_scenario(args.config)
    data = generate(scenario)
    sidecar = {
        "command": "synth",
        "package_version": __version__,
        "n": scenario.n,
        "seed": scenario.seed,
        "responses": list(scenario.responses),
        "taus": list(taus),
        "oracle": oracle(scenario, taus),
    }

    rows = ([FLOAT_FMT % v for v in row] for row in zip(*data.columns.values()))
    sidecar_path = args.out + ".oracle.json"
    _write_outputs({args.out: csv_text(data.names, rows),
                    sidecar_path: _json_text(sidecar)})
    print(f"wrote {args.out} (n={scenario.n}) and {sidecar_path}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="quantcord",
        description="Quantile-level dependence analysis between two responses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="run the two-step analysis on a CSV")
    a.add_argument("--config", required=True, help="YAML run configuration")
    a.add_argument("--out", required=True, help="output directory")
    a.set_defaults(func=_cmd_analyze)

    s = sub.add_parser("synth", help="generate a synthetic fixture CSV")
    s.add_argument("--config", required=True, help="YAML scenario configuration")
    s.add_argument("--out", required=True, help="output CSV path")
    s.set_defaults(func=_cmd_synth)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (QuantcordError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
