"""qleak command line: compute leakage, sweep depolarizing noise, verify
structural properties.

Exit codes: 0 success, 2 invalid input or schema, 3 numerical failure,
4 unsupported configuration (e.g. per-qubit noise on a non-power-of-two
dimension), 5 property-check failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .ensemble_io import (
    builtin_names,
    load_channel,
    matrix_to_pairs,
    resolve_ensemble,
)
from .exceptions import (
    DimensionOverflowError,
    EnsembleConfigError,
    InvalidChannelError,
    InvalidProbabilityError,
    NotPsdError,
    NumericalFailureError,
    QLeakError,
    UnsupportedDimensionError,
)
from .leakage import (
    AscentConfig,
    compute_leakage,
    noise_curve,
    verify_properties,
)
from .states import NOISE_KINDS, qubit_count

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_UNSUPPORTED = 4
EXIT_PROPERTY = 5

# BLAS thread settings; the thread count can change a result's last bits.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# Help text of the ascent flags: one flag per AscentConfig field.
ASCENT_HELP = {"mu": "ascent step size",
               "eps": "absolute objective-change termination threshold"}


def _ascent_flags(parser: argparse.ArgumentParser):
    for f in dataclasses.fields(AscentConfig):
        parser.add_argument("--" + f.name.replace("_", "-"), type=type(f.default),
                            default=f.default, help=ASCENT_HELP.get(f.name))


def _config_from_args(args) -> AscentConfig:
    return AscentConfig(**{f.name: getattr(args, f.name)
                           for f in dataclasses.fields(AscentConfig)})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qleak",
        description="Maximal quantum leakage of classical-quantum ensembles.",
    )
    parser.add_argument("--version", action="version", version=f"qleak {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser(
        "compute", help="optimize the leakage of one ensemble",
        description="Run subgradient ascent with restarts and write the "
                    "result JSON plus one convergence CSV per restart.")
    compute.add_argument("--ensemble", required=True,
                         help=f"path to an ensemble JSON file, or one of "
                              f"{', '.join('builtin:' + n for n in builtin_names())}")
    _ascent_flags(compute)
    compute.add_argument("--out", required=True, help="output directory")

    sweep = sub.add_parser(
        "noise-sweep", help="leakage vs depolarizing noise strength",
        description="Optimize the leakage of the noise-mapped ensemble over "
                    "a grid of probability parameters and compare with the "
                    "closed-form transfer.")
    sweep.add_argument("--ensemble", required=True)
    sweep.add_argument("--channel", required=True, choices=NOISE_KINDS)
    sweep.add_argument("--p-start", type=float, default=0.0)
    sweep.add_argument("--p-end", type=float, default=1.0)
    sweep.add_argument("--p-steps", type=int, default=21)
    _ascent_flags(sweep)
    sweep.add_argument("--out", required=True, help="output directory")

    verify = sub.add_parser(
        "verify", help="run the structural property checks",
        description="Check nonnegativity, ceiling, independence, "
                    "measurement dominance, data processing and noise "
                    "transfer on one ensemble; exit 5 on any failure.")
    verify.add_argument("--ensemble", required=True)
    verify.add_argument("--channel-file", default=None,
                        help="JSON channel used for the data-processing check")
    _ascent_flags(verify)
    verify.add_argument("--out", default=None,
                        help="optional directory for the JSON report")
    return parser


def _environment() -> dict:
    """The numpy build and thread settings a run's numbers depend on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        blas = None
    return {
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "cpu_count": os.cpu_count(),
    }


def _manifest(command: str, cfg: AscentConfig, dim: int,
              input_path: str, input_sha256: str, wall_seconds: float,
              extra: dict | None = None) -> dict:
    config = dataclasses.asdict(cfg)
    config["povm_size"] = dim * dim  # outcomes of every restart's POVM
    if extra:
        config.update(extra)
    return {
        "command": command,
        "config": config,
        "environment": _environment(),
        "input_path": input_path,
        "input_sha256": input_sha256,
        "tool_version": __version__,
        "timings": {
            "started_utc": datetime.now(timezone.utc).isoformat(),
            "wall_seconds": round(wall_seconds, 6),
        },
    }


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_trace_csv(path: Path, trace, manifest: dict):
    with path.open("w", newline="") as fh:
        fh.write("# manifest: " + json.dumps(manifest, sort_keys=True) + "\n")
        writer = csv.writer(fh)
        writer.writerow(["iteration", "objective", "leakage_bits", "step_size"])
        writer.writerows(trace.rows())


def _cmd_compute(args) -> int:
    ensemble, digest = resolve_ensemble(args.ensemble)
    cfg = _config_from_args(args)
    started = time.perf_counter()
    report = compute_leakage(ensemble, cfg)
    wall = time.perf_counter() - started

    manifest = _manifest("compute", cfg, ensemble.dim,
                         args.ensemble, digest, wall)
    best_trace = report.traces[report.best_restart]
    result = {
        "leakage_bits": report.leakage_bits,
        "objective": best_trace.objectives[-1],
        "ceiling_bits": report.ceiling_bits,
        "best_restart": report.best_restart,
        "restart_leakages": report.restart_leakages,
        "converged": report.converged_flags,
        "optimal_povm": [matrix_to_pairs(el) for el in report.optimal_povm],
        "manifest": manifest,
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "result.json", result)
    for i, trace in enumerate(report.traces):
        _write_trace_csv(out / f"trace_restart_{i:02d}.csv", trace, manifest)
    converged = sum(report.converged_flags)
    print(f"leakage_bits={report.leakage_bits:.6f} "
          f"(ceiling {report.ceiling_bits:.6f}), "
          f"{converged}/{len(report.traces)} restarts converged "
          f"-> {out / 'result.json'}")
    return EXIT_OK


def _cmd_noise_sweep(args) -> int:
    ensemble, digest = resolve_ensemble(args.ensemble)
    cfg = _config_from_args(args)
    if not (0.0 <= args.p_start <= args.p_end <= 1.0):
        raise EnsembleConfigError(
            f"invalid p grid: need 0 <= p_start <= p_end <= 1, "
            f"got [{args.p_start}, {args.p_end}]"
        )
    if args.p_steps < 2:
        raise EnsembleConfigError("p grid needs at least 2 points")
    if args.channel == "local":
        qubit_count(ensemble.dim)  # reject the dimension before any solve

    started = time.perf_counter()
    q0 = compute_leakage(ensemble, cfg).leakage_bits
    grid = np.linspace(args.p_start, args.p_end, args.p_steps)
    rows = [(p, direct, formula, direct / q0 if q0 > 1e-12 else 1.0)
            for p, direct, formula in noise_curve(ensemble, args.channel, grid, cfg, q0)]
    wall = time.perf_counter() - started

    manifest = _manifest(
        "noise-sweep", cfg, ensemble.dim,
        args.ensemble, digest, wall,
        extra={"channel": args.channel, "p_start": args.p_start,
               "p_end": args.p_end, "p_steps": args.p_steps,
               "noiseless_leakage_bits": q0},
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "noise_sweep.csv"
    with path.open("w", newline="") as fh:
        fh.write("# manifest: " + json.dumps(manifest, sort_keys=True) + "\n")
        writer = csv.writer(fh)
        writer.writerow(["p", "direct_leakage_bits", "formula_bits", "ratio"])
        writer.writerows(rows)
    print(f"noiseless leakage_bits={q0:.6f}, {len(rows)} grid points -> {path}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    ensemble, digest = resolve_ensemble(args.ensemble)
    cfg = _config_from_args(args)
    channel = None
    channel_sha = None
    if args.channel_file:
        channel, channel_sha = load_channel(args.channel_file, ensemble.dim)

    started = time.perf_counter()
    report = verify_properties(ensemble, cfg, channel=channel)
    wall = time.perf_counter() - started

    width = max(len(c.name) for c in report.checks)
    for check in report.checks:
        status = "SKIP" if check.skipped else ("PASS" if check.passed else "FAIL")
        print(f"{check.name:<{width}}  {status:<4}  {check.detail}")
    verdict = "all checks passed" if report.all_passed else "FAILURES detected"
    print(verdict)

    if args.out:
        manifest = _manifest(
            "verify", cfg, ensemble.dim,
            args.ensemble, digest, wall,
            extra={"channel_file": args.channel_file,
                   "channel_sha256": channel_sha},
        )
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        payload = report.as_dict()
        payload["manifest"] = manifest
        _write_json(out / "verify_report.json", payload)
    return EXIT_OK if report.all_passed else EXIT_PROPERTY


def _exit_code(exc: Exception) -> int:
    if isinstance(exc, (UnsupportedDimensionError, DimensionOverflowError)):
        return EXIT_UNSUPPORTED
    if isinstance(exc, (NumericalFailureError, NotPsdError, InvalidChannelError,
                        np.linalg.LinAlgError)):
        return EXIT_NUMERICAL
    if isinstance(exc, (EnsembleConfigError, InvalidProbabilityError, QLeakError,
                        ValueError, OSError)):
        return EXIT_INPUT
    raise exc


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "compute": _cmd_compute,
        "noise-sweep": _cmd_noise_sweep,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except Exception as exc:  # noqa: BLE001 - mapped to the exit-code contract
        code = _exit_code(exc)
        print(f"error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
