"""qleak command line: compute leakage, sweep depolarizing noise, verify
structural properties.

`compute` writes the optimal POVM, one element per symbol (`povm_symbols`),
as its factors H_x (E_x = H_x H_x^dag), an (|X|, d, d) stack of [re, im]
pairs read back by `Povm.from_factors`, and the solve's one trace CSV.

Exit codes: 0 success, 2 invalid input or schema, 3 numerical failure,
4 unsupported configuration (e.g. per-qubit noise on a non-power-of-two
dimension, or an input too large for memory), 5 property-check failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .ensemble_io import builtin_names, load_channel, matrix_to_pairs, resolve_ensemble
from .exceptions import (
    EnsembleConfigError,
    InvalidChannelError,
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
from .states import NOISE_KINDS, Ensemble, qubit_count

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_UNSUPPORTED = 4
EXIT_PROPERTY = 5

# BLAS thread settings; the thread count can change a result's last bits.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# Help text of the solver flags: one flag per AscentConfig field.
ASCENT_HELP = {"mu": "no-op, kept for old scripts", "restarts": "no-op, kept for old scripts",
               "eps": "certified-gap target in bits", "max_iters": "iteration cap",
               "seed": "seed of verify's random probes and channel"}


def _ascent_flags(parser: argparse.ArgumentParser):
    for f in dataclasses.fields(AscentConfig):
        parser.add_argument("--" + f.name.replace("_", "-"), type=type(f.default),
                            default=f.default, help=ASCENT_HELP.get(f.name))


@functools.cache  # built on first use, then shared: parse_args keeps no state
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qleak",
        description="Maximal quantum leakage of classical-quantum ensembles.",
    )
    parser.add_argument("--version", action="version", version=f"qleak {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser(
        "compute", help="optimize the leakage of one ensemble",
        description="Solve the min-error discrimination SDP with one primal-dual "
                    "interior-point method and write the result JSON plus the "
                    "solve's convergence CSV.")
    compute.add_argument("--ensemble", required=True,
                         help=f"path to an ensemble JSON file, or one of "
                              f"{', '.join('builtin:' + n for n in builtin_names())}")
    _ascent_flags(compute)
    compute.add_argument("--out", required=True, help="output directory")
    compute.set_defaults(run=_cmd_compute)

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
    sweep.set_defaults(run=_cmd_noise_sweep)

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
    verify.set_defaults(run=_cmd_verify)
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


@dataclasses.dataclass
class _Run:
    """What every command shares: its arguments, the resolved ensemble with
    its sha256, the ascent configuration and the clock of the solve."""

    args: argparse.Namespace
    ensemble: Ensemble
    digest: str
    cfg: AscentConfig
    started: float = 0.0

    def start(self, *names: str) -> list[Path]:
        """Create the output directory, if --out names one, check that each
        of the files ``names`` in it can be opened for writing, and start
        the clock: a command calls this once its inputs are valid, before
        any solve. Returns the paths of the files (none without --out)."""
        paths = []
        if self.args.out is not None:
            out = Path(self.args.out)
            paths = [out / name for name in names]
            step = f"create output directory {self.args.out!r}"
            try:
                out.mkdir(parents=True, exist_ok=True)
                for path in paths:
                    step = f"write output file {str(path)!r}"
                    path.open("a").close()  # append mode: nothing is truncated
            except OSError as exc:
                raise OSError(f"cannot {step}: {exc.strerror or exc}") from exc
        self.started = time.perf_counter()
        return paths

    def manifest(self, **extra) -> dict:
        """The provenance of a run; extra keys join the config."""
        wall = time.perf_counter() - self.started
        config = dataclasses.asdict(self.cfg)
        config["povm_size"] = self.ensemble.size  # one POVM element per symbol
        config.update(extra)
        return {
            "command": self.args.command,
            "config": config,
            "environment": _environment(),
            "input_path": self.args.ensemble,
            "input_sha256": self.digest,
            "tool_version": __version__,
            "timings": {
                "started_utc": datetime.now(timezone.utc).isoformat(),
                "wall_seconds": round(wall, 6),
            },
        }


def _write_json(path: Path, payload: dict, manifest: dict):
    # One line: without indent, json uses its C encoder.
    path.write_text(json.dumps({**payload, "manifest": manifest}, sort_keys=True) + "\n")


def _write_csv(path: Path, manifest: dict, header: list[str], rows):
    """Write ``rows`` under ``header`` as a CSV led by one manifest line."""
    with path.open("w", newline="") as fh:
        fh.write("# manifest: " + json.dumps(manifest, sort_keys=True) + "\n")
        csv.writer(fh).writerows([header, *rows])


def _cmd_compute(run: _Run) -> int:
    result_path, trace_path = run.start("result.json", "trace_restart_00.csv")
    report = compute_leakage(run.ensemble, run.cfg)
    (trace,) = report.traces
    manifest = run.manifest()
    _write_json(result_path, {
        "leakage_bits": report.leakage_bits,
        "objective": trace.objectives[-1],
        "ceiling_bits": report.ceiling_bits,
        "upper_bound_bits": report.upper_bound_bits,
        "gap_bits": report.gap_bits,
        "converged": report.converged_flags,
        "stop_reasons": [trace.stop_reason],
        "optimal_povm_factors": matrix_to_pairs(report.optimal_povm.factors),
        "povm_symbols": list(run.ensemble.symbols),
        "dual": matrix_to_pairs(report.dual),
    }, manifest)
    _write_csv(trace_path, manifest, ["iteration", "objective", "leakage_bits", "step_size"],
               trace.rows())
    print(f"leakage_bits={report.leakage_bits:.6f} "
          f"in [{report.leakage_bits:.9f}, {report.upper_bound_bits:.9f}] "
          f"(gap {report.gap_bits:.1e} bits, ceiling {report.ceiling_bits:.6f}), "
          f"stop reason {trace.stop_reason} after "
          f"{trace.iterations[-1]} iterations -> {result_path}")
    return EXIT_OK


def _cmd_noise_sweep(run: _Run) -> int:
    args = run.args
    if not (0.0 <= args.p_start <= args.p_end <= 1.0):
        raise EnsembleConfigError(
            f"invalid p grid: need 0 <= p_start <= p_end <= 1, "
            f"got [{args.p_start}, {args.p_end}]"
        )
    if args.p_steps < 2:
        raise EnsembleConfigError("p grid needs at least 2 points")
    if args.channel == "local":
        qubit_count(run.ensemble.dim)  # reject the dimension before any solve

    (path,) = run.start("noise_sweep.csv")
    report = compute_leakage(run.ensemble, run.cfg)
    q0 = report.leakage_bits
    grid = np.linspace(args.p_start, args.p_end, args.p_steps)
    curve, solved = noise_curve(run.ensemble, args.channel, grid, run.cfg, report)
    rows = [(p, direct, formula, direct / q0 if q0 > 1e-12 else 1.0)
            for p, direct, formula in curve]
    manifest = run.manifest(channel=args.channel, p_start=args.p_start, p_end=args.p_end,
                            p_steps=args.p_steps, noiseless_leakage_bits=q0,
                            noiseless_upper_bound_bits=report.upper_bound_bits,
                            solved_p=solved)
    _write_csv(path, manifest, ["p", "direct_leakage_bits", "formula_bits", "ratio"], rows)
    print(f"noiseless leakage_bits={q0:.6f} "
          f"(certified <= {report.upper_bound_bits:.6f}), {len(rows)} grid points, "
          f"{len(solved)} solved directly -> {path}")
    return EXIT_OK


def _cmd_verify(run: _Run) -> int:
    channel = channel_sha = None
    if run.args.channel_file:
        channel, channel_sha = load_channel(run.args.channel_file, run.ensemble.dim)

    paths = run.start("verify_report.json")
    report = verify_properties(run.ensemble, run.cfg, channel=channel)
    for path in paths:
        _write_json(path, report.as_dict(), run.manifest(
            channel_file=run.args.channel_file, channel_sha256=channel_sha))
    width = max(len(c.name) for c in report.checks)
    for check in report.checks:
        status = "SKIP" if check.skipped else ("PASS" if check.passed else "FAIL")
        print(f"{check.name:<{width}}  {status:<4}  {check.detail}")
    print("all checks passed" if report.all_passed else "FAILURES detected")
    return EXIT_OK if report.all_passed else EXIT_PROPERTY


def _exit_code(exc: Exception) -> int:
    if isinstance(exc, (UnsupportedDimensionError, MemoryError)):
        return EXIT_UNSUPPORTED
    if isinstance(exc, (NumericalFailureError, NotPsdError, InvalidChannelError,
                        np.linalg.LinAlgError)):
        return EXIT_NUMERICAL
    if isinstance(exc, (QLeakError, ValueError, OSError)):
        return EXIT_INPUT
    raise exc


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        ensemble, digest = resolve_ensemble(args.ensemble)
        cfg = AscentConfig(**{f.name: getattr(args, f.name)
                              for f in dataclasses.fields(AscentConfig)})
        return args.run(_Run(args, ensemble, digest, cfg))
    except Exception as exc:  # noqa: BLE001 - mapped to the exit-code contract
        code = _exit_code(exc)
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
