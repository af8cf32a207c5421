"""qleak benchmark: runs one workload and prints its metrics.

    python3 bench/run.py --workload compute-d8 --seed 0 --seconds 30 --trace 0

Run it from anywhere inside a checkout whose `src/qleak` is the code under
test; it never imports an installed qleak and exits with code 2 when
`src/qleak` is missing. Every line before the last is for people; the last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. With `--trace 0` the metrics are the
end-to-end ones, with `--trace 1` the per-layer ones. bench/README.md
defines the workloads and every metric.
"""

import time

STARTED = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("compute-d8", "verify-fuzz", "noise-sweep-d4")
SETUP_PROBES = 6          # fresh-interpreter set-ups timed besides the run's own
SWEEP_DIMS = (2, 4, 8, 16)
SWEEP_SECONDS = 0.3       # per dimension of the ascent_step sweep
SWEEP_MIN_CALLS = 5

# Printed, but not in BENCHMARK.json: both read 0 on correct code, and the
# result line carries them as `failed` and `correct`.
TEXT_ONLY_UNITS = {"ops_failed": "fraction", "shortfall_bits": "bits"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measurement budget; at least one batch always runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_qleak():
    """Import the checkout's qleak with BLAS pinned to one thread."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import qleak
    if Path(qleak.__file__).resolve().parent != SRC / "qleak":
        raise ImportError(f"imported qleak from {qleak.__file__}, not {SRC}")
    return qleak


def source_identity() -> dict:
    """The git commit of the checkout when it is a git work tree, and a
    digest of src/qleak that identifies the code in any case."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "qleak").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def environment(qleak, numpy) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "qleak_version": qleak.__version__,
        **source_identity(),
    }


def setup_probes(args) -> list[float]:
    """Set-up times of fresh interpreters doing this run's set-up."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds)],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return times


def run_batch(ops, tracer=None):
    """Run every operation once; returns (seconds, checks), where seconds
    sums the operations' wall times and checks holds a Check per operation."""
    from workloads import Check
    elapsed = 0.0
    checks = []
    for op in ops:
        if tracer is not None:
            tracer.op += 1
        started = time.perf_counter()
        try:
            output = op.run()
        except Exception:  # noqa: BLE001 - an operation's failure is a result
            elapsed += time.perf_counter() - started
            checks.append(Check(False, traceback.format_exc(limit=3)))
            continue
        elapsed += time.perf_counter() - started
        try:
            checks.append(op.check(output))
        except Exception:  # noqa: BLE001 - unreadable output fails the op
            checks.append(Check(False, traceback.format_exc(limit=3)))
    return elapsed, checks


def run_batches(ops, budget: float, tracer=None):
    """Repeat the batch while the next one is expected to end within budget
    seconds; at least one batch runs."""
    times, all_checks = [], []
    started = time.perf_counter()
    while not times or (time.perf_counter() - started
                        + statistics.fmean(times) <= budget):
        seconds, checks = run_batch(ops, tracer)
        times.append(seconds)
        all_checks.append(checks)
    return times, all_checks


def ascent_step_sweep(qleak) -> dict[str, float]:
    """Median microseconds per public ascent_step call on encode_index(d)
    with a seeded random POVM of d^2 outcomes."""
    out = {}
    for dim in SWEEP_DIMS:
        ensemble = qleak.encode_index(dim)
        povm = qleak.random_povm(dim, dim * dim, seed=dim)
        samples = []
        started = time.perf_counter()
        while (len(samples) < SWEEP_MIN_CALLS
               or time.perf_counter() - started < SWEEP_SECONDS):
            t = time.perf_counter()
            qleak.ascent_step(ensemble, povm, 0.1)
            samples.append(time.perf_counter() - t)
        out[f"leakage.ascent_step_us.d{dim}"] = 1e6 * statistics.median(samples)
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize_checks(batches_checks):
    checks = [c for batch in batches_checks for c in batch]
    failed = sum(not c.ok for c in checks)
    shortfalls = [c.shortfall for c in checks if c.shortfall is not None]
    shortfall = max([0.0] + shortfalls)
    if shortfall < 1e-6:
        shortfall = 0.0
    return checks, failed, shortfall


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qleak" / "__init__.py").is_file():
        print(f"error: {SRC / 'qleak'} not found; run from a qleak checkout",
              file=sys.stderr)
        return 2
    qleak = import_qleak()
    import numpy
    import tracing
    import workloads

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        ops = workloads.WORKLOADS[args.workload](args.seed, workdir)
        own_setup = time.perf_counter() - STARTED
        if args.setup_probe:
            print(own_setup)
            return 0
        setup_times = setup_probes(args) + [own_setup]
        return measure(args, qleak, numpy, tracing, workloads, ops, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, qleak, numpy, tracing, workloads, ops, setup_times) -> int:
    env = environment(qleak, numpy)
    lines = [f"qleak benchmark: workload={args.workload} seed={args.seed} "
             f"trace={args.trace} budget={args.seconds:g} s",
             "environment: " + json.dumps(env, sort_keys=True)]
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "environment": env,
              "setup_times_s": setup_times}

    consistent = True
    budget = args.seconds / 2 if args.trace else args.seconds
    times, batch_checks = run_batches(ops, budget)
    checks, failed, shortfall = summarize_checks(batch_checks)
    wall = statistics.median(times)
    q1, q3 = quartiles(times)
    record["batch_times_s"] = times
    lines.append(f"batch: {len(ops)} operations; {len(times)} batches, "
                 f"median {wall:.4f} s, quartiles {q1:.4f} .. {q3:.4f} s")

    if args.trace:
        tracer = tracing.Tracer()
        from qleak import cli, ensemble_io, leakage, linalg, states
        modules = [qleak, cli, ensemble_io, states, leakage, linalg]
        uninstall = tracing.install(
            tracer, modules,
            tracing.qleak_targets(cli, ensemble_io, states, leakage, linalg))
        try:
            traced_times, traced_checks = run_batches(ops, budget, tracer)
        finally:
            uninstall()
        more, more_failed, more_shortfall = summarize_checks(traced_checks)
        checks += more
        failed += more_failed
        shortfall = max(shortfall, more_shortfall)
        n_traced = len(traced_times)
        metrics = tracing.layer_metrics(tracer, n_traced)
        metrics["cli.bytes_out"] = sum(c.bytes_out for c in more) / n_traced
        csv_iters = [c.iters for c in more if c.iters is not None]
        if csv_iters and sum(csv_iters) / n_traced != metrics["leakage.iters"]:
            consistent = False
            lines.append(f"FAIL: traced iterations {metrics['leakage.iters']} != "
                         f"{sum(csv_iters) / n_traced} in the trace CSVs")
        metrics.update(ascent_step_sweep(qleak))
        metrics["trace_overhead"] = statistics.median(traced_times) / wall - 1.0
        record["traced_batch_times_s"] = traced_times
        RESULTS.mkdir(exist_ok=True)
        spans_path = RESULTS / f"spans-{args.workload}-seed{args.seed}.json.gz"
        with gzip.open(spans_path, "wt") as fh:
            json.dump(tracing.dump_spans(tracer), fh)
        lines.append(f"traced: {n_traced} batches, {len(tracer.spans)} spans "
                     f"-> {spans_path.relative_to(ROOT)}")
    else:
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           "differ from BENCHMARK.json")
    attempted = len(checks)
    text_metrics = {"ops_failed": failed / attempted, "shortfall_bits": shortfall}
    for check in checks:
        if not check.ok:
            lines.append(f"FAIL: {check.detail}")
    for name, value in {**metrics, **text_metrics}.items():
        unit = units.get(name) or TEXT_ONLY_UNITS[name]
        lines.append(f"{name} = {value:.6g} {unit}")

    result = {
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    record.update(result)
    record["text_metrics"] = text_metrics
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


def declared_units(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


if __name__ == "__main__":
    sys.exit(main())
