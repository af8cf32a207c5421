"""Tests of the benchmark's own logic.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qleak
from qleak import (
    AscentConfig,
    cli,
    depolarizing_global,
    depolarizing_local,
    encode_index,
    ensemble_io,
    leakage,
    linalg,
    noisy_leakage_global,
    states,
)

import tracing
import workloads
from tracing import Span

BENCH = Path(__file__).resolve().parent
P_GRID = [float(p) for p in np.linspace(0.0, 1.0, workloads.SWEEP_STEPS)]


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span(0, "parent", 0.0, 10.0, None, 0),
        Span(1, "a", 1.0, 3.0, 0, 0),
        Span(2, "b", 2.0, 5.0, 0, 0),       # overlaps a, as on a second thread
        Span(3, "c", 8.0, 9.0, 0, 0),
        Span(4, "grandchild", 1.5, 2.5, 1, 0),
    ]
    own = tracing.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[1] == pytest.approx(1.0)
    assert own[2] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)


def test_covered_clips_to_the_interval():
    assert tracing.covered([(-1.0, 2.0), (1.0, 1.5), (9.0, 12.0)], 0.0, 10.0) == 3.0


def test_backtracks_from_step_sizes():
    # Iteration 0 records step 0; then mu, mu/2, mu, mu/4 and the 1e-6 floor,
    # reached after 16 halvings and one clamped 17th.
    steps = [0.0, 0.1, 0.05, 0.1, 0.025, leakage.MU_MIN]
    assert tracing.backtracks(steps, 0.1) == 0 + 1 + 0 + 2 + 17


def classical_bits(ensemble) -> float:
    """Leakage of an ensemble of diagonal states: log2 sum_y max_x rho^x_yy."""
    stack = ensemble.state_stack()
    diagonals = np.einsum("xii->xi", stack).real
    off = stack - np.einsum("xi,ij->xij", diagonals, np.eye(ensemble.dim))
    assert np.max(np.abs(off)) < 1e-15
    return math.log2(diagonals.max(axis=0).sum())


@pytest.mark.parametrize("p", P_GRID)
def test_global_noise_reference(p):
    noisy = encode_index(4).transform(depolarizing_global(p, 4))
    assert workloads.global_noise_bits(p) == pytest.approx(classical_bits(noisy), abs=1e-12)
    assert workloads.global_noise_bits(p) == pytest.approx(
        noisy_leakage_global(2.0, p), abs=1e-12)


@pytest.mark.parametrize("p", P_GRID)
def test_local_noise_reference_on_index4(p):
    noisy = encode_index(4).transform(depolarizing_local(p, 2))
    assert workloads.local_noise_bits(p) == pytest.approx(classical_bits(noisy), abs=1e-12)


def _write_sweep(out: Path, channel: str, error: float):
    reference = workloads.global_noise_bits if channel == "global" \
        else workloads.local_noise_bits
    out.mkdir()
    rows = [f"{p},{reference(p) - error},0,0" for p in P_GRID]
    (out / "noise_sweep.csv").write_text(
        "# manifest: {}\np,direct_leakage_bits,formula_bits,ratio\n"
        + "\n".join(rows) + "\n")


@pytest.mark.parametrize("channel", ["global", "local"])
def test_sweep_check_tolerance(tmp_path, channel):
    judge = workloads._judge_sweep(channel)
    _write_sweep(tmp_path / "ok", channel, 1e-7)
    good = judge(tmp_path / "ok")
    assert good.ok and good.shortfall == pytest.approx(1e-7)
    _write_sweep(tmp_path / "bad", channel, 3e-3)
    assert not judge(tmp_path / "bad").ok


def test_fuzz_priors_follow_the_seed_and_states_do_not():
    first, again, other = (workloads.fuzz_ensembles(s) for s in (1, 1, 2))
    assert len(first) == workloads.FUZZ_ENSEMBLES
    for a, b, c in zip(first, again, other):
        assert np.array_equal(a.priors, b.priors)
        assert not np.array_equal(a.priors, c.priors)
        assert np.array_equal(a.state_stack(), c.state_stack())
        assert 2 <= a.dim <= 4 and 2 <= a.size <= 6
    assert first[9].is_indistinguishable(0.0)
    assert not first[0].is_indistinguishable(1e-3)


@pytest.fixture
def traced():
    modules = [qleak, cli, ensemble_io, states, leakage, linalg]
    before = {(m.__name__, name): getattr(m, name)
              for m in modules for name in ("compute_leakage", "random_povm",
                                            "inv_sqrt_psd") if hasattr(m, name)}
    init = states.Povm.__init__
    tracer = tracing.Tracer()
    uninstall = tracing.install(
        tracer, modules, tracing.qleak_targets(cli, ensemble_io, states, leakage, linalg))
    try:
        yield tracer
    finally:
        uninstall()
    for (module, name), fn in before.items():
        assert getattr(sys.modules[module], name) is fn
    assert states.Povm.__init__ is init


def test_install_wraps_every_binding(traced):
    assert qleak.compute_leakage is cli.compute_leakage is leakage.compute_leakage
    assert qleak.random_povm is leakage.random_povm is states.random_povm
    assert qleak.inv_sqrt_psd is linalg.inv_sqrt_psd
    assert hasattr(linalg.inv_sqrt_psd, "__wrapped__")
    assert hasattr(states.Povm.__init__, "__wrapped__")


def test_traced_counts_match_the_convergence_traces(traced):
    cfg = AscentConfig(mu=10.0, restarts=3, max_iters=300, seed=0)
    report = qleak.compute_leakage(encode_index(4), cfg, threads=2)
    metrics = tracing.layer_metrics(traced, batches=1)
    iters = sum(trace.iterations[-1] for trace in report.traces)
    assert iters == sum(len(trace.iterations) - 1 for trace in report.traces)
    assert metrics["leakage.iters"] == iters
    assert metrics["leakage.restarts"] == 3
    # One whitening per step trial, plus one per random initialization: the
    # trials beyond one per iteration are the backtracks.
    assert metrics["linalg.inv_sqrt_psd.calls"] == (
        3 + iters + metrics["leakage.backtracks"])
    assert metrics["leakage.backtracks"] > 0
    # Restarts ran on pool threads; their spans still hang under the call.
    (compute,) = [s for s in traced.spans if s.name == "leakage.compute_leakage"]
    povm_spans = [s for s in traced.spans if s.name == "states.random_povm"]
    assert len(povm_spans) == 3 and all(s.parent == compute.id for s in povm_spans)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "compute-d8", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_benchmark_json_lists_what_the_run_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    names = {m["name"] for m in spec["per_layer"]}
    layer = set(tracing.layer_metrics(tracing.Tracer(), batches=1))
    swept = {f"leakage.ascent_step_us.d{d}" for d in (2, 4, 8, 16)}
    assert names == layer | swept | {"cli.bytes_out", "trace_overhead"}
