"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured tolerances and runtime.

Run as part of the normal pytest suite; the printed lines bypass capture so
the criterion-by-criterion verdict is always visible.
"""

import json
import math
import time

import numpy as np
import pytest

from qleak import (
    AscentConfig,
    Ensemble,
    Povm,
    ascent_step,
    brute_force_leakage,
    compute_leakage,
    depolarizing_global,
    encode_index,
    noisy_leakage_global,
    random_kraus_channel,
    resolve_ensemble,
    two_state_leakage,
    verify_properties,
)
from qleak.cli import main as cli_main
from helpers import fuzz_stream, random_pure

# Objective histories from every optimizer run in this module; criterion 6
# asserts monotonicity across all of them.
TRACES: list[tuple[str, list[float]]] = []

FUZZ_CHECKS = (
    "nonnegativity",
    "ceiling",
    "independence_iff_zero",
    "povm_dominance",
    "data_processing",
    "local_noise_bound",
)


def record_report(label, report):
    for i, trace in enumerate(report.traces):
        TRACES.append((f"{label}[{i}]", list(trace.objectives)))


def record_csv_traces(label, out_dir):
    for path in sorted(out_dir.glob("trace_restart_*.csv")):
        lines = path.read_text().splitlines()[2:]
        TRACES.append((f"{label}/{path.name}",
                       [float(line.split(",")[1]) for line in lines]))


def announce(capsys, criterion, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_index_encoding(tmp_path, capsys):
    out = tmp_path / "index8"
    started = time.perf_counter()
    code = cli_main(["compute", "--ensemble", "builtin:index8",
                     "--out", str(out)])
    elapsed = time.perf_counter() - started
    result = json.loads((out / "result.json").read_text())
    record_csv_traces("index8", out)
    ok = (code == 0
          and abs(result["leakage_bits"] - 3.0) <= 1e-3
          and all(result["converged"])
          and abs(result["ceiling_bits"] - 3.0) <= 1e-12)
    announce(capsys, 1, ok,
             f"builtin:index8 leakage_bits={result['leakage_bits']:.9f} "
             f"(target 3.000 +/- 1e-3), "
             f"{sum(result['converged'])}/{len(result['converged'])} restarts "
             f"converged, {elapsed:.1f}s (expected < 30s)")


def test_criterion_2_amplitude_encoding(tmp_path, capsys):
    out = tmp_path / "amplitude3"
    started = time.perf_counter()
    code = cli_main(["compute", "--ensemble", "builtin:amplitude3",
                     "--out", str(out)])
    elapsed = time.perf_counter() - started
    result = json.loads((out / "result.json").read_text())
    record_csv_traces("amplitude3", out)
    ok = code == 0 and abs(result["leakage_bits"] - 1.9) <= 0.05
    announce(capsys, 2, ok,
             f"builtin:amplitude3 leakage_bits={result['leakage_bits']:.9f} "
             f"(target 1.9 +/- 0.05), {elapsed:.1f}s")


def test_criterion_3_two_state_oracles(capsys):
    rng = np.random.default_rng(2024)
    cfg = AscentConfig(restarts=4, max_iters=3000, eps=1e-10, seed=17)
    started = time.perf_counter()
    worst_ascent = 0.0
    worst_brute = 0.0
    for i in range(100):
        r0, r1 = random_pure(2, rng), random_pure(2, rng)
        ensemble = Ensemble(["a", "b"], [r0, r1])
        exact = two_state_leakage(r0, r1)
        report = compute_leakage(ensemble, cfg)
        record_report(f"two_state_{i}", report)
        worst_ascent = max(worst_ascent, abs(report.leakage_bits - exact))
        worst_brute = max(worst_brute,
                          abs(brute_force_leakage(ensemble, 256, seed=i) - exact))
    elapsed = time.perf_counter() - started
    ok = worst_ascent <= 1e-3 and worst_brute <= 2e-3
    announce(capsys, 3, ok,
             f"100 random qubit pairs: max |ascent - closed form| = "
             f"{worst_ascent:.2e} (tol 1e-3), max |brute force - closed form| "
             f"= {worst_brute:.2e} (tol 2e-3), {elapsed:.1f}s (expected < 2 min)")


def test_criterion_4_global_noise_exactness(capsys):
    ensemble = encode_index(4)
    cfg = AscentConfig(restarts=6, max_iters=5000, eps=1e-10, seed=0)
    baseline = compute_leakage(ensemble, cfg)
    record_report("index4_clean", baseline)
    q0 = baseline.leakage_bits
    worst = 0.0
    ratios = []
    for p in np.round(np.linspace(0.0, 1.0, 11), 10):
        mapped = ensemble.transform(depolarizing_global(float(p), 4))
        report = compute_leakage(mapped, cfg)
        record_report(f"index4_p{p}", report)
        worst = max(worst, abs(report.leakage_bits - noisy_leakage_global(q0, float(p))))
        ratios.append(report.leakage_bits / q0)
    monotone = all(a > b for a, b in zip(ratios, ratios[1:]))
    ok = worst <= 2e-3 and monotone
    announce(capsys, 4, ok,
             f"index4, p in 0..1 step 0.1: max |direct - formula| = {worst:.2e} "
             f"(tol 2e-3), ratio curve strictly decreasing = {monotone}")


def test_criterion_5_property_suite(capsys):
    started = time.perf_counter()
    preset_flags = ["--restarts", "4", "--max-iters", "2000", "--seed", "0"]
    preset_codes = {}
    for name in ("index2", "index4", "index8", "amplitude3"):
        preset_codes[name] = cli_main(["verify", "--ensemble", f"builtin:{name}"]
                                      + preset_flags)
    presets_ok = all(code == 0 for code in preset_codes.values())

    failures = []
    for i, ensemble, cfg in fuzz_stream():
        dim, n_symbols = ensemble.dim, ensemble.size
        report = verify_properties(
            ensemble, cfg,
            channel=random_kraus_channel(dim, dim, seed=3000 + i),
            checks=FUZZ_CHECKS, noise_grid=(0.4,))
        if not report.all_passed:
            bad = [c.name for c in report.checks if not c.passed]
            failures.append(f"fuzz #{i} (d={dim}, |X|={n_symbols}): {bad}")
    elapsed = time.perf_counter() - started
    ok = presets_ok and not failures
    announce(capsys, 5, ok,
             f"verify exit codes {preset_codes}; 50 fuzzed ensembles "
             f"(d in 2..4, |X| in 2..6): {len(failures)} failures"
             f"{'; ' + '; '.join(failures) if failures else ''}, {elapsed:.1f}s")


def test_criterion_6_algorithm_invariants(capsys):
    worst_fixed = 0.0
    for dim in range(2, 9):
        ensemble = encode_index(dim)
        basis = Povm.computational_basis(dim)
        stepped = ascent_step(ensemble, basis, 0.5)
        worst_fixed = max(worst_fixed,
                          max(np.max(np.abs(a - b))
                              for a, b in zip(stepped, basis)))
    worst_dip = 0.0
    for _, objectives in TRACES:
        if len(objectives) > 1:
            worst_dip = max(worst_dip, -float(np.min(np.diff(objectives))))
    ok = worst_fixed <= 1e-10 and worst_dip <= 1e-12
    announce(capsys, 6, ok,
             f"fixed point deviation = {worst_fixed:.2e} (tol 1e-10) over "
             f"d=2..8; worst trace decrease = {worst_dip:.2e} (tol 1e-12) "
             f"over {len(TRACES)} recorded restarts")


def test_criterion_7_prior_invariance(capsys):
    cfg = AscentConfig(restarts=3, seed=12)
    mismatches = []
    for name in ("index2", "index4", "index8", "amplitude3"):
        ensemble, _ = resolve_ensemble(f"builtin:{name}")
        weights = np.arange(1.0, ensemble.size + 1.0)
        skewed = ensemble.with_priors(weights / weights.sum())
        uniform_bits = compute_leakage(ensemble, cfg).leakage_bits
        skewed_bits = compute_leakage(skewed, cfg).leakage_bits
        if uniform_bits != skewed_bits:
            mismatches.append(f"{name}: {uniform_bits!r} != {skewed_bits!r}")
    ok = not mismatches
    announce(capsys, 7, ok,
             "skewed priors give bit-identical leakage on all presets"
             if ok else "; ".join(mismatches))
