#!/usr/bin/env python3
"""Structural guarantees of the leakage measure, executed.

Leakage is nonnegative, zero exactly for indistinguishable ensembles,
capped by min(log2 |X|, log2 d), never below the mutual information of
any fixed measurement, and cannot increase under a quantum channel; its
solve is certified to a narrow interval. The verifier turns each guarantee
into a numeric check.
"""

from qleak import (
    AscentConfig,
    DensityOperator,
    Ensemble,
    encode_index,
    random_kraus_channel,
    verify_properties,
)

cfg = AscentConfig(seed=0)


def show(title, report):
    print(title)
    for check in report.checks:
        status = "SKIP" if check.skipped else ("PASS" if check.passed else "FAIL")
        print(f"  [{status}] {check.name}: {check.detail}")
    print()


show("index encoding of 4 symbols, random channel for data processing",
     verify_properties(encode_index(4), cfg,
                       channel=random_kraus_channel(4, 4, seed=3),
                       noise_grid=(0.0, 0.3, 1.0)))

flat = Ensemble(["a", "b", "c"], [DensityOperator.maximally_mixed(2)] * 3)
show("indistinguishable ensemble (every guarantee collapses to zero)",
     verify_properties(flat, cfg,
                       noise_grid=(0.5,)))
