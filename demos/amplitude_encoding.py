#!/usr/bin/env python3
"""Leakage of a 3-bit amplitude-style encoding.

Each bit selects one vector of a dedicated basis pair, and the three
selections are superposed with equal weight into a dimension-8 pure state.
The states overlap, so the encoding leaks strictly less than the 3 bits an
index encoding of the same register would: the solve certifies about
1.9 bits (log2(2 + sqrt(3))) within 1e-9 bits.
"""

import math

from qleak import compute_leakage, encode_amplitude_3bit, leakage_objective

ensemble = encode_amplitude_3bit()
print(f"ensemble: {ensemble.size} symbols in dimension {ensemble.dim}")
for label, state in zip(ensemble.symbols[:3], ensemble.states[:3]):
    amps = state.matrix.diagonal().real.round(4)
    print(f"  x={label}: basis weights {amps}")
print("  ...\n")

report = compute_leakage(ensemble)

print(f"leakage:       {report.leakage_bits:.6f} bits")
print(f"log2(2+sqrt3): {math.log2(2 + math.sqrt(3)):.6f} bits")
print(f"index ceiling: 3 bits (amplitude overlap buys privacy)")
print(f"certified:     [{report.leakage_bits:.12f}, {report.upper_bound_bits:.12f}]")

objective, bits, winners = leakage_objective(ensemble, report.optimal_povm)
print(f"\nbest measurement: {len(report.optimal_povm)} outcomes, one per symbol, "
      f"objective {objective:.6f} = 2^{bits:.6f}")
print(f"outcome winners: {winners}")
