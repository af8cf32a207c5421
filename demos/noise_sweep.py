#!/usr/bin/env python3
"""How depolarizing noise erodes leakage.

Global depolarizing noise with parameter p transfers leakage exactly:
q(p) = log2(p + (1-p) 2^q0). This demo solves the noiseless ensemble once
and carries its certificate through the channel at each grid point instead
of re-solving: the optimal POVM gives the lower end, and the dual point Y,
mapped to N(Y), the upper end. It compares the carried value against that
closed form, then against the per-qubit (local) noise bound
log2(p^k + (1-p^k) 2^q0). A point whose carried interval is wider than
TRANSFER_GAP_BITS would be solved; each sweep prints the p it solved.
"""

import numpy as np

from qleak import AscentConfig, compute_leakage, encode_index, noise_curve

ensemble = encode_index(4)
cfg = AscentConfig()
report = compute_leakage(ensemble, cfg)
q0 = report.leakage_bits
grid = np.linspace(0.0, 1.0, 6)
print(f"noiseless leakage: {q0:.6f} bits (certified <= {report.upper_bound_bits:.6f})\n")

print("global depolarizing")
print("   p    direct    formula   |diff|    ratio")
rows, solved = noise_curve(ensemble, "global", grid, cfg, report)
for p, direct, formula in rows:
    print(f"  {p:.1f}  {direct:8.6f}  {formula:8.6f}  {abs(direct - formula):.1e}"
          f"  {direct / q0:8.6f}")
print(f"solved p: {solved}")

print("\nlocal depolarizing (2 qubits): direct value vs upper bound")
print("   p    direct    bound")
rows, solved = noise_curve(ensemble, "local", grid, cfg, report)
for p, direct, bound in rows:
    print(f"  {p:.1f}  {direct:8.6f}  {bound:8.6f}")
print(f"solved p: {solved}")
