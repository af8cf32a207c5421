#!/usr/bin/env python3
"""How depolarizing noise erodes leakage.

Global depolarizing noise with parameter p transfers leakage exactly:
q(p) = log2(p + (1-p) 2^q0). This demo re-optimizes the noisy ensemble at
each grid point and compares against that closed form, then shows the
per-qubit (local) noise bound log2(p^k + (1-p^k) 2^q0).
"""

import numpy as np

from qleak import AscentConfig, compute_leakage, encode_index, noise_curve

ensemble = encode_index(4)
cfg = AscentConfig(restarts=6, seed=0)
q0 = compute_leakage(ensemble, cfg).leakage_bits
grid = np.linspace(0.0, 1.0, 6)
print(f"noiseless leakage: {q0:.6f} bits\n")

print("global depolarizing")
print("   p    direct    formula   |diff|    ratio")
for p, direct, formula in noise_curve(ensemble, "global", grid, cfg, q0):
    print(f"  {p:.1f}  {direct:8.6f}  {formula:8.6f}  {abs(direct - formula):.1e}"
          f"  {direct / q0:8.6f}")

print("\nlocal depolarizing (2 qubits): direct value vs upper bound")
print("   p    direct    bound")
for p, direct, bound in noise_curve(ensemble, "local", grid, cfg, q0):
    print(f"  {p:.1f}  {direct:8.6f}  {bound:8.6f}")
