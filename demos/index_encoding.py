#!/usr/bin/env python3
"""Leakage of an index encoding.

Writes d classical symbols into the d orthogonal basis states of a
d-dimensional system. Orthogonal states are perfectly distinguishable, so
the encoding leaks everything: log2(d) bits, saturating the ceiling
min(log2 |X|, log2 d). The ascent finds this from random measurements.
"""

import numpy as np

from qleak import AscentConfig, compute_leakage, encode_index

ensemble = encode_index(8)
print(f"ensemble: {ensemble.size} symbols in dimension {ensemble.dim}")
print(f"ceiling:  min(log2 8, log2 8) = 3 bits\n")

report = compute_leakage(ensemble, AscentConfig(restarts=10, seed=0))

print(f"leakage:  {report.leakage_bits:.6f} bits "
      f"(best of {len(report.traces)} restarts, #{report.best_restart})")
print(f"restart finals: "
      + ", ".join(f"{q:.4f}" for q in report.restart_leakages))

# Convergence band across restarts, sampled every 10 iterations: the same
# min/mean/max view a line plot of the traces would show.
length = max(len(t.leakage_bits) for t in report.traces)
padded = np.array([t.leakage_bits + [t.leakage_bits[-1]] * (length - len(t.leakage_bits))
                   for t in report.traces])
print("\niter    min      mean     max")
for it in range(0, length, 10):
    col = padded[:, it]
    print(f"{it:4d}  {col.min():.5f}  {col.mean():.5f}  {col.max():.5f}")
print(f"{length - 1:4d}  {padded[:, -1].min():.5f}  "
      f"{padded[:, -1].mean():.5f}  {padded[:, -1].max():.5f}")
