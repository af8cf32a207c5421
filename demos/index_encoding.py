#!/usr/bin/env python3
"""Leakage of an index encoding.

Writes d classical symbols into the d orthogonal basis states of a
d-dimensional system. Orthogonal states are perfectly distinguishable, so
the encoding leaks everything: log2(d) bits, saturating the ceiling
min(log2 |X|, log2 d). The interior-point solve certifies this within a few
iterations.
"""

from qleak import compute_leakage, encode_index

ensemble = encode_index(8)
print(f"ensemble: {ensemble.size} symbols in dimension {ensemble.dim}")
print(f"ceiling:  min(log2 8, log2 8) = 3 bits\n")

report = compute_leakage(ensemble)
(trace,) = report.traces

print(f"leakage:  certified in [{report.leakage_bits:.12f}, "
      f"{report.upper_bound_bits:.12f}] bits (gap {report.gap_bits:.1e})")
print(f"stopped:  {trace.stop_reason} after {trace.iterations[-1]} iterations")

# Per iteration: the best certified lower end so far and the primal step
# length. Iterates are certified once their own duality gap is below 1e-6
# bits, so the early rows keep the start's 0 bits.
print("\niter  certified bits  step")
for it, _, bits, step in trace.rows():
    print(f"{it:4d}  {bits:.12f}  {step:.4f}")
