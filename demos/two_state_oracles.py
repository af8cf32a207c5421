#!/usr/bin/env python3
"""Three independent routes to the same two-state leakage.

For a pair of states the optimal measurement is the projective one onto
the eigenspaces of rho0 - rho1, giving the closed form log2(1 + T) with T
the trace distance. The interior-point solve and a Bloch-sphere grid search
must land on the same value; this demo cross-checks all three on random
qubit pairs.
"""

import numpy as np

from qleak import (
    DensityOperator,
    Ensemble,
    brute_force_leakage,
    compute_leakage,
    trace_distance,
    two_state_leakage,
)

rng = np.random.default_rng(7)

print("pair   T(rho0,rho1)   closed form     solve        grid search")
for i in range(6):
    v0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    rho0 = DensityOperator.from_pure(v0, normalize=True)
    rho1 = DensityOperator.from_pure(v1, normalize=True)
    ensemble = Ensemble(["x0", "x1"], [rho0, rho1])

    t = trace_distance(rho0.matrix, rho1.matrix)
    exact = two_state_leakage(rho0, rho1)
    solved = compute_leakage(ensemble).leakage_bits
    grid = brute_force_leakage(ensemble, 256, seed=i)
    print(f"  {i}    {t:.8f}    {exact:.8f}  {solved:.8f}  {grid:.8f}")

print("\nedge cases")
zero = DensityOperator.basis_state(2, 0)
one = DensityOperator.basis_state(2, 1)
plus = DensityOperator.from_pure([1, 1], normalize=True)
print(f"  identical states:  {two_state_leakage(zero, zero):.6f} bits")
print(f"  orthogonal states: {two_state_leakage(zero, one):.6f} bits")
print(f"  |0> vs |+>:        {two_state_leakage(zero, plus):.6f} bits "
      f"(= log2(1 + sqrt(2)/2))")
