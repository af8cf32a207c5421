"""Shared random generators for the test suite."""

import numpy as np

from qleak import DensityOperator, Ensemble


def random_pure(dim, rng):
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return DensityOperator.from_pure(vec, normalize=True)


def random_density(dim, rng):
    """Full-rank mixed state from a Wishart draw."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    w = a @ a.conj().T
    return DensityOperator(w / w.trace().real)


def random_hermitian(dim, rng, scale=1.0):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * (a + a.conj().T) / 2


def random_psd(dim, rng, scale=1.0):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * (a @ a.conj().T)


def random_ensemble(dim, n_symbols, rng, pure=False):
    make = random_pure if pure else random_density
    states = [make(dim, rng) for _ in range(n_symbols)]
    return Ensemble([f"s{i}" for i in range(n_symbols)], states)


def map_state(channel, rho):
    """channel(rho), through a one-state ensemble's transform."""
    return Ensemble(["x"], [rho]).transform(channel).states[0]
