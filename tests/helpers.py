"""Shared random generators and exact oracles for the test suite."""

import math

import numpy as np

from qleak import AscentConfig, DensityOperator, Ensemble


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


def cyclic_orbit(dim, n_symbols, rng):
    """Z_N orbit U^k |psi>, k < N = n_symbols, of a random unit vector under a
    diagonal unitary U with distinct integer frequencies below N."""
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    freqs = rng.choice(n_symbols, size=dim, replace=False)
    phases = np.exp(2j * np.pi * np.outer(np.arange(n_symbols), freqs) / n_symbols)
    states = [DensityOperator.from_pure(row * vec, normalize=True) for row in phases]
    return Ensemble([f"s{k}" for k in range(n_symbols)], states)


def product_ensemble(first, second):
    """{rho_a (x) sigma_b} over every symbol pair (a, b). Its leakage is the
    sum of the factors' leakages, since conditional min-entropy is additive
    (Koenig, Renner and Schaffner, IEEE TIT 55, 2009)."""
    states = [DensityOperator(np.kron(rho, sigma))
              for rho in first.state_stack() for sigma in second.state_stack()]
    labels = [f"{a}|{b}" for a in first.symbols for b in second.symbols]
    return Ensemble(labels, states)


def pure_gram(ensemble):
    """N x N Gram matrix <psi_x|psi_y> of a pure-state ensemble, up to a
    diagonal phase conjugation, which changes neither its spectrum nor that
    of its entrywise powers."""
    vectors = np.linalg.eigh(ensemble.state_stack())[1][:, :, -1]
    return vectors.conj() @ vectors.T


def orbit_leakage(source):
    """Exact leakage of a geometrically uniform ensemble (pure states forming
    one orbit of an abelian group), where the square-root measurement is
    optimal: log2((sum_k sqrt(lambda_k))^2 / N) over the eigenvalues of the
    N x N Gram matrix. ``source`` is the ensemble or that Gram matrix; the
    entrywise power G^n is the Gram matrix of n copies |psi_x>^(x)n, an orbit
    in dimension d^n. Eigenvalues below N * 1e-12 count as 0; their roundoff
    would otherwise add about 3.5e-8 bits."""
    gram = pure_gram(source) if isinstance(source, Ensemble) else np.asarray(source)
    n = len(gram)
    lam = np.linalg.eigvalsh(gram)
    return math.log2(np.sum(np.sqrt(np.where(lam < n * 1e-12, 0.0, lam))) ** 2 / n)


def fuzz_stream(count=50):
    """Acceptance criterion 5's fuzz stream: (i, ensemble, cfg) for its first
    ``count`` ensembles, with d in 2..4, |X| in 2..6 and every tenth one
    indistinguishable, each with the solver settings the criterion uses."""
    rng = np.random.default_rng(20250809)
    for i in range(count):
        dim = int(rng.integers(2, 5))
        n_symbols = int(rng.integers(2, 7))
        if i % 10 == 9:
            rho = random_density(dim, rng)
            ensemble = Ensemble([f"s{k}" for k in range(n_symbols)],
                                [rho] * n_symbols)
        else:
            ensemble = random_ensemble(dim, n_symbols, rng)
        yield i, ensemble, AscentConfig(restarts=4, max_iters=2500, eps=1e-10,
                                        seed=100 + i)


def criterion5_fuzz(index):
    """Ensemble ``index`` of fuzz_stream, with its AscentConfig."""
    *_, (_, ensemble, cfg) = fuzz_stream(index + 1)
    return ensemble, cfg
