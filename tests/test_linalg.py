import warnings

import numpy as np
import pytest

from qleak import inv_sqrt_psd, trace_distance
from qleak.linalg import herm_eig, hermiticity_defect, hermitize
from qleak.exceptions import (
    DimensionMismatchError,
    NonSquareError,
    NotHermitianError,
    NotPsdError,
    NumericalFailureError,
)
from helpers import random_density, random_hermitian, random_psd


KET0 = np.array([[1, 0], [0, 0]], dtype=complex)
KET1 = np.array([[0, 0], [0, 1]], dtype=complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)


class TestHermEig:
    def test_identity(self):
        vals, vecs = herm_eig(np.eye(3))
        assert np.allclose(vals, [1, 1, 1])
        assert np.allclose(vecs @ vecs.conj().T, np.eye(3))

    def test_diagonal_ascending(self):
        vals, vecs = herm_eig(np.diag([4.0, 1.0]))
        assert np.allclose(vals, [1.0, 4.0])
        # standard basis vectors up to phase, in eigenvalue order
        assert np.allclose(np.abs(vecs), [[0, 1], [1, 0]])

    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reconstruction_oracle(self, dim, seed):
        rng = np.random.default_rng(seed)
        h = random_hermitian(dim, rng, scale=rng.uniform(0.1, 10.0))
        vals, vecs = herm_eig(h)
        rebuilt = (vecs * vals) @ vecs.conj().T
        tol = 1e-10 * max(1.0, np.linalg.norm(h))
        assert np.max(np.abs(rebuilt - h)) <= tol
        assert np.all(np.diff(vals) >= -1e-12)
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(dim))) <= 1e-10

    def test_decomposes_hermitian_part(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        vals, vecs = herm_eig(m)
        sym = (m + m.conj().T) / 2
        assert np.allclose((vecs * vals) @ vecs.conj().T, sym)

    def test_non_square(self):
        with pytest.raises(NonSquareError):
            herm_eig(np.zeros((2, 3)))

    def test_non_finite(self):
        with pytest.raises(NumericalFailureError):
            herm_eig(np.array([[np.nan, 0], [0, 1.0]]))


class TestInvSqrtPsd:
    def test_identity_zero_reg(self):
        out = inv_sqrt_psd(np.eye(4), reg=0.0)
        assert np.allclose(out, np.eye(4), atol=1e-7)

    def test_diagonal(self):
        out = inv_sqrt_psd(np.diag([4.0, 1.0]), reg=1e-15)
        assert np.allclose(out, np.diag([0.5, 1.0]), atol=1e-7)

    @pytest.mark.parametrize("dim", [2, 4, 8])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_defining_property(self, dim, seed):
        rng = np.random.default_rng(seed)
        s = random_psd(dim, rng)
        reg = 1e-12 * s.trace().real / dim
        w = inv_sqrt_psd(s, reg)
        assert np.max(np.abs(w @ s @ w - np.eye(dim))) <= 1e-8
        assert np.allclose(w, w.conj().T)

    def test_not_psd(self):
        with pytest.raises(NotPsdError):
            inv_sqrt_psd(np.diag([1.0, -0.5]))

    def test_tiny_negative_clamped(self):
        out = inv_sqrt_psd(np.diag([1.0, -1e-10]), reg=1e-6)
        assert np.isfinite(out).all()

    def test_overflow_raises_instead_of_nan(self):
        # Finite entries whose eigendecomposition overflows to NaN.
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalFailureError):
                inv_sqrt_psd([[1e308, 1e308], [1e308, 1e308]])


class TestHermitianHelpers:
    @pytest.mark.parametrize("seed", range(3))
    def test_hermitize_is_the_halved_sum(self, seed):
        # Entries up to 1 are not rescaled, so the defect is bit-identical;
        # larger entries are, which changes only the roundoff.
        rng = np.random.default_rng(seed)
        m = rng.uniform(-1, 1, (3, 4, 4)) + 1j * rng.uniform(-1, 1, (3, 4, 4))
        assert np.array_equal(hermitize(m), (m + m.conj().swapaxes(1, 2)) / 2)
        a, big = m[0], 1e3 * m[0]
        assert hermiticity_defect(a) == (np.linalg.norm(a - a.conj().T)
                                         / max(1.0, np.linalg.norm(a)))
        assert hermiticity_defect(big) == pytest.approx(
            np.linalg.norm(big - big.conj().T) / np.linalg.norm(big), rel=1e-15)

    def test_entries_near_the_float_maximum(self):
        m = np.array([[1e308, 1e308j], [-1e308j, 1e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(hermitize(m), m)
            assert hermiticity_defect(m) == 0.0
            assert hermiticity_defect(np.diag([1e308j, 0.0])) == 2.0


class TestTraceDistance:
    def test_self_distance(self):
        rng = np.random.default_rng(0)
        rho = random_density(3, rng).matrix
        assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_pure(self):
        assert trace_distance(KET0, KET1) == pytest.approx(1.0)

    def test_zero_vs_plus(self):
        # Difference is [[0.5, -0.5], [-0.5, -0.5]] with eigenvalues
        # +/- sqrt(0.5), so the distance is sqrt(2)/2.
        assert trace_distance(KET0, PLUS) == pytest.approx(np.sqrt(2) / 2, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_metric_properties(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (random_density(3, rng).matrix for _ in range(3))
        assert trace_distance(a, b) == trace_distance(b, a)
        assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-10
        assert -1e-12 <= trace_distance(a, b) <= 1.0 + 1e-12

    def test_requires_hermitian(self):
        with pytest.raises(NotHermitianError):
            trace_distance(np.array([[0, 1], [0, 0]], dtype=complex), KET0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            trace_distance(np.eye(2), np.eye(3))

    def test_overflow_raises_instead_of_nan(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailureError, match="overflows"):
                trace_distance([[0.5, 1e308], [1e308, 0.5]], np.eye(2) / 2)
