import warnings

import numpy as np
import pytest

from qleak import DensityOperator, KrausChannel, inv_sqrt_psd, trace_distance
from qleak import linalg
from qleak.linalg import ATOL, MAX_ENTRY, herm_eig, hermiticity_defect, hermitize
from qleak.exceptions import (
    DimensionMismatchError,
    InvalidChannelError,
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

    def test_non_square_message_is_the_hermiticity_checks(self):
        with pytest.raises(NonSquareError) as eig:
            herm_eig(np.zeros((2, 3)))
        with pytest.raises(NonSquareError) as check:
            linalg.hermitian(np.zeros((2, 3)), "matrix")
        assert str(eig.value) == str(check.value) == \
            "matrix must be square, got shape (2, 3)"

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


class TestStacks:
    """herm_eig and inv_sqrt_psd on a (k, d, d) stack: each matrix gets what
    it gets alone, and one bad matrix fails the whole stack."""

    @staticmethod
    def stack(dim=4, count=5, seed=0):
        rng = np.random.default_rng(seed)
        return np.stack([random_psd(dim, rng) for _ in range(count)])

    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_stack_equals_the_per_matrix_calls(self, dim):
        s = self.stack(dim)
        vals, vecs = herm_eig(s)
        out = inv_sqrt_psd(s, 1e-12)
        for k, m in enumerate(s):
            one_vals, one_vecs = herm_eig(m)
            assert np.array_equal(vals[k], one_vals) and np.array_equal(vecs[k], one_vecs)
            assert np.array_equal(out[k], inv_sqrt_psd(m, 1e-12))

    def test_non_positive_reg_becomes_eps(self):
        s = self.stack(count=4)
        eps = np.finfo(np.float64).eps
        for reg in (0.0, -1.0):
            assert np.array_equal(inv_sqrt_psd(s, reg), inv_sqrt_psd(s, eps))
        assert not np.array_equal(inv_sqrt_psd(s, 0.0), inv_sqrt_psd(s, 1e-3))

    # reg is one scalar for the whole stack: an array of any shape raises,
    # the stack's leading shape (one regularizer per matrix) included.
    @pytest.mark.parametrize("reg", [np.nan, np.inf, -np.inf, [1e-12, np.nan, 0, 0, 0],
                                     [1e-12] * 4, [[1e-12] * 5], np.zeros((5, 1)),
                                     [1e-12] * 5, np.full(5, 1e-12), [1e-12]],
                             ids=["nan", "inf", "-inf", "nan entry", "short", "2-D", "column",
                                  "per-matrix list", "per-matrix array", "one entry"])
    def test_bad_reg_raises(self, reg):
        with pytest.raises(ValueError, match="^reg must be a finite scalar, got"):
            inv_sqrt_psd(self.stack(), reg)

    def test_bad_reg_raises_for_a_single_matrix(self):
        for reg in (float("nan"), float("inf"), [1e-12]):
            with pytest.raises(ValueError, match="^reg must be a finite scalar, got"):
                inv_sqrt_psd(np.eye(2), reg)

    def test_one_matrix_below_the_floor_fails_the_stack(self):
        s = self.stack()
        s[2] = np.diag([1.0, 1.0, 1.0, -1.1 * ATOL])
        with pytest.raises(NotPsdError, match="^eigenvalue -1.100e-09 below PSD floor"):
            inv_sqrt_psd(s)
        s[2] = np.diag([1.0, 1.0, 1.0, -0.9 * ATOL])
        assert np.isfinite(inv_sqrt_psd(s)).all()

    @pytest.mark.parametrize("func", [herm_eig, inv_sqrt_psd])
    def test_one_nan_entry_fails_the_stack(self, func):
        s = self.stack()
        s[3, 1, 2] = np.nan
        with pytest.raises(NumericalFailureError, match="^matrix has an entry"):
            func(s)

    def test_non_square_stack(self):
        with pytest.raises(NonSquareError, match="got shape \\(2, 2, 3\\)$"):
            herm_eig(np.zeros((2, 2, 3)))


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
        big = np.full((2, 2), MAX_ENTRY)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(hermitize(m), m)
            # Entries of exactly MAX_ENTRY pass the one bound and give finite values.
            assert np.array_equal(herm_eig(MAX_ENTRY * np.eye(2))[0], [MAX_ENTRY] * 2)
            assert np.array_equal(inv_sqrt_psd(MAX_ENTRY * np.eye(2)), 2.0 ** -128 * np.eye(2))
            assert hermiticity_defect(big) == 0.0
            assert hermiticity_defect(np.diag([MAX_ENTRY * 1j, 0.0])) == 2.0
            for value in (2 * MAX_ENTRY, np.nan, np.inf, -np.inf):
                for func in (herm_eig, inv_sqrt_psd):
                    with pytest.raises(NumericalFailureError, match="^matrix has an entry"):
                        func(np.diag([1.0, value]))


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
        with pytest.raises(NonSquareError):
            trace_distance(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_overflow_raises_instead_of_nan(self):
        big = np.full((2, 2), MAX_ENTRY)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailureError, match="^a has an entry that is NaN, Inf "
                                                            "or above 2\\^256 in magnitude$"):
                trace_distance([[0.5, 1e308], [1e308, 0.5]], np.eye(2) / 2)
            # a - b may exceed MAX_ENTRY: 2 big has eigenvalues 0 and 2^258.
            assert trace_distance(big, -big) == pytest.approx(2.0 ** 257, rel=1e-15)
            for value in (2 * MAX_ENTRY, np.nan, np.inf, -np.inf):
                with pytest.raises(NumericalFailureError, match="^b has an entry"):
                    trace_distance(np.eye(2) / 2, np.diag([value, 0.0]))


def _asymmetric_half(t):
    """diag(1/2, 1/2) with t/sqrt(2) above the diagonal only: its
    Hermiticity defect is t, since its Frobenius norm is below 1."""
    return np.diag([0.5, 0.5]) + np.array([[0.0, t / np.sqrt(2)], [0.0, 0.0]])


# Each check of the one tolerance, given the size t of the defect it measures.
ATOL_CHECKS = {
    "density_hermiticity": (lambda t: DensityOperator(_asymmetric_half(t)), NotHermitianError),
    "density_eigenvalue": (lambda t: DensityOperator(np.diag([1.0 + t, -t])), NotPsdError),
    "density_trace": (lambda t: DensityOperator(np.diag([0.5, 0.5 + t])),
                      NumericalFailureError),
    "trace_distance_hermiticity": (lambda t: trace_distance(_asymmetric_half(t), KET0),
                                   NotHermitianError),
    "inv_sqrt_psd_floor": (lambda t: inv_sqrt_psd(np.diag([1.0, -t])), NotPsdError),
    "kraus_completeness": (lambda t: KrausChannel([np.sqrt(1.0 + t) * np.eye(2)]),
                           InvalidChannelError),
}


@pytest.mark.parametrize("check", ATOL_CHECKS)
@pytest.mark.parametrize("factor", [0.9, 1.1], ids=["inside", "outside"])
def test_one_tolerance_boundary(check, factor):
    build, error = ATOL_CHECKS[check]
    assert ATOL == 1e-9
    if factor < 1:
        build(factor * ATOL)
    else:
        with pytest.raises(error):
            build(factor * ATOL)
