"""Complex-matrix kernel: Hermitian eigendecomposition, PSD inverse square
roots and the trace metric.

Everything downstream (states, channels, the ascent loop) funnels its linear
algebra through these functions, so the tolerances live here in one place.
All functions are pure; inputs are never modified.
"""

from __future__ import annotations

import numpy as np

from .exceptions import (
    DimensionMismatchError,
    NonSquareError,
    NotHermitianError,
    NotPsdError,
    NumericalFailureError,
)

# Asymmetry tolerance for matrices that must be Hermitian, measured on the
# Frobenius-normalized defect ||m - m^dag||_F / max(1, ||m||_F).
HERMITIAN_ATOL = 1e-9

# Eigenvalues above this (negative) threshold count as numerical noise on a
# PSD matrix; anything below is a genuinely invalid operator.
PSD_EIG_FLOOR = -1e-9


def as_cmatrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D complex128 array and reject non-finite entries."""
    arr = np.asarray(m, dtype=np.complex128)
    if arr.ndim != 2:
        raise DimensionMismatchError(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise NumericalFailureError(f"{name} contains NaN or Inf entries")
    return arr


def hermiticity_defect(m: np.ndarray) -> float:
    """Frobenius-normalized distance ||m - m^dag||_F / max(1, ||m||_F), taken
    on m divided by its largest real or imaginary entry above 1 (no overflow)."""
    scale = max(1.0, np.max(np.abs([m.real, m.imag]), initial=0.0))
    m = m / scale
    return float(np.linalg.norm(m - m.conj().T) / max(1.0 / scale, np.linalg.norm(m)))


def hermitize(m: np.ndarray) -> np.ndarray:
    """Return the Hermitian part m/2 + m^dag/2 (halving first is exact and
    cannot overflow) of a matrix or a stack of matrices (the last two axes)."""
    half = m / 2
    return half + half.conj().swapaxes(-1, -2)


def herm_eig(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose the Hermitian part (m + m^dag)/2 of a square matrix.

    Returns numpy's ``(eigenvalues, eigenvectors)``: real eigenvalues in
    ascending order and the matching orthonormal eigenvectors as columns.

    Raises
    ------
    NonSquareError, NumericalFailureError
        The latter also when an eigenvalue is not finite (the eigensolver
        overflowed on finite entries).
    """
    arr = as_cmatrix(m)
    if arr.shape[0] != arr.shape[1]:
        raise NonSquareError(f"expected square matrix, got shape {arr.shape}")
    try:
        vals, vecs = np.linalg.eigh(hermitize(arr))
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigensolver failed: {exc}") from exc
    if not (-np.inf < vals[0] and vals[-1] < np.inf):
        raise NumericalFailureError(
            f"eigensolver returned non-finite eigenvalues in "
            f"[{vals[0]:.3e}, {vals[-1]:.3e}]"
        )
    return vals, vecs


def inv_sqrt_psd(s, reg: float = 0.0) -> np.ndarray:
    """Regularized inverse square root of a PSD matrix.

    Computes ``V diag((lambda_i + reg)^(-1/2)) V^dag`` after clamping
    eigenvalues in [PSD_EIG_FLOOR, 0) to zero. ``reg <= 0`` is replaced by
    machine epsilon so the result is always finite.

    Raises
    ------
    NotPsdError
        If any eigenvalue lies below the PSD floor.
    """
    vals, vecs = herm_eig(s)
    if not vals[0] >= PSD_EIG_FLOOR:
        raise NotPsdError(f"eigenvalue {vals[0]:.3e} below PSD floor {PSD_EIG_FLOOR:.0e}")
    if reg <= 0.0:
        reg = np.finfo(np.float64).eps
    clamped = np.maximum(vals, 0.0)
    inv = 1.0 / np.sqrt(clamped + reg)
    return hermitize((vecs * inv) @ vecs.conj().T)


def trace_distance(a, b) -> float:
    """Trace distance (1/2) sum |eig(a - b)| between Hermitian operators.

    Equals half the nuclear norm of the difference; lies in [0, 1] when a
    and b are density operators.
    """
    am = as_cmatrix(a, "a")
    bm = as_cmatrix(b, "b")
    if am.shape != bm.shape:
        raise DimensionMismatchError(f"shape mismatch {am.shape} vs {bm.shape}")
    for name, mat in (("a", am), ("b", bm)):
        if not hermiticity_defect(mat) <= HERMITIAN_ATOL:
            raise NotHermitianError(f"{name} is not Hermitian within {HERMITIAN_ATOL:.0e}")
    with np.errstate(over="ignore", invalid="ignore"):
        distance = 0.5 * float(np.sum(np.abs(herm_eig(am - bm)[0])))
    if not distance < np.inf:
        raise NumericalFailureError("trace distance overflows: the entries of a - b are too large")
    return distance
