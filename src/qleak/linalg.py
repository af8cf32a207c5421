"""Complex-matrix kernel: the validity checks of every operator qleak
accepts, Hermitian eigendecomposition, PSD inverse square roots and the
trace metric.

`as_cmatrix` is the one bound on entries (MAX_ENTRY), so no sum of products
formed from an input overflows. `hermitian` is the one Hermiticity check and
ATOL the one validity tolerance; POVMs alone use a looser one,
`states.POVM_ATOL`. All functions are pure; inputs are never modified.
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

# The validity tolerance: the largest Hermiticity defect, negative eigenvalue,
# trace defect of a state and completeness defect of a channel accepted.
ATOL = 1e-9

# Largest real or imaginary part of an input entry. Valid states, POVM
# elements and Kraus operators have entries up to about 1; below 2^256 every
# square stays below 2^512, so the sums of products formed from them are finite.
MAX_ENTRY = 2.0 ** 256


def as_cmatrix(m, name: str = "matrix", stack: bool = False) -> np.ndarray:
    """Coerce to a 2-D complex128 array, or with ``stack`` to a stack of
    matrices over the last two axes; reject an empty axis and any entry
    whose real or imaginary part is NaN, Inf or above MAX_ENTRY."""
    arr = np.asarray(m, dtype=np.complex128)
    if (arr.ndim < 2 if stack else arr.ndim != 2) or 0 in arr.shape:
        raise DimensionMismatchError(f"{name} must be 2-D and non-empty, got shape {arr.shape}")
    # One reduction over the real and imaginary parts; a NaN fails `<=`.
    if not np.abs(np.ascontiguousarray(arr).view(np.float64)).max() <= MAX_ENTRY:
        raise NumericalFailureError(
            f"{name} has an entry that is NaN, Inf or above 2^256 in magnitude")
    return arr


def hermiticity_defect(m: np.ndarray) -> float:
    """Frobenius-normalized distance ||m - m^dag||_F / max(1, ||m||_F) of a
    matrix with entries bounded by MAX_ENTRY."""
    return float(np.linalg.norm(m - m.conj().T) / max(1.0, np.linalg.norm(m)))


def _square_cmatrix(m, name: str, stack: bool = False) -> np.ndarray:
    """`as_cmatrix`, then NonSquareError unless the matrices are square: the
    one squareness test."""
    arr = as_cmatrix(m, name, stack)
    if arr.shape[-2] != arr.shape[-1]:
        raise NonSquareError(f"{name} must be square, got shape {arr.shape}")
    return arr


def hermitian(m, name: str, atol: float = ATOL) -> np.ndarray:
    """The Hermitian part of m after `as_cmatrix`; raises NonSquareError or
    NotHermitianError unless m is square with a Hermiticity defect <= atol."""
    arr = _square_cmatrix(m, name)
    if not hermiticity_defect(arr) <= atol:
        raise NotHermitianError(f"{name} is not Hermitian within {atol:.0e}")
    return hermitize(arr)


def hermitize(m: np.ndarray) -> np.ndarray:
    """Return the Hermitian part m/2 + m^dag/2 of a matrix or a stack of
    matrices (the last two axes); halving first is exact and cannot overflow."""
    half = m / 2
    return half + half.conj().swapaxes(-1, -2)


def herm_eig(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose the Hermitian part (m + m^dag)/2 of a square matrix or
    of a stack of them (the last two axes).

    Returns numpy's ``(eigenvalues, eigenvectors)``: real eigenvalues in
    ascending order and the matching orthonormal eigenvectors as columns,
    per matrix. Each matrix of a stack gets what it gets alone.

    Raises
    ------
    NonSquareError, NumericalFailureError
    """
    arr = _square_cmatrix(m, "matrix", stack=True)
    try:
        vals, vecs = np.linalg.eigh(hermitize(arr))
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigensolver failed: {exc}") from exc
    return vals, vecs


def inv_sqrt_psd(s, reg: float = 0.0) -> np.ndarray:
    """Regularized inverse square root of a PSD matrix or of a stack of them
    (the last two axes), each as when it is alone.

    Computes ``V diag((lambda_i + reg)^(-1/2)) V^dag`` after clamping
    eigenvalues in [-ATOL, 0) to zero. ``reg`` is one scalar for every
    matrix; a ``reg <= 0`` is replaced by machine epsilon so the result is
    always finite.

    Raises
    ------
    ValueError
        If reg is not a finite scalar.
    NotPsdError
        If any eigenvalue of any matrix lies below the PSD floor.
    """
    vals, vecs = herm_eig(s)
    reg = np.asarray(reg, dtype=np.float64)
    if reg.ndim or not np.isfinite(reg):
        raise ValueError(f"reg must be a finite scalar, got {reg!r}")
    low = vals[..., 0]
    if low.ndim:        # a stack; a single matrix skips the reduction's cost
        low = low.min()
    if not low >= -ATOL:
        raise NotPsdError(f"eigenvalue {low:.3e} below PSD floor {-ATOL:.0e}")
    reg = reg if reg > 0.0 else np.finfo(np.float64).eps
    inv = 1.0 / np.sqrt(np.maximum(vals, 0.0) + reg)
    return hermitize((vecs * inv[..., None, :]) @ vecs.conj().swapaxes(-1, -2))


def trace_distance(a, b) -> float:
    """Trace distance (1/2) sum |eig(a - b)| of operators Hermitian within ATOL.

    Equals half the nuclear norm of the difference; lies in [0, 1] when a
    and b are density operators. a - b may exceed MAX_ENTRY, so it skips herm_eig.
    """
    am, bm = hermitian(a, "a"), hermitian(b, "b")
    if am.shape != bm.shape:
        raise DimensionMismatchError(f"shape mismatch {am.shape} vs {bm.shape}")
    return 0.5 * float(np.sum(np.abs(np.linalg.eigh(hermitize(am - bm))[0])))
