"""Domain layer: density operators, classical-quantum ensembles, POVMs and
Kraus channels, plus the two reference encoders and depolarizing noise models.

Constructors validate every invariant, so no invalid value circulates past
this module; all wrapped arrays are frozen (read-only) and therefore safe to
share across threads.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import linalg
from .exceptions import (
    DimensionMismatchError,
    DimensionOverflowError,
    InvalidChannelError,
    InvalidProbabilityError,
    NotHermitianError,
    NotPsdError,
    NumericalFailureError,
    UnsupportedDimensionError,
)

DENSITY_ATOL = 1e-9      # hermiticity / PSD / trace tolerance for states
POVM_ATOL = 1e-8         # per-element PSD and completeness tolerance
CHANNEL_ATOL = 1e-9      # trace-preservation tolerance for Kraus sets
# Validators test `not defect <= tol`, so a NaN (an overflowed defect) fails.

# The depolarizing noise models: "global" acts on the whole register,
# "local" on each of its qubits.
NOISE_KINDS = ("global", "local")

# The single-qubit Pauli stack (I, X, Y, Z).
PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]],
                   [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=np.complex128)


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.complex128, copy=True)
    out.setflags(write=False)
    return out


class DensityOperator:
    """A d x d Hermitian, PSD, unit-trace operator."""

    def __init__(self, matrix):
        mat = linalg.as_cmatrix(matrix, "density operator")
        if mat.shape[0] != mat.shape[1]:
            raise DimensionMismatchError(f"density operator must be square, got {mat.shape}")
        if not linalg.hermiticity_defect(mat) <= DENSITY_ATOL:
            raise NotHermitianError(
                f"density operator asymmetry exceeds {DENSITY_ATOL:.0e}"
            )
        mat = linalg.hermitize(mat)
        eigs = np.linalg.eigvalsh(mat)
        if not eigs[0] >= -DENSITY_ATOL:
            raise NotPsdError(f"density operator eigenvalue {eigs[0]:.3e} is negative")
        with np.errstate(over="ignore"):
            tr = float(mat.trace().real)
        if tr == np.inf:
            raise NumericalFailureError("density operator entries overflow: the trace is inf")
        if not abs(tr - 1.0) <= DENSITY_ATOL:
            raise NumericalFailureError(f"density operator trace {tr} is not 1")
        self.matrix = _frozen(mat)
        self.dim = mat.shape[0]

    @classmethod
    def from_pure(cls, amplitudes, normalize: bool = False) -> "DensityOperator":
        """Rank-one projector |psi><psi| from a state vector."""
        vec = linalg.as_cmatrix(np.reshape(amplitudes, (1, -1)), "state vector")[0]
        if normalize:
            # Scaling the largest entry into [1, 2) by a power of two is exact
            # and keeps the norm from overflowing or underflowing.
            exponent = np.frexp(np.max(np.abs([vec.real, vec.imag]), initial=0.0))[1]
            vec = vec * np.ldexp(1.0, min(1 - int(exponent), 1023))
            norm = np.linalg.norm(vec)
            if norm == 0:
                raise NumericalFailureError("cannot normalize the zero vector")
            vec = vec / norm
        with np.errstate(over="ignore", invalid="ignore"):  # Inf entries fail in cls
            projector = np.outer(vec, vec.conj())
        return cls(projector)

    @classmethod
    def basis_state(cls, dim: int, index: int) -> "DensityOperator":
        """Computational-basis projector |index><index| in dimension dim."""
        if not 0 <= index < dim:
            raise DimensionMismatchError(f"basis index {index} out of range for dim {dim}")
        vec = np.zeros(dim)
        vec[index] = 1.0
        return cls.from_pure(vec)

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityOperator":
        return cls(np.eye(dim) / dim)

    def __repr__(self) -> str:
        return f"DensityOperator(dim={self.dim})"


class Ensemble:
    """Classical secret support with a prior and one density operator per
    symbol.

    Parameters
    ----------
    symbols : sequence of str
        Labels of the secret alphabet, in order.
    states : sequence of DensityOperator
        One state per symbol, all of equal dimension.
    priors : sequence of float, optional
        Strictly positive, summing to 1. Defaults to uniform.
    """

    def __init__(self, symbols: Sequence[str], states: Sequence[DensityOperator],
                 priors: Sequence[float] | None = None):
        self.symbols = tuple(str(s) for s in symbols)
        self.states = tuple(states)
        if not self.symbols:
            raise DimensionMismatchError("ensemble needs at least one symbol")
        if len(self.symbols) != len(self.states):
            raise DimensionMismatchError(
                f"{len(self.symbols)} symbols but {len(self.states)} states"
            )
        dims = {s.dim for s in self.states}
        if len(dims) != 1:
            raise DimensionMismatchError(f"states have mixed dimensions {sorted(dims)}")
        self.dim = self.states[0].dim
        if priors is None:
            p = np.full(len(self.symbols), 1.0 / len(self.symbols))
        else:
            p = np.asarray(priors, dtype=np.float64)
            if p.shape != (len(self.symbols),):
                raise DimensionMismatchError("one prior per symbol required")
            if not np.all(p > 0.0):
                raise InvalidProbabilityError("priors must be strictly positive")
            if abs(p.sum() - 1.0) > 1e-12:
                raise InvalidProbabilityError(f"priors sum to {p.sum()}, not 1")
        p.setflags(write=False)
        self.priors = p

    @property
    def size(self) -> int:
        return len(self.symbols)

    def state_stack(self) -> np.ndarray:
        """All states as one (|X|, d, d) array (a fresh, writable copy)."""
        return np.stack([s.matrix for s in self.states])

    def with_priors(self, priors: Sequence[float]) -> "Ensemble":
        return Ensemble(self.symbols, self.states, priors)

    def transform(self, channel: "KrausChannel") -> "Ensemble":
        """Apply a quantum channel to every state, keeping labels and priors."""
        mapped = _kraus_map(channel, self.state_stack())
        return Ensemble(self.symbols, [DensityOperator(m) for m in mapped], self.priors)

    def is_indistinguishable(self, atol: float = 1e-9) -> bool:
        """True when all states agree entrywise within atol."""
        first = self.states[0].matrix
        return all(np.max(np.abs(s.matrix - first)) <= atol for s in self.states[1:])

    def __repr__(self) -> str:
        return f"Ensemble(|X|={self.size}, dim={self.dim})"


class Povm:
    """Ordered set of PSD operators F_y summing to the identity.

    Stored as its factors (``factors``, shape (m, d, r), F_y = H_y H_y^dag);
    the factors of an element of rank below r are padded with zero columns.
    ``elements`` builds the d x d operators from them on each access.
    """

    def __init__(self, elements: Iterable):
        mats = [linalg.as_cmatrix(e, f"POVM element {i}") for i, e in enumerate(elements)]
        if not mats:
            raise DimensionMismatchError("POVM needs at least one element")
        dim = mats[0].shape[0]
        for i, m in enumerate(mats):
            if m.shape != (dim, dim):
                raise DimensionMismatchError(f"POVM element {i} has shape {m.shape}")
            if not linalg.hermiticity_defect(m) <= POVM_ATOL:
                raise NotHermitianError(f"POVM element {i} is not Hermitian")
        stack = linalg.hermitize(np.stack(mats))
        vals, vecs = np.linalg.eigh(stack)
        for i, low in enumerate(vals[:, 0]):
            if not low >= -POVM_ATOL:
                raise NotPsdError(f"POVM element {i} has eigenvalue {low:.3e}")
        # Completeness is checked on the elements as given: the trimming
        # below drops the eigenvalues in [-POVM_ATOL, 0) that pass above.
        with np.errstate(over="ignore", invalid="ignore"):
            _check_completeness(stack.sum(axis=0), "sum of POVM elements")
        # Keep each element's eigenpairs above d * eps * lambda_max and pad
        # with zero columns up to the largest rank r; the ascent maps a zero
        # column to zero, so padding never changes the iterate.
        keep = vals > dim * np.finfo(np.float64).eps * vals[:, -1:]
        rank = max(int(keep.sum(axis=1).max()), 1)
        scales = np.sqrt(np.where(keep, vals, 0.0)[:, -rank:])
        self.factors = _frozen(vecs[:, :, -rank:] * scales[:, None, :])

    @classmethod
    def from_factors(cls, factors) -> "Povm":
        """The POVM with elements F_y = H_y H_y^dag, from factors of shape
        (m, d, r); PSD by construction, checked for completeness."""
        h = np.asarray(factors, dtype=np.complex128)
        if h.ndim != 3 or 0 in h.shape[:2]:
            raise DimensionMismatchError(f"POVM factors must have shape (m, d, r), got {h.shape}")
        if not np.all(np.isfinite(h)):
            raise NumericalFailureError("POVM factors contain NaN or Inf entries")
        with np.errstate(over="ignore", invalid="ignore"):
            _check_completeness(np.tensordot(h, h.conj(), axes=([0, 2], [0, 2])),
                                "sum of H_y H_y^dag")
        povm = cls.__new__(cls)
        povm.factors = _frozen(h)
        return povm

    @classmethod
    def computational_basis(cls, dim: int) -> "Povm":
        return cls.from_factors(np.eye(dim)[:, :, None])

    @property
    def dim(self) -> int:
        return self.factors.shape[1]

    @property
    def elements(self) -> tuple[np.ndarray, ...]:
        """The d x d elements, hermitized H_y H_y^dag (frozen copies)."""
        h = self.factors
        return tuple(_frozen(linalg.hermitize(h @ h.conj().swapaxes(1, 2))))

    def __len__(self) -> int:
        return len(self.factors)

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self.elements)

    def __repr__(self) -> str:
        return f"Povm(m={len(self)}, dim={self.dim})"


def _check_completeness(total: np.ndarray, name: str, atol: float = POVM_ATOL,
                        error: type = NumericalFailureError):
    """Raise ``error`` unless total (``name``: sum_y F_y of a POVM, or
    sum_j E_j^dag E_j of a Kraus set) is the identity within atol in operator
    norm. That norm bounds every later use: |tr(rho (total - I))| <= atol for
    a state rho, so Born rows sum to 1 and channel outputs keep unit trace
    within atol. An entry that overflowed to Inf or NaN raises too."""
    if not np.all(np.isfinite(total)):
        raise error(f"{name} overflows")
    vals, _ = linalg.herm_eig(total - np.eye(len(total)))
    defect = max(-vals[0], vals[-1])
    if not defect <= atol:
        raise error(f"completeness defect {defect:.3e} exceeds {atol:.0e}")


class KrausChannel:
    """Quantum channel rho -> sum_j E_j rho E_j^dag, stored as one frozen
    stack ``kraus_ops`` of shape (n, d_out, d_in)."""

    def __init__(self, kraus_ops: Iterable):
        ops = [linalg.as_cmatrix(e, f"Kraus operator {j}") for j, e in enumerate(kraus_ops)]
        if not ops:
            raise InvalidChannelError("channel needs at least one Kraus operator")
        for j, op in enumerate(ops):
            if op.shape != ops[0].shape:
                raise DimensionMismatchError(f"Kraus operator {j} has shape {op.shape}")
        self.kraus_ops = _frozen(ops)
        self.dim_out, self.dim_in = ops[0].shape
        # sum_j E_j^dag E_j as one real product of the rows a + ib of all
        # operators, a^T a + b^T b + i (a^T b - b^T a): no conjugated copy.
        rows = self.kraus_ops.reshape(-1, self.dim_in).view(np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            g = (rows.T @ rows).reshape(self.dim_in, 2, self.dim_in, 2)
            total = g[:, 0, :, 0] + g[:, 1, :, 1] + 1j * (g[:, 0, :, 1] - g[:, 1, :, 0])
            _check_completeness(total, "sum of E_j^dag E_j", CHANNEL_ATOL, InvalidChannelError)

    def __repr__(self) -> str:
        return f"KrausChannel({self.dim_in}->{self.dim_out}, {len(self.kraus_ops)} ops)"


def conditional_traces(states: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """tr(rho^x H_y H_y^dag) for a state stack (|X|, d, d) and POVM factors
    (m, d, r), as a complex (|X|, m) array; the imaginary part is roundoff."""
    products = np.tensordot(states, factors, axes=([2], [1]))  # (x, i, y, k)
    return (products * factors.conj().transpose(1, 0, 2)).sum(axis=(1, 3))


def born_distribution(ensemble: Ensemble, povm: Povm) -> np.ndarray:
    """Measurement-outcome probabilities P[y|x] for every ensemble symbol.

    Returns an (|X|, m) array whose row x is the outcome distribution of
    measuring state rho^x, clipped to [0, 1]; the POVM's completeness check
    bounds each row sum's distance from 1 by POVM_ATOL + DENSITY_ATOL.
    """
    if ensemble.dim != povm.dim:
        raise DimensionMismatchError(
            f"ensemble dim {ensemble.dim} != POVM dim {povm.dim}"
        )
    traces = conditional_traces(ensemble.state_stack(), povm.factors)
    return np.clip(traces.real, 0.0, 1.0)


def _kraus_map(channel: KrausChannel, stack: np.ndarray) -> np.ndarray:
    """sum_j E_j rho E_j^dag for every rho of a (|X|, d, d) stack, one
    operator at a time (never an (|X|, n, d, d) intermediate)."""
    if channel.dim_in != stack.shape[-1]:
        raise DimensionMismatchError(
            f"channel expects dim {channel.dim_in}, state has dim {stack.shape[-1]}"
        )
    out = np.zeros((len(stack), channel.dim_out, channel.dim_out), dtype=np.complex128)
    for op in channel.kraus_ops:
        out += op @ stack @ op.conj().T
    return out


def apply_channel(channel: KrausChannel, rho: DensityOperator) -> DensityOperator:
    """Push a density operator through a channel: sum_j E_j rho E_j^dag."""
    return DensityOperator(_kraus_map(channel, rho.matrix[None])[0])


def _check_probability(p: float) -> float:
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise InvalidProbabilityError(f"probability parameter {p} outside [0, 1]")
    return p


def depolarizing_global(p: float, dim: int) -> KrausChannel:
    """Global depolarizing channel: rho -> (p/d) I + (1-p) rho.

    Realized with Kraus operators {sqrt(1-p) I} and {sqrt(p/d) |i><j|};
    only the action is contractual, not this particular Kraus set.
    """
    p = _check_probability(p)
    ops = np.zeros((1 + dim * dim if p > 0.0 else 1, dim, dim), dtype=np.complex128)
    ops[0] = np.sqrt(1.0 - p) * np.eye(dim)
    if p > 0.0:  # operator 1 + i*d + j is sqrt(p/d) |i><j|: the diagonal of ops[1:]
        np.fill_diagonal(ops[1:].reshape(dim * dim, dim * dim), np.sqrt(p / dim))
    return KrausChannel(ops)


def depolarizing_local(p: float, qubits: int) -> KrausChannel:
    """Per-qubit depolarizing noise on a register of ``qubits`` qubits.

    Tensor product of single-qubit channels with Kraus set
    {sqrt(1-3p/4) I, sqrt(p/4) X, sqrt(p/4) Y, sqrt(p/4) Z}; the full set is
    all 4^k tensor products, hence the hard cap at k = 6.
    """
    p = _check_probability(p)
    if qubits < 1:
        raise DimensionMismatchError("need at least one qubit")
    if qubits > 6:
        raise DimensionOverflowError(
            f"local depolarizing on {qubits} qubits needs 4^{qubits} Kraus operators"
        )
    ops = single = np.sqrt([1.0 - 0.75 * p, p / 4.0, p / 4.0, p / 4.0])[:, None, None] * PAULIS
    for k in range(2, qubits + 1):  # ops[a * 4 + b] = kron(ops[a], single[b])
        ops = (ops[:, None, :, None, :, None] * single[None, :, None, :, None, :]
               ).reshape(-1, 2 ** k, 2 ** k)
    ops = ops[np.any(ops, axis=(1, 2))]  # drop the zero operators of p = 0
    return KrausChannel(ops)


def qubit_count(dim: int) -> int:
    """The number of qubits k >= 1 of a register of dimension dim = 2^k."""
    if dim < 2 or dim & (dim - 1):
        raise UnsupportedDimensionError(
            f"per-qubit noise needs dimension 2^k with k >= 1 qubits, got {dim}"
        )
    return dim.bit_length() - 1


def depolarizing(kind: str, p: float, dim: int) -> KrausChannel:
    """The depolarizing channel of a noise kind (see NOISE_KINDS) with
    parameter p on a register of dimension dim."""
    if kind == "global":
        return depolarizing_global(p, dim)
    if kind == "local":
        return depolarizing_local(p, qubit_count(dim))
    raise ValueError(f"unknown noise kind {kind!r}; expected one of {NOISE_KINDS}")


def encode_index(dim: int) -> Ensemble:
    """Index encoding: symbols 1..d mapped to basis projectors |x><x|."""
    if dim < 2:
        raise DimensionMismatchError("index encoding needs dim >= 2")
    symbols = [str(x) for x in range(1, dim + 1)]
    states = [DensityOperator.basis_state(dim, x) for x in range(dim)]
    return Ensemble(symbols, states)


def encode_amplitude_3bit() -> Ensemble:
    """Amplitude-style encoding of 3 bits into a dimension-8 pure state.

    Bit x_i selects one basis vector of the pair (|2i>, |2i+1>); the three
    selected vectors are superposed with equal weight 1/sqrt(3), which
    normalizes the state (basis vectors 6 and 7 stay unused).
    """
    symbols = []
    states = []
    for bits in itertools.product((0, 1), repeat=3):
        vec = np.zeros(8)
        for i, bit in enumerate(bits):
            vec[2 * i] = bit
            vec[2 * i + 1] = 1 - bit
        symbols.append("".join(str(b) for b in bits))
        states.append(DensityOperator.from_pure(vec / np.sqrt(3.0)))
    return Ensemble(symbols, states)


def random_povm(dim: int, size: int, seed: int) -> Povm:
    """Random rank-one POVM: Gaussian vectors g_y, renormalized so that the
    outer products S^(-1/2) g_y g_y^dag S^(-1/2) sum to the identity.

    Deterministic for a given seed. Needs size >= dim for the normalizer
    S = sum g_y g_y^dag to be full rank; a numerically singular draw fails
    the completeness check with NumericalFailureError.
    """
    if size < dim:
        raise DimensionMismatchError(
            f"random POVM needs size >= dim for a full-rank normalizer, "
            f"got size {size} < dim {dim}"
        )
    rng = np.random.default_rng(seed)
    g = (rng.standard_normal((size, dim)) + 1j * rng.standard_normal((size, dim)))
    g /= np.sqrt(2.0)
    s = np.einsum("yi,yj->ij", g, g.conj())
    w = linalg.inv_sqrt_psd(s)
    h = g @ w.T  # h_y = w @ g_y since w is symmetric under transpose-conj
    return Povm.from_factors(h[:, :, None])


def random_kraus_channel(dim: int, n_ops: int, seed: int) -> KrausChannel:
    """Random trace-preserving channel: Gaussian operators renormalized by
    (sum A^dag A)^(-1/2) on the right."""
    rng = np.random.default_rng(seed)
    raw = (rng.standard_normal((n_ops, dim, dim))
           + 1j * rng.standard_normal((n_ops, dim, dim))) / np.sqrt(2.0)
    total = np.einsum("jki,jkl->il", raw.conj(), raw)
    w = linalg.inv_sqrt_psd(total)
    return KrausChannel(raw @ w)
