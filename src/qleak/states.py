"""Domain layer: density operators, classical-quantum ensembles, POVMs, the
two reference encoders and channels, Kraus or depolarizing in closed form.

Constructors validate every invariant and `Ensemble.transform` maps states
only through checked channels, so no invalid value circulates past this
module; all wrapped arrays are frozen (read-only) and safe to share across threads.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import linalg
from .exceptions import (
    DimensionMismatchError,
    InvalidChannelError,
    InvalidProbabilityError,
    NotPsdError,
    NumericalFailureError,
    UnsupportedDimensionError,
)

POVM_ATOL = 1e-8  # validity tolerance of POVMs; states and channels use linalg.ATOL
# Input entries are bounded by linalg.MAX_ENTRY, so no sum formed here overflows.

# The depolarizing noise models: "global" acts on the whole register,
# "local" on each of its qubits.
NOISE_KINDS = ("global", "local")


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.complex128, copy=True)
    out.setflags(write=False)
    return out


class DensityOperator:
    """A d x d Hermitian, PSD, unit-trace operator."""

    def __init__(self, matrix):
        mat = linalg.hermitian(matrix, "density operator")
        eigs = np.linalg.eigvalsh(mat)
        if not eigs[0] >= -linalg.ATOL:
            raise NotPsdError(f"density operator eigenvalue {eigs[0]:.3e} is negative")
        tr = float(mat.trace().real)
        if not abs(tr - 1.0) <= linalg.ATOL:
            raise NumericalFailureError(f"density operator trace {tr} is not 1")
        self.matrix = _frozen(mat)
        self.dim = mat.shape[0]

    @classmethod
    def from_pure(cls, amplitudes, normalize: bool = False) -> "DensityOperator":
        """Rank-one projector |psi><psi| from a non-empty 1-D state vector of
        unit norm, or of any nonzero norm with ``normalize``."""
        vec = np.array(amplitudes, dtype=np.complex128)
        if vec.ndim != 1 or not vec.size:
            raise DimensionMismatchError(
                f"state vector must be 1-D and non-empty, got shape {vec.shape}")
        if normalize:
            # Scaling the largest entry into [1, 2) by a power of two is exact
            # and keeps the norm from overflowing or underflowing; on the real
            # and imaginary parts it passes NaN and Inf on without a warning.
            parts = vec.view(np.float64)
            exponent = np.frexp(np.abs(parts).max())[1]
            vec = np.ldexp(parts, min(1 - int(exponent), 1023)).view(np.complex128)
        vec = linalg.as_cmatrix(vec[None], "state vector")[0]
        norm2 = float(np.vdot(vec, vec).real)  # finite: entries are at most MAX_ENTRY
        if normalize:
            if norm2 == 0:
                raise NumericalFailureError("cannot normalize the zero vector")
            vec = vec / np.linalg.norm(vec)
        elif not abs(norm2 - 1.0) <= linalg.ATOL:
            raise NumericalFailureError(f"state vector squared norm {norm2} is not 1")
        return cls(np.outer(vec, vec.conj()))

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

    @classmethod
    def _unchecked(cls, matrix: np.ndarray) -> "DensityOperator":
        """Wrap a frozen matrix that is already a state without re-checking it."""
        rho = cls.__new__(cls)
        rho.matrix, rho.dim = matrix, len(matrix)
        return rho

    def __repr__(self) -> str:
        return f"DensityOperator(dim={self.dim})"


class Ensemble:
    """Classical secret support with a prior and one density operator per
    symbol, stored as one frozen (|X|, d, d) state stack.

    Parameters
    ----------
    symbols : sequence of str
        Labels of the secret alphabet, in order; distinct as strings.
    states : sequence of DensityOperator
        One state per symbol, all of equal dimension.
    priors : sequence of float, optional
        Strictly positive, summing to 1. Defaults to uniform.
    """

    def __init__(self, symbols: Sequence[str], states: Sequence[DensityOperator],
                 priors: Sequence[float] | None = None):
        self.symbols = tuple(str(s) for s in symbols)
        states = tuple(states)
        if not self.symbols:
            raise DimensionMismatchError("ensemble needs at least one symbol")
        if len(set(self.symbols)) < len(self.symbols):
            label = next(s for i, s in enumerate(self.symbols) if s in self.symbols[:i])
            raise DimensionMismatchError(f"duplicate symbol label {label!r}")
        if len(self.symbols) != len(states):
            raise DimensionMismatchError(f"{len(self.symbols)} symbols but {len(states)} states")
        dims = {s.dim for s in states}
        if len(dims) != 1:
            raise DimensionMismatchError(f"states have mixed dimensions {sorted(dims)}")
        self._stack = _frozen([s.matrix for s in states])
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

    @property
    def dim(self) -> int:
        return self._stack.shape[1]

    @property
    def states(self) -> tuple[DensityOperator, ...]:
        """One DensityOperator per row of the stack, built on each access."""
        return tuple(map(DensityOperator._unchecked, self._stack))

    def state_stack(self) -> np.ndarray:
        """All states as one frozen (|X|, d, d) array (the stored one, not a copy)."""
        return self._stack

    def with_priors(self, priors: Sequence[float]) -> "Ensemble":
        return Ensemble(self.symbols, self.states, priors)

    def transform(self, channel) -> "Ensemble":
        """Map every state through ``channel.apply``, divided by its real
        trace, with the same labels and priors. A checked channel maps states
        to states; the division keeps the trace defects of state and channel
        from adding up past linalg.ATOL."""
        if channel.dim_in != self.dim:
            raise DimensionMismatchError(
                f"channel expects dim {channel.dim_in}, state has dim {self.dim}")
        out = Ensemble.__new__(Ensemble)        # skips __init__'s checks of the states
        out.symbols, out.priors = self.symbols, self.priors
        out._stack = _frozen(_unit_trace(channel.apply(self._stack)))
        return out

    def is_indistinguishable(self, atol: float = 1e-9) -> bool:
        """True when all states agree entrywise within atol."""
        return bool(np.max(np.abs(self._stack - self._stack[0])) <= atol)

    def __repr__(self) -> str:
        return f"Ensemble(|X|={self.size}, dim={self.dim})"


class Povm:
    """Ordered set of PSD operators F_y summing to the identity.

    Stored as its factors (``factors``, shape (m, d, r), F_y = H_y H_y^dag);
    the factors of an element of rank below r are padded with zero columns.
    ``elements`` builds the d x d operators from them on each access.
    """

    def __init__(self, elements: Iterable):
        mats = [linalg.hermitian(e, f"POVM element {i}", POVM_ATOL)
                for i, e in enumerate(elements)]
        if not mats:
            raise DimensionMismatchError("POVM needs at least one element")
        dim = mats[0].shape[0]
        for i, m in enumerate(mats):
            if m.shape != (dim, dim):
                raise DimensionMismatchError(f"POVM element {i} has shape {m.shape}")
        stack = np.stack(mats)
        vals, vecs = np.linalg.eigh(stack)
        for i, low in enumerate(vals[:, 0]):
            if not low >= -POVM_ATOL:
                raise NotPsdError(f"POVM element {i} has eigenvalue {low:.3e}")
        # Completeness is checked on the elements as given: the trimming
        # below drops the eigenvalues in [-POVM_ATOL, 0) that pass above.
        _check_completeness(stack.sum(axis=0))
        # Keep each element's eigenpairs above d * eps * lambda_max and pad
        # with zero columns up to the largest rank r, so that elements of
        # mixed rank share one (m, d, r) factor array.
        keep = vals > dim * np.finfo(np.float64).eps * vals[:, -1:]
        rank = max(int(keep.sum(axis=1).max()), 1)
        scales = np.sqrt(np.where(keep, vals, 0.0)[:, -rank:])
        self.factors = _frozen(vecs[:, :, -rank:] * scales[:, None, :])

    @classmethod
    def from_factors(cls, factors) -> "Povm":
        """The POVM with elements F_y = H_y H_y^dag, from factors of shape
        (m, d, r); PSD by construction, checked for completeness."""
        h = np.asarray(factors, dtype=np.complex128)
        if h.ndim != 3 or 0 in h.shape:
            raise DimensionMismatchError(f"POVM factors must have shape (m, d, r), got {h.shape}")
        linalg.as_cmatrix(h.reshape(-1, h.shape[2]), "POVM factor stack")
        _check_completeness(np.tensordot(h, h.conj(), axes=([0, 2], [0, 2])))
        return cls._unchecked(h)

    @classmethod
    def _unchecked(cls, factors: np.ndarray) -> "Povm":
        """Wrap factors that already form a POVM without re-checking them."""
        povm = cls.__new__(cls)
        povm.factors = _frozen(factors)
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


def _check_completeness(total: np.ndarray, atol: float = POVM_ATOL,
                        error: type = NumericalFailureError):
    """Raise ``error`` unless total (sum_y F_y of a POVM, or sum_j E_j^dag E_j
    of a Kraus set) is the identity within atol in operator norm. That norm
    bounds every later use: |tr(rho (total - I))| <= atol for a state rho, so
    Born rows sum to 1 and channel outputs keep unit trace within atol.
    The total is finite but may exceed linalg.MAX_ENTRY, so it skips herm_eig.
    A stack of totals (the last two axes) is checked in one eigh; the largest
    defect is reported."""
    vals = np.linalg.eigh(linalg.hermitize(total - np.eye(total.shape[-1])))[0]
    defect = np.maximum(-vals[..., 0], vals[..., -1]).max()
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
        g = (rows.T @ rows).reshape(self.dim_in, 2, self.dim_in, 2)
        total = g[:, 0, :, 0] + g[:, 1, :, 1] + 1j * (g[:, 0, :, 1] - g[:, 1, :, 0])
        _check_completeness(total, linalg.ATOL, InvalidChannelError)

    def apply(self, matrices: np.ndarray) -> np.ndarray:
        """sum_j E_j M E_j^dag of a matrix or a stack of matrices (the last two
        axes), one Kraus operator at a time, without renormalization."""
        return sum(op @ matrices @ op.conj().T for op in self.kraus_ops)

    def __repr__(self) -> str:
        return f"KrausChannel({self.dim_in}->{self.dim_out}, {len(self.kraus_ops)} ops)"


def _unit_trace(mapped: np.ndarray) -> np.ndarray:
    """Channel outputs (..., d, d) divided by their real traces, hermitized."""
    traces = np.trace(mapped, axis1=-2, axis2=-1).real
    return linalg.hermitize(mapped / traces[..., None, None])


def conditional_traces(states: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """tr(rho^x H_y H_y^dag) for a state stack (S..., |X|, d, d) and POVM
    factors (m, d, r) or a leading stack of them (K..., m, d, r), as a
    complex (K..., S..., |X|, m) array; the imaginary part is roundoff."""
    return _products_and_traces(states, factors)[1]


def _columns(factors: np.ndarray) -> np.ndarray:
    """POVM factors (K..., m, d, r) side by side as (K..., d, m r) matrices:
    H_y's r columns are block y. This is the layout of the trace kernel's
    input."""
    *lead, outcomes, dim, rank = factors.shape
    return factors.swapaxes(-3, -2).reshape(*lead, dim, outcomes * rank)


def _products_and_traces(states: np.ndarray, factors: np.ndarray):
    """The one trace kernel, on the factors (m, d, r) of one POVM, or on a
    leading stack of them (K..., m, d, r), and states (S..., |X|, d, d).
    Returns the products rho^x H as (K..., S..., |X|, d, m, r) and the
    complex traces tr(rho^x H_y H_y^dag) as (K..., S..., |X|, m), from one
    matrix product with the _columns of the factors. Each POVM of a stack
    gets the same matrix product as when it is alone, so its values do not
    depend on the others. States and POVMs meet only here, so this is their
    one dimension check."""
    if states.shape[-1] != factors.shape[-2]:
        raise DimensionMismatchError(
            f"ensemble dim {states.shape[-1]} != POVM dim {factors.shape[-2]}")
    columns = _columns(factors)
    lead, (outcomes, dim, rank) = factors.shape[:-3], factors.shape[-3:]
    sets, blocks = states.shape[:-2], (dim, outcomes, rank)
    products = (states.reshape(-1, dim) @ columns).reshape(lead + sets + blocks)
    traces = (products * columns.conj().reshape(lead + (1,) * len(sets) + blocks)).sum(
        axis=(-3, -1))
    return products, traces


def born_distribution(ensemble: Ensemble, povm: Povm) -> np.ndarray:
    """Measurement-outcome probabilities P[y|x] for every ensemble symbol.

    Returns an (|X|, m) array whose row x is the outcome distribution of
    measuring state rho^x, clipped to [0, 1]; the POVM's completeness check
    bounds each row sum's distance from 1 by POVM_ATOL + linalg.ATOL.
    """
    traces = conditional_traces(ensemble.state_stack(), povm.factors)
    return np.clip(traces.real, 0.0, 1.0)


def _check_probability(p: float) -> float:
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise InvalidProbabilityError(f"probability parameter {p} outside [0, 1]")
    return p


class DepolarizingChannel:
    """depolarizing(kind, p, dim): noise of a kind in NOISE_KINDS with
    parameter p on a register of dimension dim. Its apply is the closed form
    _depolarize, without renormalization; it has no Kraus operators."""

    def __init__(self, kind: str, p: float, dim: int):
        _noise_qubits(kind, dim)
        self.kind, self.p, self.dim_in, self.dim_out = kind, _check_probability(p), dim, dim

    def apply(self, matrices: np.ndarray) -> np.ndarray:
        return _depolarize(matrices, self.kind, self.p)


depolarizing = DepolarizingChannel

def _depolarize(matrices: np.ndarray, kind: str, p) -> np.ndarray:
    """Depolarizing noise on a matrix or a stack (..., d, d) in closed form:
    M -> (1-p) M + p tr(M) I/d for global noise, and for per-qubit noise
    M -> (1-p) M + p Tr_q(M) (x) I/2 on each qubit axis q, O(k d^2) in all.
    Written with tr(M), it maps a matrix of any trace, such as a dual point.
    A vector of P values of p gives a leading grid axis (P, ..., d, d)."""
    p = np.asarray(p, dtype=np.float64)
    out = np.broadcast_to(matrices, p.shape + np.shape(matrices))
    keep, mix = (x.reshape(p.shape + (1,) * np.ndim(matrices)) for x in (1.0 - p, p))
    dim, lead = out.shape[-1], out.shape[:-2]
    if kind == "global":
        traces = np.trace(out, axis1=-2, axis2=-1)[..., None, None]
        return keep * out + mix * traces * (np.eye(dim) / dim)
    half_eye = (np.eye(2) / 2.0).reshape(2, 1, 1, 2, 1)
    for q in range(qubit_count(dim)):   # the first qubit is the outermost axis
        split = out.reshape(lead + (2 ** q, 2, dim >> (q + 1)) * 2)   # qubit q in the middle
        partial = np.expand_dims(np.trace(split, axis1=-5, axis2=-2), (-5, -2))
        out = keep * out + mix * (partial * half_eye).reshape(out.shape)
    return out


def depolarizing_global(p: float, dim: int) -> DepolarizingChannel:
    """Global depolarizing channel: rho -> (p/d) I + (1-p) rho; only the
    action is contractual."""
    return DepolarizingChannel("global", p, dim)


def depolarizing_local(p: float, qubits: int) -> DepolarizingChannel:
    """Per-qubit depolarizing noise on ``qubits`` qubits, any number: the
    tensor product of single-qubit channels rho -> (p/2) I + (1-p) rho."""
    if qubits < 1:
        raise DimensionMismatchError("need at least one qubit")
    return DepolarizingChannel("local", p, 2 ** qubits)


def qubit_count(dim: int) -> int:
    """The number of qubits k >= 1 of a register of dimension dim = 2^k."""
    if dim < 2 or dim & (dim - 1):
        raise UnsupportedDimensionError(
            f"per-qubit noise needs dimension 2^k with k >= 1 qubits, got {dim}"
        )
    return dim.bit_length() - 1


def _noise_qubits(kind: str, dim: int) -> int:
    """k of a noise kind: qubit_count(dim) for "local", 1 for "global"."""
    if kind not in NOISE_KINDS:
        raise ValueError(f"unknown noise kind {kind!r}; expected one of {NOISE_KINDS}")
    return qubit_count(dim) if kind == "local" else 1


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

    Deterministic for a given seed: random_povm_factors with count 1 and
    that seed. Needs size >= dim for the normalizer
    S = sum g_y g_y^dag to be full rank; a numerically singular draw fails
    the completeness check with NumericalFailureError.
    """
    return Povm._unchecked(random_povm_factors(dim, size, 1, seed)[0])


def random_povm_factors(dim: int, size: int, count: int, seed: int) -> np.ndarray:
    """Factors (count, size, dim, 1) of ``count`` random rank-one POVMs, built
    as random_povm describes from one generator: default_rng(seed) draws all
    real parts of the Gaussians g_y, then all imaginary parts, and h_y =
    S^(-1/2) g_y with S = sum_y g_y g_y^dag of its own POVM. One inv_sqrt_psd
    call whitens every draw as if alone, and one stacked eigh checks
    completeness at POVM_ATOL."""
    if size < dim:
        raise DimensionMismatchError(f"random POVM needs size >= dim for a full-rank "
                                     f"normalizer, got size {size} < dim {dim}")
    rng, shape = np.random.default_rng(seed), (count, size, dim)
    g = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    w = linalg.inv_sqrt_psd(np.einsum("cyi,cyj->cij", g, g.conj()))
    h = g @ w.swapaxes(1, 2)  # h_y = w @ g_y since w is symmetric under transpose-conj
    _check_completeness(h.swapaxes(1, 2) @ h.conj())
    return h[..., None]


def random_kraus_channel(dim: int, n_ops: int, seed: int) -> KrausChannel:
    """Random trace-preserving channel: Gaussian operators renormalized by
    (sum A^dag A)^(-1/2) on the right."""
    rng = np.random.default_rng(seed)
    raw = (rng.standard_normal((n_ops, dim, dim))
           + 1j * rng.standard_normal((n_ops, dim, dim))) / np.sqrt(2.0)
    total = np.einsum("jki,jkl->il", raw.conj(), raw)
    w = linalg.inv_sqrt_psd(total)
    return KrausChannel(raw @ w)
