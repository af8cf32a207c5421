"""Maximal-leakage engine.

The leakage of an ensemble {p(x), rho^x} is the best multiplicative guessing
advantage over all measurements, log2( sup_POVM sum_y max_x tr(rho^x F_y) ).
Grouping the outcomes by their winning symbol leaves one element E_x per
symbol: min-error discrimination at the uniform prior, an SDP that
compute_leakage solves with one primal-dual interior-point method. The value
never depends on the prior, is zero exactly for indistinguishable ensembles,
and is capped by min(log2 |X|, log2 d) (tr(rho^x F_y) <= tr F_y; the paper
states 2 log2 d). Several verified guesses instead of one do not change it.
ascent_step, one step of a projected subgradient ascent, is kept as a
measurement update whose fixed points include the optimum.

Each solve is certified: its POVM gives the lower bound and a dual point
Y >= rho^x the upper one, both formed by certify. Both move through a
channel N without a new solve, Y as N(Y): noise_curve carries both, and
verify's channel checks carry N(Y) alone (_upper_or_solve); a noise grid
moves as one stack (_noise_points). Closed-form companions: the two-state
value log2(1 + T), a brute-force qubit search, the global depolarizing
transfer and the per-qubit noise bound; verify_properties turns the
structural properties into executable checks.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import asdict, dataclass, field

import numpy as np

from . import linalg
from .exceptions import (
    DimensionMismatchError,
    NumericalFailureError,
    UnsupportedDimensionError,
)
from .states import (
    DensityOperator,
    Ensemble,
    Povm,
    KrausChannel,
    _check_probability,
    _columns,
    _depolarize,
    _noise_qubits,
    _products_and_traces,
    _unit_trace,
    born_distribution,
    conditional_traces,
    random_kraus_channel,
    random_povm,        # not called here; callers reach it as leakage.random_povm
    random_povm_factors,
)

# The largest step ascent_step accepts and its whitening regularizer relative
# to the normalizer's mean eigenvalue; MU_MIN, the former step floor, is kept
# for the benchmark harness's tests.
MU_MIN, MU_MAX = 1e-6, 10.0
WHITENING_REG = 1e-12

# compute_leakage steps by STEP_FRACTION of the largest PSD-keeping step and
# recenters after a step shorter than RECENTER_BELOW (degenerate ensembles
# stall near the target otherwise); it certifies iterates whose own gap is at
# most max(eps, CERTIFY_BELOW_BITS) bits (certifying all doubles a small
# solve's cost), and raises on an upper end INVERSION_RTOL below the lower.
STEP_FRACTION, RECENTER_BELOW = 0.98, 0.2
CERTIFY_BELOW_BITS, INVERSION_RTOL = 1e-6, 1e-12

# Random POVMs that the povm_dominance check probes besides the optimum, and
# how many of them one trace-kernel call scores.
DOMINANCE_PROBES = 100
DOMINANCE_BLOCK = 10

# Widest certified interval, in bits, that noise_curve carries through a
# channel without a solve, and that optimality_gap accepts above cfg.eps.
TRANSFER_GAP_BITS = 1e-6


@dataclass(frozen=True)
class AscentConfig:
    """Settings of a solve and of verify_properties: eps is the certified
    gap target in bits, max_iters caps the iterations, seed seeds verify's
    random probes and channel. mu (checked as ascent_step checks its step)
    and restarts are kept for the command line and change no solve."""

    mu: float = 0.7
    eps: float = 1e-9
    max_iters: int = 10000
    restarts: int = 10
    seed: int = 0

    def __post_init__(self):
        _check_positive("step size mu", self.mu, MU_MAX)
        _check_positive("termination threshold eps", self.eps)
        for name, low in (("max_iters", 1), ("restarts", 1), ("seed", 0)):
            _check_count(name, getattr(self, name), low)


def _check_positive(name: str, value, high: float = math.inf):
    """Raise ValueError unless value is a finite real number (not a bool) in
    (0, high]: the one check of the step size and the threshold."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not 0.0 < value <= high or not math.isfinite(value)):
        raise ValueError(f"{name} must be a finite real in (0, {high}], got {value!r}")


def _check_count(name: str, value, low: int):
    """Raise ValueError unless value is an integer (not a bool) >= low."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


@dataclass
class ConvergenceTrace:
    """Per-iteration history of one solve, and why it stopped.

    objectives holds iterations 0..n (0 the start), each the best certified
    lower objective so far; step_sizes the primal step lengths, 0 at the
    start. stop_reason is "gap" (the interval is at most eps bits wide, the
    one converged reason), "max_iters" or "stall" (a step failed first).
    """

    objectives: list[float] = field(default_factory=list)
    step_sizes: list[float] = field(default_factory=list)
    stop_reason: str = ""

    @property
    def converged(self) -> bool:
        return self.stop_reason == "gap"

    @property
    def iterations(self) -> list[int]:
        return list(range(len(self.objectives)))

    @property
    def leakage_bits(self) -> list[float]:
        return [_bits(objective) for objective in self.objectives]

    def rows(self):
        """(iteration, objective, leakage_bits, step_size) tuples."""
        return list(zip(self.iterations, self.objectives,
                        self.leakage_bits, self.step_sizes))


@dataclass
class LeakageReport:
    """Outcome of a leakage computation: the leakage lies in the certified
    interval [leakage_bits, upper_bound_bits] (see certify), the value of
    optimal_povm (one element per symbol, in the ensemble's order) and
    log2 tr(dual) for a d x d dual >= every rho^x. traces holds the one
    solve's trace."""

    leakage_bits: float
    optimal_povm: Povm
    traces: list[ConvergenceTrace]
    ceiling_bits: float
    dual: np.ndarray
    upper_bound_bits: float
    best_restart = 0        # the index of that trace; not a field

    @property
    def converged_flags(self) -> list[bool]:
        return [t.converged for t in self.traces]

    @property
    def gap_bits(self) -> float:
        """Width of the certified interval."""
        return self.upper_bound_bits - self.leakage_bits


def _objectives(traces: np.ndarray) -> np.ndarray:
    """sum_y max_x of real traces (..., |X|, m), one value per leading index."""
    return traces.max(axis=-2).sum(axis=-1)


def _bits(objective: float) -> float:
    # The objective is >= 1 for any valid POVM; values a hair below 1 are
    # roundoff and would otherwise produce spuriously negative leakage.
    return math.log2(max(objective, 1.0))


def leakage_objective(ensemble: Ensemble, povm: Povm):
    """(objective, leakage_bits, argmax_map) of one fixed measurement:
    sum_y max_x Re tr(rho^x F_y), its log2, and per outcome the symbol
    attaining the inner max (ties to the earliest). The POVM's completeness
    check keeps the objective within [1, |X|] up to |X| * POVM_ATOL."""
    traces = conditional_traces(ensemble.state_stack(), povm.factors).real
    objective = float(_objectives(traces))
    winners = [ensemble.symbols[i] for i in traces.argmax(axis=0)]
    return objective, _bits(objective), winners


def certify(states: np.ndarray, factors: np.ndarray, dual: np.ndarray):
    """Certified interval (lower, upper) of the objective of a state stack
    (|X|, d, d) from POVM factors (m, d, r) and any d x d ``dual``; returns
    (lower, upper, point). lower = sum_y max_x tr(rho^x F_y) of the POVM.
    With Y the Hermitian part of ``dual`` and l = min_x lambda_min(Y - rho^x)
    of either sign, point = Y - l I dominates every rho^x, which bounds every
    POVM's objective by tr Y - d l, the SDP dual min tr Y s.t. Y >= rho^x
    (Koenig, Renner and Schaffner, IEEE TIT 55, 2009). upper = max(lower,
    tr Y - d l); the max only absorbs roundoff. Plain-array inputs let a
    result.json be rechecked. Not covered: a completeness defect of at most
    1e-12 (at most 1.5e-12 bits) and eigvalsh roundoff in l, about
    d u ||Y - rho^x||. States (P, |X|, d, d) and duals (P, d, d) give (P,)
    ends, one per point."""
    lower = _objectives(conditional_traces(states, factors).real)
    upper, point = _dual_upper(states, dual)
    return lower, np.maximum(upper, lower), point      # a NaN upper end stays NaN


def _dual_upper(states: np.ndarray, dual: np.ndarray):
    """certify's tr Y - d l and point Y - l I, from ``dual`` alone."""
    dual, dim = linalg.hermitize(dual), dual.shape[-1]
    low = np.linalg.eigvalsh(dual[..., None, :, :] - states)[..., 0].min(axis=-1)
    upper = np.trace(dual, axis1=-2, axis2=-1).real - dim * low
    return upper, dual - low[..., None, None] * np.eye(dim)


def ascent_step(ensemble: Ensemble, povm: Povm, mu: float) -> Povm:
    """One step of the measurement update: tilt each element toward the
    state winning its outcome and renormalize the set onto the POVMs,

        F_y  <-  S^(-1/2) G_y^dag F_y G_y S^(-1/2),
        G_y = I + mu (rho^{x*(y)} - sum_z rho^{x*(z)} F_z),  S = sum_y (...),

    on the factors F_y = H_y H_y^dag (H_y <- S^(-1/2) G_y^dag H_y), so every
    element stays PSD and the set sums to the identity up to the whitening
    regularizer; elements of any rank are accepted.
    """
    _check_positive("step size mu", mu, MU_MAX)
    mu, columns = float(mu), _columns(povm.factors)                 # (d, m r)
    products, traces = _products_and_traces(ensemble.state_stack(), povm.factors)
    traces = traces.real
    # picked[y] = products[x*(y), :, y], x*(y) the winner of outcome y
    picked = _columns(products[traces.argmax(axis=0), :, np.arange(traces.shape[1])])
    drift = picked @ columns.conj().T                               # sum_z rho^{x*(z)} F_z
    grown = columns + mu * (picked - drift.conj().T @ columns)      # G_y^dag H_y
    normalizer = grown @ grown.conj().T
    reg = WHITENING_REG * np.trace(normalizer).real / len(columns)
    stepped = linalg.inv_sqrt_psd(normalizer, reg) @ grown
    # The inverse of _columns: block y of the (d, m r) columns is H_y.
    return Povm.from_factors(stepped.reshape(len(columns), len(povm), -1).transpose(1, 0, 2))


def compute_leakage(ensemble: Ensemble, cfg: AscentConfig | None = None) -> LeakageReport:
    """Maximal leakage by one primal-dual interior-point solve of min-error
    discrimination, max sum_x tr(rho^x E_x) over POVMs {E_x}, whose dual is
    min tr Y s.t. Z_x = Y - rho^x >= 0 (Koenig, Renner and Schaffner 2009).

    From E_x = I/|X| and Y = (max_x lambda_max(rho^x) + 1) I it takes
    _interior_step steps, certifies (_certificate) the start, the last step
    the cap allows and each iterate whose own gap is at most max(cfg.eps,
    CERTIFY_BELOW_BITS) bits, and reports the best lower end (its POVM) and
    upper end (its dual point). It stops with reason "gap" once they lie at
    most cfg.eps bits apart, "max_iters" after cfg.max_iters steps, or
    "stall" when a step fails numerically. It raises NumericalFailureError
    if the start cannot be certified or the interval is inverted beyond
    INVERSION_RTOL. cfg.mu, cfg.restarts, cfg.seed and the prior do not
    change a solve.
    """
    cfg = cfg or AscentConfig()
    states = ensemble.state_stack()
    size, dim = states.shape[:2]
    povm = np.repeat(np.eye(dim, dtype=np.complex128)[None] / size, size, axis=0)
    dual = (np.linalg.eigvalsh(states)[:, -1].max() + 1.0) * np.eye(dim)
    trace, step, lower, upper = ConvergenceTrace(), 0.0, -math.inf, math.inf
    certificate = _certificate(states, povm, dual)
    while True:
        if certificate:
            low, high, measurement, point = certificate
            if low > lower:
                lower, optimal = low, measurement
            if high < upper:
                upper, best_dual = high, point
            if upper < lower * (1.0 - INVERSION_RTOL):
                raise NumericalFailureError(
                    f"certified interval inverted: upper end {upper!r} < lower end {lower!r}")
        trace.objectives.append(lower)
        trace.step_sizes.append(step)
        if _bits(upper) - _bits(lower) <= cfg.eps:
            trace.stop_reason = "gap"
        elif len(trace.objectives) > cfg.max_iters:
            trace.stop_reason = "max_iters"
        else:
            try:
                povm, dual, step = _interior_step(states, povm, dual)
                # tr Y against sum_x tr(rho^x E_x) = tr Y - sum_x tr(E_x Z_x)
                # bounds the certified gap; vdot(Z, E) is that sum for Z = Z^dag.
                total = float(np.trace(dual).real)
                own = _bits(total) - _bits(total - np.vdot(dual - states, povm).real)
                due = (own <= max(cfg.eps, CERTIFY_BELOW_BITS)
                       or len(trace.objectives) == cfg.max_iters)
                certificate = _certificate(states, povm, dual) if due else None
                continue
            except (np.linalg.LinAlgError, NumericalFailureError):
                trace.stop_reason = "stall"
        break
    return LeakageReport(
        leakage_bits=_bits(lower), optimal_povm=optimal, traces=[trace],
        ceiling_bits=min(math.log2(size), math.log2(dim)),
        dual=best_dual, upper_bound_bits=_bits(max(upper, lower)))


def _certificate(states: np.ndarray, povm: np.ndarray, dual: np.ndarray):
    """(lower, upper before certify's max, POVM, point) of an iterate: E
    renormalized by S^(-1/2), S = sum_x E_x, and factored by eigh into
    (|X|, d, d) factors (Povm.from_factors checks completeness), and Y."""
    root = linalg.inv_sqrt_psd(povm.sum(axis=0))
    vals, vecs = np.linalg.eigh(root @ povm @ root)
    measurement = Povm.from_factors(vecs * np.sqrt(np.maximum(vals, 0.0))[:, None, :])
    upper, point = _dual_upper(states, dual)
    lower = _objectives(conditional_traces(states, measurement.factors).real)
    return float(lower), float(upper), measurement, point


def _interior_step(states: np.ndarray, povm: np.ndarray, dual: np.ndarray):
    """One Mehrotra predictor-corrector step along the HKM direction from
    sum_x E_x = I and Z_x = Y - rho^x > 0; returns (E, Y, primal step). With
    W_x = Z_x^-1, mu = sum_x tr(E_x Z_x) / (|X| d) and C = 0 (predictor,
    sigma = 0) or C_x = herm(dE_x dY W_x) of the predictor (corrector, sigma
    = (mu_aff / mu)^3), dY solves sum_x herm(E_x dY W_x) = sigma mu sum_x W_x
    - I - sum_x C_x, and dE_x = sigma mu W_x - E_x - herm(E_x dY W_x) - C_x.
    Lengths are the largest steps up to 1 keeping E and Z PSD, times
    STEP_FRACTION in the corrector; a corrector shorter than RECENTER_BELOW
    is replaced by a centering step (sigma = 1, C = 0). Raises LinAlgError
    on a failed factorization or solve or a non-finite length."""
    size, dim = povm.shape[:2]
    slack = dual - states
    # Inverse Cholesky factors L^-1 of every E_x and Z_x; W_x = L^-dag L^-1.
    inverse = np.linalg.inv(np.linalg.cholesky(np.concatenate([povm, slack])))
    inverse_dag = inverse.conj().swapaxes(1, 2)
    w = inverse_dag[size:] @ inverse[size:]
    mu = np.vdot(slack, povm).real / (size * dim)      # sum_x tr(E_x Z_x) / (|X| d)
    # The system on row-major vec(dY), 1/2 sum_x [kron(E_x, W_x^T) + kron(W_x,
    # E_x^T)], from one product of [E; W] and [W; E] as (2|X|, d^2) arrays.
    left = np.concatenate([povm, w]).reshape(-1, dim * dim)
    right = np.concatenate([w, povm]).swapaxes(1, 2).reshape(-1, dim * dim)
    system = (left.T @ right).reshape((dim,) * 4).transpose(0, 2, 1, 3).reshape(
        dim * dim, dim * dim) / 2
    w_sum, eye, moves = w.sum(axis=0), np.eye(dim), np.empty_like(inverse)

    def direction(target, corrector, fraction):
        """Write [dE; dY per x] into moves; return its (primal, dual) lengths."""
        rhs = target * w_sum - eye - corrector.sum(axis=0)
        dy = linalg.hermitize(np.linalg.solve(system, rhs.reshape(-1)).reshape(dim, dim))
        moves[:size] = target * w - povm - linalg.hermitize(povm @ dy @ w) - corrector
        moves[size:] = dy
        # The largest a with X + a dX >= 0 is -1/lambda_min(L^-1 dX L^-dag).
        low = np.linalg.eigvalsh(inverse @ moves @ inverse_dag)[:, 0]
        if not np.isfinite(low).all():
            raise np.linalg.LinAlgError("non-finite step direction")
        return [fraction / max(1.0, -part.min()) for part in (low[:size], low[size:])]

    primal, dual_step = direction(0.0, np.zeros_like(povm), 1.0)
    de, dy = moves[:size], moves[size]      # views: read before the corrector refills moves
    sigma = (np.vdot(slack + dual_step * dy, povm + primal * de).real / (size * dim) / mu) ** 3
    primal, dual_step = direction(sigma * mu, linalg.hermitize(de @ dy @ w), STEP_FRACTION)
    if min(primal, dual_step) < RECENTER_BELOW:     # off the central path: recenter
        primal, dual_step = direction(mu, np.zeros_like(povm), STEP_FRACTION)
    return povm + primal * moves[:size], dual + dual_step * moves[size], primal


def two_state_leakage(rho0: DensityOperator, rho1: DensityOperator) -> float:
    """Exact leakage of a two-symbol ensemble: log2(1 + T(rho0, rho1)).

    The optimal measurement projects onto the positive eigenspace of
    rho0 - rho1, which turns the objective into 1 + trace distance.
    """
    if rho0.dim != rho1.dim:
        raise DimensionMismatchError(f"dims {rho0.dim} vs {rho1.dim}")
    return math.log2(1.0 + linalg.trace_distance(rho0.matrix, rho1.matrix))


def brute_force_leakage(ensemble: Ensemble, grid_resolution: int,
                        samples: int = 100_000, seed: int = 0) -> float:
    """Exhaustive qubit search over rank-one POVMs; a certified lower bound.

    Binary projective measurements are swept over a full Bloch-sphere
    (theta, phi) grid of grid_resolution x 2*grid_resolution directions
    (poles included); three- and four-outcome rank-one POVMs are sampled
    at random, ``samples`` draws each, from the given seed. Both searches
    are scored by conditional_traces, the one trace kernel. Needs integers
    grid_resolution >= 16 and samples >= 0 (0 searches the grid only).
    """
    if ensemble.dim != 2:
        raise UnsupportedDimensionError("brute force search is qubit-only")
    _check_count("grid_resolution", grid_resolution, 16)
    _check_count("samples", samples, 0)
    states = ensemble.state_stack()

    theta = np.linspace(0.0, np.pi, grid_resolution)
    phi = np.linspace(0.0, 2.0 * np.pi, 2 * grid_resolution, endpoint=False)
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    u = np.stack(
        [np.cos(tt / 2).ravel() + 0j,
         np.sin(tt / 2).ravel() * np.exp(1j * pp.ravel())],
        axis=1,
    )
    # Outcome uu^dag scores tr(rho^x uu^dag); its complement 1 - tr(rho^x uu^dag).
    up = conditional_traces(states, u[:, :, None]).real
    best = float((up.max(axis=0) + 1.0 - up.min(axis=0)).max())

    rng = np.random.default_rng(seed)
    for n_outcomes in (3, 4):
        g = (rng.standard_normal((samples, n_outcomes, 2))
             + 1j * rng.standard_normal((samples, n_outcomes, 2))) / np.sqrt(2.0)
        # Gram-Schmidt on the two columns of each draw, in place, gives an
        # isometry Q (Q^dag Q = I) whose rows h_y satisfy sum_y h_y h_y^dag = I.
        # Draws whose columns are nearly parallel (or zero) are skipped.
        with np.errstate(divide="ignore", invalid="ignore"):
            h = g / np.linalg.norm(g, axis=1, keepdims=True)
            a, c = h[:, :, 0], h[:, :, 1]
            c -= a * np.sum(a.conj() * c, axis=1, keepdims=True)
            c_norm = np.linalg.norm(c, axis=1, keepdims=True)
            c /= c_norm
        h = h[c_norm[:, 0] > 1e-4]
        traces = conditional_traces(states, h.reshape(-1, 2, 1)).real
        objectives = traces.reshape(len(states), len(h), n_outcomes).max(axis=0).sum(axis=1)
        best = float(objectives.max(initial=best))
    return _bits(best)


def mutual_information(ensemble: Ensemble, povm: Povm) -> float:
    """Classical I(X;Y) in bits between the secret and the outcome of one
    fixed measurement, under the ensemble's prior."""
    return float(_mutual_information(ensemble.priors, born_distribution(ensemble, povm)))


def _mutual_information(priors: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """I(X;Y) in bits for a prior (|X|,) and outcome distributions P[y|x]
    (..., |X|, m), one value per leading index, clamped below at 0. Raises
    NumericalFailureError if a value exceeds log2 |X| by more than 1e-9."""
    joint = priors[:, None] * probs
    denom = priors[:, None] * joint.sum(axis=-2, keepdims=True)
    ratio = np.divide(joint, denom, out=np.ones_like(joint), where=joint > 0.0)
    values = (joint * np.log2(ratio)).sum(axis=(-2, -1))
    if np.any(values > math.log2(len(priors)) + 1e-9):
        raise NumericalFailureError(f"mutual information {values.max()} above log2|X|")
    return np.maximum(values, 0.0)


def _probe_scores(ensemble: Ensemble, factors: np.ndarray):
    """(I(X;Y), log2 objective) in bits, one value each per POVM of a factor
    stack (k, m, d, r), such as the rank-one ones random_povm_factors draws;
    scored through the one trace kernel, DOMINANCE_BLOCK POVMs per call."""
    states, info, bits = ensemble.state_stack(), [], []
    for start in range(0, len(factors), DOMINANCE_BLOCK):
        traces = conditional_traces(states, factors[start:start + DOMINANCE_BLOCK]).real
        info.append(_mutual_information(ensemble.priors, np.clip(traces, 0.0, 1.0)))
        bits.append(np.log2(np.maximum(_objectives(traces), 1.0)))
    return np.concatenate(info), np.concatenate(bits)


def noisy_leakage_global(q_bits: float, p: float) -> float:
    """Leakage after global depolarizing noise: log2(p + (1-p) 2^q).

    Exact, and strictly decreasing in p whenever q > 0; it is the one-qubit
    case of the per-qubit bound.
    """
    return noisy_leakage_local_bound(q_bits, p, 1)


def noisy_leakage_local_bound(q_bits: float, p: float, qubits: int) -> float:
    """Upper bound on leakage after per-qubit depolarizing noise on k
    qubits: log2(p^k + (1-p^k) 2^q). Coincides with the exact global
    formula at k = 1."""
    if qubits < 1:
        raise ValueError("qubit count must be >= 1")
    if q_bits < 0.0:
        raise ValueError("leakage must be nonnegative")
    if _check_probability(p) == 0.0:
        return float(q_bits)
    pk = p ** qubits
    return math.log2(pk + (1.0 - pk) * 2.0 ** q_bits)


def _noise_points(ensemble: Ensemble, kind: str, grid, report: LeakageReport):
    """(grid, mapped, duals, closed_forms) at once: the states through noise
    N_p of a kind in states.NOISE_KINDS as Ensemble.transform maps them,
    (P, |X|, d, d); the report's dual point carried to N_p(Y), (P, d, d);
    the closed form at its leakage, exact for global noise, a bound for
    per-qubit noise. A bad p or dimension raises before anything is mapped."""
    qubits, grid = _noise_qubits(kind, ensemble.dim), [float(p) for p in grid]
    closed = [noisy_leakage_local_bound(report.leakage_bits, p, qubits) for p in grid]
    mapped = _unit_trace(_depolarize(ensemble.state_stack(), kind, grid))
    return grid, mapped, _depolarize(report.dual, kind, grid), closed


def noise_curve(ensemble: Ensemble, kind: str, grid, cfg: AscentConfig,
                report: LeakageReport):
    """Leakage of the depolarized ensemble against its closed form, carried
    from ``report``, the noiseless ensemble's solve. Returns (rows, solved):
    a row (p, direct_bits, closed_form_bits) per point of _noise_points and
    the p of each point solved with cfg. direct_bits is a feasible POVM's
    value: report.leakage_bits at p = 0; elsewhere the lower end of certify
    on the report's POVM and its dual Y carried to N(Y), the grid in one
    pass, if at most TRANSFER_GAP_BITS wide, else a solve's. Bad input
    raises first."""
    grid, mapped, duals, closed = _noise_points(ensemble, kind, grid, report)
    lower, upper, _ = certify(mapped, report.optimal_povm.factors, duals)
    rows, solved = [], []
    for i, (p, low, high) in enumerate(zip(grid, lower.tolist(), upper.tolist())):
        if p == 0.0:
            bits = report.leakage_bits
        elif _bits(high) - _bits(low) <= TRANSFER_GAP_BITS:
            bits = _bits(low)
        else:
            bits = compute_leakage(ensemble._mapped(mapped[i]), cfg).leakage_bits
            solved.append(p)
        rows.append((p, bits, closed[i]))
    return rows, solved


@dataclass
class PropertyCheck:
    name: str
    passed: bool
    detail: str
    skipped: bool = False


@dataclass
class PropertyReport:
    checks: list[PropertyCheck]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {"all_passed": self.all_passed, "checks": list(map(asdict, self.checks))}


ALL_PROPERTY_CHECKS = (
    "nonnegativity",
    "ceiling",
    "optimality_gap",
    "independence_iff_zero",
    "povm_dominance",
    "data_processing",
    "global_noise_exactness",
    "local_noise_bound",
)


def _upper_or_solve(ensemble: Ensemble, mapped: np.ndarray, duals: np.ndarray,
                    lines, cfg: AscentConfig):
    """Yield (bits, solved) per point, a test that the leakage of ``ensemble``
    through the point's channel N, states ``mapped`` (P, |X|, d', d'), is <=
    its line: certify's upper end from a dual point carried to N(Y) in
    ``duals`` (P, d', d') if it meets the line, else a solve's value. The
    dual alone carries it, since the channel may change the dimension."""
    for stack, upper, line in zip(mapped, _dual_upper(mapped, duals)[0].tolist(), lines):
        upper = _bits(upper)
        yield (upper, False) if upper <= line else (
            compute_leakage(ensemble._mapped(stack), cfg).leakage_bits, True)


def verify_properties(ensemble: Ensemble, cfg: AscentConfig | None = None,
                      channel: KrausChannel | None = None,
                      checks: tuple[str, ...] = ALL_PROPERTY_CHECKS,
                      noise_grid: tuple[float, ...] = (0.0, 0.3, 0.7, 1.0),
                      threads: int = 1) -> PropertyReport:
    """Run the structural-property suite against one ensemble.

    Checks, by name: "nonnegativity" and "ceiling" of the optimized leakage;
    "optimality_gap" (the certified interval is at most max(cfg.eps,
    TRANSFER_GAP_BITS) bits wide); "independence_iff_zero" (the leakage is
    at least the largest exact two-state leakage over pairs of states, and
    zero when that is zero); "povm_dominance" (I(X;Y) never exceeds the
    objective in bits, on the optimum and on DOMINANCE_PROBES random rank-one
    POVMs with d^2 outcomes from one generator seeded cfg.seed + 1000);
    "data_processing" (a channel, a seeded random one if none is given,
    cannot increase leakage); "global_noise_exactness" (noise_curve matches
    the closed-form global transfer on noise_grid); "local_noise_bound"
    (per-qubit noise respects its bound; skipped, before any solve, unless d
    is a power of two). The two channel checks settle each channel with one
    _upper_or_solve on the baseline report. A NaN fails a check; ``threads``
    is accepted for compatibility and ignored.
    """
    cfg = cfg or AscentConfig()
    unknown = set(checks) - set(ALL_PROPERTY_CHECKS)
    if unknown:
        raise ValueError(f"unknown property checks: {sorted(unknown)}")
    results: list[PropertyCheck] = []
    baseline = compute_leakage(ensemble, cfg)
    q0 = baseline.leakage_bits

    if "nonnegativity" in checks:
        results.append(PropertyCheck(
            "nonnegativity", q0 >= -1e-9, f"leakage_bits={q0:.9f}"))

    if "ceiling" in checks:
        results.append(PropertyCheck(
            "ceiling", q0 <= baseline.ceiling_bits + 1e-6,
            f"leakage_bits={q0:.9f} <= ceiling {baseline.ceiling_bits:.9f}"))

    if "optimality_gap" in checks:
        gap, tolerance = baseline.gap_bits, max(cfg.eps, TRANSFER_GAP_BITS)
        results.append(PropertyCheck(
            "optimality_gap", gap <= tolerance,
            f"certified gap {gap:.3e} bits <= {tolerance:.0e}, "
            f"stop reason {baseline.traces[0].stop_reason}"))

    if "independence_iff_zero" in checks:
        # Any pair of states is a two-symbol sub-ensemble, whose exact
        # leakage is a lower bound on q0; one measure serves both sides.
        pair_bits = max((two_state_leakage(a, b) for a, b in
                         itertools.combinations(ensemble.states, 2)), default=0.0)
        results.append(PropertyCheck(
            "independence_iff_zero",
            q0 >= pair_bits - 1e-6 and (pair_bits > 1e-9 or q0 < 1e-6),
            f"max pairwise two-state bits={pair_bits:.3e}, leakage_bits={q0:.3e}"))

    if "povm_dominance" in checks:
        probes = random_povm_factors(ensemble.dim, ensemble.dim ** 2,
                                     DOMINANCE_PROBES, cfg.seed + 1000)
        gaps = np.concatenate([np.subtract(*_probe_scores(ensemble, factors))
                               for factors in (baseline.optimal_povm.factors[None], probes)])
        results.append(PropertyCheck(
            "povm_dominance", bool(np.all(gaps <= 1e-9)),
            f"max I(X;Y) - log2(objective) = {np.max(gaps):.3e} "
            f"over {len(gaps)} POVMs"))

    if "data_processing" in checks:
        chan = channel or random_kraus_channel(ensemble.dim, ensemble.dim,
                                               cfg.seed + 104729)
        # N(Y) >= N(rho^x) and tr N(Y) = tr Y give Q(after) <= U_after <= upper;
        # the 1e-6 covers POVM_ATOL completeness and the channel's ATOL slack.
        upper = baseline.upper_bound_bits
        ((after, solve),) = _upper_or_solve(
            ensemble, ensemble.transform(chan).state_stack()[None],
            chan.apply(baseline.dual)[None], [upper + 1e-6], cfg)
        results.append(PropertyCheck(
            "data_processing", after <= upper + 1e-6,
            f"{'solved' if solve else 'certified upper'} after={after:.9f} <= "
            f"certified upper before={upper:.9f} + 1e-6"))

    if "global_noise_exactness" in checks:
        rows, solved = noise_curve(ensemble, "global", noise_grid, cfg, baseline)
        errors = [abs(direct - formula) for _, direct, formula in rows]
        results.append(PropertyCheck(
            "global_noise_exactness", all(err <= 2e-3 for err in errors),
            f"max |direct - formula| = {np.max(errors, initial=0.0):.3e} "
            f"over p grid {noise_grid}; solved p {solved}"))

    if "local_noise_bound" in checks:
        # Each p passes if the leakage after per-qubit noise is at most 1e-3
        # bits above the paper's bound g_p = log2(p^k + (1-p^k) 2^q0).
        try:
            grid, mapped, duals, bounds = _noise_points(ensemble, "local", noise_grid, baseline)
        except UnsupportedDimensionError as exc:
            results.append(PropertyCheck(
                "local_noise_bound", True, f"skipped: {exc}", skipped=True))
        else:
            settled = list(_upper_or_solve(ensemble, mapped, duals,
                                           [bound + 1e-3 for bound in bounds], cfg))
            excesses = [value - bound for (value, _), bound in zip(settled, bounds)]
            solved = [p for p, (_, solve) in zip(grid, settled) if solve]
            results.append(PropertyCheck(
                "local_noise_bound", all(ex <= 1e-3 for ex in excesses),
                f"max (certified upper or direct) - bound = "
                f"{np.max(excesses, initial=-np.inf):.3e} over p grid {noise_grid}; "
                f"certified {len(noise_grid) - len(solved)}/{len(noise_grid)}, "
                f"solved p {solved}"))

    return PropertyReport(results)
