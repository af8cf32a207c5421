"""Maximal-leakage engine.

The leakage of an ensemble {p(x), rho^x} is the best multiplicative guessing
advantage over all measurements,

    log2( sup_POVM  sum_y  max_x  tr(rho^x F_y) ),

optimized here by projected subgradient ascent with random restarts. The
restarts of a solve advance together as one stack of factors, one step
trial each and one whitening call for all per pass (one more whitens all
the random starts), and each restart leaves the stack when it stops; they
never interact, so every restart computes what it would compute alone. The
value never depends on the prior, is zero exactly for indistinguishable
ensembles, and is capped by min(log2 |X|, log2 d): tr(rho^x F_y) <= tr F_y,
so the objective is at most tr I = d (the paper states 2 log2 d). Allowing
an adversary several verified guesses instead of one does not change the
quantity, so no separate multi-guess computation exists.

Each solve is certified: its POVM gives the lower bound, and a dual point
Y >= rho^x for every x the upper one, both formed by certify. Both move
through a channel N without a new solve, Y as N(Y): noise_curve carries
both, and verify's channel checks carry N(Y) alone (_upper_or_solve). A
noise grid moves as one stack, with a leading grid axis (_noise_points).

Closed-form companions: the exact two-state value log2(1 + T), a brute-force
qubit search, the global depolarizing transfer formula and the per-qubit
noise upper bound, plus a batch verifier that turns all of the structural
properties into executable checks.
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
    _factors,
    _noise_qubits,
    _products_and_traces,
    _random_rows,
    _unit_trace,
    born_distribution,
    conditional_traces,
    random_kraus_channel,
    random_povm,        # not called here; callers reach it as leakage.random_povm
    random_povm_factors,
)

# Step-size floor for step halving and the largest step accepted, the
# per-step slack within which a step still counts as non-decreasing, and the
# whitening regularizer relative to the normalizer's mean eigenvalue (keeps
# S^(-1/2) finite if S is singular).
MU_MIN, MU_MAX = 1e-6, 10.0
BACKTRACK_SLACK = 1e-13
WHITENING_REG = 1e-12

# Random POVMs that the povm_dominance check probes besides the optimum, and
# how many of them one trace-kernel call scores.
DOMINANCE_PROBES = 100
DOMINANCE_BLOCK = 10

# Widest certified interval, in bits, that noise_curve reports without a
# solve when it carries a report through a channel.
TRANSFER_GAP_BITS = 1e-6


@dataclass(frozen=True)
class AscentConfig:
    """Knobs of the subgradient ascent.

    Every restart starts from a random rank-one POVM with d^2 outcomes, the
    size that always suffices for the optimum.

    Each iteration tries the step mu first and halves it while the objective
    would fall. The default 0.7 keeps the tilt G = I + mu (rho^x - D),
    D = sum_z rho^{x*(z)} F_z (see ascent_step), invertible with a margin:
    at the optimum of an index ensemble D = I and rho^x - D = -(I - |x><x|),
    so G is singular at mu = 1 and its smallest eigenvalue is 1 - mu = 0.3.
    At AscentConfig(seed=0) the iteration sums are 120 (index8), 262
    (amplitude3) and 115 (index4), against 190, 374 and 178 at step 0.5.
    The default stops at 0.7 because longer steps lose value against 0.5:
    0.75 lowers index2 at seed 10 by 2.9e-11 bits, and 0.8 lowers index2,
    index4 and index8 at each of seeds 0, 10 and 20, and amplitude3 at
    seed 20.
    """

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
    """Per-iteration history of one restart, and why it stopped.

    objectives and step_sizes hold iterations 0..n, 0 the random start with
    step 0. stop_reason is "eps" (the objective changed by less than eps),
    "step_floor" (no step down to MU_MIN kept the objective, so the iterate
    was held; this also counts as converged) or "max_iters" (the cap).
    backtracks counts the step halvings: the step trials beyond the first
    of each iteration.
    """

    objectives: list[float] = field(default_factory=list)
    step_sizes: list[float] = field(default_factory=list)
    stop_reason: str = ""
    backtracks: int = 0

    @property
    def converged(self) -> bool:
        return self.stop_reason in ("eps", "step_floor")

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
    """Outcome of a multi-restart leakage computation.

    The leakage lies in the certified interval [leakage_bits,
    upper_bound_bits] (see certify): the value of the feasible POVM
    optimal_povm, and log2 tr(dual) for a d x d dual >= every rho^x.
    """

    leakage_bits: float
    optimal_povm: Povm
    best_restart: int
    traces: list[ConvergenceTrace]
    restart_leakages: list[float]
    ceiling_bits: float
    dual: np.ndarray
    upper_bound_bits: float

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
    """Evaluate the leakage objective for one fixed measurement.

    Returns
    -------
    (objective, leakage_bits, argmax_map)
        objective is sum_y max_x Re tr(rho^x F_y); leakage_bits its log2;
        argmax_map lists, per outcome, the symbol attaining the inner max
        (ties resolved to the earliest symbol). The POVM's completeness
        check keeps the objective within [1, |X|] up to |X| * POVM_ATOL.
    """
    traces = conditional_traces(ensemble.state_stack(), povm.factors).real
    objective = float(_objectives(traces))
    winners = [ensemble.symbols[i] for i in traces.argmax(axis=0)]
    return objective, _bits(objective), winners


def _evaluate(states: np.ndarray, columns: np.ndarray, rank: int = 1, work=(None, None)):
    """Score a stack of iterates, columns (R, d, m r) with factors of rank r:
    returns the objectives (R,) and the winning products rho^{x*(y)} H_y
    (R, d, m r) that the next step tilts toward, both from the one trace
    kernel (with its ``work`` buffers)."""
    products, traces = _products_and_traces(states, columns, rank, work)
    traces = traces.real
    # picked[i, :, y] = products[i, x*(y), :, y], x*(y) the winner of outcome y
    count, _, dim, outcomes, _ = products.shape
    picked = products[np.arange(count)[:, None, None], traces.argmax(axis=1)[:, None, :],
                      np.arange(dim)[:, None], np.arange(outcomes)]
    return _objectives(traces), picked.reshape(columns.shape)


def _step(picked: np.ndarray, columns: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """One ascent step of a stack of iterates (see _evaluate), each with its
    own step size mu[i] and whitening regularizer, all whitened in one
    inv_sqrt_psd call. Returns the new columns."""
    drift = picked @ columns.conj().swapaxes(1, 2)              # sum_z rho^{x*(z)} F_z
    grown = columns + mu[:, None, None] * (
        picked - drift.conj().swapaxes(1, 2) @ columns)         # G_y^dag H_y
    normalizer = grown @ grown.conj().swapaxes(1, 2)
    regs = WHITENING_REG * np.trace(normalizer, axis1=1, axis2=2).real / columns.shape[1]
    return linalg.inv_sqrt_psd(normalizer, regs) @ grown


def certify(states: np.ndarray, factors: np.ndarray, dual: np.ndarray):
    """Certified interval (lower, upper) of the objective of a state stack
    (|X|, d, d) from POVM factors (m, d, r) and any d x d ``dual``; returns
    (lower, upper, point). lower = sum_y max_x tr(rho^x F_y) of the POVM.
    With Y the Hermitian part of ``dual`` and l = min_x lambda_min(Y - rho^x)
    of either sign, point = Y - l I dominates every rho^x, which bounds every
    POVM's objective by tr Y - d l: the dual of the min-error discrimination
    SDP, min tr Y s.t. Y >= rho^x (Koenig, Renner and Schaffner, IEEE TIT 55,
    2009). upper = max(lower, tr Y - d l); the max only absorbs eigvalsh
    roundoff. The inputs are plain arrays, so a result.json's optimal_povm
    and dual can be rechecked. Not covered: a POVM completeness defect of at
    most 1e-12, which costs at most 1.5e-12 bits (rescale by 1/(1 + defect)),
    and eigvalsh roundoff in l, about d u ||Y - rho^x|| (u the unit roundoff).
    States (P, |X|, d, d) and duals (P, d, d) give (P,) ends, one per point.
    """
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
    """One step of the measurement update.

    Tilts each element toward the state currently winning its outcome,
    then renormalizes the set back onto the POVM manifold:

        F_y  <-  S^(-1/2) G_y^dag F_y G_y S^(-1/2),
        G_y = I + mu (rho^{x*(y)} - sum_z rho^{x*(z)} F_z),  S = sum_y (...).

    The update acts on the POVM's factors F_y = H_y H_y^dag
    (H_y <- S^(-1/2) G_y^dag H_y), so every element stays PSD and the set
    sums to the identity up to the whitening regularizer; elements of any
    rank are accepted.
    """
    _check_positive("step size mu", mu, MU_MAX)
    columns = _columns(povm.factors)[None]
    picked = _evaluate(ensemble.state_stack(), columns, povm.factors.shape[2])[1]
    stepped = _step(picked, columns, np.array([float(mu)]))
    return Povm.from_factors(_factors(stepped[0], len(povm)))


def compute_leakage(ensemble: Ensemble, cfg: AscentConfig | None = None,
                    threads: int = 1) -> LeakageReport:
    """Maximal leakage of an ensemble by subgradient ascent with restarts.

    Each restart draws its own random POVM as random_povm does from the seed
    cfg.seed + restart index, ascends until the objective improves by less
    than cfg.eps (halving the step whenever it would lower the objective,
    so the trace never decreases), and the best final value wins. Hitting
    max_iters is not an error; the restart is just flagged unconverged.

    The report certifies its value: certify shifts Y0 = sum_y rho^{x*(y)} F_y,
    over the best restart's final POVM F and its winners x*(y), onto the
    states; the shifted point is report.dual and upper_bound_bits is log2 of
    certify's upper end. At an optimum of the ascent the shift is 0, up to
    how far the ascent stopped short.

    All restarts advance together as one stack: one whitening call serves
    all random starts, each pass makes one step trial, in one whitening
    call, for every restart still running, and a restart leaves the stack
    when it stops. Restarts do not interact; each one computes exactly what
    it would compute alone. ``threads`` is accepted for compatibility and
    ignored.

    The prior never enters the objective, so reports are bit-identical
    under reweighted priors for the same seed. The completeness check of
    the winning factors bounds the objective by min(|X|, d) (1 + POVM_ATOL);
    verify_properties' "ceiling" check is the one ceiling test.
    """
    cfg = cfg or AscentConfig()
    dim, states = ensemble.dim, ensemble.state_stack()
    outcomes = dim * dim
    starts = _random_rows((1, outcomes, dim), range(cfg.seed, cfg.seed + cfg.restarts))
    columns = np.ascontiguousarray(starts.swapaxes(1, 2))   # (R, d, m), as _columns
    # One pair of trace-kernel buffers for the whole solve: new arrays of this
    # size in every pass cost page faults, more or fewer by allocator state.
    work = (np.empty((cfg.restarts, ensemble.size * dim, outcomes), dtype=np.complex128),
            np.empty((cfg.restarts, ensemble.size, dim, outcomes, 1), dtype=np.complex128))
    objectives, picked = _evaluate(states, columns, 1, work)   # rank-one starts
    values = objectives.tolist()   # rows, values and mu: lists, one entry per running restart
    history = [ConvergenceTrace(objectives=[value], step_sizes=[0.0]) for value in values]
    finals = [None] * cfg.restarts
    rows, mu = list(range(cfg.restarts)), [float(cfg.mu)] * cfg.restarts

    while rows:
        candidates = _step(picked, columns, np.array(mu))
        cand_objectives, cand_picked = _evaluate(states, candidates, 1,
                                                 [w[:len(rows)] for w in work])
        trials = cand_objectives.tolist()
        accept = [new >= old - BACKTRACK_SLACK for new, old in zip(trials, values)]
        if all(accept):
            columns, picked = candidates, cand_picked
        elif any(accept):
            columns[accept], picked[accept] = candidates[accept], cand_picked[accept]
        running = []
        for i, restart in enumerate(rows):
            trace, step = history[restart], mu[i]
            # A trial that fails at the step floor holds the iterate in place,
            # which keeps the trace monotone and stops the restart. Any other
            # failed trial halves the step and tries again in the next pass.
            if not accept[i] and step > MU_MIN:
                trace.backtracks += 1
                mu[i] = max(step / 2.0, MU_MIN)
                running.append(i)
                continue
            change = abs(trials[i] - values[i]) if accept[i] else 0.0   # 0 if held
            values[i], mu[i] = trials[i] if accept[i] else values[i], float(cfg.mu)
            trace.objectives.append(values[i])
            trace.step_sizes.append(step)
            if change < cfg.eps:
                trace.stop_reason = "eps" if accept[i] else "step_floor"
            elif len(trace.objectives) > cfg.max_iters:
                trace.stop_reason = "max_iters"
            else:
                running.append(i)
                continue
            finals[restart] = columns[i].copy(), picked[i].copy()
        if len(running) < len(rows):
            rows, values, mu = ([x[i] for i in running] for x in (rows, values, mu))
            columns, picked = columns[running], picked[running]

    restart_leakages = [_bits(trace.objectives[-1]) for trace in history]
    best = int(np.argmax(restart_leakages))
    final_columns, final_picked = finals[best]
    factors = _factors(final_columns, outcomes)
    _, upper, dual = certify(states, factors, final_picked @ final_columns.conj().T)
    return LeakageReport(
        leakage_bits=restart_leakages[best],
        optimal_povm=Povm.from_factors(factors),
        best_restart=best,
        traces=history,
        restart_leakages=restart_leakages,
        ceiling_bits=min(math.log2(ensemble.size), math.log2(dim)),
        dual=dual,
        upper_bound_bits=_bits(upper),
    )


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
    """(I(X;Y), log2 objective) in bits, one value each per rank-one POVM of
    a factor stack (k, m, d, 1) such as random_povm_factors draws; scored
    through the one trace kernel, DOMINANCE_BLOCK POVMs per call."""
    states, info, bits = ensemble.state_stack(), [], []
    for start in range(0, len(factors), DOMINANCE_BLOCK):
        columns = factors[start:start + DOMINANCE_BLOCK, :, :, 0].swapaxes(1, 2)
        traces = _products_and_traces(states, columns, 1)[1].real
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
    from ``report``, the noiseless ensemble's solve.

    Returns (rows, solved): a row (p, direct_bits, closed_form_bits) for
    each point of _noise_points, and the p of every point solved with cfg.
    direct_bits is always the value of a feasible measurement:
    report.leakage_bits at p = 0 (the identity channel); elsewhere certify
    bounds the report's POVM and its dual point Y carried to N(Y), the whole
    grid in one pass, and reports the lower end of an interval at most
    TRANSFER_GAP_BITS wide, else a solve's value. Bad input raises first.
    """
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

    Checks, by name: "nonnegativity" and "ceiling" of the optimized
    leakage; "independence_iff_zero" (the leakage is at least the largest
    exact two-state leakage over pairs of states, and zero when that is
    zero); "povm_dominance" (I(X;Y) never exceeds the per-measurement
    objective in bits, probed on the optimizer's POVM plus DOMINANCE_PROBES
    random ones with d^2 outcomes, drawn from one generator seeded
    cfg.seed + 1000; the optimizer's POVM and the probes are scored as one
    stack); "data_processing" (a channel, a seeded random one if none is
    supplied, cannot increase leakage);
    "global_noise_exactness" (noise_curve, carrying the baseline report,
    matches the closed-form global transfer on noise_grid);
    "local_noise_bound" (per-qubit noise respects its upper bound; skipped,
    before any point is solved, when the dimension is not a power of two).
    data_processing and local_noise_bound settle each channel with one
    _upper_or_solve on the baseline report.
    A check passes only if every value it compares meets its tolerance, so
    a NaN fails it. ``threads`` is accepted for compatibility and ignored.
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
        info, bits = _probe_scores(ensemble, np.concatenate(
            [baseline.optimal_povm.factors[None], probes]))
        gaps = info - bits
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
