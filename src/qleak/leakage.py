"""Maximal-leakage engine.

The leakage of an ensemble {p(x), rho^x} is the best multiplicative guessing
advantage over all measurements,

    log2( sup_POVM  sum_y  max_x  tr(rho^x F_y) ),

optimized here by projected subgradient ascent with random restarts. The
value never depends on the prior, is zero exactly for indistinguishable
ensembles, and is capped by min(log2 |X|, log2 d): tr(rho^x F_y) <= tr F_y,
so the objective is at most tr I = d (the paper states 2 log2 d). Allowing
an adversary several verified guesses instead of one does not change the
quantity, so no separate multi-guess computation exists.

Closed-form companions: the exact two-state value log2(1 + T), a brute-force
qubit search, the global depolarizing transfer formula and the per-qubit
noise upper bound, plus a batch verifier that turns all of the structural
properties into executable checks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .exceptions import (
    DimensionMismatchError,
    InvalidProbabilityError,
    NumericalFailureError,
    UnsupportedDimensionError,
)
from .states import (
    DensityOperator,
    Ensemble,
    Povm,
    KrausChannel,
    born_distribution,
    conditional_traces,
    depolarizing,
    qubit_count,
    random_kraus_channel,
    random_povm,
)

# Step-size floor for step halving, the per-step slack within which a step
# still counts as non-decreasing, and the whitening regularizer relative to
# the normalizer's mean eigenvalue (keeps S^(-1/2) finite if S is singular).
MU_MIN = 1e-6
BACKTRACK_SLACK = 1e-13
WHITENING_REG = 1e-12

# Random POVMs that the povm_dominance check probes besides the optimum.
DOMINANCE_PROBES = 100


@dataclass(frozen=True)
class AscentConfig:
    """Knobs of the subgradient ascent.

    Every restart starts from a random rank-one POVM with d^2 outcomes, the
    size that always suffices for the optimum.
    """

    mu: float = 0.1
    eps: float = 1e-9
    max_iters: int = 10000
    restarts: int = 10
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.mu <= 10.0:
            raise ValueError(f"step size {self.mu} outside (0, 10]")
        if not 0.0 < self.eps < math.inf:
            raise ValueError(f"termination threshold {self.eps} must be finite "
                             "and positive")
        if self.max_iters < 1 or self.restarts < 1:
            raise ValueError("max_iters and restarts must be >= 1")


@dataclass
class ConvergenceTrace:
    """Per-iteration history of one restart."""

    iterations: list[int] = field(default_factory=list)
    objectives: list[float] = field(default_factory=list)
    leakage_bits: list[float] = field(default_factory=list)
    step_sizes: list[float] = field(default_factory=list)
    converged: bool = False

    def append(self, iteration: int, objective: float, bits: float, step: float):
        self.iterations.append(iteration)
        self.objectives.append(objective)
        self.leakage_bits.append(bits)
        self.step_sizes.append(step)

    def rows(self):
        """(iteration, objective, leakage_bits, step_size) tuples."""
        return list(zip(self.iterations, self.objectives,
                        self.leakage_bits, self.step_sizes))


@dataclass
class LeakageReport:
    """Outcome of a multi-restart leakage computation."""

    leakage_bits: float
    optimal_povm: Povm
    best_restart: int
    traces: list[ConvergenceTrace]
    restart_leakages: list[float]
    ceiling_bits: float

    @property
    def converged_flags(self) -> list[bool]:
        return [t.converged for t in self.traces]


def _stack_objective(traces: np.ndarray) -> float:
    return float(traces.max(axis=0).sum())


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
    if ensemble.dim != povm.dim:
        raise DimensionMismatchError(
            f"ensemble dim {ensemble.dim} != POVM dim {povm.dim}"
        )
    traces = conditional_traces(ensemble.state_stack(), povm.factors).real
    objective = _stack_objective(traces)
    winners = [ensemble.symbols[i] for i in traces.argmax(axis=0)]
    return objective, _bits(objective), winners


def _step(states: np.ndarray, factors: np.ndarray, mu: float,
          traces: np.ndarray) -> np.ndarray:
    """One ascent step on the factors; traces are those of the input."""
    dim = states.shape[1]
    picked = states[traces.argmax(axis=0)] @ factors        # rho^{x*(y)} H_y
    drift = np.tensordot(picked, factors.conj(),
                         axes=([0, 2], [0, 2]))             # sum_z rho^{x*(z)} F_z
    grown = factors + mu * (picked - drift.conj().T @ factors)  # G_y^dag H_y
    normalizer = np.tensordot(grown, grown.conj(), axes=([0, 2], [0, 2]))
    whitener = linalg.inv_sqrt_psd(
        normalizer, WHITENING_REG * float(normalizer.trace().real) / dim
    )
    return whitener @ grown


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
    if ensemble.dim != povm.dim:
        raise DimensionMismatchError(
            f"ensemble dim {ensemble.dim} != POVM dim {povm.dim}"
        )
    if mu <= 0.0:
        raise ValueError("step size must be positive")
    states = ensemble.state_stack()
    traces = conditional_traces(states, povm.factors).real
    return Povm.from_factors(_step(states, povm.factors, mu, traces))


def _run_restart(states: np.ndarray, dim: int, cfg: AscentConfig,
                 restart_seed: int):
    """Ascend from one random initialization; returns (trace, final factors)."""
    factors = random_povm(dim, dim * dim, restart_seed).factors
    traces_xy = conditional_traces(states, factors).real
    objective = _stack_objective(traces_xy)
    trace = ConvergenceTrace()
    trace.append(0, objective, _bits(objective), 0.0)
    for iteration in range(1, cfg.max_iters + 1):
        mu_trial = cfg.mu
        while True:
            candidate = _step(states, factors, mu_trial, traces_xy)
            cand_traces = conditional_traces(states, candidate).real
            cand_objective = _stack_objective(cand_traces)
            if cand_objective >= objective - BACKTRACK_SLACK:
                break
            if mu_trial <= MU_MIN:
                # No step size improves: hold position, which both keeps the
                # trace monotone and triggers termination below.
                candidate, cand_traces, cand_objective = factors, traces_xy, objective
                break
            mu_trial = max(mu_trial / 2.0, MU_MIN)
        change = abs(cand_objective - objective)
        factors, traces_xy, objective = candidate, cand_traces, cand_objective
        trace.append(iteration, objective, _bits(objective), mu_trial)
        if change < cfg.eps:
            trace.converged = True
            break
    return trace, factors


def compute_leakage(ensemble: Ensemble, cfg: AscentConfig | None = None,
                    threads: int = 1) -> LeakageReport:
    """Maximal leakage of an ensemble by subgradient ascent with restarts.

    Each restart draws its own random POVM from a seed derived as
    cfg.seed + restart index, ascends until the objective improves by less
    than cfg.eps (halving the step whenever it would lower the objective,
    so the trace never decreases), and the best final value wins. Hitting
    max_iters is not an error; the restart is just flagged unconverged.
    Restarts run one after another; ``threads`` is accepted for
    compatibility and ignored.

    The prior never enters the objective, so reports are bit-identical
    under reweighted priors for the same seed. The completeness check of
    the winning factors bounds the objective by min(|X|, d) (1 + POVM_ATOL);
    verify_properties' "ceiling" check is the one ceiling test.
    """
    cfg = cfg or AscentConfig()
    dim = ensemble.dim
    states = ensemble.state_stack()
    results = [_run_restart(states, dim, cfg, cfg.seed + i)
               for i in range(cfg.restarts)]

    traces = [trace for trace, _ in results]
    finals = [trace.leakage_bits[-1] for trace in traces]
    best = int(np.argmax(finals))
    return LeakageReport(
        leakage_bits=finals[best],
        optimal_povm=Povm.from_factors(results[best][1]),
        best_restart=best,
        traces=traces,
        restart_leakages=finals,
        ceiling_bits=min(math.log2(ensemble.size), math.log2(dim)),
    )


def two_state_leakage(rho0: DensityOperator, rho1: DensityOperator) -> float:
    """Exact leakage of a two-symbol ensemble: log2(1 + T(rho0, rho1)).

    The optimal measurement projects onto the positive eigenspace of
    rho0 - rho1, which turns the objective into 1 + trace distance.
    """
    if rho0.dim != rho1.dim:
        raise DimensionMismatchError(f"dims {rho0.dim} vs {rho1.dim}")
    return math.log2(1.0 + linalg.trace_distance(rho0.matrix, rho1.matrix))


def _sample_rank_one_objectives(states: np.ndarray, n_outcomes: int,
                                n_samples: int, rng: np.random.Generator) -> float:
    """Best objective over random rank-one POVMs of a given size (qubits)."""
    g = (rng.standard_normal((n_samples, n_outcomes, 2))
         + 1j * rng.standard_normal((n_samples, n_outcomes, 2))) / np.sqrt(2.0)
    s = np.einsum("nyi,nyj->nij", g, g.conj())
    tr = s[:, 0, 0].real + s[:, 1, 1].real
    det = (s[:, 0, 0] * s[:, 1, 1] - s[:, 0, 1] * s[:, 1, 0]).real
    root = np.sqrt(np.maximum(det, 0.0))
    denom = root * np.sqrt(tr + 2.0 * root)
    ok = denom > 1e-12
    # closed-form 2x2 inverse square root: (adj(S) + sqrt(det) I) / denom
    w = np.empty_like(s)
    w[:, 0, 0] = s[:, 1, 1] + root
    w[:, 1, 1] = s[:, 0, 0] + root
    w[:, 0, 1] = -s[:, 0, 1]
    w[:, 1, 0] = -s[:, 1, 0]
    w[ok] /= denom[ok, None, None]
    h = np.einsum("nij,nyj->nyi", w, g)
    vals = np.einsum("nyi,xij,nyj->nxy", h.conj(), states, h).real
    objectives = vals.max(axis=1).sum(axis=1)
    objectives[~ok] = -np.inf
    return float(objectives.max())


def brute_force_leakage(ensemble: Ensemble, grid_resolution: int,
                        samples: int = 100_000, seed: int = 0) -> float:
    """Exhaustive qubit search over rank-one POVMs; a certified lower bound.

    Binary projective measurements are swept over a full Bloch-sphere
    (theta, phi) grid of grid_resolution x 2*grid_resolution directions
    (poles included); three- and four-outcome rank-one POVMs are sampled
    at random, ``samples`` draws each, from the given seed.
    """
    if ensemble.dim != 2:
        raise UnsupportedDimensionError("brute force search is qubit-only")
    if grid_resolution < 16:
        raise ValueError("grid_resolution must be at least 16")
    states = ensemble.state_stack()

    theta = np.linspace(0.0, np.pi, grid_resolution)
    phi = np.linspace(0.0, 2.0 * np.pi, 2 * grid_resolution, endpoint=False)
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    u = np.stack(
        [np.cos(tt / 2).ravel() + 0j,
         np.sin(tt / 2).ravel() * np.exp(1j * pp.ravel())],
        axis=1,
    )
    up = np.einsum("si,xij,sj->xs", u.conj(), states, u).real  # tr(rho^x uu^dag)
    best = float((up.max(axis=0) + 1.0 - up.min(axis=0)).max())

    rng = np.random.default_rng(seed)
    for n_outcomes in (3, 4):
        best = max(best, _sample_rank_one_objectives(states, n_outcomes, samples, rng))
    return _bits(best)


def mutual_information(ensemble: Ensemble, povm: Povm) -> float:
    """Classical I(X;Y) in bits between the secret and the outcome of one
    fixed measurement, under the ensemble's prior."""
    probs = born_distribution(ensemble, povm)
    joint = ensemble.priors[:, None] * probs
    p_y = joint.sum(axis=0)
    mask = joint > 0.0
    ratio = np.ones_like(joint)
    denom = ensemble.priors[:, None] * p_y[None, :]
    ratio[mask] = joint[mask] / denom[mask]
    value = float(np.sum(joint[mask] * np.log2(ratio[mask])))
    cap = math.log2(ensemble.size)
    if value > cap + 1e-9:
        raise NumericalFailureError(f"mutual information {value} above log2|X|")
    return max(value, 0.0)


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
    if not 0.0 <= p <= 1.0:
        raise InvalidProbabilityError(f"probability {p} outside [0, 1]")
    if p == 0.0:
        return float(q_bits)
    pk = p ** qubits
    return math.log2(pk + (1.0 - pk) * 2.0 ** q_bits)


def noise_curve(ensemble: Ensemble, kind: str, grid, cfg: AscentConfig,
                q_bits: float) -> list[tuple[float, float, float]]:
    """Leakage of the depolarized ensemble against its closed form.

    For each p in grid, returns (p, direct_bits, closed_form_bits): the
    optimized leakage after noise of the given kind (see
    states.NOISE_KINDS) and the closed form evaluated at the noiseless
    leakage q_bits. Global noise transfers exactly as log2(p + (1-p) 2^q);
    per-qubit noise on k qubits is bounded by log2(p^k + (1-p^k) 2^q).
    Raises UnsupportedDimensionError for per-qubit noise on a dimension
    that is not a power of two, before any solve.
    """
    qubits = qubit_count(ensemble.dim) if kind == "local" else 1
    rows = []
    for p in grid:
        p = float(p)
        noisy = ensemble.transform(depolarizing(kind, p, ensemble.dim))
        rows.append((p, compute_leakage(noisy, cfg).leakage_bits,
                     noisy_leakage_local_bound(q_bits, p, qubits)))
    return rows


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
        return {
            "all_passed": self.all_passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "skipped": c.skipped,
                 "detail": c.detail}
                for c in self.checks
            ],
        }


ALL_PROPERTY_CHECKS = (
    "nonnegativity",
    "ceiling",
    "independence_iff_zero",
    "povm_dominance",
    "data_processing",
    "global_noise_exactness",
    "local_noise_bound",
)


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
    random ones with d^2 outcomes);
    "data_processing" (a channel cannot increase leakage; a seeded random
    channel is drawn when none is supplied); "global_noise_exactness"
    (optimized leakage of the globally depolarized ensemble matches the
    closed-form transfer on noise_grid); "local_noise_bound" (per-qubit
    noise respects its upper bound; skipped when the dimension is not a
    power of two). A check passes only if every value it compares meets
    its tolerance, so a NaN fails it. ``threads`` is accepted for
    compatibility and ignored.
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
        dim = ensemble.dim
        probes = [baseline.optimal_povm] + [
            random_povm(dim, dim * dim, cfg.seed + 1000 + i)
            for i in range(DOMINANCE_PROBES)]
        gaps = [mutual_information(ensemble, povm) - leakage_objective(ensemble, povm)[1]
                for povm in probes]
        results.append(PropertyCheck(
            "povm_dominance", all(gap <= 1e-9 for gap in gaps),
            f"max I(X;Y) - log2(objective) = {np.max(gaps):.3e} "
            f"over {len(probes)} POVMs"))

    if "data_processing" in checks:
        chan = channel or random_kraus_channel(ensemble.dim, ensemble.dim,
                                               cfg.seed + 104729)
        q_after = compute_leakage(ensemble.transform(chan), cfg).leakage_bits
        results.append(PropertyCheck(
            "data_processing", q_after <= q0 + 1e-3,
            f"after={q_after:.6f} <= before={q0:.6f} + 1e-3"))

    if "global_noise_exactness" in checks:
        errors = [abs(direct - formula) for _, direct, formula in
                  noise_curve(ensemble, "global", noise_grid, cfg, q0)]
        results.append(PropertyCheck(
            "global_noise_exactness", all(err <= 2e-3 for err in errors),
            f"max |direct - formula| = {np.max(errors, initial=0.0):.3e} "
            f"over p grid {noise_grid}"))

    if "local_noise_bound" in checks:
        try:
            excesses = [direct - bound for _, direct, bound in
                        noise_curve(ensemble, "local", noise_grid, cfg, q0)]
        except UnsupportedDimensionError as exc:
            results.append(PropertyCheck(
                "local_noise_bound", True, f"skipped: {exc}", skipped=True))
        else:
            results.append(PropertyCheck(
                "local_noise_bound", all(ex <= 1e-3 for ex in excesses),
                f"max direct - bound = {np.max(excesses, initial=-np.inf):.3e} "
                f"over p grid {noise_grid}"))

    return PropertyReport(results)
