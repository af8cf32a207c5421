import dataclasses
import math
import warnings

import numpy as np
import pytest

from qleak import (
    AscentConfig,
    DensityOperator,
    Ensemble,
    Povm,
    ascent_step,
    brute_force_leakage,
    certify,
    compute_leakage,
    depolarizing,
    depolarizing_global,
    encode_amplitude_3bit,
    encode_index,
    leakage_objective,
    mutual_information,
    noisy_leakage_global,
    noisy_leakage_local_bound,
    random_kraus_channel,
    random_povm,
    two_state_leakage,
    verify_properties,
)
from qleak import leakage, states
from qleak.ensemble_io import resolve_ensemble
from qleak.leakage import WHITENING_REG
from qleak.states import random_povm_factors
from qleak.exceptions import (
    DimensionMismatchError,
    InvalidProbabilityError,
    NumericalFailureError,
    UnsupportedDimensionError,
)
from helpers import (criterion5_fuzz, cyclic_orbit, fuzz_stream, orbit_leakage,
                     product_ensemble, pure_gram, random_density, random_ensemble,
                     random_pure)


def count_solves(monkeypatch):
    """Record every state stack that leakage._solve is called on."""
    calls = []
    original = leakage._solve

    def counted(states, eps, max_iters):
        calls.append(states)
        return original(states, eps, max_iters)

    monkeypatch.setattr(leakage, "_solve", counted)
    return calls


def ket0_plus_ensemble():
    return Ensemble(
        ["0", "+"],
        [DensityOperator.basis_state(2, 0),
         DensityOperator.from_pure([1, 1], normalize=True)],
    )


def trine_ensemble():
    return Ensemble(["0", "1", "2"], [
        DensityOperator.from_pure([np.cos(2 * np.pi * k / 3), np.sin(2 * np.pi * k / 3)])
        for k in range(3)])


def tetrahedral_ensemble():
    paulis = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    bloch = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3)
    return Ensemble(["0", "1", "2", "3"], [
        DensityOperator((np.eye(2) + np.tensordot(n, paulis, axes=1)) / 2) for n in bloch])


def flat_ensemble(dim=2, n=2):
    rho = DensityOperator.maximally_mixed(dim)
    return Ensemble([f"s{i}" for i in range(n)], [rho] * n)


class TestLeakageObjective:
    def test_index8_basis_measurement(self):
        objective, bits, winners = leakage_objective(
            encode_index(8), Povm.computational_basis(8))
        assert objective == pytest.approx(8.0, abs=1e-12)
        assert bits == pytest.approx(3.0, abs=1e-12)
        assert winners == [str(x) for x in range(1, 9)]

    def test_indistinguishable_gives_zero(self):
        e = flat_ensemble()
        objective, bits, winners = leakage_objective(e, random_povm(2, 4, seed=0))
        assert objective == pytest.approx(1.0, abs=1e-10)
        assert bits == pytest.approx(0.0, abs=1e-9)
        # tie on every outcome resolves to the first symbol
        assert winners == ["s0"] * 4

    def test_helstrom_measurement_oracle(self):
        # Projectors onto the +/- eigenspaces of rho0 - rho1, derived here
        # independently of the library's eigensolver wrapper.
        e = ket0_plus_ensemble()
        delta = e.states[0].matrix - e.states[1].matrix
        vals, vecs = np.linalg.eigh(delta)
        plus = vecs[:, vals > 0]
        p_plus = plus @ plus.conj().T
        povm = Povm([p_plus, np.eye(2) - p_plus])
        objective, bits, _ = leakage_objective(e, povm)
        assert objective == pytest.approx(1 + np.sqrt(2) / 2, abs=1e-12)
        assert bits == pytest.approx(math.log2(1 + np.sqrt(2) / 2), abs=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            leakage_objective(encode_index(2), Povm.computational_basis(3))

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_dense_reference(self, seed):
        rng = np.random.default_rng(seed)
        e = random_ensemble(3, 5, rng)
        fine = random_povm(3, 9, seed=seed)
        mixed = Povm([fine.elements[0] + fine.elements[1], *fine.elements[2:]])
        for povm in (fine, mixed):
            traces = np.einsum("xij,yji->xy", e.state_stack(),
                               np.stack(povm.elements)).real
            objective, _, winners = leakage_objective(e, povm)
            assert objective == pytest.approx(traces.max(axis=0).sum(), abs=1e-12)
            assert winners == [e.symbols[i] for i in traces.argmax(axis=0)]


class TestAscentStep:
    @pytest.mark.parametrize("dim", range(2, 9))
    @pytest.mark.parametrize("mu", [0.1, 0.5])
    def test_basis_povm_is_fixed_point(self, dim, mu):
        e = encode_index(dim)
        f = Povm.computational_basis(dim)
        out = ascent_step(e, f, mu)
        dev = max(np.max(np.abs(a - b)) for a, b in zip(out, f))
        assert dev <= 1e-10

    def test_vanishing_step_is_identity(self):
        rng = np.random.default_rng(5)
        e = random_ensemble(3, 4, rng)
        f = random_povm(3, 9, seed=1)
        mu = 1e-8
        out = ascent_step(e, f, mu)
        dev = max(np.max(np.abs(a - b)) for a, b in zip(out, f))
        assert dev <= 100 * mu

    def test_statistical_ascent(self):
        rng = np.random.default_rng(0)
        improved = 0
        trials = 1000
        for i in range(trials):
            e = Ensemble(["a", "b"],
                         [random_pure(2, rng), random_pure(2, rng)])
            f = random_povm(2, 4, seed=10_000 + i)
            before = leakage_objective(e, f)[0]
            after = leakage_objective(e, ascent_step(e, f, 0.1))[0]
            improved += after >= before
        assert improved >= 0.95 * trials

    @staticmethod
    def dense_step(ensemble, povm, mu):
        """Reference update on full matrices: W G_y^dag F_y G_y W."""
        states = ensemble.state_stack()
        elements = np.stack(povm.elements)
        traces = np.einsum("xij,yji->xy", states, elements).real
        picked = states[traces.argmax(axis=0)]
        drift = sum(r @ f for r, f in zip(picked, elements))
        growth = [np.eye(povm.dim) + mu * (r - drift) for r in picked]
        tilted = [g.conj().T @ f @ g for g, f in zip(growth, elements)]
        s = sum(tilted)
        vals, vecs = np.linalg.eigh(s)
        reg = WHITENING_REG * np.trace(s).real / povm.dim
        w = (vecs / np.sqrt(vals + reg)) @ vecs.conj().T
        return [w @ t @ w for t in tilted]

    @pytest.mark.parametrize("seed", range(3))
    def test_mixed_rank_matches_dense_update(self, seed):
        rng = np.random.default_rng(seed)
        e = random_ensemble(4, 5, rng)
        fine = random_povm(4, 16, seed=seed)
        cuts = [0, 2, 5, 7, 10, 13, 16]        # elements of rank 2 and 3
        coarse = Povm([sum(fine.elements[a:b]) for a, b in zip(cuts, cuts[1:])])
        assert {np.linalg.matrix_rank(f) for f in coarse} == {2, 3}
        out = ascent_step(e, coarse, 0.3)
        ref = self.dense_step(e, coarse, 0.3)
        assert max(np.max(np.abs(a - b)) for a, b in zip(out, ref)) <= 1e-12

    def test_full_rank_matches_dense_update(self):
        rng = np.random.default_rng(7)
        e = random_ensemble(3, 4, rng)
        halves = Povm([np.eye(3) / 2, np.eye(3) / 2])
        out = ascent_step(e, halves, 0.5)
        ref = self.dense_step(e, halves, 0.5)
        assert max(np.max(np.abs(a - b)) for a, b in zip(out, ref)) <= 1e-12

    @pytest.mark.parametrize("mu", [np.inf, 1e300, np.nan, 0.0, -0.1, 10.5, True, "0.1"])
    def test_step_is_checked_as_by_ascent_config(self, mu):
        # One check for both: a finite real in (0, 10], before any matmul.
        message = "^step size mu must be a finite real in \\(0, 10.0\\]"
        with pytest.raises(ValueError, match=message):
            AscentConfig(mu=mu)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                ascent_step(encode_index(2), random_povm(2, 4, 0), mu)

    def test_output_is_valid_povm(self):
        rng = np.random.default_rng(3)
        e = random_ensemble(4, 3, rng)
        out = ascent_step(e, random_povm(4, 16, seed=2), 0.3)
        # Povm construction already validates; re-check completeness here.
        assert np.max(np.abs(sum(out.elements) - np.eye(4))) <= 1e-8


class TestComputeLeakage:
    def test_index8_reaches_three_bits(self):
        report = compute_leakage(encode_index(8), AscentConfig(restarts=3, seed=0))
        assert report.leakage_bits == pytest.approx(3.0, abs=1e-3)
        assert all(report.converged_flags)

    def test_amplitude_encoding_value(self):
        report = compute_leakage(encode_amplitude_3bit(),
                                 AscentConfig(restarts=3, seed=0))
        assert report.leakage_bits == pytest.approx(1.9, abs=0.05)

    def test_single_symbol_zero(self):
        e = Ensemble(["only"], [DensityOperator.maximally_mixed(3)])
        report = compute_leakage(e, AscentConfig(restarts=2, seed=0))
        assert abs(report.leakage_bits) <= 1e-9

    def test_report_invariants(self):
        rng = np.random.default_rng(1)
        e = random_ensemble(3, 4, rng)
        report = compute_leakage(e, AscentConfig(restarts=4, seed=9))
        assert report.best_restart == 0
        assert report.leakage_bits <= report.ceiling_bits + 1e-6
        assert report.leakage_bits >= -1e-9
        assert len(report.traces) == 1
        assert report.optimal_povm.factors.shape == (4, 3, 3)

    @pytest.mark.parametrize("seed", range(3))
    def test_traces_monotone_under_backtracking(self, seed):
        rng = np.random.default_rng(seed)
        e = random_ensemble(2, 3, rng)
        report = compute_leakage(e, AscentConfig(restarts=2, seed=seed))
        for trace in report.traces:
            diffs = np.diff(trace.objectives)
            assert diffs.min() >= -1e-12

    def test_prior_invariance_bit_identical(self):
        cfg = AscentConfig(restarts=3, seed=5)
        e = encode_index(4)
        skew = e.with_priors([0.9, 0.05, 0.03, 0.02])
        assert compute_leakage(e, cfg).leakage_bits == \
            compute_leakage(skew, cfg).leakage_bits

    def test_unconverged_is_flagged_not_raised(self):
        report = compute_leakage(encode_amplitude_3bit(),
                                 AscentConfig(restarts=1, max_iters=3, seed=0))
        assert report.converged_flags == [False]

    @pytest.mark.parametrize("eps", [0.0, -1e-9, float("nan"), float("inf"), True, "1e-9"])
    def test_eps_must_be_finite_and_positive(self, eps):
        with pytest.raises(ValueError):
            AscentConfig(eps=eps)

    @pytest.mark.parametrize("field, value", [
        ("max_iters", 100.0), ("max_iters", True), ("restarts", 2.5),
        ("restarts", "3"), ("seed", 1.5), ("seed", False), ("seed", -1),
        ("mu", True), ("mu", "0.1"), ("eps", True), ("eps", np.True_),
    ])
    def test_integer_fields_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=field):
            AscentConfig(**{field: value})

    def test_numpy_integers_accepted(self):
        cfg = AscentConfig(max_iters=np.int64(5), restarts=np.int32(1), seed=np.uint8(3))
        plain = AscentConfig(max_iters=5, restarts=1, seed=3)
        e = ket0_plus_ensemble()
        assert compute_leakage(e, cfg).leakage_bits == compute_leakage(e, plain).leakage_bits

    def test_numpy_floats_accepted(self):
        cfg = AscentConfig(mu=np.float64(0.2), eps=np.float32(1e-9))
        assert (cfg.mu, cfg.eps) == (0.2, np.float32(1e-9))

    def test_ceiling_is_log2_dim(self):
        # Six symbols on a qubit: min(log2 6, log2 2) = 1 bit.
        rng = np.random.default_rng(4)
        e = Ensemble([f"s{i}" for i in range(6)],
                     [random_density(2, rng) for _ in range(6)])
        report = compute_leakage(e, AscentConfig(restarts=2, seed=0))
        assert report.ceiling_bits == 1.0
        assert report.leakage_bits <= 1.0 + 1e-6


class TestInteriorPoint:
    """compute_leakage is one primal-dual solve of the min-error
    discrimination SDP: its certified interval contains each exact value,
    is at most cfg.eps bits wide, and is never inverted."""

    @staticmethod
    def certified(ensemble, cfg, label):
        """The report, checked: at most 1e-9 bits wide, not stopped by the
        cap, and the upper end before certify's max not below the lower end
        beyond roundoff."""
        report = compute_leakage(ensemble, cfg)
        states = ensemble.state_stack()
        lower = certify(states, report.optimal_povm.factors, report.dual)[0]
        upper = leakage._dual_upper(states, report.dual)[0]
        assert report.traces[0].stop_reason != "max_iters", label
        assert report.gap_bits <= 1e-9, label
        assert upper >= lower * (1.0 - leakage.INVERSION_RTOL), label
        return report

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_index_interval_contains_log2_dim(self, dim):
        cfg = AscentConfig()
        report = self.certified(encode_index(dim), cfg, dim)
        assert report.leakage_bits <= math.log2(dim) + 1e-12
        assert math.log2(dim) <= report.upper_bound_bits + 1e-12
        assert report.gap_bits <= cfg.eps and report.converged_flags == [True]

    def test_amplitude3_interval_contains_the_orbit_value(self):
        cfg, ensemble = AscentConfig(), encode_amplitude_3bit()
        exact = orbit_leakage(ensemble)
        assert exact == pytest.approx(1.899968626953, abs=1e-12)
        report = self.certified(ensemble, cfg, "amplitude3")
        assert report.leakage_bits <= exact <= report.upper_bound_bits
        assert report.gap_bits <= cfg.eps and report.converged_flags == [True]

    def test_criterion5_fuzz_stream_is_certified_to_1e_9_bits(self):
        for i, ensemble, cfg in fuzz_stream():
            self.certified(ensemble, cfg, f"fuzz #{i}")

    def test_one_element_per_symbol(self):
        ensemble = encode_index(4)
        report = compute_leakage(ensemble)
        assert report.optimal_povm.factors.shape == (4, 4, 4)
        # Element x guesses symbol x.
        assert leakage_objective(ensemble, report.optimal_povm)[2] == list(ensemble.symbols)

    def test_trace_is_monotone_with_primal_steps(self):
        report = compute_leakage(random_ensemble(3, 4, np.random.default_rng(6)))
        (trace,) = report.traces
        assert trace.step_sizes[0] == 0.0
        assert all(0.0 < step <= leakage.STEP_FRACTION for step in trace.step_sizes[1:])
        assert np.diff(trace.objectives).min() >= 0.0
        assert leakage._bits(trace.objectives[-1]) == report.leakage_bits

    def test_mu_restarts_and_seed_do_not_change_a_solve(self):
        ensemble = random_ensemble(3, 4, np.random.default_rng(2))
        base = compute_leakage(ensemble, AscentConfig())
        for cfg in (AscentConfig(mu=0.1), AscentConfig(restarts=3), AscentConfig(seed=7)):
            other = compute_leakage(ensemble, cfg)
            assert other.traces == base.traces
            assert np.array_equal(other.optimal_povm.factors, base.optimal_povm.factors)
            assert np.array_equal(other.dual, base.dual)

    def test_cap_stops_with_max_iters(self):
        report = compute_leakage(encode_amplitude_3bit(), AscentConfig(max_iters=3))
        (trace,) = report.traces
        assert trace.stop_reason == "max_iters" and not trace.converged
        assert trace.iterations == [0, 1, 2, 3]
        assert report.leakage_bits <= 1.899968626953 <= report.upper_bound_bits

    def test_failed_step_keeps_the_last_certified_iterate(self, monkeypatch):
        original, steps = leakage._interior_step, []

        def fails_third(*args):
            steps.append(1)
            if len(steps) == 3:
                raise np.linalg.LinAlgError("Matrix is not positive definite")
            return original(*args)

        monkeypatch.setattr(leakage, "_interior_step", fails_third)
        report = compute_leakage(encode_amplitude_3bit())
        (trace,) = report.traces
        assert trace.stop_reason == "stall" and trace.iterations == [0, 1, 2]
        assert report.leakage_bits <= 1.899968626953 <= report.upper_bound_bits
        lower = certify(encode_amplitude_3bit().state_stack(), report.optimal_povm.factors,
                        report.dual)[0]
        assert leakage._bits(lower) == report.leakage_bits

    def test_uncertified_start_raises(self, monkeypatch):
        def refuse(*args):
            raise NumericalFailureError("completeness defect 1.000e-06 exceeds 1e-08")

        monkeypatch.setattr(leakage, "_certificate", refuse)
        with pytest.raises(NumericalFailureError, match="completeness"):
            compute_leakage(encode_index(2))

    @pytest.mark.parametrize("shift, raises", [(1e-13, False), (1e-6, True)])
    def test_inverted_interval_raises(self, monkeypatch, shift, raises):
        # Upper ends lowered by shift (relative) invert index4's interval
        # once the solve converges; within INVERSION_RTOL it is roundoff.
        original = leakage._dual_upper

        def lowered(states, dual):
            upper, point = original(states, dual)
            return upper * (1.0 - shift), point

        monkeypatch.setattr(leakage, "_dual_upper", lowered)
        if raises:
            with pytest.raises(NumericalFailureError, match="inverted"):
                compute_leakage(encode_index(4))
        else:
            assert compute_leakage(encode_index(4)).traces[0].stop_reason == "gap"


class TestBareStack:
    """_solve takes any PSD stack S (|X|, d, d), of any traces and with zero
    rows, and returns certified ends of max sum_x tr(S_x E_x) in objective
    units."""

    EPS, MAX_ITERS = 1e-9, 10000

    def test_weighted_stack_is_certified_by_its_own_povm_and_dual(self):
        # Guessing Z = f(X) is min-error discrimination of the weighted
        # states S_z = sum_{x: f(x) = z} p(x) rho_x.
        rng = np.random.default_rng(25)
        ensemble = random_ensemble(3, 6, rng)
        priors = rng.dirichlet(np.ones(ensemble.size))
        f = rng.integers(0, 3, ensemble.size)
        stack = np.zeros((3, 3, 3), dtype=np.complex128)
        np.add.at(stack, f, priors[:, None, None] * ensemble.state_stack())
        lower, upper, povm, dual, trace = leakage._solve(stack, self.EPS, self.MAX_ITERS)
        assert trace.stop_reason == "gap" and upper <= lower * 2.0 ** self.EPS
        low, high, _ = certify(stack, povm.factors, dual)
        assert low == lower
        assert high == pytest.approx(upper, rel=1e-12, abs=0.0)
        # A guess of the likeliest z, or any POVM, is no better than certain.
        masses = np.bincount(f, weights=priors, minlength=3)
        assert masses.max() <= upper and lower <= 1.0 + 1e-12

    def test_halved_index4_with_a_zero_row_brackets_two(self):
        # A zero state leaves Z_x = Y, so its Cholesky factor stays defined.
        stack = np.concatenate([encode_index(4).state_stack() / 2.0,
                                np.zeros((1, 4, 4))])
        lower, upper, povm, _, trace = leakage._solve(stack, self.EPS, self.MAX_ITERS)
        assert trace.stop_reason == "gap"
        assert lower <= 2.0 + 1e-12 and 2.0 <= upper + 1e-12
        assert povm.factors.shape[0] == 5

    def test_all_zero_stack_stops_by_the_gap_at_zero(self):
        # Both ends are 0, so a stop test on log2(upper / lower) would divide
        # by zero; upper <= lower 2^eps holds at once.
        lower, upper, _, _, trace = leakage._solve(
            np.zeros((3, 4, 4), dtype=np.complex128), self.EPS, self.MAX_ITERS)
        assert lower == upper == 0.0
        assert trace.stop_reason == "gap" and trace.iterations == [0]

    def test_scaled_stack_scales_its_ends(self):
        scale = 1.0 / 8.0
        stack = random_ensemble(3, 4, np.random.default_rng(7)).state_stack()
        lower, upper, *_ = leakage._solve(stack, self.EPS, self.MAX_ITERS)
        low, high, *_ = leakage._solve(scale * stack, self.EPS, self.MAX_ITERS)
        # Both intervals hold the optimum, so each end moves by at most a gap.
        gap = max(upper - lower, (high - low) / scale)
        assert abs(low - scale * lower) <= scale * gap
        assert abs(high - scale * upper) <= scale * gap


class TestStackedRestarts:
    """restarts is kept for the command line and changes no solve: a solve
    at any restart count and seed computes exactly what a one-restart solve
    at each seed it would have stacked computes."""

    CASES = {
        "index8": (lambda: encode_index(8), AscentConfig(restarts=3, seed=0)),
        # The caps lie above the iterations these solves take.
        "capped qubits": (lambda: random_ensemble(2, 4, np.random.default_rng(4)),
                          AscentConfig(restarts=4, max_iters=150, eps=1e-10, seed=0)),
        "capped qutrits": (lambda: random_ensemble(3, 3, np.random.default_rng(0)),
                           AscentConfig(restarts=3, max_iters=60, seed=2)),
        "index4 backtracking": (lambda: encode_index(4),
                                AscentConfig(mu=10.0, restarts=3, seed=0)),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_restart_matches_a_solo_solve(self, case):
        make, cfg = self.CASES[case]
        ensemble = make()
        report = compute_leakage(ensemble, cfg)
        assert len(report.traces) == 1 and report.traces[0].converged
        for i in range(cfg.restarts):
            alone = compute_leakage(
                ensemble, dataclasses.replace(cfg, restarts=1, seed=cfg.seed + i))
            assert alone.traces[0].rows() == report.traces[0].rows()
            assert alone.traces == report.traces   # stop reason, step sizes
            assert np.array_equal(alone.optimal_povm.factors, report.optimal_povm.factors)
            assert np.array_equal(alone.dual, report.dual)

    def test_capped_case_mixes_stop_reasons(self):
        # The capped-qubits solve closes its gap under its own cap and stops
        # by the cap when the cap is 3.
        make, cfg = self.CASES["capped qubits"]
        reasons = [t.stop_reason for max_iters in (cfg.max_iters, 3)
                   for t in compute_leakage(
                       make(), dataclasses.replace(cfg, max_iters=max_iters)).traces]
        assert reasons == ["gap", "max_iters"]

    def test_stop_reasons(self):
        converged = compute_leakage(encode_index(4), AscentConfig(restarts=2, seed=0))
        assert [t.stop_reason for t in converged.traces] == ["gap"]
        assert converged.converged_flags == [True]
        capped = compute_leakage(encode_amplitude_3bit(),
                                 AscentConfig(restarts=2, max_iters=3, seed=0))
        assert [t.stop_reason for t in capped.traces] == ["max_iters"]
        assert capped.converged_flags == [False]


class TestDefaultStep:
    """The step mu no longer changes a solve: on the builtins the default
    0.7 loses no value and widens no certified interval against step 0.1 or
    the former default 0.5, at seeds 0, 10 and 20."""

    @staticmethod
    def assert_default_loses_nothing(name, step):
        ensemble = resolve_ensemble(f"builtin:{name}")[0]
        for seed in (0, 10, 20):
            report = compute_leakage(ensemble, AscentConfig(seed=seed))
            other = compute_leakage(ensemble, AscentConfig(mu=step, seed=seed))
            assert report.leakage_bits >= other.leakage_bits - 1e-12
            assert report.gap_bits <= other.gap_bits

    @pytest.mark.parametrize("name", ["index2", "index4", "index8", "amplitude3"])
    def test_builtins_lose_nothing_against_step_0_1(self, name):
        self.assert_default_loses_nothing(name, 0.1)

    @pytest.mark.parametrize("name", ["index2", "index4", "index8", "amplitude3"])
    def test_builtins_lose_nothing_against_step_0_5(self, name):
        self.assert_default_loses_nothing(name, 0.5)


class TestTwoStateLeakage:
    def test_identical_states(self):
        rho = DensityOperator.maximally_mixed(2)
        assert two_state_leakage(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_pure(self):
        assert two_state_leakage(DensityOperator.basis_state(2, 0),
                                 DensityOperator.basis_state(2, 1)) \
            == pytest.approx(1.0, abs=1e-12)

    def test_zero_vs_plus(self):
        e = ket0_plus_ensemble()
        assert two_state_leakage(e.states[0], e.states[1]) \
            == pytest.approx(math.log2(1 + np.sqrt(2) / 2), abs=1e-12)

    def test_matches_ascent_on_random_pairs(self):
        rng = np.random.default_rng(21)
        cfg = AscentConfig(restarts=4, seed=3)
        for _ in range(10):
            r0, r1 = random_pure(2, rng), random_density(2, rng)
            e = Ensemble(["a", "b"], [r0, r1])
            exact = two_state_leakage(r0, r1)
            assert compute_leakage(e, cfg).leakage_bits == pytest.approx(exact, abs=1e-3)


class TestBruteForce:
    def test_orthogonal_qubits_exact_at_pole(self):
        assert brute_force_leakage(encode_index(2), 16, samples=1000) \
            == pytest.approx(1.0, abs=1e-12)

    def test_matches_closed_form(self):
        e = ket0_plus_ensemble()
        exact = two_state_leakage(e.states[0], e.states[1])
        assert brute_force_leakage(e, 256) == pytest.approx(exact, abs=2e-3)

    def test_indistinguishable_zero(self):
        assert brute_force_leakage(flat_ensemble(), 16, samples=1000) \
            == pytest.approx(0.0, abs=1e-9)

    def test_rejects_larger_dims(self):
        with pytest.raises(UnsupportedDimensionError):
            brute_force_leakage(encode_index(3), 64)

    def test_rejects_coarse_grid(self):
        with pytest.raises(ValueError):
            brute_force_leakage(encode_index(2), 8)

    @pytest.mark.parametrize("name, kwargs", [
        ("samples", {"samples": -1}), ("samples", {"samples": 2.5}),
        ("samples", {"samples": True}), ("grid_resolution", {"grid_resolution": 16.5}),
        ("grid_resolution", {"grid_resolution": False}),
    ])
    def test_counts_must_be_integers(self, name, kwargs):
        with pytest.raises(ValueError, match=name):
            brute_force_leakage(encode_index(2), **{"grid_resolution": 16, **kwargs})

    def test_zero_samples_searches_the_grid(self):
        assert brute_force_leakage(encode_index(2), 16, samples=0) == 1.0

    # Both ensembles leak exactly 1 bit, reached only by their 3- and
    # 4-outcome POVMs (the best projective measurement gives 0.8999 and
    # 0.8612 bits), so these cases test the sampled search.
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("ensemble", [trine_ensemble, tetrahedral_ensemble],
                             ids=["trine", "tetrahedral"])
    def test_sampled_povms_beat_projective(self, ensemble, seed):
        assert 0.98 <= brute_force_leakage(ensemble(), 64, seed=seed) <= 1.0 + 1e-12

    def test_rank_deficient_draws_skipped(self, monkeypatch):
        # Zero and parallel columns in the first draws of each outcome count
        # are skipped without a warning; the other draws still count.
        draw = np.random.default_rng(0).standard_normal

        class Degenerate:
            def standard_normal(self, shape):
                g = draw(shape)
                g[0] = 0.0
                g[1, :, 1] = 2.0 * g[1, :, 0]
                return g

        monkeypatch.setattr(np.random, "default_rng", lambda seed: Degenerate())
        # above the best projective value 0.8999 bits, so sampled draws count
        assert 0.9 < brute_force_leakage(trine_ensemble(), 16, samples=1000) <= 1.0 + 1e-12


class TestOrbitOracle:
    """Geometrically uniform ensembles, whose leakage has a closed form. The
    ascent's value is that of a feasible POVM, so it may approach the exact
    value from below but never exceed it."""

    def test_amplitude3_closed_form(self):
        # amplitude3 is the Z_2^3 orbit of one state; its Gram eigenvalues
        # are 4, 4/3 (three times) and 0 (four times).
        exact = orbit_leakage(encode_amplitude_3bit())
        assert exact == pytest.approx(2 * math.log2(1 + math.sqrt(3)) - 1, abs=1e-12)
        assert exact == pytest.approx(1.8999686269529916, abs=1e-12)
        ascent = compute_leakage(encode_amplitude_3bit(),
                                 AscentConfig(restarts=3, seed=0)).leakage_bits
        assert exact - 1e-3 <= ascent <= exact + 1e-9

    def test_trine_is_one_bit(self):
        assert orbit_leakage(trine_ensemble()) == pytest.approx(1.0, abs=1e-12)
        # The sampled search is coarse, as in TestBruteForce, but a lower bound.
        assert 0.98 <= brute_force_leakage(trine_ensemble(), 64) <= 1.0 + 1e-9
        ascent = compute_leakage(trine_ensemble(),
                                 AscentConfig(restarts=2, seed=0)).leakage_bits
        assert 1.0 - 1e-3 <= ascent <= 1.0 + 1e-9

    @pytest.mark.parametrize("dim, n_symbols", [(4, 6), (8, 12)])
    def test_cyclic_orbit_reached(self, dim, n_symbols):
        ensemble = cyclic_orbit(dim, n_symbols, np.random.default_rng(dim))
        exact = orbit_leakage(ensemble)
        assert math.log2(1 + 1e-3) < exact < math.log2(min(dim, n_symbols))
        ascent = compute_leakage(ensemble, AscentConfig(restarts=2, seed=0)).leakage_bits
        assert exact - 1e-3 <= ascent <= exact + 1e-9

    def test_cyclic_orbit_d16_never_exceeded(self):
        ensemble = cyclic_orbit(16, 24, np.random.default_rng(16))
        report = compute_leakage(ensemble, AscentConfig(restarts=1, max_iters=200, seed=0))
        assert report.leakage_bits <= orbit_leakage(ensemble) + 1e-9

    @pytest.mark.parametrize("copies, exact", [
        (1, 1.899968626953), (2, 2.654457145409), (3, 2.890319939597),
        (4, 2.954885606207)])
    def test_amplitude3_copies(self, copies, exact):
        # n copies of amplitude3 form an orbit in dimension 8^n whose Gram
        # matrix is the entrywise power G^n, so no 8^n-dimensional state is built.
        gram = pure_gram(encode_amplitude_3bit())
        assert orbit_leakage(gram ** copies) == pytest.approx(exact, abs=1e-12)

    def test_gram_route_matches_the_dense_two_copies(self):
        amplitude3 = encode_amplitude_3bit()
        two_copies = Ensemble(amplitude3.symbols, [DensityOperator(np.kron(rho, rho))
                                                   for rho in amplitude3.state_stack()])
        assert orbit_leakage(two_copies) == pytest.approx(
            orbit_leakage(pure_gram(amplitude3) ** 2), abs=1e-12)


class TestProductOracle:
    """Q({rho_a (x) sigma_b}) = Q({rho_a}) + Q({sigma_b}), so the certified
    interval of a product must overlap the sum of its factors' intervals."""

    @pytest.mark.parametrize("dims, sizes, seed", [
        ((2, 2), (2, 3), 0), ((2, 2), (3, 3), 1), ((2, 4), (2, 3), 2), ((2, 4), (3, 3), 3),
        ((4, 4), (3, 3), 4)],
        ids=["2x2 (2, 3)", "2x2 (3, 3)", "2x4 (2, 3)", "2x4 (3, 3)", "4x4 (3, 3)"])
    def test_interval_overlaps_the_sum_of_the_factors(self, dims, sizes, seed):
        rng = np.random.default_rng(seed)
        first, second = (random_ensemble(d, n, rng) for d, n in zip(dims, sizes))
        cfg = AscentConfig(restarts=2, seed=0)
        a, b = compute_leakage(first, cfg), compute_leakage(second, cfg)
        product = compute_leakage(product_ensemble(first, second), cfg)
        assert product.optimal_povm.dim == dims[0] * dims[1]
        lower = max(product.leakage_bits, a.leakage_bits + b.leakage_bits)
        upper = min(product.upper_bound_bits, a.upper_bound_bits + b.upper_bound_bits)
        assert lower <= upper + 1e-12
        # Each interval is narrow, so the overlap is a real check.
        assert product.gap_bits < 1e-3 and a.gap_bits + b.gap_bits < 1e-3

class TestCertificate:
    """Every report brackets the leakage: leakage_bits is a feasible POVM's
    value and upper_bound_bits is log2 tr Y for a dual point Y >= rho^x."""

    @pytest.mark.parametrize("name, ensemble, cfg", [
        ("amplitude3", encode_amplitude_3bit(), AscentConfig(restarts=3, seed=0)),
        ("trine", trine_ensemble(), AscentConfig(restarts=2, seed=0)),
        ("cyclic (4, 6)", cyclic_orbit(4, 6, np.random.default_rng(4)),
         AscentConfig(restarts=2, seed=0)),
        ("cyclic (8, 12)", cyclic_orbit(8, 12, np.random.default_rng(8)),
         AscentConfig(restarts=2, seed=0)),
    ], ids=lambda v: v if isinstance(v, str) else "")
    def test_brackets_the_orbit_oracle(self, name, ensemble, cfg):
        report = compute_leakage(ensemble, cfg)
        exact = orbit_leakage(ensemble)
        assert report.leakage_bits <= exact + 1e-12, name
        assert exact <= report.upper_bound_bits + 1e-12, name
        assert report.gap_bits == report.upper_bound_bits - report.leakage_bits >= 0.0

    def test_brackets_two_state_leakage(self):
        rng = np.random.default_rng(5)
        for i in range(20):
            r0, r1 = random_pure(2, rng), random_pure(2, rng)
            report = compute_leakage(Ensemble(["a", "b"], [r0, r1]),
                                     AscentConfig(restarts=2, seed=i))
            exact = two_state_leakage(r0, r1)
            assert report.leakage_bits <= exact + 1e-12 <= report.upper_bound_bits + 2e-12

    @pytest.mark.parametrize("dim", [2, 3, 4, 8])
    def test_index_gap_is_below_the_transfer_tolerance(self, dim):
        report = compute_leakage(encode_index(dim), AscentConfig(restarts=2, seed=0))
        assert report.leakage_bits <= math.log2(dim) + 1e-12 <= report.upper_bound_bits + 2e-12
        assert report.gap_bits < leakage.TRANSFER_GAP_BITS

    def test_dual_dominates_every_state(self):
        ensemble = random_ensemble(3, 4, np.random.default_rng(11))
        report = compute_leakage(ensemble, AscentConfig(restarts=2, seed=0))
        assert report.dual.shape == (3, 3)
        assert np.array_equal(report.dual, report.dual.conj().T)
        slack = np.linalg.eigvalsh(report.dual - ensemble.state_stack())[:, 0]
        assert slack.min() >= -1e-12
        assert math.log2(np.trace(report.dual).real) == pytest.approx(
            report.upper_bound_bits, abs=1e-12)

    @pytest.mark.parametrize("ensemble", [
        encode_index(4), encode_amplitude_3bit(),
        random_ensemble(3, 4, np.random.default_rng(11))], ids=["index4", "amplitude3", "random"])
    def test_lower_end_is_the_best_trace_objective(self, ensemble):
        report = compute_leakage(ensemble, AscentConfig(restarts=2, seed=0))
        lower, upper, _ = certify(ensemble.state_stack(), report.optimal_povm.factors,
                                  report.dual)
        assert lower == report.traces[report.best_restart].objectives[-1]
        assert math.log2(upper) == pytest.approx(report.upper_bound_bits, abs=1e-15)

    def test_over_large_dual_is_shifted_down(self):
        # Y = 2 I dominates both basis states with room 1: the one-sided
        # shift kept tr Y = 4 (2 bits); the two-sided one lowers it to I.
        states = encode_index(2).state_stack()
        lower, upper, point = certify(states, Povm.computational_basis(2).factors,
                                      2.0 * np.eye(2))
        assert (lower, upper) == (2.0, 2.0) and math.log2(upper) == 1.0
        assert np.array_equal(point, np.eye(2))


def widen_carried_dual_ends(monkeypatch):
    """Patch leakage._dual_upper so that every end formed outside a solve,
    each carried one, is 8: 3 bits, which settles no channel of an ensemble
    of dimension at most 4. A call on a grid gets an 8 per point; the solves
    keep their own ends."""
    original_upper, original_solve, solving = leakage._dual_upper, leakage._solve, []

    def widened(states, dual):
        upper, point = original_upper(states, dual)
        return (upper if solving else np.full(np.shape(upper), 8.0)), point

    def solve(*args, **kwargs):
        solving.append(True)
        try:
            return original_solve(*args, **kwargs)
        finally:
            solving.pop()

    monkeypatch.setattr(leakage, "_dual_upper", widened)
    monkeypatch.setattr(leakage, "_solve", solve)


def index4_exact(kind, p):
    """index4's leakage under depolarizing noise: log2(p + 4 (1 - p)) for
    global noise; per-qubit noise keeps the states diagonal and flips each
    bit with probability p/2, which leaves 2 + 2 log2(1 - p/2)."""
    if kind == "global":
        return math.log2(p + 4.0 * (1.0 - p))
    return 2.0 + 2.0 * math.log2(1.0 - p / 2.0)


def carried_interval(report, channel, mapped):
    """certify's (lower, upper) on ``mapped``, the solved ensemble mapped
    through ``channel``: the report's POVM and its dual point Y carried to
    N(Y)."""
    return certify(mapped.state_stack(), report.optimal_povm.factors,
                   channel.apply(report.dual))[:2]


class TestTransfer:
    """A report carried through a channel brackets the mapped ensemble's
    leakage without a new solve."""

    @pytest.mark.parametrize("kind", ["global", "local"])
    def test_brackets_index4_under_depolarizing_noise(self, kind):
        ensemble = encode_index(4)
        report = compute_leakage(ensemble, AscentConfig(restarts=2, seed=0))
        for p in np.linspace(0.0, 1.0, 11):
            channel = depolarizing(kind, float(p), 4)
            lower, upper = carried_interval(report, channel, ensemble.transform(channel))
            exact = index4_exact(kind, float(p))
            assert leakage._bits(lower) <= exact + 1e-12 <= leakage._bits(upper) + 2e-12
            assert leakage._bits(upper) - leakage._bits(lower) <= leakage.TRANSFER_GAP_BITS

    @pytest.mark.parametrize("seed", range(3))
    def test_upper_bound_holds_under_a_random_channel(self, seed):
        rng = np.random.default_rng(seed)
        ensemble = random_ensemble(3, 4, rng)
        cfg = AscentConfig(restarts=3, seed=seed)
        report = compute_leakage(ensemble, cfg)
        channel = random_kraus_channel(3, 3, seed + 50)
        mapped = ensemble.transform(channel)
        lower, upper = carried_interval(report, channel, mapped)
        direct = compute_leakage(mapped, cfg).leakage_bits
        assert direct <= leakage._bits(upper) + 1e-12
        assert leakage._bits(upper) <= report.upper_bound_bits + 1e-9
        assert lower <= upper

    @pytest.mark.parametrize("kind", ["global", "local"])
    def test_noise_curve_matches_a_solve_at_every_point(self, monkeypatch, kind):
        ensemble, cfg = encode_index(4), AscentConfig(restarts=2, seed=0)
        report = compute_leakage(ensemble, cfg)
        grid = np.linspace(0.0, 1.0, 11)
        calls = count_solves(monkeypatch)
        rows, solved = leakage.noise_curve(ensemble, kind, grid, cfg, report)
        assert calls == [] and solved == [] and len(rows) == len(grid)
        qubits = 2 if kind == "local" else 1
        for p, (at, carried, closed_form) in zip(grid.tolist(), rows):
            solve = compute_leakage(ensemble.transform(depolarizing(kind, p, 4)), cfg)
            assert at == p and carried == pytest.approx(solve.leakage_bits, abs=1e-6)
            assert closed_form == noisy_leakage_local_bound(report.leakage_bits, p, qubits)

    def test_local_noise_on_a_non_power_of_two_raises_before_any_solve(self, monkeypatch):
        ensemble, cfg = encode_index(3), AscentConfig(restarts=2, seed=0)
        report = compute_leakage(ensemble, cfg)
        calls = count_solves(monkeypatch)
        with pytest.raises(UnsupportedDimensionError):
            leakage.noise_curve(ensemble, "local", (0.0, 0.5, 1.0), cfg, report)
        assert calls == []

    @pytest.mark.parametrize("kind", ["global", "local"])
    def test_invalid_probability_raises_before_any_solve(self, monkeypatch, kind):
        # Widened carried ends would make p = 0.5 need a solve; the bad p
        # after it still raises first.
        widen_carried_dual_ends(monkeypatch)
        ensemble, cfg = encode_index(4), AscentConfig(restarts=2, seed=0)
        report = compute_leakage(ensemble, cfg)
        calls = count_solves(monkeypatch)
        with pytest.raises(InvalidProbabilityError):
            leakage.noise_curve(ensemble, kind, (0.5, 1.5), cfg, report)
        assert calls == []

    def test_noise_path_builds_no_kraus_channel(self, monkeypatch):
        # Depolarizing noise acts in closed form: with KrausChannel
        # unbuildable, both noise kinds still carry index4's whole grid, each
        # row equal to certify on that point's channel alone.
        def refuse(self, kraus_ops):
            raise AssertionError("a Kraus channel was built")

        monkeypatch.setattr(states.KrausChannel, "__init__", refuse)
        ensemble, cfg = encode_index(4), AscentConfig(restarts=2, seed=0)
        report = compute_leakage(ensemble, cfg)
        grid = np.linspace(0.0, 1.0, 11).tolist()
        for kind in ("global", "local"):
            rows, solved = leakage.noise_curve(ensemble, kind, grid, cfg, report)
            assert solved == [] and [row[0] for row in rows] == grid
            for p, carried, _ in rows[1:]:
                channel = depolarizing(kind, p, 4)
                lower = certify(ensemble.transform(channel).state_stack(),
                                report.optimal_povm.factors, channel.apply(report.dual))[0]
                assert abs(carried - leakage._bits(lower)) <= 1e-14
        checks = verify_properties(ensemble, cfg, checks=("local_noise_bound",
                                                          "global_noise_exactness")).checks
        assert [c.passed for c in checks] == [True, True]
        assert all(c.detail.endswith("solved p []") for c in checks)


class TestMutualInformation:
    def test_independent_gives_zero(self):
        assert mutual_information(flat_ensemble(), random_povm(2, 4, seed=1)) \
            == pytest.approx(0.0, abs=1e-12)

    def test_noiseless_binary_channel(self):
        assert mutual_information(encode_index(2), Povm.computational_basis(2)) \
            == pytest.approx(1.0, abs=1e-12)

    def test_depolarized_index4_oracle(self):
        # Joint distribution computed here from first principles: measuring
        # (p/4) I + (1-p) |x><x| in the computational basis gives
        # P[y|x] = p/4 + (1-p) delta_{xy} under a uniform prior.
        p = 0.5
        cond = np.full((4, 4), p / 4) + (1 - p) * np.eye(4)
        joint = cond / 4
        p_y = joint.sum(axis=0)
        expected = sum(
            joint[x, y] * math.log2(joint[x, y] / (0.25 * p_y[y]))
            for x in range(4) for y in range(4)
        )
        e = encode_index(4).transform(depolarizing_global(p, 4))
        got = mutual_information(e, Povm.computational_basis(4))
        assert got == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_dominated_by_objective(self, seed):
        rng = np.random.default_rng(seed)
        e = random_ensemble(rng.integers(2, 5), rng.integers(2, 6), rng)
        f = random_povm(e.dim, e.dim ** 2, seed=seed + 50)
        _, bits, _ = leakage_objective(e, f)
        assert mutual_information(e, f) <= bits + 1e-9


class TestNoiseFormulas:
    def test_global_endpoints(self):
        assert noisy_leakage_global(3.0, 0.0) == 3.0
        assert noisy_leakage_global(3.0, 1.0) == 0.0

    def test_global_half(self):
        assert noisy_leakage_global(3.0, 0.5) == pytest.approx(math.log2(4.5), abs=1e-12)

    def test_local_reduces_to_global_at_one_qubit(self):
        for p in np.linspace(0, 1, 11):
            assert noisy_leakage_local_bound(2.5, p, 1) \
                == pytest.approx(noisy_leakage_global(2.5, p), abs=1e-12)

    def test_local_values(self):
        assert noisy_leakage_local_bound(3.0, 1.0, 3) == pytest.approx(0.0, abs=1e-12)
        assert noisy_leakage_local_bound(3.0, 0.5, 2) \
            == pytest.approx(math.log2(6.25), abs=1e-12)

    def test_global_strictly_decreasing(self):
        grid = np.linspace(0.0, 1.0, 101)
        values = [noisy_leakage_global(3.0, p) for p in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_invalid_probability(self):
        with pytest.raises(InvalidProbabilityError):
            noisy_leakage_global(1.0, -0.1)
        with pytest.raises(InvalidProbabilityError):
            noisy_leakage_local_bound(1.0, 1.2, 2)


class TestDataProcessing:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_channels_cannot_increase_leakage(self, seed):
        rng = np.random.default_rng(seed)
        e = random_ensemble(2, 3, rng, pure=True)
        channel = random_kraus_channel(2, 3, seed + 77)
        cfg = AscentConfig(restarts=20, seed=seed)
        before = compute_leakage(e, cfg).leakage_bits
        after = compute_leakage(e.transform(channel), cfg).leakage_bits
        assert after <= before + 1e-3


class TestVerifyProperties:
    def test_index4_identity_channel_all_pass(self):
        from qleak import KrausChannel
        cfg = AscentConfig(restarts=4, max_iters=3000, seed=1)
        report = verify_properties(encode_index(4), cfg,
                                   channel=KrausChannel([np.eye(4)]),
                                   noise_grid=(0.0, 0.3, 1.0))
        assert report.all_passed
        by_name = {c.name: c for c in report.checks}
        # identity channel: mapped ensemble is bit-identical, so the
        # data-processing comparison holds with equality
        assert by_name["data_processing"].passed

    def test_index4_depolarizing_matches_formula(self):
        cfg = AscentConfig(restarts=4, max_iters=3000, seed=2)
        report = verify_properties(
            encode_index(4), cfg, channel=depolarizing_global(0.3, 4),
            noise_grid=(0.3,))
        assert report.all_passed

    def test_indistinguishable_ensemble(self):
        cfg = AscentConfig(restarts=2, max_iters=500, seed=3)
        report = verify_properties(flat_ensemble(), cfg, noise_grid=(0.5,))
        assert report.all_passed
        by_name = {c.name: c for c in report.checks}
        assert by_name["independence_iff_zero"].passed

    def test_nearly_flat_ensemble_passes_independence(self):
        # Distinguishable by 1e-7: the optimized leakage is nonzero and
        # lies within 1e-10 bits of the exact pairwise value 1.44e-7.
        e = Ensemble(["a", "b"], [DensityOperator.maximally_mixed(2),
                                  DensityOperator(np.diag([0.5 + 1e-7, 0.5 - 1e-7]))])
        report = verify_properties(e, AscentConfig(seed=0),
                                   checks=("independence_iff_zero",))
        assert report.all_passed

    def test_nan_mutual_information_fails_dominance(self, monkeypatch):
        monkeypatch.setattr(leakage, "_mutual_information",
                            lambda priors, probs: np.full(len(probs), np.nan))
        report = verify_properties(encode_index(2), AscentConfig(restarts=2, seed=0),
                                   checks=("povm_dominance",))
        (check,) = report.checks
        assert not check.passed and "nan" in check.detail

    @pytest.mark.parametrize("index", [None, 1])
    def test_stacked_probes_match_the_one_povm_scores(self, index):
        # index4, or criterion-5 fuzz #index with its config.
        ensemble, cfg = ((encode_index(4), AscentConfig(restarts=2, seed=0))
                         if index is None else criterion5_fuzz(index))
        probes = random_povm_factors(ensemble.dim, ensemble.dim ** 2,
                                     leakage.DOMINANCE_PROBES, cfg.seed + 1000)
        info, bits = leakage._probe_scores(ensemble, probes)
        assert info.shape == bits.shape == (leakage.DOMINANCE_PROBES,)
        for probe, mi, objective_bits in zip(probes, info, bits):
            povm = Povm.from_factors(probe)
            assert abs(mi - mutual_information(ensemble, povm)) <= 1e-12
            assert abs(objective_bits - leakage_objective(ensemble, povm)[1]) <= 1e-12
        (check,) = verify_properties(ensemble, cfg, checks=("povm_dominance",)).checks
        optimum = compute_leakage(ensemble, cfg).optimal_povm
        worst = max(mutual_information(ensemble, optimum)
                    - leakage_objective(ensemble, optimum)[1], np.max(info - bits))
        assert check.passed
        assert check.detail == f"max I(X;Y) - log2(objective) = {worst:.3e} over 101 POVMs"

    def test_nan_in_stacked_mutual_information_fails_dominance(self, monkeypatch):
        original, blocks = leakage._mutual_information, []

        def one_nan(priors, probs):
            values = original(priors, probs)
            blocks.append(len(values))
            if len(blocks) == 4:
                values[7] = np.nan
            return values

        monkeypatch.setattr(leakage, "_mutual_information", one_nan)
        (check,) = verify_properties(encode_index(2), AscentConfig(restarts=2, seed=0),
                                     checks=("povm_dominance",)).checks
        # The optimum in its own call, then the 100 probes in ten full blocks.
        assert blocks == [1] + [leakage.DOMINANCE_BLOCK] * 10
        assert not check.passed and "nan" in check.detail

    def test_nan_closed_form_fails_noise_checks(self, monkeypatch):
        monkeypatch.setattr(leakage, "noisy_leakage_local_bound",
                            lambda q, p, k: float("nan"))
        report = verify_properties(
            encode_index(2), AscentConfig(restarts=2, seed=0),
            checks=("global_noise_exactness", "local_noise_bound"), noise_grid=(0.3,))
        assert [c.passed for c in report.checks] == [False, False]

    def test_index4_local_bound_is_certified_without_a_solve(self, monkeypatch):
        calls = count_solves(monkeypatch)
        report = verify_properties(encode_index(4), AscentConfig(restarts=2, seed=0),
                                   checks=("local_noise_bound",),
                                   noise_grid=(0.0, 0.3, 0.7, 1.0))
        (check,) = report.checks
        assert len(calls) == 1 and check.passed
        assert check.detail.endswith("certified 4/4, solved p []")

    def test_index4_global_noise_is_carried_without_a_solve(self, monkeypatch):
        calls = count_solves(monkeypatch)
        (check,) = verify_properties(encode_index(4), AscentConfig(restarts=2, seed=0),
                                     checks=("global_noise_exactness",)).checks
        assert len(calls) == 1 and check.passed
        assert check.detail.endswith("solved p []")

    def test_wide_certificate_falls_back_to_one_solve_per_point(self, monkeypatch):
        ensemble, cfg = encode_index(4), AscentConfig(restarts=2, seed=0)
        grid = (0.0, 0.3, 0.7, 1.0)
        q0 = compute_leakage(ensemble, cfg).leakage_bits
        worst = max(compute_leakage(ensemble.transform(depolarizing("local", p, 4)),
                                    cfg).leakage_bits - noisy_leakage_local_bound(q0, p, 2)
                    for p in grid)
        widen_carried_dual_ends(monkeypatch)
        calls = count_solves(monkeypatch)
        (check,) = verify_properties(ensemble, cfg, checks=("local_noise_bound",),
                                     noise_grid=grid).checks
        assert len(calls) == 1 + len(grid) and check.passed
        assert f"= {worst:.3e} over" in check.detail
        assert check.detail.endswith("certified 0/4, solved p [0.0, 0.3, 0.7, 1.0]")

    @pytest.mark.parametrize("index", [1, 6, 20])
    def test_certified_pass_bounds_a_fresh_solve(self, index):
        ensemble, cfg = criterion5_fuzz(index)
        (check,) = verify_properties(ensemble, cfg, checks=("local_noise_bound",),
                                     noise_grid=(0.4,)).checks
        assert check.passed and check.detail.endswith("certified 1/1, solved p []")
        baseline = compute_leakage(ensemble, cfg)
        channel = depolarizing("local", 0.4, ensemble.dim)
        noisy = ensemble.transform(channel)
        upper = leakage._bits(leakage._dual_upper(
            noisy.state_stack(), channel.apply(baseline.dual))[0])
        bound = noisy_leakage_local_bound(baseline.leakage_bits, 0.4,
                                          int(math.log2(ensemble.dim)))
        fresh = compute_leakage(noisy, cfg).leakage_bits
        assert fresh <= bound + 1e-3 and fresh <= upper + 1e-9

    def test_wide_fuzz_gap_is_solved(self, monkeypatch):
        # Fuzz #15's own carried upper end settles p = 0.4 (its certified
        # gap is below 1e-9 bits); widened, only a solve can settle it.
        ensemble, cfg = criterion5_fuzz(15)
        (check,) = verify_properties(ensemble, cfg, checks=("local_noise_bound",),
                                     noise_grid=(0.4,)).checks
        assert check.passed and check.detail.endswith("certified 1/1, solved p []")
        widen_carried_dual_ends(monkeypatch)
        calls = count_solves(monkeypatch)
        (check,) = verify_properties(ensemble, cfg, checks=("local_noise_bound",),
                                     noise_grid=(0.4,)).checks
        assert len(calls) == 2 and check.passed
        assert check.detail.endswith("certified 0/1, solved p [0.4]")

    @staticmethod
    def data_processing_case(index):
        """index4 with verify's default channel, or criterion-5 fuzz #index
        with the channel criterion 5 draws for it."""
        if index is None:
            ensemble, cfg = encode_index(4), AscentConfig(restarts=2, seed=0)
            return ensemble, cfg, random_kraus_channel(4, 4, cfg.seed + 104729)
        ensemble, cfg = criterion5_fuzz(index)
        return ensemble, cfg, random_kraus_channel(ensemble.dim, ensemble.dim,
                                                   seed=3000 + index)

    def test_optimality_gap_check(self):
        cfg = AscentConfig(restarts=2, seed=0)
        (check,) = verify_properties(encode_amplitude_3bit(), cfg,
                                     checks=("optimality_gap",)).checks
        assert check.passed and check.detail.endswith("<= 1e-06, stop reason gap")
        (capped,) = verify_properties(encode_amplitude_3bit(), AscentConfig(max_iters=2),
                                      checks=("optimality_gap",)).checks
        assert not capped.passed and capped.detail.endswith("stop reason max_iters")

    def test_nan_gap_fails_the_optimality_gap_check(self, monkeypatch):
        original = leakage.compute_leakage
        monkeypatch.setattr(leakage, "compute_leakage", lambda ensemble, cfg=None: (
            dataclasses.replace(original(ensemble, cfg), upper_bound_bits=float("nan"))))
        (check,) = verify_properties(encode_index(2), checks=("optimality_gap",)).checks
        assert not check.passed and "nan" in check.detail

    @pytest.mark.parametrize("index", [None, 1, 6, 20])
    def test_data_processing_is_certified_without_a_solve(self, monkeypatch, index):
        ensemble, cfg, channel = self.data_processing_case(index)
        calls = count_solves(monkeypatch)
        (check,) = verify_properties(ensemble, cfg, channel=channel,
                                     checks=("data_processing",)).checks
        assert len(calls) == 1 and check.passed
        assert check.detail.startswith("certified upper after=")

    @pytest.mark.parametrize("index", [1, 6, 20])
    def test_certified_data_processing_bounds_a_fresh_solve(self, index):
        ensemble, cfg, channel = self.data_processing_case(index)
        baseline = compute_leakage(ensemble, cfg)
        mapped = ensemble.transform(channel)
        after = leakage._bits(leakage._dual_upper(
            mapped.state_stack(), channel.apply(baseline.dual))[0])
        fresh = compute_leakage(mapped, cfg).leakage_bits
        assert fresh <= after + 1e-9 <= baseline.upper_bound_bits + 1e-6

    def test_wide_carried_upper_end_falls_back_to_a_solve(self, monkeypatch):
        ensemble, cfg, channel = self.data_processing_case(None)
        direct = compute_leakage(ensemble.transform(channel), cfg).leakage_bits
        widen_carried_dual_ends(monkeypatch)
        calls = count_solves(monkeypatch)
        (check,) = verify_properties(ensemble, cfg, channel=channel,
                                     checks=("data_processing",)).checks
        assert len(calls) == 1 + 1 and check.passed
        assert check.detail.startswith(f"solved after={direct:.9f} <= ")

    def test_non_power_of_two_skips_local_bound(self):
        cfg = AscentConfig(restarts=2, max_iters=500, seed=4)
        report = verify_properties(encode_index(3), cfg,
                                   checks=("nonnegativity", "local_noise_bound"),
                                   noise_grid=(0.5,))
        by_name = {c.name: c for c in report.checks}
        assert by_name["local_noise_bound"].skipped

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError):
            verify_properties(encode_index(2), checks=("no_such_check",))
