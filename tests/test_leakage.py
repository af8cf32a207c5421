import math

import numpy as np
import pytest

from qleak import (
    AscentConfig,
    DensityOperator,
    Ensemble,
    Povm,
    ascent_step,
    brute_force_leakage,
    compute_leakage,
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
from qleak import leakage
from qleak.leakage import WHITENING_REG
from qleak.exceptions import (
    DimensionMismatchError,
    InvalidProbabilityError,
    UnsupportedDimensionError,
)
from helpers import random_density, random_ensemble, random_pure


def ket0_plus_ensemble():
    return Ensemble(
        ["0", "+"],
        [DensityOperator.basis_state(2, 0),
         DensityOperator.from_pure([1, 1], normalize=True)],
    )


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
        assert report.leakage_bits == max(report.restart_leakages)
        assert report.best_restart == int(np.argmax(report.restart_leakages))
        assert report.leakage_bits <= report.ceiling_bits + 1e-6
        assert report.leakage_bits >= -1e-9
        assert len(report.traces) == 4
        assert report.optimal_povm.dim == 3

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

    @pytest.mark.parametrize("eps", [0.0, -1e-9, float("nan"), float("inf")])
    def test_eps_must_be_finite_and_positive(self, eps):
        with pytest.raises(ValueError):
            AscentConfig(eps=eps)

    def test_ceiling_is_log2_dim(self):
        # Six symbols on a qubit: min(log2 6, log2 2) = 1 bit.
        rng = np.random.default_rng(4)
        e = Ensemble([f"s{i}" for i in range(6)],
                     [random_density(2, rng) for _ in range(6)])
        report = compute_leakage(e, AscentConfig(restarts=2, seed=0))
        assert report.ceiling_bits == 1.0
        assert report.leakage_bits <= 1.0 + 1e-6


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
        # Distinguishable by 1e-7: the optimized leakage (1.03e-7 bits) is
        # nonzero and lies 4e-8 below the exact pairwise value 1.44e-7.
        e = Ensemble(["a", "b"], [DensityOperator.maximally_mixed(2),
                                  DensityOperator(np.diag([0.5 + 1e-7, 0.5 - 1e-7]))])
        report = verify_properties(e, AscentConfig(seed=0),
                                   checks=("independence_iff_zero",))
        assert report.all_passed

    def test_nan_mutual_information_fails_dominance(self, monkeypatch):
        monkeypatch.setattr(leakage, "mutual_information", lambda e, f: float("nan"))
        report = verify_properties(encode_index(2), AscentConfig(restarts=2, seed=0),
                                   checks=("povm_dominance",))
        (check,) = report.checks
        assert not check.passed and "nan" in check.detail

    def test_nan_closed_form_fails_noise_checks(self, monkeypatch):
        monkeypatch.setattr(leakage, "noisy_leakage_local_bound",
                            lambda q, p, k: float("nan"))
        report = verify_properties(
            encode_index(2), AscentConfig(restarts=2, seed=0),
            checks=("global_noise_exactness", "local_noise_bound"), noise_grid=(0.3,))
        assert [c.passed for c in report.checks] == [False, False]

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
