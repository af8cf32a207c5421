import itertools
import warnings

import numpy as np
import pytest

from qleak import (
    DensityOperator,
    Ensemble,
    KrausChannel,
    Povm,
    apply_channel,
    born_distribution,
    depolarizing_global,
    depolarizing_local,
    encode_amplitude_3bit,
    encode_index,
    leakage_objective,
    random_kraus_channel,
    random_povm,
)
from qleak.states import qubit_count
from qleak.exceptions import (
    DimensionMismatchError,
    DimensionOverflowError,
    InvalidChannelError,
    InvalidProbabilityError,
    NotHermitianError,
    NotPsdError,
    NumericalFailureError,
    UnsupportedDimensionError,
)
from helpers import random_density, random_pure


def affine_depolarize(rho, p, dim):
    """Independent oracle for the depolarizing action."""
    return (p / dim) * np.eye(dim) + (1 - p) * rho


class TestDensityOperator:
    def test_valid_pure(self):
        rho = DensityOperator.from_pure([1, 1j], normalize=True)
        assert rho.dim == 2
        assert rho.matrix.trace().real == pytest.approx(1.0)

    @pytest.mark.parametrize("scale", [1.0, 1e307, 1e-200, 5e-324])
    def test_normalize_without_overflow_or_underflow(self, scale):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rho = DensityOperator.from_pure([3 * scale, 4j * scale], normalize=True)
        assert np.max(np.abs(rho.matrix - [[0.36, -0.48j], [0.48j, 0.64]])) <= 1e-15

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            DensityOperator(np.array([[1, 1], [0, 0]], dtype=complex))

    def test_rejects_negative(self):
        with pytest.raises(NotPsdError):
            DensityOperator(np.diag([1.5, -0.5]))

    def test_rejects_bad_trace(self):
        with pytest.raises(NumericalFailureError):
            DensityOperator(np.diag([0.7, 0.7]))

    def test_matrix_is_frozen(self):
        rho = DensityOperator.maximally_mixed(2)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 5.0


class TestEnsemble:
    def test_uniform_default_prior(self):
        e = encode_index(4)
        assert np.allclose(e.priors, 0.25)
        assert e.symbols == ("1", "2", "3", "4")

    def test_priors_validated(self):
        states = [DensityOperator.basis_state(2, i) for i in range(2)]
        with pytest.raises(InvalidProbabilityError):
            Ensemble(["a", "b"], states, [0.5, 0.6])
        with pytest.raises(InvalidProbabilityError):
            Ensemble(["a", "b"], states, [1.0, 0.0])

    def test_mixed_dims_rejected(self):
        with pytest.raises(DimensionMismatchError):
            Ensemble(["a", "b"], [DensityOperator.maximally_mixed(2),
                                  DensityOperator.maximally_mixed(3)])

    def test_indistinguishable(self):
        rho = DensityOperator.maximally_mixed(2)
        e = Ensemble(["a", "b"], [rho, rho])
        assert e.is_indistinguishable()
        assert not encode_index(2).is_indistinguishable()


class TestPovm:
    def test_computational_basis(self):
        f = Povm.computational_basis(3)
        assert len(f) == 3 and f.dim == 3
        assert np.allclose(sum(f.elements), np.eye(3))

    def test_completeness_enforced(self):
        with pytest.raises(NumericalFailureError):
            Povm([np.eye(2) * 0.5])

    def test_completeness_measured_in_operator_norm(self):
        # The entrywise defect 0.99e-8 is within POVM_ATOL; the operator norm
        # of -0.99e-8 * J is 1.98e-8, so the POVM is rejected when it is built.
        with pytest.raises(NumericalFailureError, match="1.980e-08"):
            Povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0]) - 0.99e-8 * np.ones((2, 2))])

    def test_accepted_povm_is_scored_without_rechecks(self):
        # A completeness defect of 0.9e-8 in operator norm passes, and the
        # scoring functions do not reject what the constructor accepted.
        f = Povm([np.diag([1.0 + 0.9e-8, 0.0]), np.diag([0.0, 1.0 + 0.9e-8])])
        e = encode_index(2)
        assert np.array_equal(born_distribution(e, f), np.eye(2))
        objective, bits, winners = leakage_objective(e, f)
        assert objective == pytest.approx(2.0, abs=2e-8)
        assert bits == pytest.approx(1.0, abs=2e-8)
        assert winners == ["1", "2"]

    def test_psd_enforced(self):
        with pytest.raises(NotPsdError):
            Povm([np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])])

    def test_factors_reconstruct_mixed_rank_elements(self):
        fine = random_povm(4, 16, seed=3)
        cuts = [0, 1, 3, 6, 10, 16]            # ranks 1, 2, 3, 4 and 4
        elements = [sum(fine.elements[a:b]) for a, b in zip(cuts, cuts[1:])]
        f = Povm(elements + [np.zeros((4, 4))])
        assert f.factors.shape == (6, 4, 4)
        rebuilt = f.factors @ f.factors.conj().transpose(0, 2, 1)
        assert np.max(np.abs(rebuilt[:-1] - np.stack(elements))) <= 1e-12
        assert np.max(np.abs(rebuilt[-1])) <= 1e-12
        assert np.max(np.abs(rebuilt - np.stack(f.elements))) <= 1e-12
        assert not f.factors.flags.writeable

    @pytest.mark.parametrize("negatives", [1, 3])
    def test_tiny_negative_eigenvalues_accepted(self, negatives):
        # Elements with an eigenvalue of -5e-9 sum to I exactly. Trimming
        # drops those eigenvalues from the factors, so with three of them
        # the factors alone would miss completeness by 1.5e-8 > POVM_ATOL.
        low = np.diag([-5e-9, 0.5 / negatives])
        f = Povm([np.diag([1.0 + 5e-9 * negatives, 0.5])] + [low] * negatives)
        assert len(f) == negatives + 1
        assert np.max(np.abs(f.elements[1] - np.diag([0.0, 0.5 / negatives]))) <= 1e-15

    def test_from_factors_matches_elements(self):
        h = random_povm(3, 9, seed=5).factors
        f = Povm.from_factors(h)
        assert np.array_equal(f.factors, h)
        for el, v in zip(f.elements, h[:, :, 0]):
            assert np.max(np.abs(el - np.outer(v, v.conj()))) <= 1e-15

    def test_from_factors_rejects_incomplete(self):
        h = random_povm(2, 4, seed=0).factors
        with pytest.raises(NumericalFailureError):
            Povm.from_factors(h[:3])
        with pytest.raises(NumericalFailureError):
            Povm.from_factors(0.9 * h)

    def test_from_factors_rejects_nan(self):
        h = np.array(random_povm(2, 4, seed=0).factors)
        h[1, 0, 0] = np.nan
        with pytest.raises(NumericalFailureError):
            Povm.from_factors(h)

    def test_overflowing_element_rejected_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailureError, match="completeness defect"):
                Povm([np.diag([1e308, 0.0]), np.diag([0.0, 1.0])])
            with pytest.raises(NumericalFailureError, match="sum of POVM elements overflows"):
                Povm([np.diag([1e308, 0.0]), np.diag([1e308, 1.0])])

    def test_from_factors_rejects_bad_shape(self):
        with pytest.raises(DimensionMismatchError):
            Povm.from_factors(np.eye(2))


class TestKrausChannel:
    def test_identity(self):
        chan = KrausChannel([np.eye(3)])
        rho = DensityOperator.maximally_mixed(3)
        assert np.allclose(apply_channel(chan, rho).matrix, rho.matrix)

    def test_trace_preservation_enforced(self):
        with pytest.raises(InvalidChannelError):
            KrausChannel([np.eye(2) * 0.9])

    def test_dim_mismatch(self):
        chan = KrausChannel([np.eye(2)])
        with pytest.raises(DimensionMismatchError):
            apply_channel(chan, DensityOperator.maximally_mixed(3))
        with pytest.raises(DimensionMismatchError):
            encode_index(3).transform(chan)

    def test_kraus_ops_is_one_frozen_stack(self):
        # An isometry from dim 2 into dim 3: one (1, 3, 2) stack.
        chan = KrausChannel([np.eye(3)[:, :2]])
        assert chan.kraus_ops.shape == (1, 3, 2)
        assert (chan.dim_out, chan.dim_in) == (3, 2)
        assert chan.kraus_ops.dtype == np.complex128
        assert not chan.kraus_ops.flags.writeable
        assert len(chan.kraus_ops) == 1
        assert np.array_equal(chan.kraus_ops[0], next(iter(chan.kraus_ops)))
        with pytest.raises(ValueError):
            chan.kraus_ops[0, 0, 0] = 2.0

    @pytest.mark.parametrize("seed", range(4))
    def test_transform_matches_per_state_sum(self, seed):
        # Exact equality with sum_j E_j rho E_j^dag taken one state at a time.
        rng = np.random.default_rng(seed)
        dim = 2 ** (1 + seed % 3)
        e = Ensemble([f"s{i}" for i in range(3)],
                     [random_density(dim, rng) for _ in range(3)])
        for chan in (random_kraus_channel(dim, 1 + 2 * seed, seed),
                     depolarizing_global(0.3, dim), depolarizing_local(0.3, qubit_count(dim))):
            for rho, mapped in zip(e.states, e.transform(chan).states):
                dense = np.zeros((dim, dim), dtype=np.complex128)
                for op in chan.kraus_ops:
                    dense += op @ rho.matrix @ op.conj().T
                assert np.array_equal(mapped.matrix, DensityOperator(dense).matrix)
                assert np.array_equal(apply_channel(chan, rho).matrix, mapped.matrix)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_channel_preserves_state_validity(self, seed):
        rng = np.random.default_rng(seed)
        chan = random_kraus_channel(3, 4, seed)
        rho = random_density(3, rng)
        out = apply_channel(chan, rho)
        assert out.matrix.trace().real == pytest.approx(1.0, abs=1e-10)


class TestBornDistribution:
    def test_orthonormal_case(self):
        e = encode_index(3)
        probs = born_distribution(e, Povm.computational_basis(3))
        assert np.allclose(probs, np.eye(3))

    def test_single_element_povm(self):
        rng = np.random.default_rng(0)
        e = Ensemble(["a", "b"], [random_density(3, rng) for _ in range(2)])
        probs = born_distribution(e, Povm([np.eye(3)]))
        assert np.allclose(probs, 1.0)

    def test_plus_state_half_half(self):
        e = Ensemble(["+"], [DensityOperator.from_pure([1, 1], normalize=True)])
        probs = born_distribution(e, Povm.computational_basis(2))
        assert np.allclose(probs, [[0.5, 0.5]])

    @pytest.mark.parametrize("seed", range(4))
    def test_rows_are_distributions(self, seed):
        rng = np.random.default_rng(seed)
        e = Ensemble([f"s{i}" for i in range(3)],
                     [random_density(4, rng) for _ in range(3)])
        probs = born_distribution(e, random_povm(4, 16, seed))
        assert probs.min() >= 0.0
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-8)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            born_distribution(encode_index(2), Povm.computational_basis(3))

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_dense_reference(self, seed):
        rng = np.random.default_rng(seed)
        e = Ensemble([f"s{i}" for i in range(4)],
                     [random_density(3, rng) for _ in range(4)])
        fine = random_povm(3, 9, seed=seed)
        mixed = Povm([fine.elements[0] + fine.elements[1], *fine.elements[2:]])
        for povm in (fine, mixed):
            dense = np.einsum("xij,yji->xy", e.state_stack(),
                              np.stack(povm.elements)).real
            assert np.max(np.abs(born_distribution(e, povm) - dense)) <= 1e-12


class TestDepolarizingGlobal:
    def test_p0_is_identity(self):
        rng = np.random.default_rng(1)
        rho = random_density(4, rng)
        out = apply_channel(depolarizing_global(0.0, 4), rho)
        assert np.max(np.abs(out.matrix - rho.matrix)) <= 1e-12

    def test_p1_is_maximally_mixed(self):
        rng = np.random.default_rng(2)
        rho = random_density(4, rng)
        out = apply_channel(depolarizing_global(1.0, 4), rho)
        assert np.max(np.abs(out.matrix - np.eye(4) / 4)) <= 1e-12

    def test_half_on_ground_state(self):
        rho = DensityOperator.basis_state(2, 0)
        out = apply_channel(depolarizing_global(0.5, 2), rho)
        assert np.allclose(out.matrix, np.diag([0.75, 0.25]))

    @pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_kraus_matches_affine_formula(self, p, dim):
        rng = np.random.default_rng(int(p * 10) + dim)
        rho = random_density(dim, rng)
        out = apply_channel(depolarizing_global(p, dim), rho)
        assert np.max(np.abs(out.matrix - affine_depolarize(rho.matrix, p, dim))) <= 1e-12

    def test_invalid_probability(self):
        with pytest.raises(InvalidProbabilityError):
            depolarizing_global(1.5, 2)

    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("qubits", [1, 2, 3])
    def test_kraus_stack_matches_reference(self, p, qubits):
        # {sqrt(1-p) I}, then sqrt(p/d) |i><j| for i, j in row-major order.
        dim = 2 ** qubits
        ops = [np.sqrt(1.0 - p) * np.eye(dim)]
        if p > 0.0:
            for i in range(dim):
                for j in range(dim):
                    op = np.zeros((dim, dim))
                    op[i, j] = np.sqrt(p / dim)
                    ops.append(op)
        assert np.array_equal(depolarizing_global(p, dim).kraus_ops, np.array(ops))


class TestDepolarizingLocal:
    @pytest.mark.parametrize("p", [0.1, 0.5, 1.0])
    def test_single_qubit_matches_global(self, p):
        rng = np.random.default_rng(7)
        rho = random_density(2, rng)
        local = apply_channel(depolarizing_local(p, 1), rho)
        glob = apply_channel(depolarizing_global(p, 2), rho)
        assert np.max(np.abs(local.matrix - glob.matrix)) <= 1e-12

    def test_p0_identity(self):
        rng = np.random.default_rng(8)
        rho = random_density(4, rng)
        out = apply_channel(depolarizing_local(0.0, 2), rho)
        assert np.max(np.abs(out.matrix - rho.matrix)) <= 1e-12

    def test_two_qubits_product_state_oracle(self):
        # per-qubit affine action, then the tensor product
        p = 0.5
        rho0 = DensityOperator.basis_state(2, 0).matrix
        expected = np.kron(affine_depolarize(rho0, p, 2),
                           affine_depolarize(rho0, p, 2))
        ket00 = DensityOperator.from_pure([1, 0, 0, 0])
        out = apply_channel(depolarizing_local(p, 2), ket00)
        assert np.max(np.abs(out.matrix - expected)) <= 1e-12

    @pytest.mark.parametrize("p", [0.2, 0.8])
    def test_factorizes_on_product_states(self, p):
        rng = np.random.default_rng(11)
        rho_a = random_density(2, rng)
        rho_b = random_density(2, rng)
        joint = DensityOperator(np.kron(rho_a.matrix, rho_b.matrix))
        out = apply_channel(depolarizing_local(p, 2), joint)
        single = depolarizing_local(p, 1)
        expected = np.kron(apply_channel(single, rho_a).matrix,
                           apply_channel(single, rho_b).matrix)
        assert np.max(np.abs(out.matrix - expected)) <= 1e-10

    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("qubits", [1, 2, 3])
    def test_kraus_stack_matches_reference(self, p, qubits):
        # All kron products of the weighted single-qubit (I, X, Y, Z) set, the
        # first qubit outermost, without the zero operators of p = 0.
        paulis = [np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]]
        weights = [np.sqrt(1.0 - 0.75 * p)] + [np.sqrt(p / 4.0)] * 3
        single = [w * np.asarray(m, dtype=np.complex128) for w, m in zip(weights, paulis)]
        ops = []
        for combo in itertools.product(single, repeat=qubits):
            op = combo[0]
            for factor in combo[1:]:
                op = np.kron(op, factor)
            if np.any(op):
                ops.append(op)
        assert len(ops) == (1 if p == 0.0 else 4 ** qubits)
        assert np.array_equal(depolarizing_local(p, qubits).kraus_ops, np.array(ops))

    def test_qubit_cap(self):
        with pytest.raises(DimensionOverflowError):
            depolarizing_local(0.5, 7)

    @pytest.mark.parametrize("dim,qubits", [(2, 1), (4, 2), (64, 6)])
    def test_qubit_count(self, dim, qubits):
        assert qubit_count(dim) == qubits

    @pytest.mark.parametrize("dim", [0, 1, 3, 6])
    def test_qubit_count_needs_a_qubit_register(self, dim):
        with pytest.raises(UnsupportedDimensionError, match="k >= 1"):
            qubit_count(dim)


class TestEncoders:
    def test_index_2(self):
        e = encode_index(2)
        assert np.allclose(e.states[0].matrix, np.diag([1.0, 0.0]))
        assert np.allclose(e.states[1].matrix, np.diag([0.0, 1.0]))
        assert np.allclose(e.priors, [0.5, 0.5])

    def test_index_8_orthogonal(self):
        e = encode_index(8)
        assert e.size == 8 and e.dim == 8
        gram = np.array([[np.trace(a.matrix @ b.matrix).real for b in e.states]
                         for a in e.states])
        assert np.allclose(gram, np.eye(8))

    def test_amplitude_corner_states(self):
        e = encode_amplitude_3bit()
        by_label = dict(zip(e.symbols, e.states))
        odd = np.zeros(8)
        odd[[1, 3, 5]] = 1 / np.sqrt(3)
        even = np.zeros(8)
        even[[0, 2, 4]] = 1 / np.sqrt(3)
        assert np.allclose(by_label["000"].matrix, np.outer(odd, odd))
        assert np.allclose(by_label["111"].matrix, np.outer(even, even))

    def test_amplitude_all_unit_trace(self):
        e = encode_amplitude_3bit()
        assert e.size == 8 and e.dim == 8
        for s in e.states:
            assert s.matrix.trace().real == pytest.approx(1.0, abs=1e-12)


class TestRandomPovm:
    @pytest.mark.parametrize("dim,size", [(2, 4), (3, 9), (4, 16), (8, 64)])
    def test_completeness(self, dim, size):
        f = random_povm(dim, size, seed=3)
        assert np.max(np.abs(sum(f.elements) - np.eye(dim))) <= 1e-8

    def test_deterministic(self):
        a = random_povm(3, 9, seed=42)
        b = random_povm(3, 9, seed=42)
        for x, y in zip(a.elements, b.elements):
            assert np.array_equal(x, y)

    def test_rank_one_over_many_seeds(self):
        worst = 0.0
        for seed in range(1000):
            f = random_povm(2, 4, seed=seed)
            for el in f.elements:
                eigs = np.linalg.eigvalsh(el)
                worst = max(worst, abs(eigs[0]))
        assert worst <= 1e-10

    def test_degenerate_when_undersized(self):
        with pytest.raises(DimensionMismatchError):
            random_povm(4, 2, seed=0)
