import math

import numpy as np
import pytest
from scipy.linalg import circulant

from framealign import (
    GroupSpec,
    OptimizerConfig,
    covariant_mutual_info_zm,
    covariant_povm,
    ensemble_states,
    mutual_info_of_povm,
    optimize_povm,
    validate_state,
    zm_asymmetry,
)
from framealign.core import DimensionMismatch, MalformedInput, ResourceLimit
from framealign.cyclic import copy_distribution_zm, offset_distribution
from framealign.povm import (
    MAX_DENSE_ENTRIES,
    PovmSpec,
    conditional_table,
    covariant_table,
    povm_from_json,
    povm_to_json,
)
from framealign.sampling import mutual_info_of_counts, simulate_protocol

from conftest import random_simplex


def zstate(probs):
    return validate_state(probs, GroupSpec.cyclic(len(probs)))


def haar_unitary(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def normalized_povm(effects):
    """Positive definite effects E_y made complete by the symmetric sandwich
    A^{-1/2} E_y A^{-1/2}, A = sum_y E_y."""
    w, v = np.linalg.eigh(effects.sum(axis=0))
    inv_half = (v / np.sqrt(w)) @ v.conj().T
    out = inv_half @ effects @ inv_half
    return 0.5 * (out + out.conj().transpose(0, 2, 1))


@pytest.fixture
def z2_skew():
    return zstate([0.75, 0.25])


class TestEnsemble:
    def test_plus_state_orthonormal(self):
        ens = ensemble_states(zstate([0.25] * 4), 1)
        gram = ens.states @ ens.states.conj().T
        assert np.max(np.abs(gram - np.eye(4))) <= 1e-12

    def test_point_mass_all_identical(self):
        ens = ensemble_states(zstate([1.0, 0.0, 0.0]), 5)
        gram = ens.states @ ens.states.conj().T
        assert np.max(np.abs(gram - 1.0)) <= 1e-12

    def test_z2_overlap_is_single_copy_power(self, z2_skew):
        ens = ensemble_states(z2_skew, 3)
        overlap = np.vdot(ens.states[0], ens.states[1])
        assert overlap == pytest.approx(0.5**3, abs=1e-12)

    def test_gram_matches_transform_powers(self, z4_psi):
        from framealign.core import dft_vector

        n = 4
        ens = ensemble_states(z4_psi, n)
        single = dft_vector(z4_psi.probs)
        for x in range(4):
            for y in range(4):
                expected = single[(y - x) % 4] ** n
                got = np.vdot(ens.states[x], ens.states[y])
                assert abs(got - expected) <= 1e-12

    def test_unit_norms(self, z4_psi):
        ens = ensemble_states(z4_psi, 2)
        assert np.max(np.abs(np.linalg.norm(ens.states, axis=1) - 1.0)) <= 1e-12


class TestCovariantPovm:
    def test_m2_projects_onto_plus_minus(self):
        effects = covariant_povm(2).effects
        plus = np.array([1.0, 1.0]) / math.sqrt(2)
        minus = np.array([1.0, -1.0]) / math.sqrt(2)
        assert np.max(np.abs(effects[0] - np.outer(plus, plus))) <= 1e-15
        assert np.max(np.abs(effects[1] - np.outer(minus, minus))) <= 1e-15

    @pytest.mark.parametrize("m", range(2, 9))
    def test_completeness(self, m):
        effects = covariant_povm(m).effects
        assert np.max(np.abs(effects.sum(axis=0) - np.eye(m))) <= 1e-14

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_rank_one_unit_trace(self, m):
        for eff in covariant_povm(m).effects:
            assert np.trace(eff).real == pytest.approx(1.0, abs=1e-13)
            eigs = np.sort(np.linalg.eigvalsh(eff))
            assert eigs[-1] == pytest.approx(1.0, abs=1e-12)
            assert np.max(np.abs(eigs[:-1])) <= 1e-12


class TestPovmSpecValidation:
    def test_rejects_non_psd(self):
        bad = np.array([np.diag([1.5, -0.5]), np.diag([-0.5, 1.5])], dtype=complex)
        with pytest.raises(MalformedInput):
            PovmSpec(bad)

    def test_rejects_incomplete(self):
        bad = np.array([np.eye(2) * 0.4, np.eye(2) * 0.4], dtype=complex)
        with pytest.raises(MalformedInput):
            PovmSpec(bad)

    def test_json_roundtrip(self):
        povm = covariant_povm(3)
        back = povm_from_json(povm_to_json(povm))
        assert np.max(np.abs(back.effects - povm.effects)) <= 1e-15

    def test_rejects_last_effect_non_psd(self):
        # The stacked eigenvalue check must see every effect, the last included.
        good = covariant_povm(3).effects
        bad = good.copy()
        bad[1] += np.diag([0.3, 0.0, 0.0])
        bad[2] -= np.diag([0.3, 0.0, 0.0])
        assert np.linalg.eigvalsh(bad[:2]).min() >= -1e-12
        with pytest.raises(MalformedInput, match="positive semidefinite"):
            PovmSpec(bad)


class TestDenseBudget:
    # Every size here is rejected before the dense array is built.
    def test_ensemble_over_budget(self):
        m = 8192
        with pytest.raises(ResourceLimit):
            ensemble_states(zstate(np.full(m, 1.0 / m)), 1)

    def test_covariant_povm_over_budget(self):
        with pytest.raises(ResourceLimit):
            covariant_povm(1024)

    def test_optimizer_outcomes_over_budget(self, z2_skew):
        ens = ensemble_states(z2_skew, 1)
        with pytest.raises(ResourceLimit):
            optimize_povm(ens, OptimizerConfig(outcomes=(MAX_DENSE_ENTRIES >> 2) + 1))

    def test_m256_fits(self):
        assert 256**3 <= MAX_DENSE_ENTRIES


class TestMutualInfoOfPovm:
    def test_table_matches_per_cell_oracle(self):
        from framealign.povm import EnsembleSpec

        rng = np.random.default_rng(73)
        for m, k in [(2, 3), (3, 5), (4, 2), (5, 9), (6, 4)]:
            g = rng.normal(size=(k, m, m)) + 1j * rng.normal(size=(k, m, m))
            # g g^dagger is Hermitian and almost surely positive definite.
            effects = normalized_povm(g @ g.conj().transpose(0, 2, 1))
            assert np.linalg.eigvalsh(effects).min() > 0
            povm = PovmSpec(effects)
            states = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
            states /= np.linalg.norm(states, axis=1, keepdims=True)
            ens = EnsembleSpec(m, np.ones(m), states, np.full(m, 1.0 / m))
            table = conditional_table(ens, povm)
            oracle = np.array(
                [[np.vdot(psi, e @ psi).real for e in effects] for psi in states]
            )
            assert table.shape == (m, k)
            assert np.max(np.abs(table - oracle)) <= 1e-13

    def test_scaled_identity_gives_zero(self, z4_psi):
        ens = ensemble_states(z4_psi, 2)
        effects = np.array([np.eye(4) / 4.0] * 4, dtype=complex)
        assert mutual_info_of_povm(ens, PovmSpec(effects)) == 0.0

    def test_plus_state_perfectly_distinguished(self):
        for m in (2, 3, 4):
            ens = ensemble_states(zstate([1.0 / m] * m), 1)
            assert mutual_info_of_povm(ens, covariant_povm(m)) == pytest.approx(
                math.log2(m), abs=1e-12
            )

    def test_matches_stable_path(self, z2_skew):
        ens = ensemble_states(z2_skew, 4)
        via_matrix = mutual_info_of_povm(ens, covariant_povm(2))
        via_stable = covariant_mutual_info_zm(z2_skew, 4)[0]
        assert abs(via_matrix - via_stable) <= 1e-10

    def test_matches_stable_path_random(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            m = int(rng.integers(2, 6))
            n = int(rng.integers(1, 6))
            state = zstate(random_simplex(rng, m))
            ens = ensemble_states(state, n)
            a = mutual_info_of_povm(ens, covariant_povm(m))
            b = covariant_mutual_info_zm(state, n)[0]
            assert abs(a - b) <= 1e-10

    def test_dimension_mismatch(self, z4_psi):
        ens = ensemble_states(z4_psi, 1)
        with pytest.raises(DimensionMismatch):
            mutual_info_of_povm(ens, covariant_povm(3))

    def test_relabeling_invariance(self, z4_psi):
        ens = ensemble_states(z4_psi, 3)
        povm = covariant_povm(4)
        base = mutual_info_of_povm(ens, povm)
        for s in (1, 2, 3):
            rolled_states = type(ens)(
                ens.M,
                ens.amplitudes,
                np.roll(np.asarray(ens.states), s, axis=0),
                ens.prior,
            )
            rolled_povm = PovmSpec(np.roll(np.asarray(povm.effects), s, axis=0))
            assert mutual_info_of_povm(rolled_states, rolled_povm) == pytest.approx(
                base, abs=1e-12
            )

    def test_orthonormal_basis_equals_classical_channel(self, z4_psi):
        # For a rank-one orthonormal POVM the quantum value is the classical
        # mutual information of the induced channel matrix.
        rng = np.random.default_rng(53)
        ens = ensemble_states(z4_psi, 2)
        u = haar_unitary(rng, 4)
        effects = np.einsum("ki,li->ikl", u, u.conj())
        povm = PovmSpec(effects)
        channel = np.abs(ens.states @ u) ** 2  # p(y|x), rows sum to 1
        joint = channel / 4.0
        assert mutual_info_of_povm(ens, povm) == pytest.approx(
            mutual_info_of_counts(joint), abs=1e-12
        )

    def test_doubly_stochastic_circulant_table(self, z4_psi):
        ens = ensemble_states(z4_psi, 3)
        table = conditional_table(ens, covariant_povm(4))
        assert np.max(np.abs(table.sum(axis=1) - 1.0)) <= 1e-12
        assert np.max(np.abs(table.sum(axis=0) - 1.0)) <= 1e-12
        for x in range(4):
            for y in range(4):
                assert table[x, y] == pytest.approx(
                    table[0, (y - x) % 4], abs=1e-13
                )


class TestCovariantTable:
    """The circulant Fourier-basis table against the dense POVM contraction."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 8, 16, 31, 64])
    def test_matches_dense_povm(self, m, n):
        rng = np.random.default_rng(100 * m + n)
        sparse = random_simplex(rng, m)
        sparse[rng.choice(m, m // 2, replace=False)] = 0.0
        plus = np.full(m, 1.0 / m)
        for probs in (random_simplex(rng, m), sparse / sparse.sum(), plus):
            state = zstate(probs)
            dense = conditional_table(ensemble_states(state, n), covariant_povm(m))
            assert np.max(np.abs(covariant_table(state, n) - dense)) <= 1e-14

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 8, 31, 128, 2048])
    def test_bitwise_equal_to_scipy_circulant(self, m, n):
        state = zstate(random_simplex(np.random.default_rng(m + n), m))
        q = offset_distribution(copy_distribution_zm(state, n)[1])
        assert np.array_equal(covariant_table(state, n), circulant(q))

    def test_rows_are_distributions_with_the_analytic_information(self, z4_psi):
        table = covariant_table(z4_psi, 3)
        assert np.max(np.abs(table.sum(axis=1) - 1.0)) <= 1e-15
        analytic, _ = covariant_mutual_info_zm(z4_psi, 3)
        assert mutual_info_of_counts(table / 4) == pytest.approx(analytic, abs=1e-13)

    def test_sampling_without_povm_draws_from_the_table(self, z4_psi):
        shots = 40_000
        rec = simulate_protocol(z4_psi, 2, None, shots, seed=8)
        rows = rec.counts / rec.counts.sum(axis=1, keepdims=True)
        table = covariant_table(z4_psi, 2)
        assert np.max(np.abs(rows - table)) <= 5 / math.sqrt(shots / 4)


class TestOptimizePovm:
    def test_plus_state_reaches_maximum(self):
        ens = ensemble_states(zstate([1 / 3] * 3), 1)
        result = optimize_povm(ens, OptimizerConfig(restarts=2, seed=1))
        assert result.mi_bits == pytest.approx(math.log2(3), abs=1e-6)

    def test_z2_matches_covariant(self, z2_skew):
        ens = ensemble_states(z2_skew, 1)
        cov_value = mutual_info_of_povm(ens, covariant_povm(2))
        result = optimize_povm(ens, OptimizerConfig(restarts=5, seed=0))
        assert abs(result.mi_bits - cov_value) <= 1e-3

    def test_never_exceeds_holevo(self):
        rng = np.random.default_rng(57)
        for m, n in ((2, 1), (2, 2), (3, 1), (3, 2)):
            state = zstate(random_simplex(rng, m))
            ens = ensemble_states(state, n)
            result = optimize_povm(ens, OptimizerConfig(restarts=3, seed=2))
            h, _ = zm_asymmetry(state, n)
            assert result.mi_bits <= h + 1e-6

    def test_never_below_covariant(self):
        rng = np.random.default_rng(59)
        for _ in range(5):
            m = int(rng.integers(2, 5))
            state = zstate(random_simplex(rng, m))
            ens = ensemble_states(state, 1)
            cov_value = mutual_info_of_povm(ens, covariant_povm(m))
            result = optimize_povm(ens, OptimizerConfig(restarts=3, seed=4))
            assert result.mi_bits >= cov_value - 1e-3

    def test_deterministic(self, z2_skew):
        ens = ensemble_states(z2_skew, 2)
        cfg = OptimizerConfig(restarts=3, seed=11)
        first = optimize_povm(ens, cfg)
        second = optimize_povm(ens, cfg)
        assert first.mi_bits == second.mi_bits
        assert first.restart_index == second.restart_index
        assert np.array_equal(first.povm.effects, second.povm.effects)

    def test_trace_majority_monotone(self, z2_skew):
        ens = ensemble_states(z2_skew, 1)
        result = optimize_povm(ens, OptimizerConfig(restarts=5, seed=0))
        diffs = [b - a for a, b in zip(result.trace, result.trace[1:])]
        if diffs:
            up = sum(1 for d in diffs if d >= -1e-12)
            assert up >= len(diffs) / 2

    def test_iterates_are_valid_povms(self, z2_skew):
        # The returned measurement satisfies the same invariants every
        # projected iterate does; constructing PovmSpec re-validates.
        ens = ensemble_states(z2_skew, 1)
        result = optimize_povm(ens, OptimizerConfig(restarts=2, seed=3))
        effects = result.povm.effects
        assert np.max(np.abs(effects.sum(axis=0) - np.eye(2))) <= 1e-9
        for eff in effects:
            assert np.linalg.eigvalsh(eff).min() >= -1e-10

    def test_extra_outcomes_allowed(self, z2_skew):
        ens = ensemble_states(z2_skew, 1)
        cov_value = mutual_info_of_povm(ens, covariant_povm(2))
        result = optimize_povm(
            ens, OptimizerConfig(outcomes=4, restarts=2, seed=5)
        )
        assert result.povm.n_outcomes == 4
        assert result.mi_bits >= cov_value - 1e-3

    def test_config_validation(self):
        with pytest.raises(MalformedInput):
            OptimizerConfig(restarts=0)


class TestSeedOptimizer:
    """The covariant seed ascent against the dense POVM layer."""

    @pytest.mark.parametrize("seeds", [1, 2])
    @pytest.mark.parametrize("m", [2, 3, 4, 8])
    def test_expanded_seeds_match_dense_information(self, m, seeds):
        rng = np.random.default_rng(10 * m + seeds)
        ens = ensemble_states(zstate(rng.dirichlet(np.ones(m))), 2)
        result = optimize_povm(
            ens, OptimizerConfig(outcomes=seeds * m, restarts=2, seed=m)
        )
        assert result.converged
        assert result.povm.n_outcomes == seeds * m
        table = conditional_table(ens, result.povm)
        assert mutual_info_of_counts(table / m) == pytest.approx(
            result.mi_bits, abs=1e-12
        )
        assert mutual_info_of_povm(ens, result.povm) == pytest.approx(
            result.mi_bits, abs=1e-12
        )

    def test_two_seeds_beat_one_on_the_pinned_instance(self):
        state = zstate(TestKnownCounterexample.STATE)
        result = optimize_povm(
            ensemble_states(state, 1), OptimizerConfig(outcomes=6, seed=17)
        )
        h, _ = zm_asymmetry(state, 1)
        assert 0.6532166 <= result.mi_bits <= h

    def test_outcomes_must_be_a_multiple_of_m(self):
        ens = ensemble_states(zstate([0.5, 0.3, 0.2]), 1)
        with pytest.raises(MalformedInput, match="multiple"):
            optimize_povm(ens, OptimizerConfig(outcomes=4))

    @pytest.mark.parametrize("m, n", [(4, 1), (3, 2)])
    def test_random_states_converge_at_or_above_fourier(self, m, n):
        rng = np.random.default_rng(100 + m)
        for _ in range(40):
            state = zstate(rng.dirichlet(np.ones(m)))
            result = optimize_povm(ensemble_states(state, n), OptimizerConfig())
            assert result.converged
            assert result.mi_bits >= covariant_mutual_info_zm(state, n)[0] - 1e-9


class TestKnownCounterexample:
    """For skewed Z3 states at one copy, a three-outcome POVM genuinely
    beats the Fourier-basis measurement; pin the verified instance."""

    STATE = [0.6201700249744639, 0.3557026367891029, 0.024127338236433166]

    def test_fourier_measurement_beaten(self):
        state = zstate(self.STATE)
        ens = ensemble_states(state, 1)
        cov_value = mutual_info_of_povm(ens, covariant_povm(3))
        result = optimize_povm(
            ens, OptimizerConfig(restarts=5, seed=17, max_iters=5000)
        )
        assert cov_value == pytest.approx(0.6327814456, abs=1e-8)
        assert result.mi_bits >= cov_value + 0.018
        # The winner is a genuine measurement and respects the Holevo bound.
        effects = result.povm.effects
        assert np.max(np.abs(effects.sum(axis=0) - np.eye(3))) <= 1e-9
        h, _ = zm_asymmetry(state, 1)
        assert result.mi_bits <= h + 1e-6

    def test_binary_case_never_beaten(self):
        # Two symmetric pure states: the Fourier basis is the optimum, and
        # the ascent never finds anything above it.
        rng = np.random.default_rng(61)
        for _ in range(10):
            state = zstate(random_simplex(rng, 2))
            ens = ensemble_states(state, 1)
            cov_value = mutual_info_of_povm(ens, covariant_povm(2))
            result = optimize_povm(ens, OptimizerConfig(restarts=3, seed=7))
            assert result.mi_bits <= cov_value + 1e-8
