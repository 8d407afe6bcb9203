import math

import numpy as np
import pytest
from scipy.stats import chi2_contingency

from framealign import (
    GroupSpec,
    SampleRecord,
    covariant_mutual_info_zm,
    covariant_povm,
    mutual_info_of_counts,
    plugin_mi,
    simulate_protocol,
    validate_state,
)
from framealign.core import LN2, MalformedInput, _xlogx
from framealign.sampling import counts_to_csv

from conftest import EXACT_SUM_SIZES, refuse_long_fsum, spread_simplex


def zstate(probs):
    return validate_state(probs, GroupSpec.cyclic(len(probs)))


class TestSimulateProtocol:
    def test_same_seed_identical(self, z4_psi):
        povm = covariant_povm(4)
        a = simulate_protocol(z4_psi, 2, povm, 5000, seed=3)
        b = simulate_protocol(z4_psi, 2, povm, 5000, seed=3)
        assert np.array_equal(a.counts, b.counts)
        c = simulate_protocol(z4_psi, 2, povm, 5000, seed=4)
        assert not np.array_equal(a.counts, c.counts)

    def test_plus_state_is_deterministic_channel(self):
        state = zstate([0.25] * 4)
        rec = simulate_protocol(state, 1, covariant_povm(4), 20_000, seed=0)
        off_diagonal = rec.counts - np.diag(np.diag(rec.counts))
        assert int(off_diagonal.sum()) == 0
        assert int(rec.counts.sum()) == 20_000

    def test_point_mass_outcome_independent_of_x(self):
        state = zstate([1.0, 0.0, 0.0, 0.0])
        rec = simulate_protocol(state, 1, covariant_povm(4), 100_000, seed=12)
        _, p_value, _, _ = chi2_contingency(rec.counts)
        assert p_value > 0.01

    def test_rows_converge_to_conditional_table(self, z4_psi):
        from framealign.povm import conditional_table, ensemble_states

        shots = 40_000
        rec = simulate_protocol(z4_psi, 1, covariant_povm(4), shots, seed=8)
        table = conditional_table(ensemble_states(z4_psi, 1), covariant_povm(4))
        rows = rec.counts / rec.counts.sum(axis=1, keepdims=True)
        assert np.max(np.abs(rows - table)) <= 5 / math.sqrt(shots / 4)

    def test_record_validation(self):
        with pytest.raises(MalformedInput):
            SampleRecord(2, 10, np.array([[4, 4], [4, 4]]), seed=0)

    def test_arbitrary_povm_accepted(self, z4_psi):
        # A trivial identity-split measurement: outcomes carry no
        # information, so counts are x-independent and the estimate is
        # pure bias.
        from framealign.povm import PovmSpec

        effects = np.array([np.eye(4) / 4.0] * 4, dtype=complex)
        rec = simulate_protocol(z4_psi, 2, PovmSpec(effects), 40_000, seed=13)
        estimate, corrected = plugin_mi(rec)
        assert estimate <= 0.002
        _, p_value, _, _ = chi2_contingency(rec.counts)
        assert p_value > 0.01


class TestPluginMi:
    def test_diagonal_counts_give_log_m(self):
        rec = SampleRecord(4, 4000, np.diag([1000] * 4), seed=0)
        estimate, corrected = plugin_mi(rec)
        assert estimate == pytest.approx(2.0, abs=1e-12)
        assert abs(corrected - estimate) <= 3 / (2 * 4000 * math.log(2)) + 1e-12

    def test_uniform_product_counts_give_zero(self):
        rec = SampleRecord(4, 1600, np.full((4, 4), 100), seed=0)
        estimate, corrected = plugin_mi(rec)
        assert estimate == 0.0
        assert corrected <= 0.0

    def test_exact_joint_matches_analytic(self):
        # Rational circulant channel: joint counts proportional to the exact
        # joint distribution reproduce its mutual information exactly.
        q = np.array([0.7, 0.3])
        joint = np.array([[q[0], q[1]], [q[1], q[0]]]) / 2.0
        counts = (joint * 200).astype(np.int64)
        rec = SampleRecord(2, 200, counts, seed=0)
        estimate, _ = plugin_mi(rec)
        expected = 1.0 - (-0.7 * math.log2(0.7) - 0.3 * math.log2(0.3))
        assert estimate == pytest.approx(expected, abs=1e-12)

    def test_mutual_info_of_counts_accepts_weights(self):
        joint = np.array([[0.35, 0.15], [0.15, 0.35]])
        expected = 1.0 - (-0.7 * math.log2(0.7) - 0.3 * math.log2(0.3))
        assert mutual_info_of_counts(joint) == pytest.approx(expected, abs=1e-12)

    def test_monte_carlo_tracks_analytic(self, z4_psi):
        rec = simulate_protocol(z4_psi, 4, covariant_povm(4), 200_000, seed=21)
        _, corrected = plugin_mi(rec)
        analytic, _ = covariant_mutual_info_zm(z4_psi, 4)
        assert abs(corrected - analytic) <= 0.01

    @pytest.mark.parametrize("n", EXACT_SUM_SIZES)
    def test_same_bits_as_a_list_fsum(self, n):
        shape = {7: (1, 7), 2047: (23, 89), 2048: (32, 64), 65536: (256, 256)}[n]
        weights = spread_simplex(np.random.default_rng(n), n).reshape(shape) * 1e6

        def entropy(p):
            return -math.fsum(_xlogx(p).tolist()) / LN2

        joint = weights / math.fsum(weights.ravel().tolist())
        hxy = entropy(joint.ravel())
        want = entropy(joint.sum(axis=1)) + entropy(joint.sum(axis=0)) - hxy
        assert mutual_info_of_counts(weights) == want

    def test_large_table_builds_no_list(self, monkeypatch):
        rng = np.random.default_rng(7)
        counts = rng.multinomial(10**6, np.full(1 << 16, 2.0**-16)).reshape(256, 256)
        want = mutual_info_of_counts(counts)
        refuse_long_fsum(monkeypatch)
        assert mutual_info_of_counts(counts) == want


class TestCsvExport:
    def test_header_and_shape(self, z4_psi):
        rec = simulate_protocol(z4_psi, 1, covariant_povm(4), 1000, seed=2)
        lines = counts_to_csv(rec).strip().split("\n")
        assert lines[0] == "x,y,count"
        assert len(lines) == 1 + 16
        total = sum(int(line.split(",")[2]) for line in lines[1:])
        assert total == 1000
