import itertools
import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import xlogy
from scipy.stats import binom

from framealign import (
    GroupSpec,
    QuadratureSpec,
    copy_distribution_u1,
    covariant_mutual_info_u1,
    number_variance,
    regularized_asymmetry_u1,
    u1_asymmetry,
    u1_rate_series,
    validate_state,
)
from framealign.core import (
    GridTooCoarse,
    GroupMismatch,
    MalformedInput,
    ResourceLimit,
    shannon_entropy,
)
from framealign.u1 import (
    DEFAULT_COEFF_CAP,
    MAX_GRID_POINTS,
    distribution_variance,
)

from conftest import EXACT_SUM_SIZES, random_simplex, spread_simplex

# Analytic value of the covariant-measurement information for one copy of
# the balanced qubit: 1/ln2 - 1.
MI_QUBIT_N1 = 0.4426950408889634

# Exact balanced-binomial entropies, 50-digit evaluation.
BINOM_ENTROPY = {256: 5.047093736187617, 1024: 6.047095470300913, 4096: 7.047095578011196}


def u1_state(probs):
    return validate_state(probs, GroupSpec.u1(len(probs)))


def conv_power_oracle(p, n_copies):
    """Direct-convolution oracle: n-fold linear self-convolution of p by
    binary squaring with np.convolve, no Fourier transform anywhere."""
    result = np.ones(1)
    base = np.asarray(p, dtype=float)
    k = n_copies
    while True:
        if k & 1:
            result = np.convolve(result, base)
        k >>= 1
        if k == 0:
            return result
        base = np.convolve(base, base)


def full_grid_mi(c):
    """Covariant information by the trapezoid rule on the whole K-point grid:
    one complex FFT, no use of the density's symmetry."""
    k = QuadratureSpec.for_length(len(c)).grid_points
    amp = np.zeros(k)
    amp[: len(c)] = np.sqrt(c)
    g = np.abs(np.fft.fft(amp)) ** 2
    return max(math.fsum(xlogy(g, g).tolist()) / (k * math.log(2)), 0.0)


def binomial_entropy_mp(n, p1):
    """Entropy (bits) of Binomial(n, p1) from 30-digit loggamma terms over
    mean +- 13 sigma; the terms left out are below 1e-35 each."""
    with mp.workdps(30):
        lp, lq = mp.log(mp.mpf(p1)), mp.log(1 - mp.mpf(p1))
        lgn = mp.loggamma(n + 1)
        mean, sd = n * p1, math.sqrt(n * p1 * (1 - p1))
        h = mp.mpf(0)
        for k in range(max(0, int(mean - 13 * sd)), min(n, int(mean + 13 * sd)) + 1):
            lpk = lgn - mp.loggamma(k + 1) - mp.loggamma(n - k + 1) + k * lp + (n - k) * lq
            h -= mp.exp(lpk) * lpk
        return float(h / mp.log(2))


def reachable_labels(probs, n_copies):
    """Totals that n_copies draws from the support of probs can reach."""
    step = (np.asarray(probs) > 0).astype(float)
    reach = np.ones(1)
    for _ in range(n_copies):
        reach = (np.convolve(reach, step) > 0).astype(float)
    return reach > 0


def enumerate_copy_distribution(probs, n_copies):
    """Independent oracle: walk every length-N string and bin by total."""
    d = len(probs)
    out = np.zeros(n_copies * (d - 1) + 1)
    for string in itertools.product(range(d), repeat=n_copies):
        out[sum(string)] += math.prod(probs[s] for s in string)
    return out


class TestNumberVariance:
    def test_balanced_qubit(self, qubit_half):
        assert number_variance(qubit_half) == pytest.approx(0.25, abs=1e-15)

    def test_point_masses(self):
        assert number_variance(u1_state([1.0])) == 0.0
        assert number_variance(u1_state([1.0, 0.0, 0.0])) == 0.0

    def test_uniform_qutrit(self):
        assert number_variance(u1_state([1 / 3] * 3)) == pytest.approx(2 / 3, abs=1e-14)

    def test_rejects_cyclic(self, z4_psi):
        with pytest.raises(GroupMismatch):
            number_variance(z4_psi)

    @pytest.mark.parametrize("n", EXACT_SUM_SIZES)
    def test_same_bits_as_a_list_fsum(self, n):
        c = spread_simplex(np.random.default_rng(n), n)
        labels = np.arange(n, dtype=float)
        mean = math.fsum((labels * c).tolist())
        want = math.fsum((c * (labels - mean) ** 2).tolist())
        assert distribution_variance(c) == want


class TestCopyDistribution:
    def test_binomial(self, qubit_half):
        c = copy_distribution_u1(qubit_half, 2).c
        assert c == pytest.approx([0.25, 0.5, 0.25], abs=1e-15)

    def test_single_copy_identity(self):
        state = u1_state([0.2, 0.5, 0.3])
        assert copy_distribution_u1(state, 1).c == pytest.approx(
            state.probs, abs=1e-15
        )

    def test_uniform_qutrit_two_copies(self):
        c = copy_distribution_u1(u1_state([1 / 3] * 3), 2).c
        expected = enumerate_copy_distribution([1 / 3] * 3, 2)
        assert expected == pytest.approx(np.array([1, 2, 3, 2, 1]) / 9, abs=1e-15)
        assert c == pytest.approx(expected, abs=1e-15)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(5)
        for d in (2, 3):
            for n in (1, 3, 5, 8):
                p = random_simplex(rng, d)
                c = copy_distribution_u1(u1_state(p), n).c
                assert np.max(np.abs(c - enumerate_copy_distribution(p, n))) <= 1e-12

    def test_doubling_matches_iterated(self):
        # One more copy by direct convolution: the FFT power at 65 copies
        # must agree with the one at 64 convolved once more with p.
        rng = np.random.default_rng(6)
        p = random_simplex(rng, 3)
        state = u1_state(p)
        c65 = copy_distribution_u1(state, 65).c
        manual = np.convolve(copy_distribution_u1(state, 64).c, p)
        assert np.max(np.abs(c65 - manual)) <= 1e-14

    def test_semigroup_property(self):
        rng = np.random.default_rng(8)
        p = random_simplex(rng, 3)
        state = u1_state(p)
        lhs = copy_distribution_u1(state, 7).c
        rhs = np.convolve(copy_distribution_u1(state, 3).c, copy_distribution_u1(state, 4).c)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    @pytest.mark.parametrize("probs", [[0.0, 1.0], [0.0, 1.0, 0.0]])
    def test_zero_variance_is_exact_point_mass(self, probs):
        state = u1_state(probs)
        for n in (1, 5, 1000):
            c = copy_distribution_u1(state, n).c
            expected = np.zeros(c.size)
            expected[n * probs.index(1.0)] = 1.0
            assert c.tolist() == expected.tolist()
            assert u1_asymmetry(state, n) == 0.0

    def test_resource_limit(self, qubit_half):
        with pytest.raises(ResourceLimit):
            copy_distribution_u1(qubit_half, (1 << 20) + 1)

    def test_rejects_zero_copies(self, qubit_half):
        with pytest.raises(MalformedInput):
            copy_distribution_u1(qubit_half, 0)


class TestFftPowerAccuracy:
    """The stated bound: H and I within 5e-11 bits of exact references."""

    def test_matches_direct_convolution(self):
        rng = np.random.default_rng(31)
        for d in (2, 3, 5):
            for _ in range(2):
                state = u1_state(random_simplex(rng, d))
                for n in (1, 2, 7, 64, 65, 333, 4096):
                    oracle = conv_power_oracle(state.probs, n)
                    h = u1_asymmetry(state, n)
                    assert abs(h - shannon_entropy(oracle)) <= 5e-11
                    i = covariant_mutual_info_u1(state, n)
                    assert abs(i - full_grid_mi(oracle)) <= 5e-11

    @pytest.mark.parametrize("n", [4096, 16384])
    @pytest.mark.parametrize("p1", [0.5, 0.3, 0.17, 0.83])
    def test_binomial_entropy_extended_precision(self, p1, n):
        state = u1_state([1 - p1, p1])
        assert abs(u1_asymmetry(state, n) - binomial_entropy_mp(n, p1)) <= 5e-11

    def test_binomial_entropy_at_the_cap(self):
        n = DEFAULT_COEFF_CAP - 1
        state = u1_state([0.7, 0.3])
        assert abs(u1_asymmetry(state, n) - binomial_entropy_mp(n, 0.3)) <= 5e-11

    @pytest.mark.parametrize("n", [1, 3, 100])
    @pytest.mark.parametrize(
        "probs",
        [[1.0, 1e-40], [1e-40, 1.0], [0.5, 0.5, 1e-40], [1e-40, 0.5, 0.5]],
    )
    def test_nearly_pure_label(self, probs, n):
        # A 1e-40 weight makes theta huge; undoing the tilt must not round
        # log(1e-40) away and lift that label to the size of the others.
        state = u1_state(probs)
        oracle = conv_power_oracle(state.probs, n)
        assert abs(u1_asymmetry(state, n) - shannon_entropy(oracle)) <= 5e-11
        assert abs(covariant_mutual_info_u1(state, n) - full_grid_mi(oracle)) <= 5e-11


@pytest.mark.parametrize("probs", [[0.37, 0.63], [0.2, 0.5, 0.3]], ids=["d2", "d3"])
def test_transform_power_within_n_eps_of_mpmath(monkeypatch, probs):
    # Every transform power that copy_distribution_u1 hands to the inverse
    # FFT (untilted and both tilts), against the exact power of the same
    # float transform bin at 40 digits, wherever |z|^N stays clear of
    # underflow.  At most 300 such bins are drawn per transform.
    state = u1_state(probs)
    rng = np.random.default_rng(0)
    transforms, powers = [], []
    rfft, irfft = np.fft.rfft, np.fft.irfft

    def rfft_spy(a, *args, **kwargs):
        transforms.append(rfft(a, *args, **kwargs))
        return transforms[-1]

    def irfft_spy(a, *args, **kwargs):
        powers.append(np.array(a))
        return irfft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", rfft_spy)
    monkeypatch.setattr(np.fft, "irfft", irfft_spy)
    eps = np.finfo(float).eps
    with mp.workdps(40):
        for n in (100, 480, 2000, 65536):
            transforms.clear()
            powers.clear()
            copy_distribution_u1(state, n)
            assert len(transforms) == len(powers) == 3
            for z, powered in zip(transforms, powers):
                with np.errstate(divide="ignore"):
                    clear = np.flatnonzero(n * np.log10(np.abs(z)) >= -289.0)
                picks = rng.choice(clear, min(300, clear.size), replace=False)
                checked = 0
                for k in picks:
                    want = mp.mpc(complex(z[k])) ** n
                    if abs(want) < mp.mpf("1e-290"):
                        continue
                    error = abs(mp.mpc(complex(powered[k])) - want) / abs(want)
                    assert float(error) <= n * eps, (n, int(k))
                    checked += 1
                assert checked > 0


class TestGappedSpectra:
    """Labels a gapped state cannot reach come out exactly 0, not as FFT
    noise that square-root amplitudes would amplify."""

    @pytest.mark.parametrize("n", [8, 100, 1000])
    @pytest.mark.parametrize(
        "probs", [[0.5, 0.0, 0.5], [0.3, 0.0, 0.0, 0.7], [0.0, 0.0, 0.5, 0.5]]
    )
    def test_unreachable_labels_exactly_zero(self, probs, n):
        state = u1_state(probs)
        c = copy_distribution_u1(state, n).c
        assert np.all(c[~reachable_labels(probs, n)] == 0.0)
        oracle = conv_power_oracle(state.probs, n)
        assert abs(covariant_mutual_info_u1(state, n) - full_grid_mi(oracle)) <= 5e-11


class TestAsymmetry:
    def test_one_copy(self, qubit_half):
        assert u1_asymmetry(qubit_half, 1) == pytest.approx(1.0, abs=1e-14)

    def test_two_copies(self, qubit_half):
        assert u1_asymmetry(qubit_half, 2) == pytest.approx(1.5, abs=1e-14)

    @pytest.mark.parametrize("n", [256, 1024, 4096])
    def test_binomial_entropy_frozen(self, qubit_half, n):
        assert u1_asymmetry(qubit_half, n) == pytest.approx(
            BINOM_ENTROPY[n], abs=1e-11
        )

    def test_binomial_entropy_vs_scipy(self, qubit_half):
        # Independent route to the same number via the closed-form pmf.
        pmf = binom.pmf(np.arange(1025), 1024, 0.5)
        href = -float(np.sum(np.where(pmf > 0, pmf * np.log2(pmf), 0.0)))
        assert u1_asymmetry(qubit_half, 1024) == pytest.approx(href, abs=1e-9)

    def test_entropy_tracks_gaussian_form(self, qubit_half):
        # H grows like 0.5*log2(2*pi*e*N*V) for the balanced qubit.
        n = 4096
        target = 0.5 * math.log2(2 * math.pi * math.e * n * 0.25)
        assert abs(u1_asymmetry(qubit_half, n) - target) <= 1e-6


class TestCovariantMutualInfo:
    def test_invariant_state_carries_nothing(self):
        for probs, n in [([1, 0], 1), ([0, 1], 1), ([0, 0, 1], 5), ([0, 1, 0], 7)]:
            state = u1_state(probs)
            assert covariant_mutual_info_u1(state, n) == 0.0
            assert u1_rate_series(state, [n])[0].mutual_info_bits == 0.0

    @pytest.mark.parametrize("log2_grid", range(7, 17))
    def test_invariant_state_carries_nothing_on_every_grid(self, log2_grid):
        # log2 K - H(uniform q) rounds to a few ulps above 0 on some grids.
        quad = QuadratureSpec(1 << log2_grid)
        for probs, n in [([1.0], 3), ([0, 1], 3), ([0, 0, 1], 5)]:
            assert covariant_mutual_info_u1(u1_state(probs), n, quad) == 0.0

    def test_analytic_one_copy(self, qubit_half):
        assert covariant_mutual_info_u1(qubit_half, 1) == pytest.approx(
            MI_QUBIT_N1, abs=1e-9
        )

    def test_grid_refinement_stable(self, qubit_half):
        coarse = covariant_mutual_info_u1(qubit_half, 16, QuadratureSpec(1 << 12))
        fine = covariant_mutual_info_u1(qubit_half, 16, QuadratureSpec(1 << 16))
        assert coarse == pytest.approx(fine, abs=1e-9)

    def test_grid_too_coarse(self, qubit_half):
        with pytest.raises(GridTooCoarse):
            covariant_mutual_info_u1(qubit_half, 100, QuadratureSpec(256))

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_live_span_grid_matches_full_length_grid(self, d):
        # The default grid counts 8 points per live label, not per label of
        # the whole distribution; the information does not move.
        rng = np.random.default_rng(40 + d)
        state = u1_state(random_simplex(rng, d))
        top = 1 << 16 if d == 2 else 1 << 14
        for n in (1, 7, 100, 1000, 4096, top):
            c = copy_distribution_u1(state, n).c
            got = covariant_mutual_info_u1(state, n)
            assert abs(got - full_grid_mi(c)) <= 1e-12, n
        # At the largest N the far tails are exactly 0, and the grid is smaller.
        nz = np.flatnonzero(c)
        live = QuadratureSpec.for_length(nz[-1] - nz[0] + 1)
        assert live.grid_points < QuadratureSpec.for_length(c.size).grid_points

    def test_grid_limit_is_largest_automatic_grid(self):
        # Rejected before any grid is allocated.
        assert QuadratureSpec.for_length(DEFAULT_COEFF_CAP).grid_points == MAX_GRID_POINTS
        with pytest.raises(ResourceLimit):
            QuadratureSpec(2 * MAX_GRID_POINTS)
        with pytest.raises(ResourceLimit):
            QuadratureSpec(1 << 40)

    def test_mi_tracks_gaussian_form(self, qubit_half):
        # I approaches 0.5*log2(8*pi*N*V/e) under the covariant measurement.
        n = 1024
        target = 0.5 * math.log2(8 * math.pi * n * 0.25 / math.e)
        got = covariant_mutual_info_u1(qubit_half, n, QuadratureSpec(1 << 16))
        assert abs(got - target) <= 1e-5

    @pytest.mark.parametrize("probs", [[0.5, 0.5], [0.2, 0.5, 0.3]])
    def test_holevo_gap_tends_to_log2_e_over_2(self, probs):
        # H - I of the covariant (canonical phase) measurement does not
        # vanish for U(1): in the Gaussian limit it is log2(e/2).
        point = u1_rate_series(u1_state(probs), [4096])[0]
        gap = point.asymmetry_bits - point.mutual_info_bits
        assert abs(gap - math.log2(math.e / 2)) <= 1e-5

    def test_holevo_bound(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            d = int(rng.integers(2, 4))
            p = random_simplex(rng, d)
            state = u1_state(p)
            n = int(rng.integers(1, 33))
            mi = covariant_mutual_info_u1(state, n)
            h = u1_asymmetry(state, n)
            assert mi <= h + 1e-6

    def test_mean_shift_invariance(self, qubit_half):
        shifted = u1_state([0.0, 0.0, 0.5, 0.5])
        quad = QuadratureSpec(1 << 14)
        assert u1_asymmetry(qubit_half, 8) == pytest.approx(
            u1_asymmetry(shifted, 8), abs=1e-12
        )
        assert covariant_mutual_info_u1(qubit_half, 8, quad) == pytest.approx(
            covariant_mutual_info_u1(shifted, 8, quad), abs=1e-12
        )


class TestRegularizedAsymmetry:
    def test_balanced_qubit_is_pi(self, qubit_half):
        assert regularized_asymmetry_u1(qubit_half) == pytest.approx(math.pi)

    def test_point_mass_zero(self):
        assert regularized_asymmetry_u1(u1_state([1.0, 0.0])) == 0.0

    def test_uniform_qutrit(self):
        assert regularized_asymmetry_u1(u1_state([1 / 3] * 3)) == pytest.approx(
            8 * math.pi / 3
        )


class TestRateSeries:
    def test_zero_resource_state(self):
        points = u1_rate_series(u1_state([1.0, 0.0]), [1, 2, 4])
        for p in points:
            assert p.variance_target == 0.0
            assert p.lin_asymmetry_per_copy == pytest.approx(1.0 / p.n_copies)
            assert p.lin_mi_per_copy == pytest.approx(1.0 / p.n_copies)

    def test_order_preserved(self, qubit_half):
        points = u1_rate_series(qubit_half, [4, 2, 8])
        assert [p.n_copies for p in points] == [4, 2, 8]

    def test_lin_asym_converges_to_gaussian_constant(self, qubit_half):
        # 2^(2H)/N for the balanced qubit approaches (2*pi*e)*V, V = 1/4.
        point = u1_rate_series(qubit_half, [4096])[0]
        assert point.lin_asymmetry_per_copy == pytest.approx(
            2 * math.pi * math.e / 4, abs=1e-4
        )

    def test_lin_mi_converges_to_gaussian_constant(self, qubit_half):
        # 2^(2I)/N approaches (8*pi/e)*V under the covariant measurement.
        point = u1_rate_series(qubit_half, [4096], QuadratureSpec(1 << 16))[0]
        assert point.lin_mi_per_copy == pytest.approx(
            8 * math.pi / (4 * math.e), abs=1e-4
        )

    def test_lin_mi_distance_to_pi_strictly_decreasing(self, qubit_half):
        quad = QuadratureSpec(1 << 16)
        points = u1_rate_series(qubit_half, [256, 1024, 4096], quad)
        dist = [abs(p.lin_mi_per_copy - math.pi) for p in points]
        assert dist[0] > dist[1] > dist[2]

    def test_holevo_bound_on_points(self, qubit_half):
        for p in u1_rate_series(qubit_half, [16, 64]):
            assert p.mutual_info_bits <= p.asymmetry_bits + 1e-6

    def test_series_matches_single_points(self):
        rng = np.random.default_rng(29)
        for d in (2, 3, 5):
            state = u1_state(random_simplex(rng, d))
            n_list = [1, 2, 7, 64, 100]
            for p in u1_rate_series(state, n_list):
                assert p.asymmetry_bits == u1_asymmetry(state, p.n_copies)
                assert p.mutual_info_bits == covariant_mutual_info_u1(
                    state, p.n_copies
                )


class TestVarianceAdditivity:
    def test_composed_copy_distributions(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            pa = random_simplex(rng, int(rng.integers(2, 4)))
            pb = random_simplex(rng, int(rng.integers(2, 4)))
            na, nb = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            ca = copy_distribution_u1(u1_state(pa), na).c
            cb = copy_distribution_u1(u1_state(pb), nb).c
            combined = np.convolve(ca, cb)
            lhs = distribution_variance(combined)
            rhs = na * number_variance(u1_state(pa)) + nb * number_variance(
                u1_state(pb)
            )
            assert lhs == pytest.approx(rhs, abs=1e-12)
