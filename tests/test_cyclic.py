import functools
import math
import operator
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings

from framealign import (
    GroupSpec,
    INFINITE_RATE,
    alignment_rate_zm,
    asymptotic_deficits,
    copy_distribution_zm,
    covariant_mutual_info_zm,
    dft_profile,
    entropy_deficit,
    multinomial_oracle_zm,
    search_superadditive,
    superadditivity_gap,
    tensor_compose,
    validate_state,
    zm_asymmetry,
    zm_rate_series,
)
from framealign.core import (
    DegenerateProfile,
    GroupMismatch,
    MalformedInput,
    ResourceLimit,
    offset_entropy,
)
from framealign import cyclic
from framealign.cyclic import EXTRAPOLATION_LOG2, _oracle_dp, _oracle_enumerate

from conftest import (
    graded_prob_vectors,
    prob_vectors,
    random_simplex,
    refuse_long_fsum,
)

# -2*log2(sqrt(52)/64), 50-digit evaluation.
RATE_PSI = 6.299560281858908
# 2*log2(6/sqrt(2)) for the documented Z4 pair.
GAP_Z4_PAIR = 4.169925001442312
# sqrt(104)/1280 = |z_1(psi)| * |z_1(phi)|.
OMEGA1_Z4_PAIR = 0.00796721798998873


def zstate(probs):
    return validate_state(probs, GroupSpec.cyclic(len(probs)))


@pytest.fixture
def z2_skew():
    return zstate([0.75, 0.25])


class TestCopyDistribution:
    def test_z2_two_copies(self, z2_skew):
        c, dev = copy_distribution_zm(z2_skew, 2)
        assert c.c == pytest.approx([0.625, 0.375], abs=1e-15)
        assert dev.deltas == pytest.approx([0.25, -0.25], abs=1e-15)

    def test_uniform_fixed_point(self):
        state = zstate([0.2] * 5)
        c, dev = copy_distribution_zm(state, 7)
        assert c.c == pytest.approx([0.2] * 5, abs=1e-15)
        assert np.max(np.abs(dev.deltas)) <= 1e-14

    def test_matches_oracle_on_documented_state(self, z4_psi):
        c, _ = copy_distribution_zm(z4_psi, 6)
        oracle = multinomial_oracle_zm(z4_psi, 6)
        assert np.max(np.abs(c.c - oracle.c)) <= 1e-13

    def test_deviation_consistency(self, z4_psi):
        c, dev = copy_distribution_zm(z4_psi, 3)
        assert c.c == pytest.approx((1.0 + dev.deltas) / 4, abs=1e-15)

    def test_gram_identity(self):
        # The transform of the N-copy distribution equals the single-copy
        # transform raised to the N.
        rng = np.random.default_rng(17)
        from framealign.core import dft_vector

        for _ in range(20):
            m = int(rng.integers(2, 6))
            n = int(rng.integers(1, 9))
            p = random_simplex(rng, m)
            state = zstate(p)
            c, _ = copy_distribution_zm(state, n)
            single = dft_vector(state.probs)
            assert np.max(np.abs(dft_vector(c.c) - single**n)) <= 1e-12


def _squaring_power(z, n):
    """z**n by right-to-left square-and-multiply: the product, in order of
    increasing k, of z**(2**k) over the set bits k of n."""
    factors = []
    square = z
    for bit in reversed(bin(n)[2:]):
        if bit == "1":
            factors.append(square)
        square = square * square
    return functools.reduce(operator.mul, factors)


def _copy_distribution_via_dft_vector(state, n_copies):
    """copy_distribution_zm's (c, deltas) as computed before the transform
    came from the state's profile: from its own dft_vector call.  From
    N = 100 on numpy's power calls cpow, so the reference squares."""
    from framealign.core import dft_vector

    m = state.group.M
    z = dft_vector(state.probs)
    z[0] = 0.0
    powered = z**n_copies if n_copies < 100 else _squaring_power(z, n_copies)
    deltas = np.maximum(np.fft.fft(powered).real, -1.0)
    deltas[1.0 + deltas <= 64.0 * m * np.finfo(float).eps] = -1.0
    return np.maximum((1.0 + deltas) / m, 0.0), deltas


@pytest.mark.parametrize("m", [2, 3, 4096, 65536])
def test_copy_distribution_matches_its_own_transform_bitwise(m):
    # Mostly uniform with a peaked part on a few labels, as in the
    # benchmark's states, so that deltas stay nonzero up to N = 480.
    rng = np.random.default_rng(m)
    k = min(m, 8)
    p = np.full(m, 0.5 / m)
    p[rng.choice(m, size=k, replace=False)] += random_simplex(rng, k) / 2
    state = zstate(p)
    for n in (1, 99, 100, 480):
        c, dev = copy_distribution_zm(state, n)
        want_c, want_deltas = _copy_distribution_via_dft_vector(state, n)
        assert c.c.tobytes() == want_c.tobytes()
        assert dev.deltas.tobytes() == want_deltas.tobytes()


def _benchmark_style_state(m, weight, seed):
    """Uniform plus a Dirichlet(1/2) part of the given weight on min(m, 8)
    random labels."""
    rng = np.random.default_rng(seed)
    k = min(m, 8)
    p = np.full(m, (1.0 - weight) / m)
    p[rng.choice(m, size=k, replace=False)] += rng.dirichlet(np.full(k, 0.5)) * weight
    return zstate(p)


@pytest.mark.parametrize(
    "state, picks",
    [
        (lambda: zstate([0.07, 0.86, 0.03, 0.04]), None),
        (lambda: _benchmark_style_state(16, 0.9, 2), None),
        (lambda: _benchmark_style_state(65536, 0.95, 3), 300),
    ],
    ids=["z4", "z16", "z65536"],
)
def test_transform_power_within_n_eps_of_mpmath(monkeypatch, state, picks):
    # The powered transform that copy_distribution_zm hands to the FFT,
    # against the exact power of the same float z_n at 40 digits, wherever
    # |z_n|^N stays clear of underflow.
    state = state()
    profile = dft_profile(state)
    assert profile.r_max >= 0.7
    z, m = profile.z, profile.M
    picks = np.arange(1, m) if picks is None else (
        np.random.default_rng(0).choice(np.arange(1, m), picks, replace=False)
    )
    seen = []
    fft = np.fft.fft

    def spy(a, *args, **kwargs):
        seen.append(np.array(a))
        return fft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", spy)
    eps = np.finfo(float).eps
    with mpmath.workdps(40):
        for n in (100, 128, 480, 900, 2000):
            seen.clear()
            copy_distribution_zm(state, n)
            (powered,) = seen
            checked = 0
            for k in picks:
                want = mpmath.mpc(complex(z[k])) ** n
                if abs(want) < mpmath.mpf("1e-290"):
                    continue
                error = abs(mpmath.mpc(complex(powered[k])) - want) / abs(want)
                assert float(error) <= n * eps, (n, int(k))
                checked += 1
            assert checked > 0


def test_copy_distribution_of_a_long_state_builds_no_list(monkeypatch):
    # At small N the deviations sum to about 0 with a large sum |Delta|,
    # which the np.sum bound cannot settle; the TwoSum tree must.
    state = _benchmark_style_state(65536, 0.5, 7)
    want = [copy_distribution_zm(state, n)[1].deltas for n in (1, 2, 4, 8)]
    refuse_long_fsum(monkeypatch)
    for n, deltas in zip((1, 2, 4, 8), want):
        assert copy_distribution_zm(state, n)[1].deltas.tobytes() == deltas.tobytes()


class TestMultinomialOracle:
    def test_single_copy_identity(self, z4_psi):
        assert multinomial_oracle_zm(z4_psi, 1).c == pytest.approx(
            z4_psi.probs, abs=1e-15
        )

    def test_z2_by_hand(self, z2_skew):
        # 0.5625 + 0.0625 at residue 0, twice 0.1875 at residue 1.
        assert multinomial_oracle_zm(z2_skew, 2).c == pytest.approx(
            [0.625, 0.375], abs=1e-15
        )

    def test_probability_conservation(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            m = int(rng.integers(2, 6))
            n = int(rng.integers(1, 11))
            state = zstate(random_simplex(rng, m))
            total = math.fsum(multinomial_oracle_zm(state, n).c.tolist())
            assert abs(total - 1.0) <= 1e-12

    def test_dp_agrees_with_enumeration(self):
        rng = np.random.default_rng(29)
        for m, n in ((2, 10), (3, 9), (4, 7), (5, 6)):
            p = random_simplex(rng, m)
            assert np.max(
                np.abs(_oracle_dp(p, m, n) - _oracle_enumerate(p, m, n))
            ) <= 1e-13

    def test_resource_guard(self):
        state = zstate([0.2] * 5)
        with pytest.raises(ResourceLimit):
            multinomial_oracle_zm(state, 11)  # 5^11 ~ 4.9e7


class TestAsymmetry:
    def test_optimal_resource(self):
        state = zstate([0.25] * 4)
        for n in (1, 5):
            h, deficit = zm_asymmetry(state, n)
            assert h == pytest.approx(2.0, abs=1e-14)
            assert deficit == 0.0

    def test_point_mass(self):
        state = zstate([1.0, 0.0, 0.0])
        h, deficit = zm_asymmetry(state, 4)
        assert h == pytest.approx(0.0, abs=1e-12)
        assert deficit == pytest.approx(math.log2(3), abs=1e-12)

    def test_z2_deficit_matches_prediction(self, z2_skew):
        _, deficit = zm_asymmetry(z2_skew, 10)
        predicted = 0.5**20 / (2 * math.log(2))
        assert abs(deficit - predicted) <= 0.1 * predicted
        assert deficit == pytest.approx(6.879307127949009e-07, rel=1e-10)


class TestAsymptoticDeficits:
    def test_degenerate_profile(self):
        profile = dft_profile(zstate([0.25] * 4))
        with pytest.raises(DegenerateProfile):
            asymptotic_deficits(profile, 5)

    def test_z2_closed_form(self, z2_skew):
        profile = dft_profile(z2_skew)
        pred = asymptotic_deficits(profile, 10)
        assert pred.asym_bits == pytest.approx(0.5**20 / (2 * math.log(2)), rel=1e-12)
        assert pred.subdominant_ratio == 0.0  # no second modulus for M = 2
        mi_expected = 0.5**20 * (1 / (4 * math.log(2)) + 0.5 * (1 - 10 * math.log2(0.5)))
        assert pred.mi_bits == pytest.approx(mi_expected, rel=1e-12)

    def test_documented_state_degeneracy(self, z4_psi):
        profile = dft_profile(z4_psi)
        assert profile.S == (1, 3)
        assert profile.D == pytest.approx(1.0)
        pred = asymptotic_deficits(profile, 32)
        r2n = profile.r_max ** 64
        assert pred.asym_bits == pytest.approx(r2n * 2 / (2 * math.log(2)), rel=1e-12)
        assert pred.mi_bits == pytest.approx(
            r2n * (2 / (4 * math.log(2)) + 1.0 * (1 - 32 * math.log2(profile.r_max))),
            rel=1e-12,
        )
        assert pred.subdominant_ratio == 0.0  # the only non-maximal modulus is 0


class TestCovariantMutualInfo:
    def test_optimal_resource(self):
        state = zstate([1 / 3] * 3)
        mi, deficit = covariant_mutual_info_zm(state, 1)
        assert mi == pytest.approx(math.log2(3), abs=1e-14)
        assert deficit == 0.0

    def test_point_mass(self):
        state = zstate([1.0, 0.0, 0.0, 0.0])
        mi, deficit = covariant_mutual_info_zm(state, 3)
        assert mi == pytest.approx(0.0, abs=1e-12)
        assert deficit == pytest.approx(2.0, abs=1e-12)

    def test_z2_deficit_close_to_prediction(self, z2_skew):
        mi, deficit = covariant_mutual_info_zm(z2_skew, 8)
        h, _ = zm_asymmetry(z2_skew, 8)
        assert mi <= h + 1e-9
        predicted = asymptotic_deficits(dft_profile(z2_skew), 8).mi_bits
        assert abs(deficit - predicted) <= 0.25 * predicted
        assert deficit == pytest.approx(7.416824704821096e-05, rel=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(prob_vectors(min_len=2, max_len=6))
    def test_holevo_bound(self, p):
        state = zstate(p)
        for n in (1, 4):
            mi, _ = covariant_mutual_info_zm(state, n)
            h, _ = zm_asymmetry(state, n)
            assert mi <= h + 1e-9


class TestAlignmentRate:
    def test_z2_rate(self, z2_skew):
        assert alignment_rate_zm(z2_skew) == pytest.approx(2.0, abs=1e-12)

    def test_documented_state_rate(self, z4_psi):
        assert alignment_rate_zm(z4_psi) == pytest.approx(RATE_PSI, abs=1e-12)

    def test_point_mass_rate_zero(self):
        assert alignment_rate_zm(zstate([1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_is_infinite_sentinel(self):
        rate = alignment_rate_zm(zstate([0.25] * 4))
        assert rate is INFINITE_RATE
        with pytest.raises(TypeError):
            rate + 1.0  # arithmetic must fail loudly, not propagate silently


class TestRelabelingInvariance:
    @settings(max_examples=25, deadline=None)
    @given(graded_prob_vectors(min_len=2, max_len=6))
    def test_shift_changes_nothing(self, p):
        state = zstate(p)
        shifted = zstate(np.roll(p, 2))
        ra, rb = alignment_rate_zm(state), alignment_rate_zm(shifted)
        if ra is INFINITE_RATE or rb is INFINITE_RATE:
            assert ra is rb
        else:
            assert ra == pytest.approx(rb, abs=1e-12)
        for n in (1, 3):
            assert zm_asymmetry(state, n)[0] == pytest.approx(
                zm_asymmetry(shifted, n)[0], abs=1e-12
            )
            assert covariant_mutual_info_zm(state, n)[0] == pytest.approx(
                covariant_mutual_info_zm(shifted, n)[0], abs=1e-12
            )


class TestOneKernel:
    def test_series_matches_single_points_across_seam(self):
        # Seam of the exact path: 2 N log2(r_max) < EXTRAPOLATION_LOG2.
        rng = np.random.default_rng(43)
        for _ in range(20):
            m = int(rng.integers(2, 12))
            state = zstate(random_simplex(rng, m))
            r_max = dft_profile(state).r_max
            seam = -EXTRAPOLATION_LOG2 / (-2.0 * math.log2(r_max))
            n_list = sorted(
                {1, 2, 3, max(1, int(seam) - 1), int(seam) + 2, 2 * int(seam) + 5}
            )
            points = zm_rate_series(state, n_list)
            assert any(p.extrapolated for p in points)
            assert not all(p.extrapolated for p in points)
            for p in points:
                h, h_def = zm_asymmetry(state, p.n_copies)
                i, i_def = covariant_mutual_info_zm(state, p.n_copies)
                assert (p.asymmetry_bits, p.asymmetry_deficit_bits) == (h, h_def)
                assert (p.mi_bits, p.mi_deficit_bits) == (i, i_def)

    def test_subdominant_ratio_matches_label_loop(self):
        rng = np.random.default_rng(47)
        for _ in range(30):
            m = int(rng.integers(2, 40))
            profile = dft_profile(zstate(random_simplex(rng, m)))
            n = int(rng.integers(1, 200))
            rest = [profile.r[k] for k in range(1, m) if k not in profile.S]
            second = max(rest, default=0.0)
            log2r = math.log2(profile.r_max)
            expected = 2.0 ** (n * (math.log2(second) - log2r)) if second > 0 else 0.0
            assert asymptotic_deficits(profile, n).subdominant_ratio == expected


class TestTensorCompose:
    def test_documented_pair(self, z4_psi, z4_phi):
        result = tensor_compose(z4_psi, z4_phi)
        assert result.omega_moduli == pytest.approx(
            [1.0, OMEGA1_Z4_PAIR, 0.0, OMEGA1_Z4_PAIR], abs=1e-12
        )
        assert result.gap_bits == pytest.approx(GAP_Z4_PAIR, abs=1e-10)
        ra, rb, rab = result.rate_components
        assert ra == pytest.approx(RATE_PSI, abs=1e-12)
        assert rab == pytest.approx(ra + rb + result.gap_bits, abs=1e-9)

    def test_point_mass_is_identity(self, z4_psi):
        delta = zstate([1.0, 0.0, 0.0, 0.0])
        result = tensor_compose(z4_psi, delta)
        assert result.composed.probs == pytest.approx(z4_psi.probs, abs=1e-14)

    def test_uniform_absorbs(self, z4_psi):
        uniform = zstate([0.25] * 4)
        result = tensor_compose(z4_psi, uniform)
        assert result.composed.probs == pytest.approx([0.25] * 4, abs=1e-14)
        assert result.gap_bits is None
        assert result.rate_components[1] is INFINITE_RATE

    def test_moduli_multiply(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            m = int(rng.integers(2, 7))
            a, b = zstate(random_simplex(rng, m)), zstate(random_simplex(rng, m))
            result = tensor_compose(a, b)
            expected = dft_profile(a).r * dft_profile(b).r
            assert np.max(np.abs(result.omega_moduli - expected)) <= 1e-12

    def test_group_mismatch(self, z4_psi, z2_skew):
        with pytest.raises(GroupMismatch):
            tensor_compose(z4_psi, z2_skew)

    @pytest.mark.parametrize("m", [2, 3, 4, 7, 64])
    def test_convolution_matches_double_loop(self, m):
        rng = np.random.default_rng(53 + m)
        a, b = random_simplex(rng, m), random_simplex(rng, m)
        terms = [[] for _ in range(m)]
        for j in range(m):
            for k in range(m):
                terms[(j + k) % m].append(a[j] * b[k])
        expected = np.array([math.fsum(t) for t in terms])
        assert np.max(np.abs(cyclic._cyclic_convolve(a, b) - expected)) <= 1e-15
        composed = tensor_compose(zstate(a), zstate(b)).composed.probs
        assert np.max(np.abs(composed - expected)) <= 1e-15


class TestSuperadditivityGap:
    def test_documented_pair(self, z4_psi, z4_phi):
        assert superadditivity_gap(z4_psi, z4_phi) == pytest.approx(
            GAP_Z4_PAIR, abs=1e-10
        )

    def test_m2_and_m3_strongly_additive(self):
        rng = np.random.default_rng(37)
        for m in (2, 3):
            for _ in range(25):
                a, b = zstate(random_simplex(rng, m)), zstate(random_simplex(rng, m))
                assert superadditivity_gap(a, b) == 0.0
                # Composition reports the same exact zero, not rounding noise.
                assert tensor_compose(a, b).gap_bits == 0.0

    def test_degenerate_factor_rejected(self, z4_psi):
        with pytest.raises(DegenerateProfile):
            superadditivity_gap(z4_psi, zstate([0.25] * 4))

    def test_gap_never_negative(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            m = int(rng.integers(2, 7))
            a, b = zstate(random_simplex(rng, m)), zstate(random_simplex(rng, m))
            assert superadditivity_gap(a, b) >= 0.0

    def test_composition_can_become_perfect(self, z4_psi):
        # psi kills the middle index, this partner kills the odd ones; the
        # composition has a vanishing transform tail, so the joint resource
        # is perfect and the gap is unbounded.
        partner = zstate([0.3, 0.2, 0.3, 0.2])
        assert superadditivity_gap(z4_psi, partner) == math.inf
        result = tensor_compose(z4_psi, partner)
        assert result.rate_components[2] is INFINITE_RATE
        assert result.composed.probs == pytest.approx([0.25] * 4, abs=1e-14)


class TestSearch:
    def test_deterministic(self):
        first = search_superadditive(4, 300, seed=9)
        second = search_superadditive(4, 300, seed=9)
        assert np.array_equal(first.a.probs, second.a.probs)
        assert np.array_equal(first.b.probs, second.b.probs)
        assert first.gap_bits == second.gap_bits

    def test_m4_finds_large_gap(self):
        result = search_superadditive(4, 10_000, seed=1)
        assert result.gap_bits > 0.5
        # Witness must reproduce its reported gap.
        assert superadditivity_gap(result.a, result.b) == pytest.approx(
            result.gap_bits, abs=1e-9
        )

    @pytest.mark.parametrize("m", [2, 3])
    def test_small_orders_stay_additive(self, m):
        assert search_superadditive(m, 1000, seed=3).gap_bits <= 1e-10

    def test_workers_deterministic(self):
        a = search_superadditive(4, 1000, seed=5, workers=4)
        b = search_superadditive(4, 1000, seed=5, workers=4)
        assert a.gap_bits == b.gap_bits
        assert np.array_equal(a.a.probs, b.a.probs)

    def test_rejects_bad_args(self):
        with pytest.raises(MalformedInput):
            search_superadditive(1, 10, seed=0)
        with pytest.raises(MalformedInput):
            search_superadditive(4, 0, seed=0)
        with pytest.raises(ResourceLimit):
            search_superadditive(cyclic.SEARCH_MAX_M + 1, 1, seed=0)


def _oracle_block(m, n_trials, seed, block):
    """The search block as a fresh-array FFT kernel: two (M, n) draws,
    rfft along axis 0, squared moduli from the real and imaginary parts."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, block]))
    draws = [rng.standard_exponential((m, n_trials)) for _ in range(2)]
    sa, sb = (np.fft.rfft(p, axis=0)[1 : m // 2 + 1] for p in draws)
    gaps = cyclic._gap_bits(sa.real**2 + sa.imag**2, sb.real**2 + sb.imag**2)
    best = gaps.max()
    tied = np.flatnonzero(gaps == best)
    pa, pb = (p[:, tied] / p[:, tied].sum(axis=0) for p in draws)
    first = np.lexsort(np.vstack([pa, pb])[::-1])[0]
    return float(best), pa[:, first].copy(), pb[:, first].copy()


def _oracle_blocks(m, trials, seed):
    per_block = max(1, cyclic.SEARCH_BLOCK_CELLS // m)
    return [
        _oracle_block(m, min(per_block, trials - start), seed, index)
        for index, start in enumerate(range(0, trials, per_block))
    ]


def _tuple_key(found):
    """The reference witness order: descending gap, then (a, b) compared as
    tuples, as `min` orders them."""
    gap, a, b = found
    return -gap, tuple(a), tuple(b)


def _fake_block(calls):
    """Stand-in for cyclic._search_block that records its sizes and
    allocates nothing beyond a uniform witness."""

    def block(work, seed, index):
        _, m, n_trials = work.draws.shape
        calls.append((index, n_trials))
        uniform = np.full(m, 1.0 / m)
        return 0.0, uniform, uniform

    return block


class _PoolRecorder:
    """Stand-in for ThreadPoolExecutor that records max_workers and runs
    the jobs in the calling thread."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return [fn(item) for item in items]


class TestBlockedSearch:
    @pytest.mark.parametrize("cells", [None, 48])
    @pytest.mark.parametrize("m", [3, 4, 7])
    def test_workers_do_not_change_the_witness(self, monkeypatch, m, cells):
        if cells is not None:
            monkeypatch.setattr(cyclic, "SEARCH_BLOCK_CELLS", cells)
        monkeypatch.setattr(cyclic.os, "cpu_count", lambda: 3)
        per_block = max(1, cyclic.SEARCH_BLOCK_CELLS // m)
        trials = 3 * per_block + 5
        results = [
            search_superadditive(m, trials, seed=11, workers=w) for w in (1, 2, 3)
        ]
        for other in results[1:]:
            assert other.gap_bits == results[0].gap_bits
            assert np.array_equal(other.a.probs, results[0].a.probs)
            assert np.array_equal(other.b.probs, results[0].b.probs)

    @pytest.mark.parametrize(
        "m, trials",
        [
            (2, 1),
            (2, 10**7),
            (4, 16384),
            (4, 16385),
            (7, 10**6),
            (1 << 15, 9),
            (1 << 16, 5),
            ((1 << 16) + 3, 5),
        ],
    )
    def test_blocks_respect_the_cell_budget(self, monkeypatch, m, trials):
        calls = []
        monkeypatch.setattr(cyclic, "_search_block", _fake_block(calls))
        search_superadditive(m, trials, seed=0)
        budget = max(m, cyclic.SEARCH_BLOCK_CELLS)
        assert [index for index, _ in calls] == list(range(len(calls)))
        assert all(1 <= n and n * m <= budget for _, n in calls)
        assert sum(n for _, n in calls) == trials
        # every block but the last is full
        assert len({n for _, n in calls[:-1]}) <= 1
        assert calls[-1][1] <= calls[0][1]

    @pytest.mark.parametrize(
        "workers, cpus, trials, expected",
        [
            (8, 2, 10**6, [2]),  # capped by the CPU count
            (3, 4, 20_000, [2]),  # capped by the two blocks
            (3, 4, 10**6, [3]),
            (2, 2, 100, []),  # one block runs in the calling thread
            (4, None, 10**6, []),  # unknown CPU count: one thread
            (1, 8, 10**6, []),
        ],
    )
    def test_thread_cap(self, monkeypatch, workers, cpus, trials, expected):
        calls = []
        monkeypatch.setattr(cyclic, "_search_block", _fake_block(calls))
        monkeypatch.setattr(cyclic, "ThreadPoolExecutor", _PoolRecorder)
        monkeypatch.setattr(_PoolRecorder, "sizes", [])
        monkeypatch.setattr(cyclic.os, "cpu_count", lambda: cpus)
        search_superadditive(4, trials, seed=0, workers=workers)
        assert _PoolRecorder.sizes == expected
        assert sorted(index for index, _ in calls) == list(range(len(calls)))

    @pytest.mark.parametrize("m", [3, 4])
    def test_witness_owns_its_data(self, m):
        # A view would keep the whole block's draws alive.
        _, a, b = cyclic._search_block(cyclic._SearchWorkspace(m, 500), 0, 0)
        assert a.base is None and b.base is None
        result = search_superadditive(m, 500, seed=0)
        assert result.a.probs.base is None and result.b.probs.base is None

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 8, 16, 31, 64, 65, 128])
    def test_workspace_kernel_matches_the_fft_oracle(self, monkeypatch, m):
        # Two full blocks and a partial one, run on two threads.
        monkeypatch.setattr(cyclic.os, "cpu_count", lambda: 2)
        per_block = cyclic.SEARCH_BLOCK_CELLS // m
        trials, seed = 2 * per_block + 7, m
        gap, a, b = min(_oracle_blocks(m, trials, seed), key=_tuple_key)
        result = search_superadditive(m, trials, seed=seed, workers=2)
        assert np.array_equal(result.a.probs, a)
        assert np.array_equal(result.b.probs, b)
        if m <= 3 or m > cyclic.SEARCH_DFT_MATRIX_MAX_M:
            assert result.gap_bits == gap
        else:
            assert result.gap_bits == pytest.approx(gap, rel=1e-13)

    @pytest.mark.parametrize("m", [2, 3, 4, 6])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_seeded_witness_follows_the_tuple_order(self, monkeypatch, m, workers):
        # Many small blocks: every block ties at M <= 3, none at M = 4, 6.
        monkeypatch.setattr(cyclic, "SEARCH_BLOCK_CELLS", 24)
        monkeypatch.setattr(cyclic.os, "cpu_count", lambda: 2)
        for seed in range(5):
            gap, a, b = min(_oracle_blocks(m, 40, seed), key=_tuple_key)
            result = search_superadditive(m, 40, seed=seed, workers=workers)
            assert np.array_equal(result.a.probs, a)
            assert np.array_equal(result.b.probs, b)
            assert result.gap_bits == pytest.approx(gap, rel=1e-13)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_gap_ties_compare_the_arrays_like_tuples(self, monkeypatch, workers):
        # Two gap values, and witnesses that share long prefixes, so ties
        # are decided at every position of a and of b.
        rng = np.random.default_rng(3)
        m, n_blocks = 6, 40
        found = []
        for _ in range(n_blocks):
            a, b = rng.integers(0, 2, size=(2, m)).astype(float) + 1.0
            found.append((float(rng.integers(1, 3)), a / a.sum(), b / b.sum()))

        def block(work, seed, index):
            return found[index]

        monkeypatch.setattr(cyclic, "SEARCH_BLOCK_CELLS", m)
        monkeypatch.setattr(cyclic, "_search_block", block)
        monkeypatch.setattr(cyclic.os, "cpu_count", lambda: 2)
        gap, a, b = min(found, key=_tuple_key)
        result = search_superadditive(m, n_blocks, seed=0, workers=workers)
        assert result.gap_bits == gap
        assert np.array_equal(result.a.probs, a)
        assert np.array_equal(result.b.probs, b)

    def test_large_order_search_builds_no_per_element_keys(self):
        # Two blocks of one trial at M = 2^18 peak at about 20 MiB, 8 of
        # them the workspace; with two tuple keys of M floats, 48 MiB.
        tracemalloc.start()
        try:
            search_superadditive(1 << 18, 2, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_witness_survives_later_blocks(self, monkeypatch):
        # Block 0 wins, and blocks 1 and 2 then overwrite the one workspace.
        monkeypatch.setattr(cyclic, "SEARCH_BLOCK_CELLS", 16)
        m, trials = 4, 12

        def block_0_wins(seed):
            gaps = [gap for gap, _, _ in _oracle_blocks(m, trials, seed)]
            return gaps[0] > max(gaps[1:])

        seed = next(s for s in range(100) if block_0_wins(s))
        _, a, b = _oracle_blocks(m, trials, seed)[0]
        result = search_superadditive(m, trials, seed=seed)
        assert np.array_equal(result.a.probs, a)
        assert np.array_equal(result.b.probs, b)

    @pytest.mark.parametrize("m", [2, 3])
    def test_small_orders_exactly_zero_across_blocks(self, monkeypatch, m):
        monkeypatch.setattr(cyclic, "SEARCH_BLOCK_CELLS", 16)
        assert search_superadditive(m, 200, seed=4).gap_bits == 0.0

    def test_tie_across_blocks_is_lexicographic(self, monkeypatch):
        witnesses = {
            0: ([0.4, 0.2, 0.2, 0.2], [0.1, 0.2, 0.3, 0.4]),
            1: ([0.1, 0.3, 0.3, 0.3], [0.3, 0.3, 0.2, 0.2]),
            2: ([0.1, 0.3, 0.3, 0.3], [0.2, 0.3, 0.2, 0.3]),
            3: ([0.7, 0.1, 0.1, 0.1], [0.25] * 4),
        }

        def block(work, seed, index):
            a, b = witnesses[index]
            return (2.5 if index < 3 else 1.0), np.array(a), np.array(b)

        monkeypatch.setattr(cyclic, "SEARCH_BLOCK_CELLS", 4)
        monkeypatch.setattr(cyclic, "_search_block", block)
        monkeypatch.setattr(cyclic.os, "cpu_count", lambda: 2)
        for workers in (1, 2):
            result = search_superadditive(4, 4, seed=0, workers=workers)
            assert result.gap_bits == 2.5
            assert result.a.probs.tolist() == witnesses[2][0]
            assert result.b.probs.tolist() == witnesses[2][1]

    def test_all_tied_orders_take_the_smallest_draw(self, monkeypatch):
        # At M = 3 every trial ties at gap 0, so the witness is the
        # lexicographically smallest normalized pair over every block, and
        # block b draws from SeedSequence([seed, b]).
        monkeypatch.setattr(cyclic, "SEARCH_BLOCK_CELLS", 12)
        m, trials, seed = 3, 30, 8
        pairs = []
        for index, start in enumerate(range(0, trials, 4)):
            rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
            n = min(4, trials - start)
            pa, pb = (rng.standard_exponential((m, n)) for _ in range(2))
            for i in range(n):
                a, b = pa[:, i] / pa[:, i].sum(), pb[:, i] / pb[:, i].sum()
                pairs.append((tuple(a.tolist()), tuple(b.tolist())))
        a, b = min(pairs)
        result = search_superadditive(m, trials, seed=seed)
        assert tuple(result.a.probs.tolist()) == a
        assert tuple(result.b.probs.tolist()) == b


def _exact_point_via_copy_distribution(state, n):
    """A rate point below the seam from the public N-copy distribution and
    the profile's public pieces: the series' reference."""
    profile = dft_profile(state)
    log2m = math.log2(profile.M)
    pred = asymptotic_deficits(profile, n)
    _, dev = copy_distribution_zm(state, n)
    a_def = entropy_deficit(dev)
    m_def = offset_entropy(cyclic._root_deviations(dev), profile.M)

    def lin(deficit):
        return -math.log2(deficit) / n if deficit > 0 else math.inf

    return cyclic.ZmRatePoint(
        n, log2m - a_def, a_def, log2m - m_def, m_def, pred.asym_bits,
        pred.mi_bits, lin(a_def), lin(m_def), alignment_rate_zm(state), False,
    )


class TestRateSeries:
    @settings(max_examples=60, deadline=None)
    @given(graded_prob_vectors(min_len=2, max_len=9))
    def test_points_match_the_public_copy_distribution(self, p):
        state = zstate(p)
        r_max = dft_profile(state).r_max
        # r_max = 1 (support on a coset) rounds to just below 1: no seam.
        assume(0.0 < r_max < 0.999)
        seam = max(1, int(EXTRAPOLATION_LOG2 / (2.0 * math.log2(r_max))))
        n_list = sorted({1, 2, 7, max(1, seam - 1), seam, seam + 1, seam + 2})
        points = zm_rate_series(state, n_list)
        assert not points[0].extrapolated and points[-1].extrapolated
        for n, point in zip(n_list, points):
            if point.extrapolated:
                assert point.asymmetry_deficit_bits == point.predicted_asym_deficit
                assert point.mi_deficit_bits == point.predicted_mi_deficit
            else:
                assert point == _exact_point_via_copy_distribution(state, n)

    def test_monotone_convergence_documented_state(self, z4_psi):
        points = zm_rate_series(z4_psi, [8, 16, 32])
        target = points[0].rate_target
        assert target == pytest.approx(RATE_PSI, abs=1e-12)
        asym_gaps = [abs(p.lin_asym_per_copy - target) for p in points]
        mi_gaps = [abs(p.lin_mi_per_copy - target) for p in points]
        assert asym_gaps[0] > asym_gaps[1] > asym_gaps[2]
        assert mi_gaps[0] > mi_gaps[1] > mi_gaps[2]

    def test_monotone_transfer_to_linearized_values(self):
        # I <= H pushes through the increasing linearization, so per-copy
        # linearized information never exceeds linearized asymmetry.
        rng = np.random.default_rng(47)
        for _ in range(20):
            m = int(rng.integers(2, 6))
            state = zstate(random_simplex(rng, m))
            for p in zm_rate_series(state, [2, 8, 32]):
                assert p.mi_bits <= p.asymmetry_bits + 1e-9
                if math.isfinite(p.lin_asym_per_copy):
                    assert p.lin_mi_per_copy <= p.lin_asym_per_copy + 1e-9

    def test_lin_asym_bound(self, z4_psi):
        # |lin - target| is controlled by log2(|S|/(2 ln 2))/N plus slack.
        profile = dft_profile(z4_psi)
        envelope = abs(math.log2(len(profile.S) / (2 * math.log(2))))
        for p in zm_rate_series(z4_psi, [8, 16, 32]):
            assert abs(p.lin_asym_per_copy - p.rate_target) <= (
                envelope + 0.2
            ) / p.n_copies

    def test_deficits_match_predictions_when_clean(self, z4_psi):
        # The only non-maximal modulus of psi vanishes, so exact deficits sit
        # on their predictions to near machine precision.
        for p in zm_rate_series(z4_psi, [8, 16]):
            assert p.asymmetry_deficit_bits == pytest.approx(
                p.predicted_asym_deficit, rel=1e-6
            )
            assert p.mi_deficit_bits == pytest.approx(
                p.predicted_mi_deficit, rel=1e-6
            )
            assert not p.extrapolated

    def test_asymptotic_validity_window(self):
        # Predictions match measured deficits once both neglected families of
        # terms are small: subdominant moduli, bounded by (r/r_max)^N, and
        # the higher powers of the deviations, bounded by multiples of
        # r_max^N (cubic) and r_max^(2N) (quartic).
        rng = np.random.default_rng(43)
        checked = 0
        for _ in range(200):
            m = int(rng.integers(2, 6))
            state = zstate(random_simplex(rng, m))
            profile = dft_profile(state)
            if profile.r_max == 0:
                continue
            r_n = profile.r_max
            for n in (16, 32, 64):
                pred = asymptotic_deficits(profile, n)
                if (
                    pred.subdominant_ratio > 1e-3
                    or r_n**n > 1e-3
                    or pred.asym_bits < 1e-280
                ):
                    continue
                _, deficit = zm_asymmetry(state, n)
                tol = 3 * pred.subdominant_ratio + 8 * m * r_n**n + 1e-12
                assert abs(deficit - pred.asym_bits) <= tol * pred.asym_bits + 1e-300
                checked += 1
        assert checked > 20

    def test_extrapolated_regime(self, z2_skew):
        points = zm_rate_series(z2_skew, [100, 500, 100_000])
        assert not points[0].extrapolated
        assert points[1].extrapolated and points[2].extrapolated
        # Linearized values stay finite and keep converging to the rate.
        expected_tail = -math.log2(1 / (2 * math.log(2))) / 100_000
        assert points[2].lin_asym_per_copy == pytest.approx(
            2.0 + expected_tail, abs=1e-12
        )

    def test_uniform_state_series(self):
        points = zm_rate_series(zstate([0.25] * 4), [2, 4])
        for p in points:
            assert p.rate_target is INFINITE_RATE
            assert p.asymmetry_deficit_bits == 0.0
            assert math.isinf(p.lin_asym_per_copy)
