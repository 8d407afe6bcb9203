import json
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import xlogy

from framealign import (
    CopyDistribution,
    DeviationVector,
    GroupSpec,
    QuadratureSpec,
    copy_distribution_u1,
    covariant_mutual_info_u1,
    covariant_povm,
    dft_profile,
    ensemble_states,
    entropy_deficit,
    mutual_info_of_povm,
    relative_entropy_diag,
    shannon_entropy,
    state_from_json,
    state_to_json,
    validate_state,
)
from framealign import core
from framealign.core import (
    LN2,
    S_TIE_REL,
    DeltaOutOfRange,
    MalformedInput,
    NegativeProbability,
    StandardState,
    SumOutOfTolerance,
    SupportMismatch,
    WrongLength,
    _FSUM_VECTOR_MIN,
    _fsum,
    _sums_to,
    _xlogx,
    fourier_offsets,
    load_state,
    offset_entropy,
    save_state,
)
from framealign.cyclic import offset_distribution

from conftest import (
    EXACT_SUM_SIZES,
    prob_vectors,
    random_simplex,
    refuse_long_fsum,
    spread_simplex,
)

# 1 - H(0.55, 0.45) evaluated at 50 digits.
DEFICIT_PM01 = 0.007225546012191706


class TestValidateState:
    def test_already_normalized(self):
        state = validate_state((0.5, 0.5), GroupSpec.u1(2))
        assert state.probs.tolist() == [0.5, 0.5]

    def test_negative_entry(self):
        with pytest.raises(NegativeProbability):
            validate_state((0.3, -0.1, 0.8), GroupSpec.cyclic(3))

    def test_documented_z4_state(self, z4_psi):
        assert math.isclose(sum(z4_psi.probs), 1.0, abs_tol=1e-15)

    def test_wrong_length_cyclic(self):
        with pytest.raises(WrongLength):
            validate_state((0.5, 0.5), GroupSpec.cyclic(3))

    def test_sum_out_of_tolerance(self):
        with pytest.raises(SumOutOfTolerance):
            validate_state((2.0, 1.0), GroupSpec.cyclic(2))

    def test_small_slop_renormalized(self):
        state = validate_state((0.5000001, 0.5), GroupSpec.u1(2))
        assert math.isclose(math.fsum(state.probs), 1.0, abs_tol=1e-15)

    def test_long_state_builds_no_list(self, monkeypatch):
        # The normalized state's sum check is below the np.sum bound's reach
        # at this length; the TwoSum tree must settle it.
        group = GroupSpec.cyclic(1 << 16)
        p = spread_simplex(np.random.default_rng(3), 1 << 16)
        want = validate_state(p, group).probs
        refuse_long_fsum(monkeypatch)
        assert validate_state(p, group).probs.tobytes() == want.tobytes()

    def test_group_variant_exclusive(self):
        with pytest.raises(MalformedInput):
            GroupSpec("u1", d=2, M=2)
        with pytest.raises(MalformedInput):
            GroupSpec("cyclic", M=1)


def _fsum_check(x: np.ndarray, target: float, tol: float):
    """The sum check as written before the np.sum shortcut."""
    try:
        return abs(math.fsum(x.tolist()) - target) <= tol
    except (OverflowError, ValueError) as exc:
        return type(exc)


@st.composite
def _near_tolerance_sums(draw):
    """Vectors whose exact sum sits at, just inside or just outside
    target +- tol, some with cancelling large pairs that throw np.sum off
    by more than the tolerance."""
    target = draw(st.sampled_from([0.0, 1.0]))
    tol = draw(st.sampled_from([1e-12, 1e-10]))
    terms = draw(
        st.lists(st.floats(-1e3, 1e3, allow_subnormal=False), min_size=1, max_size=300)
    )
    scale = draw(st.sampled_from([1.0, 1e-6, 1e-12]))
    x = np.array(terms) * scale
    off = draw(st.sampled_from([0.0, 0.25, 0.5, 0.999999, 1.0, 1.000001, 3.0]))
    sign = draw(st.sampled_from([-1.0, 1.0]))
    x = x - math.fsum(x.tolist()) / x.size + (target + sign * off * tol) / x.size
    big = np.array(draw(st.lists(st.floats(1e2, 1e8), max_size=20)))
    return np.concatenate([big, x, -big]), target, tol


class TestSumChecks:
    """`_sums_to` answers exactly as abs(math.fsum(x) - target) <= tol."""

    @settings(max_examples=400, deadline=None)
    @given(_near_tolerance_sums())
    def test_matches_fsum_near_the_tolerance(self, case):
        x, target, tol = case
        assert _sums_to(x, target, tol) == _fsum_check(x, target, tol)

    @pytest.mark.parametrize(
        "x",
        [
            [np.nan, 0.0],
            [np.inf, -1.0],
            [np.inf, -np.inf],
            [1e308, 1e308, -1e308],
            [0.5, 0.5 + 2e-10],
            [],
        ],
    )
    def test_non_finite_and_overflowing_terms(self, x):
        x = np.array(x, dtype=float)
        want = _fsum_check(x, 1.0, 1e-10)
        if isinstance(want, type):
            with pytest.raises(want):
                _sums_to(x, 1.0, 1e-10)
        else:
            assert _sums_to(x, 1.0, 1e-10) == want

    def test_containers_keep_their_tolerances(self):
        m = 1 << 16
        uniform = np.full(m, 1.0 / m)
        CopyDistribution(GroupSpec.cyclic(m), 1, uniform)
        DeviationVector(m, np.full(m, 1e-300))
        off = uniform.copy()
        off[0] += 2e-10
        with pytest.raises(SumOutOfTolerance):
            CopyDistribution(GroupSpec.cyclic(m), 1, off)
        with pytest.raises(SumOutOfTolerance):
            DeviationVector(2, np.array([1.0, -1.0 + 2e-10]))
        DeviationVector(2, np.array([1.0, -1.0 + 5e-11]))


@pytest.mark.parametrize(
    "make, args",
    [
        (StandardState, (GroupSpec.cyclic(2), [1e308, 1e308])),
        (CopyDistribution, (GroupSpec.cyclic(2), 1, [1e308, 1e308])),
        (DeviationVector, (2, [1e308, 1e308])),
        (DeviationVector, (2, [np.inf, -np.inf])),
    ],
)
def test_containers_report_unsummable_entries_as_out_of_tolerance(make, args):
    # fsum raises OverflowError on the first three and ValueError on inf - inf.
    with pytest.raises(SumOutOfTolerance):
        make(*args)


@st.composite
def _long_near_tolerance_sums(draw):
    """As _near_tolerance_sums, at the lengths where _sums_to can use the
    TwoSum tree: 2048 to 70000 terms of spread magnitudes from a seeded
    generator, shifted so that their exact sum sits at, just inside or just
    outside target +- tol, some with cancelling large pairs."""
    n = draw(st.integers(_FSUM_VECTOR_MIN, 70000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    target = draw(st.sampled_from([0.0, 1.0]))
    tol = draw(st.sampled_from([1e-12, 1e-10]))
    scale = draw(st.sampled_from([1.0, 1e-6, 1e-12]))
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4, n) * scale
    off = draw(st.sampled_from([0.0, 0.25, 0.5, 0.999999, 1.0, 1.000001, 3.0]))
    sign = draw(st.sampled_from([-1.0, 1.0]))
    x = x - math.fsum(x.tolist()) / n + (target + sign * off * tol) / n
    # Pairs up to 1e16 leave TwoSum errors near 1, which np.sum adds with
    # an error of the order of tol.
    big_scale = draw(st.sampled_from([1.0, 1e8]))
    big = rng.uniform(1e2, 1e8, draw(st.integers(0, 20))) * big_scale
    x = np.concatenate([big, x, -big])
    rng.shuffle(x)
    return x, target, tol


@settings(max_examples=300, deadline=None)
@given(_long_near_tolerance_sums())
def test_long_sum_checks_match_fsum_near_the_tolerance(case):
    x, target, tol = case
    assert _sums_to(x, target, tol) == _fsum_check(x, target, tol)


def _assert_same_as_fsum(x: np.ndarray) -> None:
    """_fsum(x) has the repr of math.fsum over x (repr tells -0.0, nan and
    every float apart), or raises the same exception type."""
    try:
        want = repr(math.fsum(x.tolist()))
    except (OverflowError, ValueError) as exc:
        with pytest.raises(type(exc)):
            _fsum(x)
        return
    got = _fsum(x)
    assert type(got) is float
    assert repr(got) == want


@st.composite
def _fsum_inputs(draw):
    """Float vectors on both sides of the vector-path cutoff: magnitudes
    from 1e-300 to 1e300, cancelling pairs, subnormals, signed zeros, terms
    near the overflow edge, and inf or NaN."""
    n = draw(
        st.sampled_from(
            [1, 7, _FSUM_VECTOR_MIN - 1, _FSUM_VECTOR_MIN, _FSUM_VECTOR_MIN + 1, 4099]
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    low, high = draw(st.sampled_from([(0, 0), (-300, 300), (-20, 20), (-310, -290)]))
    x = rng.standard_normal(n) * 10.0 ** rng.integers(low, high + 1, n)
    if draw(st.booleans()):  # cancelling pairs, shuffled, with a small rest
        half = x[: n // 2]
        x[n // 2 : 2 * (n // 2)] = -half
        x[2 * (n // 2) :] *= draw(st.sampled_from([0.0, 1e-30, 1.0]))
        rng.shuffle(x)
    if draw(st.booleans()):  # subnormals and signed zeros
        picks = rng.integers(0, n, size=max(1, n // 8))
        x[picks] = rng.choice([0.0, -0.0, 5e-324, -5e-324, 2.0**-1060], picks.size)
    if draw(st.booleans()):
        x[:] = draw(st.sampled_from([0.0, -0.0]))
    if n >= 3 and draw(st.booleans()):  # an exact sum at, or just off, a tie
        scale = 2.0 ** draw(st.integers(-900, 900))
        nudge = draw(st.sampled_from([0.0, 2.0**-120, -(2.0**-300), 2.0**-1000]))
        pairs = rng.standard_normal((n - 3) // 2) * scale * 2.0**20
        tie = np.array([1.0, 2.0**-53, nudge]) * scale
        x = np.concatenate([tie, pairs, -pairs, np.zeros((n - 3) % 2)])
        rng.shuffle(x)
    extra = draw(
        st.lists(
            st.one_of(
                st.floats(allow_nan=True, allow_infinity=True),
                st.sampled_from([1e308, -1e308, 1.7e308, math.inf, -math.inf]),
            ),
            max_size=4,
        )
    )
    x[rng.integers(0, n, size=len(extra))] = extra
    return x


class TestFsum:
    """`_fsum(x)` is exactly `math.fsum(x.tolist())`."""

    @settings(max_examples=400, deadline=None)
    @given(_fsum_inputs())
    def test_matches_math_fsum(self, x):
        _assert_same_as_fsum(x)

    @pytest.mark.parametrize(
        "x",
        [
            [1e308, 1e308, -1e308] + [0.0] * 4096,
            [1e308, -1e308] * 2048 + [1e308, 1e308],
            [math.inf, -math.inf] + [1.0] * 4096,
            [math.nan] + [1.0] * 4096,
            [-0.0] * 4096,
            [0.1] * 4095 + [-409.49999999999994],
            # 1 + 2^-53 is a tie that rounds to 1; the last term decides it.
            [1.0, 2.0**-53, 2.0**-200] + [0.0] * 4093,
            [1.0, 2.0**-53, -(2.0**-200)] + [0.0] * 4093,
            [1.0 + 2.0**-52, 2.0**-53, -(2.0**-200)] + [0.0] * 4093,
        ],
    )
    def test_edges(self, x):
        _assert_same_as_fsum(np.array(x))

    def test_long_sums_do_not_build_a_list(self, monkeypatch):
        def refuse(values):
            raise AssertionError("fell back to math.fsum")

        rng = np.random.default_rng(5)
        cases = [
            rng.random(1 << 16),
            rng.standard_normal(5000) * 1e-200,
            np.sort(rng.standard_normal(_FSUM_VECTOR_MIN))[::-1],
        ]
        want = [math.fsum(x.tolist()) for x in cases]
        monkeypatch.setattr(math, "fsum", refuse)
        assert [_fsum(x) for x in cases] == want

    def test_tree_sum_needs_an_error_below_half_the_gap(self, monkeypatch):
        # At 1.0 the gap below (2^-53) is half the gap above.  An error of
        # exactly half the smaller gap leaves a tie possible: defer to fsum.
        r = 1.0
        half_gap = 2.0**-54
        monkeypatch.setattr(math, "fsum", lambda values: "math.fsum")
        x = np.zeros(_FSUM_VECTOR_MIN)
        for err, want in ((half_gap, "math.fsum"), (math.nextafter(half_gap, 0), r)):
            monkeypatch.setattr(core, "_sum_tree", lambda x, err=err: (r, err))
            assert _fsum(x) == want


class TestShannonEntropy:
    def test_uniform_bit(self):
        assert shannon_entropy([0.5, 0.5]) == pytest.approx(1.0, abs=1e-15)

    def test_point_mass(self):
        assert shannon_entropy([1.0, 0.0]) == 0.0

    def test_binomial_two(self):
        assert shannon_entropy([0.25, 0.5, 0.25]) == pytest.approx(1.5, abs=1e-15)

    @given(prob_vectors())
    def test_bounds(self, p):
        h = shannon_entropy(p)
        assert -1e-12 <= h <= math.log2(len(p)) + 1e-12

    def test_rejects_negative(self):
        with pytest.raises(NegativeProbability):
            shannon_entropy([0.5, -0.5, 1.0])

    @pytest.mark.parametrize("n", EXACT_SUM_SIZES)
    def test_same_bits_as_a_list_fsum(self, n):
        p = spread_simplex(np.random.default_rng(n), n)
        assert shannon_entropy(p) == -math.fsum(_xlogx(p).tolist()) / LN2

    def test_long_vector_builds_no_list(self, monkeypatch):
        p = spread_simplex(np.random.default_rng(1), 1 << 16)
        want = shannon_entropy(p)
        refuse_long_fsum(monkeypatch)
        assert shannon_entropy(p) == want


_RNG = np.random.default_rng(2024)
TINY = np.finfo(float).tiny
XLOGX_INPUTS = {
    "dirichlet": np.concatenate(
        [_RNG.dirichlet(np.full(m, a)) for m in (2, 5, 64, 4096) for a in (0.05, 1, 20)]
    ),
    "subnormal": np.concatenate(
        [[5e-324, 1e-323, np.nextafter(TINY, 0), TINY], _RNG.uniform(0, TINY, 10000)]
    ),
    "logspace": np.logspace(-320, 0, 20001),
}


class TestXlogx:
    """numpy's x ln x against scipy.special.xlogy."""

    def test_exact_zero_at_zero(self):
        x = np.array([0.0, 0.25, 0.0, 1.0])
        out = _xlogx(x)
        assert out[0] == out[2] == out[3] == 0.0
        assert not np.signbit(out[[0, 2, 3]]).any()
        assert np.array_equal(out, xlogy(x, x))

    @pytest.mark.parametrize("name", sorted(XLOGX_INPUTS))
    def test_within_one_ulp_of_the_logarithm(self, name):
        # numpy's log and libm's may differ in the last bit; x times a
        # one-ulp move of ln x moves the product by at most two of its ulps.
        x = XLOGX_INPUTS[name]
        logs = np.log(x)
        libm = np.array([math.log(v) for v in x.tolist()])
        assert np.all(np.abs(logs - libm) <= np.spacing(np.abs(libm)))
        ours, ref = _xlogx(x), xlogy(x, x)
        assert np.all(np.abs(ours - ref) <= 2 * np.spacing(np.abs(ref)))


class TestEntropyDeficit:
    def test_uniform_is_zero(self):
        assert entropy_deficit(DeviationVector(4, np.zeros(4))) == 0.0

    def test_pm_tenth(self):
        dev = DeviationVector(2, np.array([0.1, -0.1]))
        assert entropy_deficit(dev) == pytest.approx(DEFICIT_PM01, rel=1e-12)

    def test_delta_out_of_range(self):
        with pytest.raises(DeltaOutOfRange):
            entropy_deficit(DeviationVector(2, np.array([1.5, -1.5])))

    def test_point_mass_deficit(self):
        dev = DeviationVector(2, np.array([1.0, -1.0]))
        assert entropy_deficit(dev) == pytest.approx(1.0, abs=1e-15)

    @given(prob_vectors(min_len=2, max_len=6))
    def test_non_negative(self, p):
        m = len(p)
        dev = DeviationVector(m, m * p - 1.0)
        assert entropy_deficit(dev) >= 0.0

    def test_zero_iff_uniform(self):
        dev = DeviationVector(3, np.array([1e-13, -1e-13, 0.0]))
        assert entropy_deficit(dev) <= 1e-12

    def test_matches_extended_precision(self):
        """Cross-check against a 50-digit oracle on random deviations."""
        mp.mp.dps = 50
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = random_simplex(rng, 4)
            dev = DeviationVector(4, 4.0 * p - 1.0)
            got = entropy_deficit(dev)
            h = -sum(mp.mpf(float(x)) * mp.log(mp.mpf(float(x)), 2) for x in p if x > 0)
            want = float(2 - h)
            if want > 1e-8:
                assert got == pytest.approx(want, rel=1e-13)

    def test_consistent_with_entropy(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            p = random_simplex(rng, 4)
            dev = DeviationVector(4, 4.0 * p - 1.0)
            direct = 2.0 - shannon_entropy(p)
            assert entropy_deficit(dev) == pytest.approx(direct, abs=5e-15, rel=1e-12)


class TestOffsetEntropy:
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 8, 9, 16, 17])
    def test_matches_full_complex_fft(self, k):
        # The half spectrum, mirrored, equals the complex FFT on every offset.
        rng = np.random.default_rng(k)
        for length in (1, (k + 1) // 2, k):
            c = np.zeros(k)
            c[:length] = random_simplex(rng, length)
            q = np.abs(np.fft.fft(np.sqrt(c))) ** 2 / k
            x = np.sqrt(k * c)
            assert np.max(np.abs(fourier_offsets(x, k) - q[1 : k // 2 + 1])) <= 1e-15
            dev = DeviationVector(k, k * c - 1.0)
            assert np.max(np.abs(offset_distribution(dev) - q)) <= 1e-15
            for shifted in (x, x - 1.0):
                assert offset_entropy(shifted, k) == pytest.approx(
                    shannon_entropy(q), abs=1e-13
                )

    @pytest.mark.parametrize("k", [32, 64, 128])
    def test_u1_quadrature_is_zk_fourier_information(self, k):
        # The U(1) trapezoid rule on k points is the Z_k Fourier-basis
        # information of the copy distribution padded with zeros.
        rng = np.random.default_rng(k)
        for d in (2, 3):
            state = validate_state(random_simplex(rng, d), GroupSpec.u1(d))
            n = (k // 8 - 1) // (d - 1)
            c = np.zeros(k)
            c[: n * (d - 1) + 1] = copy_distribution_u1(state, n).c
            padded = validate_state(c, GroupSpec.cyclic(k))
            want = mutual_info_of_povm(ensemble_states(padded, 1), covariant_povm(k))
            got = covariant_mutual_info_u1(state, n, QuadratureSpec(k))
            assert got == pytest.approx(want, abs=1e-13)


class TestRelativeEntropyDiag:
    def test_minimizer_recovers_entropy(self):
        c = [0.25, 0.5, 0.25]
        assert relative_entropy_diag(c, c) == pytest.approx(1.5, abs=1e-14)

    def test_uniform_pair(self):
        assert relative_entropy_diag([0.5, 0.5], [0.5, 0.5]) == pytest.approx(1.0)

    def test_skewed_against_uniform(self):
        val = relative_entropy_diag([0.9, 0.1], [0.5, 0.5])
        assert val == pytest.approx(1.0, abs=1e-14)
        assert val > shannon_entropy([0.9, 0.1]) > 0.468

    def test_support_mismatch(self):
        with pytest.raises(SupportMismatch):
            relative_entropy_diag([0.5, 0.5], [1.0, 0.0])

    def test_length_mismatch(self):
        with pytest.raises(WrongLength):
            relative_entropy_diag([0.5, 0.5], [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("n", EXACT_SUM_SIZES)
    def test_same_bits_as_a_list_fsum(self, n):
        rng = np.random.default_rng(n)
        c, sigma = spread_simplex(rng, n), random_simplex(rng, n)
        mask = c > 0
        want = -math.fsum((c[mask] * np.log(sigma[mask])).tolist()) / LN2
        assert relative_entropy_diag(c, sigma) == want

    @settings(max_examples=50)
    @given(prob_vectors(min_len=2, max_len=6))
    def test_lower_bounded_by_entropy(self, c):
        rng = np.random.default_rng(3)
        h = shannon_entropy(c)
        for _ in range(20):
            sigma = random_simplex(rng, len(c))
            if np.any((c > 0) & (sigma == 0)):
                continue
            assert relative_entropy_diag(c, sigma) >= h - 1e-9


class TestDftProfile:
    def test_documented_z4_psi(self, z4_psi):
        prof = dft_profile(z4_psi)
        assert prof.r == pytest.approx(
            [1.0, 0.11267347735824967, 0.0, 0.11267347735824967], abs=1e-12
        )
        assert prof.S == (1, 3)
        assert prof.D == pytest.approx(1.0)

    def test_documented_z4_phi(self, z4_phi):
        prof = dft_profile(z4_phi)
        assert prof.r == pytest.approx(
            [1.0, 0.07071067811865475, 0.3, 0.07071067811865475], abs=1e-12
        )
        assert prof.r_max == pytest.approx(0.3, abs=1e-15)
        assert prof.S == (2,)
        assert prof.D == pytest.approx(0.5)

    def test_uniform_empty_maximizers(self):
        state = validate_state([0.25] * 4, GroupSpec.cyclic(4))
        prof = dft_profile(state)
        assert prof.r_max == 0.0
        assert prof.S == ()
        assert np.all(prof.r[1:] <= 1e-12)

    @pytest.mark.parametrize("kind", ["dirichlet", "benchmark", "periodic", "mirror"])
    def test_degeneracy_weight_is_half_the_maximizer_count(self, kind):
        # D = sum_{s in S} (M - s) / M is |S|/2 because S is closed under
        # s -> M - s.
        rng = np.random.default_rng(len(kind))
        for m in (2, 3, 4, 6, 7, 8, 12, 30, 64, 255, 1024, 2048):
            for _ in range(5):
                if kind == "dirichlet":
                    p = rng.dirichlet(np.full(m, 0.5))
                elif kind == "benchmark":  # uniform mixed with a few labels
                    q = np.zeros(m)
                    labels = rng.choice(m, size=min(m, 8), replace=False)
                    q[labels] = rng.dirichlet(np.full(labels.size, 0.5))
                    t = rng.uniform(0.1, 0.9)
                    p = (1 - t) / m + t * q
                elif kind == "periodic":
                    period = rng.choice([d for d in range(1, m + 1) if m % d == 0])
                    p = np.tile(rng.dirichlet(np.ones(period)), m // period)
                else:
                    q = rng.dirichlet(np.ones(m))
                    p = q + q[(-np.arange(m)) % m]
                prof = dft_profile(validate_state(p / p.sum(), GroupSpec.cyclic(m)))
                assert set(prof.S) == {m - s for s in prof.S}
                assert prof.D == sum(m - s for s in prof.S) / m == len(prof.S) / 2

    def test_z0_is_exactly_one(self, z4_psi):
        assert dft_profile(z4_psi).z[0] == 1.0

    def test_repeated_calls_return_equal_read_only_arrays(self):
        rng = np.random.default_rng(9)
        state = validate_state(random_simplex(rng, 4096), GroupSpec.cyclic(4096))
        first, second = dft_profile(state), dft_profile(state)
        for a, b in zip(
            (first.z, first.r, first.theta), (second.z, second.r, second.theta)
        ):
            assert not a.flags.writeable and not b.flags.writeable
            assert np.array_equal(a, b)
        assert (first.r_max, first.S, first.D) == (second.r_max, second.S, second.D)
        z = np.fft.ifft(state.probs) * 4096
        z[0] = 1.0
        assert np.array_equal(first.z, z)

    @settings(max_examples=40)
    @given(prob_vectors(min_len=2, max_len=8))
    def test_inverse_roundtrip_and_symmetry(self, p):
        m = len(p)
        state = validate_state(p, GroupSpec.cyclic(m))
        prof = dft_profile(state)
        back = np.fft.fft(prof.z).real / m
        assert np.max(np.abs(back - state.probs)) <= 1e-13
        assert np.max(np.abs(prof.r[1:] - prof.r[1:][::-1])) <= 1e-13

    @settings(max_examples=25)
    @given(prob_vectors(min_len=2, max_len=6))
    def test_cyclic_shift_preserves_moduli(self, p):
        m = len(p)
        state = validate_state(p, GroupSpec.cyclic(m))
        shifted = validate_state(np.roll(p, 1), GroupSpec.cyclic(m))
        assert np.max(
            np.abs(dft_profile(state).r - dft_profile(shifted).r)
        ) <= 1e-13


    @settings(max_examples=200)
    @given(
        prob_vectors(min_len=2, max_len=12),
        st.sampled_from(["raw", "symmetric", "periodic", "uniform"]),
    )
    def test_maximizer_set_matches_the_loop(self, p, shape):
        # Real inputs tie every n with M - n; symmetric ones have real
        # transforms; a period M/2 zeroes every odd index.
        m = len(p)
        if shape == "symmetric":
            p = p + np.roll(p[::-1], 1)  # p_k + p_{-k}
        elif shape == "periodic" and m % 2 == 0:
            p = np.tile(p[: m // 2] + p[m // 2 :], 2)
        elif shape == "uniform":
            p = np.ones(m)
        prof = dft_profile(validate_state(p / p.sum(), GroupSpec.cyclic(m)))
        cut = prof.r_max * (1.0 - S_TIE_REL)
        loop = tuple(n for n in range(1, m) if prof.r_max > 0 and prof.r[n] >= cut)
        assert prof.S == loop
        assert all(type(n) is int for n in prof.S)


class TestStateFiles:
    def test_roundtrip(self, tmp_path, z4_psi):
        path = tmp_path / "psi.json"
        save_state(z4_psi, path)
        loaded = load_state(path)
        assert loaded.group == z4_psi.group
        assert np.allclose(loaded.probs, z4_psi.probs, atol=1e-15)

    def test_wire_format_field_names(self, z4_psi, qubit_half):
        obj = state_to_json(z4_psi)
        assert obj["group"] == {"kind": "cyclic", "M": 4}
        assert len(obj["probs"]) == 4
        assert state_to_json(qubit_half)["group"] == {"kind": "u1", "d": 2}

    def test_malformed_payloads(self):
        for payload in (
            {},
            {"group": {"kind": "dihedral", "M": 4}, "probs": [1.0]},
            {"group": {"kind": "cyclic"}, "probs": [0.5, 0.5]},
            {"group": {"kind": "cyclic", "M": 2}, "probs": "nope"},
            {"group": {"kind": "cyclic", "M": 2}, "probs": ["a", 1.0]},
            {"group": {"kind": "cyclic", "M": 2}, "probs": [math.nan, 1.0]},
            {"group": {"kind": "cyclic", "M": 2}, "probs": [math.inf, 0.0]},
            {"group": {"kind": "cyclic", "M": 2}, "probs": [-math.inf, 1.0]},
        ):
            with pytest.raises(MalformedInput):
                state_from_json(payload)

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(MalformedInput):
            load_state(path)

    def test_json_matches_spec_example(self, tmp_path):
        path = tmp_path / "u1.json"
        path.write_text(json.dumps({"group": {"kind": "u1", "d": 3}, "probs": [0.2, 0.5, 0.3]}))
        state = load_state(path)
        assert state.group.d == 3
