"""Cyclic-group pipeline: exact N-copy label distributions with a brute-force
oracle, asymmetry and mutual information via stable deficits, asymptotic
predictions, alignment rates, tensor composition, and superadditivity search.
"""
from __future__ import annotations

import functools
import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .core import (
    LN2,
    MODULUS_ZERO_TOL,
    CopyDistribution,
    DegenerateProfile,
    DeviationVector,
    GroupMismatch,
    GroupSpec,
    MalformedInput,
    ResourceLimit,
    SpectralProfile,
    StandardState,
    _fsum,
    _power,
    _state_profile,
    _unit_modulus_step,
    dft_profile,
    entropy_deficit,
    fourier_offsets,
    offset_entropy,
)

# Full-enumeration branch of the oracle; above this the (position, residue)
# dynamic program takes over, and above ORACLE_GUARD we refuse outright.
ENUMERATION_LIMIT = 100_000
ORACLE_GUARD = 10_000_000

# Exact deficits become meaningless once r_max^(2N) underflows; below this
# exponent (base-2) the asymptotic prediction is reported instead, flagged
# as extrapolated in rate series.
EXTRAPOLATION_LOG2 = -980.0

# Cells (trials x M) drawn per factor in one search block: 512 KiB of
# float64, so a block's two factors draw 1 MiB.  With their transform a
# thread's workspace is about 2 MiB, allocated once per search and reused
# by every block.
SEARCH_BLOCK_CELLS = 1 << 16

# Largest order the search accepts.  Past M = SEARCH_BLOCK_CELLS a block
# holds one trial, and the workspace takes about 32*M bytes per thread.
SEARCH_MAX_M = 1 << 20

# Up to this order the search takes its squared moduli from one real
# (2*(M//2), M) DFT-matrix product, about 2M flops per cell; above it, from
# rfft.  Measured on one core the matrix product wins up to about M = 128
# (0.58 ms against 0.92 ms per block at M = 64, 1.65 against 0.87 at 256).
SEARCH_DFT_MATRIX_MAX_M = 64


class _InfiniteRate:
    """Sentinel for the perfectly-distinguishable case r_max = 0.

    Deliberately not a float: downstream arithmetic must fail loudly instead
    of silently absorbing an infinity.
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "INFINITE_RATE"


INFINITE_RATE = _InfiniteRate()


class DeficitPrediction(NamedTuple):
    asym_bits: float
    mi_bits: float
    subdominant_ratio: float


class SearchResult(NamedTuple):
    a: StandardState
    b: StandardState
    gap_bits: float


@dataclass(frozen=True)
class ZmRatePoint:
    n_copies: int
    asymmetry_bits: float
    asymmetry_deficit_bits: float
    mi_bits: float
    mi_deficit_bits: float
    predicted_asym_deficit: float
    predicted_mi_deficit: float
    lin_asym_per_copy: float
    lin_mi_per_copy: float
    rate_target: float | _InfiniteRate
    extrapolated: bool = False


@dataclass(frozen=True)
class CompositionResult:
    composed: StandardState
    omega_moduli: np.ndarray
    rate_components: tuple
    gap_bits: float | None


def _require_cyclic(state: StandardState) -> None:
    if not state.group.is_cyclic:
        raise GroupMismatch("operation needs a cyclic state")


def copy_distribution_zm(
    state: StandardState, n_copies: int
) -> tuple[CopyDistribution, DeviationVector]:
    """Exact N-copy label distribution c_k and its deviations from uniform.

    The deviations Delta_k = M*c_k - 1 are assembled directly from the
    nontrivial transform components z_n**N, so they keep full relative
    precision even when exponentially small; c is then (1 + Delta)/M.  The
    power is core._power, numpy's below N = SQUARING_MIN_N and
    square-and-multiply from there on, where its relative error stays
    within N*eps of the exact power of each z_n (tested against 40-digit
    mpmath up to N = 2000; numpy's cpow reached 2.2*N*eps).  A z_n with |z_n| = 1 exactly is a
    root of unity of order dividing M, so it is raised to N mod M instead,
    and its phase error does not grow with N (states on one coset).
    """
    _require_cyclic(state)
    if n_copies < 1:
        raise MalformedInput("n_copies must be >= 1")
    m = state.group.M
    # The profile's z is dft_vector(state.probs) with z[0] = 1; the trivial
    # component is dropped after the power, as 0**N = 0.
    z = _state_profile(state).z
    powered = _power(z, n_copies)
    step = _unit_modulus_step(state)
    if step < m:  # a state on one coset; with full support the step is M
        powered[::step] = _power(z[::step], n_copies % m)
    powered[0] = 0.0
    deltas = np.maximum(np.fft.fft(powered).real, -1.0)
    # A c_k that is mathematically zero comes out of the transform as
    # rounding noise; snap it onto the boundary, otherwise downstream
    # square-root amplitudes blow the noise up to sqrt(eps).
    deltas[1.0 + deltas <= 64.0 * m * np.finfo(float).eps] = -1.0
    dev = DeviationVector(m, deltas)
    c = np.maximum((1.0 + deltas) / m, 0.0)
    return CopyDistribution(state.group, n_copies, c), dev


def _oracle_enumerate(p: np.ndarray, m: int, n_copies: int) -> np.ndarray:
    """Sum the weight of every one of the M^N label strings by its residue."""
    c = np.zeros(m)
    for string in itertools.product(range(m), repeat=n_copies):
        c[sum(string) % m] += math.prod(p[s] for s in string)
    return c


def _oracle_dp(p: np.ndarray, m: int, n_copies: int) -> np.ndarray:
    """Dynamic program over (position, residue): repeated direct cyclic
    convolution, no Fourier machinery anywhere."""
    c = p.copy()
    shift = (np.arange(m)[:, None] - np.arange(m)[None, :]) % m
    for _ in range(n_copies - 1):
        c = np.array([float(np.dot(p, c[row])) for row in shift])
    return c


def multinomial_oracle_zm(state: StandardState, n_copies: int) -> CopyDistribution:
    """Brute-force N-copy label distribution, independent of the transform path.

    Full enumeration of all M^N label strings up to ENUMERATION_LIMIT, the
    (position, residue) dynamic program beyond that.
    """
    _require_cyclic(state)
    if n_copies < 1:
        raise MalformedInput("n_copies must be >= 1")
    m = state.group.M
    total = m**n_copies
    if total > ORACLE_GUARD:
        raise ResourceLimit(f"M^N = {total} exceeds the oracle guard {ORACLE_GUARD}")
    if total <= ENUMERATION_LIMIT:
        c = _oracle_enumerate(state.probs, m, n_copies)
    else:
        c = _oracle_dp(state.probs, m, n_copies)
    return CopyDistribution(state.group, n_copies, c)


def asymptotic_deficits(profile: SpectralProfile, n_copies: int) -> DeficitPrediction:
    """Leading-order predictions for the asymmetry and mutual-information
    deficits at N copies, plus the bound ratio (r_second / r_max)^N that
    controls the neglected terms."""
    if profile.r_max <= 0:
        raise DegenerateProfile("predictions are identically zero when r_max = 0")
    log2r = math.log2(profile.r_max)
    r2n = 2.0 ** (2.0 * n_copies * log2r)
    size = len(profile.S)
    asym = r2n * size / (2.0 * LN2)
    mi = r2n * (size / (4.0 * LN2) + profile.D * (1.0 - n_copies * log2r))
    rest = np.ones(profile.M, dtype=bool)
    rest[[0, *profile.S]] = False
    second = np.max(profile.r, where=rest, initial=0.0)
    if second > 0:
        ratio = 2.0 ** (n_copies * (math.log2(second) - log2r))
    else:
        ratio = 0.0
    return DeficitPrediction(asym, mi, ratio)


def _rate_of(r_max: float) -> float | _InfiniteRate:
    """-2 log2(r_max), or INFINITE_RATE when r_max is a numerical zero."""
    if r_max <= MODULUS_ZERO_TOL:
        return INFINITE_RATE
    return -2.0 * math.log2(r_max)


def _root_deviations(dev: DeviationVector) -> np.ndarray:
    """sqrt(1+Delta) - 1 = sqrt(M c) - 1, accurate when the deviations are tiny."""
    with np.errstate(divide="ignore", invalid="ignore"):
        shifted = np.expm1(0.5 * np.log1p(dev.deltas))
    shifted[dev.deltas == -1.0] = -1.0
    return shifted


def offset_distribution(dev: DeviationVector) -> np.ndarray:
    """Fourier-basis outcome distribution over the offset j = (x - y) mod M,
    q_j = |sum_k sqrt(c_k) e^{2 pi i k j / M}|^2 / M, so p(y|x) = q_{(x-y) mod M}.

    The offsets j != 0 come from :func:`core.fourier_offsets` of
    sqrt(1+Delta)-1, mirrored as q_{M-j} = q_j, and q_0 = 1 - sum of the rest.
    """
    m = dev.M
    half = fourier_offsets(_root_deviations(dev), m)
    q = np.concatenate(([0.0], half, half[: (m - 1) // 2][::-1]))
    q[0] = 1.0 - np.sum(q)
    return q


def _zm_point(
    state: StandardState, profile: SpectralProfile, n_copies: int
) -> ZmRatePoint:
    """Both deficits, their predictions and linearized values at N copies:
    from one N-copy distribution, or past the extrapolation seam from one
    asymptotic prediction."""
    log2m = math.log2(profile.M)
    target = _rate_of(profile.r_max)
    if profile.r_max == 0.0:
        return ZmRatePoint(
            n_copies, log2m, 0.0, log2m, 0.0, 0.0, 0.0, math.inf, math.inf, target
        )
    log2r = math.log2(profile.r_max)
    pred = asymptotic_deficits(profile, n_copies)
    extrapolated = 2.0 * n_copies * log2r < EXTRAPOLATION_LOG2
    if extrapolated:
        a_def, m_def = pred.asym_bits, pred.mi_bits
        size = len(profile.S)
        lin_a = -(2.0 * n_copies * log2r + math.log2(size / (2.0 * LN2))) / n_copies
        inner = size / (4.0 * LN2) + profile.D * (1.0 - n_copies * log2r)
        lin_m = -(2.0 * n_copies * log2r + math.log2(inner)) / n_copies
    else:
        _, dev = copy_distribution_zm(state, n_copies)
        # The information deficit log2(M) - I is the offset entropy.  Both
        # deficits can round an ulp past [0, log2 M], as on a one-label state.
        a_def = min(log2m, max(0.0, entropy_deficit(dev)))
        m_def = min(log2m, max(0.0, offset_entropy(_root_deviations(dev), dev.M)))
        lin_a = -math.log2(a_def) / n_copies if a_def > 0 else math.inf
        lin_m = -math.log2(m_def) / n_copies if m_def > 0 else math.inf
    return ZmRatePoint(
        n_copies=n_copies,
        asymmetry_bits=log2m - a_def,
        asymmetry_deficit_bits=a_def,
        mi_bits=log2m - m_def,
        mi_deficit_bits=m_def,
        predicted_asym_deficit=pred.asym_bits,
        predicted_mi_deficit=pred.mi_bits,
        lin_asym_per_copy=lin_a,
        lin_mi_per_copy=lin_m,
        rate_target=target,
        extrapolated=extrapolated,
    )


def zm_asymmetry(state: StandardState, n_copies: int) -> tuple[float, float]:
    """(H_bits, deficit_bits) of the N-copy label distribution."""
    _require_cyclic(state)
    if n_copies < 1:
        raise MalformedInput("n_copies must be >= 1")
    point = _zm_point(state, dft_profile(state), n_copies)
    return point.asymmetry_bits, point.asymmetry_deficit_bits


def covariant_mutual_info_zm(
    state: StandardState, n_copies: int
) -> tuple[float, float]:
    """(I_bits, deficit_bits) for the Fourier-basis measurement on N copies."""
    _require_cyclic(state)
    if n_copies < 1:
        raise MalformedInput("n_copies must be >= 1")
    point = _zm_point(state, dft_profile(state), n_copies)
    return point.mi_bits, point.mi_deficit_bits


def alignment_rate_zm(state: StandardState) -> float | _InfiniteRate:
    """-2 log2(r_max) bits per copy; INFINITE_RATE for exact optimal resources."""
    _require_cyclic(state)
    return _rate_of(dft_profile(state).r_max)


def zm_rate_series(state: StandardState, n_list: Sequence[int]) -> list[ZmRatePoint]:
    """Per-N deficits, predictions and linearized values for a cyclic state."""
    _require_cyclic(state)
    n_list = [int(n) for n in n_list]
    if any(n < 1 for n in n_list):
        raise MalformedInput("every N must be >= 1")
    profile = dft_profile(state)
    return [_zm_point(state, profile, n) for n in n_list]


def _cyclic_convolve(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """q_k = sum_j x_j y_{(k-j) mod M}: the linear convolution with its tail
    folded onto its head, in O(M) memory."""
    m = x.size
    full = np.convolve(x, y)
    q = full[:m].copy()
    q[: m - 1] += full[m:]
    return q


def _gap_bits(sa: np.ndarray, sb: np.ndarray) -> np.ndarray:
    """Additivity gap 2*(log2 max ra + log2 max rb - log2 max ra*rb), in bits,
    computed as log2(max sa * max sb / max sa*sb) from squared moduli.

    sa and sb hold the squared transform moduli of the two factors at the
    nontrivial indices 1..M//2 along axis 0 (the rest are their conjugates);
    the composed moduli are the product because |DFT(a*b)| = |DFT a| |DFT b|.
    The gap does not depend on the scale of sa or sb, and it is never
    negative: the product of the maxima rounds to at least the largest
    rounded product.  With a single index (M = 2, and M = 3 whose two indices
    are conjugate) the gap is identically zero, returned as exact zeros.
    """
    if sa.shape[0] == 1:
        return np.zeros(sa.shape[1:])
    with np.errstate(divide="ignore"):
        return np.log2(sa.max(axis=0) * sb.max(axis=0) / (sa * sb).max(axis=0))


def _compose_profiles(
    prof_a: SpectralProfile, prof_b: SpectralProfile
) -> tuple[np.ndarray, tuple, float | None]:
    """Composed moduli, the three alignment rates and the additivity gap.

    The gap is None when a factor has infinite rate and inf when only the
    composition does.
    """
    omega = prof_a.r * prof_b.r
    rates = (
        _rate_of(prof_a.r_max),
        _rate_of(prof_b.r_max),
        _rate_of(float(np.max(omega[1:]))),
    )
    gap: float | None
    if rates[0] is INFINITE_RATE or rates[1] is INFINITE_RATE:
        gap = None
    elif rates[2] is INFINITE_RATE:
        gap = math.inf
    else:
        half = slice(1, prof_a.M // 2 + 1)
        gap = float(_gap_bits(prof_a.r[half] ** 2, prof_b.r[half] ** 2))
    return omega, rates, gap


def tensor_compose(a: StandardState, b: StandardState) -> CompositionResult:
    """Effective single-copy state of a joint resource pair, its transform
    moduli, the three alignment rates, and the additivity gap."""
    _require_cyclic(a)
    if a.group != b.group:
        raise GroupMismatch("states must share the same cyclic group")
    q = _cyclic_convolve(a.probs, b.probs)
    q = q / _fsum(q)
    omega, rates, gap = _compose_profiles(dft_profile(a), dft_profile(b))
    return CompositionResult(
        composed=StandardState(a.group, q),
        omega_moduli=omega,
        rate_components=rates,
        gap_bits=gap,
    )


def superadditivity_gap(a: StandardState, b: StandardState) -> float:
    """Rate gained by measuring the two resource families jointly, in bits.

    Identically zero for M <= 3; unbounded when only the composition has a
    vanishing transform tail.
    """
    _require_cyclic(a)
    if a.group != b.group:
        raise GroupMismatch("states must share the same cyclic group")
    _, _, gap = _compose_profiles(dft_profile(a), dft_profile(b))
    if gap is None:
        raise DegenerateProfile("gap undefined when a factor has infinite rate")
    return gap


class _SearchWorkspace:
    """One thread's buffers for search blocks of n trials at order m: the
    two factors' (2, m, n) draws and their transform, which is squared in
    place into the moduli at the nontrivial indices 1..m//2."""

    def __init__(self, m: int, n: int):
        h = m // 2
        self.draws = np.empty((2, m, n))
        if m <= SEARCH_DFT_MATRIX_MAX_M:
            # cos and sin rows of the DFT at k = 1..h, angles reduced mod m.
            kj = np.outer(np.arange(1, h + 1), np.arange(m)) % m
            angle = (2 * math.pi / m) * kj
            self.dft: np.ndarray | None = np.vstack([np.cos(angle), np.sin(angle)])
            self.transform = np.empty((2, 2 * h, n))
        else:
            self.dft = None
            self.transform = np.empty((2, h + 1, n), dtype=complex)

    def squared_moduli(self) -> np.ndarray:
        """|DFT_k|^2 of the current draws at k = 1..m//2: a (2, m//2, n)
        view into the transform buffer."""
        if self.dft is not None:
            t = np.matmul(self.dft, self.draws, out=self.transform)
            np.square(t, out=t)
            h = t.shape[1] // 2
            t[:, :h] += t[:, h:]
            return t[:, :h]
        t = np.fft.rfft(self.draws, axis=1, out=self.transform).view(np.float64)
        np.square(t, out=t)
        moduli = t[:, 1:, 0::2]
        moduli += t[:, 1:, 1::2]
        return moduli


def _search_block(
    work: _SearchWorkspace, seed: int, block: int
) -> tuple[float, np.ndarray, np.ndarray]:
    """Largest gap among the block's trials and its normalized witness.

    Each trial is a column of the two factors' exponential draws, written
    into the workspace; only the tied columns are normalized, and ties go
    to the lexicographically smallest (a, b).  The witness columns are
    copies, so later blocks that overwrite the workspace leave them intact.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, block]))
    draws = rng.standard_exponential(out=work.draws)
    gaps = _gap_bits(*work.squared_moduli())
    best = gaps.max()
    tied = np.flatnonzero(gaps == best)
    pa, pb = (p[:, tied] / p[:, tied].sum(axis=0) for p in draws)
    # lexsort takes one key per row, 2M of them: skip it when nothing ties.
    first = np.lexsort(np.vstack([pa, pb])[::-1])[0] if tied.size > 1 else 0
    return float(best), pa[:, first].copy(), pb[:, first].copy()


def _precedes(
    found: tuple[float, np.ndarray, np.ndarray],
    best: tuple[float, np.ndarray, np.ndarray],
) -> bool:
    """Witness order: descending gap, then lexicographically by (a, b).

    The arrays are compared only on an exact gap tie, element by element
    up to their first difference, so no per-element key is ever built."""
    if found[0] != best[0]:
        return found[0] > best[0]
    for x, y in zip(found[1:], best[1:]):
        first = int(np.argmax(x != y))
        if x[first] != y[first]:
            return bool(x[first] < y[first])
    return False


def _best_witness(found) -> tuple[float, np.ndarray, np.ndarray]:
    """The first witness that no later one precedes."""
    return functools.reduce(lambda best, w: w if _precedes(w, best) else best, found)


def search_superadditive(
    m: int, trials: int, seed: int, *, workers: int = 1
) -> SearchResult:
    """Randomized search for pairs with a positive additivity gap.

    Probabilities are drawn uniformly from the simplex (normalized
    exponentials) in blocks of at most SEARCH_BLOCK_CELLS trial entries
    (at least one trial each); block b draws from SeedSequence([seed, b]).
    The witness is the largest gap over all blocks, ties going to the
    lexicographically smallest (a, b), so it depends only on (m, trials,
    seed).  `workers` sets only how many threads run the blocks, at most
    one per block and per CPU.  Each thread draws and transforms every one
    of its blocks in one workspace of O(max(m, SEARCH_BLOCK_CELLS)) floats,
    rebuilt only for a shorter last block and released on return.  Up to
    m = SEARCH_DFT_MATRIX_MAX_M the squared moduli come from a real
    DFT-matrix product, above it from rfft.  Orders above SEARCH_MAX_M
    raise ResourceLimit before anything is allocated.
    """
    if m < 2:
        raise MalformedInput("m must be >= 2")
    if trials < 1:
        raise MalformedInput("trials must be >= 1")
    if m > SEARCH_MAX_M:
        raise ResourceLimit(f"search order {m} exceeds the limit {SEARCH_MAX_M}")
    per_block = max(1, SEARCH_BLOCK_CELLS // m)
    n_blocks = -(-trials // per_block)
    threads = min(max(1, int(workers)), n_blocks, os.cpu_count() or 1)

    def run(first: int) -> tuple[float, np.ndarray, np.ndarray]:
        def blocks():
            work = None
            for b in range(first, n_blocks, threads):
                n = min(per_block, trials - b * per_block)
                if work is None or work.draws.shape[2] != n:
                    work = _SearchWorkspace(m, n)
                yield _search_block(work, seed, b)

        return _best_witness(blocks())

    if threads == 1:
        found = [run(0)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            found = list(pool.map(run, range(threads)))
    gap, a, b = _best_witness(found)
    group = GroupSpec.cyclic(m)
    return SearchResult(StandardState(group, a), StandardState(group, b), gap)
