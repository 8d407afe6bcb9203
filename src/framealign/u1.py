"""Phase-reference pipeline: exact N-copy number distributions, asymmetry,
covariant-measurement mutual information, and linearized rate estimates."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    CopyDistribution,
    GridTooCoarse,
    GroupMismatch,
    MalformedInput,
    ResourceLimit,
    StandardState,
    _fsum,
    _power,
    offset_entropy,
    shannon_entropy,
)

# Hard ceiling on the number of copy-distribution coefficients (N up to
# 2^20 - 1 for qubits).  At the cap, on a 2-CPU x86 host, the balanced
# qubit's copy distribution takes about 0.27 s, and a whole rate point (H,
# and I on the 2^17-point grid of its 11940 live labels) about 0.3 s at
# 107 MB peak.
DEFAULT_COEFF_CAP = 1 << 20

# Smallest quadrature grid ever used; large N bumps it further (see
# QuadratureSpec.for_length).
MIN_GRID_POINTS = 1 << 16

# Largest grid for_length can choose: 8 points per coefficient at the cap.
MAX_GRID_POINTS = 8 * DEFAULT_COEFF_CAP

# The tilted copy-distribution transforms move the mean this many standard
# deviations either way.
TILT_SIGMAS = 5.0


def _next_pow2(n: int) -> int:
    return 1 << max(0, (int(n) - 1)).bit_length()


@dataclass(frozen=True)
class QuadratureSpec:
    """Uniform periodic trapezoid rule on [0, 2*pi) with a power-of-two grid."""

    grid_points: int

    def __post_init__(self):
        k = self.grid_points
        if k < 8 or (k & (k - 1)) != 0:
            raise MalformedInput("grid_points must be a power of two >= 8")
        if k > MAX_GRID_POINTS:
            raise ResourceLimit(
                f"grid of {k} points exceeds the limit of {MAX_GRID_POINTS}"
            )

    @classmethod
    def for_length(cls, n_coeffs: int) -> "QuadratureSpec":
        """The default grid for n_coeffs live coefficients (the span from the
        first to the last nonzero label): 8 points per coefficient, rounded
        up to a power of two, and never below MIN_GRID_POINTS."""
        return cls(max(MIN_GRID_POINTS, _next_pow2(8 * n_coeffs)))


@dataclass(frozen=True)
class U1RatePoint:
    n_copies: int
    asymmetry_bits: float
    mutual_info_bits: float
    lin_asymmetry_per_copy: float
    lin_mi_per_copy: float
    variance_target: float


def _require_u1(state: StandardState) -> None:
    if state.group.is_cyclic:
        raise GroupMismatch("operation needs a u1 state")


def distribution_variance(c) -> float:
    """Variance of an integer-indexed distribution c_0..c_{L-1}."""
    arr = np.asarray(c, dtype=float)
    n = np.arange(arr.size, dtype=float)
    mean = _fsum(n * arr)
    return _fsum(arr * (n - mean) ** 2)


def number_variance(state: StandardState) -> float:
    """Variance of the number distribution of a single copy."""
    _require_u1(state)
    return distribution_variance(state.probs)


def _coeff_count(state: StandardState, n_copies: int) -> int:
    """Length of the N-copy distribution, refused above DEFAULT_COEFF_CAP."""
    _require_u1(state)
    if n_copies < 1:
        raise MalformedInput("n_copies must be >= 1")
    out_len = n_copies * (state.group.d - 1) + 1
    if out_len > DEFAULT_COEFF_CAP:
        raise ResourceLimit(f"{out_len} coefficients exceed {DEFAULT_COEFF_CAP}")
    return out_len


def _fft_power(p: np.ndarray, n: int, k: int) -> np.ndarray:
    """n-fold linear self-convolution of p by a length-k real FFT (k must be
    at least the result's length, so nothing wraps around)."""
    z = np.fft.rfft(p, k)
    # Only bins whose n-th power stays above ~1e-304 are raised.  At large n
    # that is a small fraction of them; zeroing the rest moves no output by
    # more than 1e-300.
    live = np.abs(z) > math.exp(-700.0 / n)
    powered = np.zeros_like(z)
    powered[live] = _power(z[live], n)
    return np.fft.irfft(powered, k)


def copy_distribution_u1(state: StandardState, n_copies: int) -> CopyDistribution:
    """Distribution of the total number label across n_copies copies.

    Built as an FFT power at length K = next_pow2(L), once untilted and once
    each under the exponential tilts p_j e^{+-theta j}, theta =
    TILT_SIGMAS / sqrt(N V) (Wilson & Keich, Comput. Stat. Data Anal. 101,
    2016).  Each label takes the estimate that is largest relative to its
    own transform's peak, so the tails keep their relative precision.  A
    label that no estimate resolves above K*eps of its peak is exactly 0, and
    the result is renormalized to unit mass.  Tested in tests/test_u1.py: H
    and the covariant information stay within 5e-11 bits of direct
    convolution for N <= 4096, and H within 5e-11 bits of 30-digit binomial
    entropies up to the cap.
    """
    out_len = _coeff_count(state, n_copies)
    p = state.probs
    if p.size == 1:
        return CopyDistribution(state.group, n_copies, np.ones(1))
    k = _next_pow2(out_len)
    c = _fft_power(p, n_copies, k)[:out_len]
    best = c / c.max()
    # Below this fraction of its peak an estimate is FFT rounding noise.
    floor = k * np.finfo(float).eps
    var = number_variance(state)
    if var > 0:
        j = np.arange(p.size)
        with np.errstate(divide="ignore"):
            log_p = np.log(p)
        theta = TILT_SIGMAS / math.sqrt(n_copies * var)
        for t in (theta, -theta):
            # p_t = p e^{t j} / M(t); its power is c e^{t s} / M(t)^N.  Taken
            # relative to the heaviest tilted weight j*, log M(t) = log p_j*
            # + t j* + log sum_j w_j, and t j* only enters as t (N j* - s):
            # theta is huge for a nearly pure state, and log p_j* + t j*
            # would round log p_j* away.
            top = int(np.argmax(log_p + t * j))
            w = np.exp(log_p - log_p[top] + t * (j - top))
            total = _fsum(w)
            est = _fft_power(w / total, n_copies, k)[:out_len]
            ratio = est / est.max()
            take = np.flatnonzero(ratio > np.maximum(best, floor))
            log_scale = n_copies * (log_p[top] + math.log(total))
            c[take] = np.exp(
                np.log(est[take]) + log_scale + t * (n_copies * top - take)
            )
            best[take] = ratio[take]
    # What no estimate resolves is FFT rounding noise around a label that
    # is zero or negligible; square-root amplitudes would blow it up.
    c[best < floor] = 0.0
    # The powered transforms carry a mass error of order N*eps; dividing it
    # out keeps H and I near 1e-12 bits at the cap and makes a point mass
    # exactly 1.
    c /= _fsum(c)
    return CopyDistribution(state.group, n_copies, c)


def u1_asymmetry(state: StandardState, n_copies: int) -> float:
    """Shannon entropy (bits) of the exact N-copy number distribution."""
    return shannon_entropy(copy_distribution_u1(state, n_copies).c)


def _covariant_info(c: np.ndarray, quad: QuadratureSpec | None) -> float:
    """Covariant information (bits) of the copy distribution c by the periodic
    trapezoid rule on K points, which is exactly the Z_K Fourier-basis
    information of c padded with zeros: log2(K) - H(q).  q is invariant under
    a shift of labels, so only the live span from the first to the last
    nonzero label is transformed, and the grid, default or given, needs 8
    points per live label."""
    nz = np.flatnonzero(c)
    live = c[nz[0] : nz[-1] + 1]
    if quad is None:
        quad = QuadratureSpec.for_length(live.size)
    if quad.grid_points < 8 * live.size:
        raise GridTooCoarse(
            f"grid of {quad.grid_points} points is below "
            f"8 x {live.size} live coefficients"
        )
    # One label left carries no information.
    if live.size == 1:
        return 0.0
    k = quad.grid_points
    info = math.log2(k) - offset_entropy(np.sqrt(k * live), k)
    return max(info, 0.0)


def covariant_mutual_info_u1(
    state: StandardState,
    n_copies: int,
    quad: QuadratureSpec | None = None,
) -> float:
    """Mutual information (bits) between the hidden phase and the covariant
    phase estimate, by periodic-trapezoid quadrature of f log2(2*pi*f)."""
    return _covariant_info(copy_distribution_u1(state, n_copies).c, quad)


def regularized_asymmetry_u1(state: StandardState) -> float:
    """Linearized asymmetry per copy in the many-copy limit: 4*pi*V."""
    return 4.0 * math.pi * number_variance(state)


def _lin_per_copy(bits: float, n_copies: int) -> float:
    # 2^(2*bits)/N evaluated in the exponent to dodge overflow.
    return 2.0 ** (2.0 * bits - math.log2(n_copies))


def _rate_point(
    state: StandardState,
    n_copies: int,
    quad: QuadratureSpec | None,
    target: float,
) -> U1RatePoint:
    # One copy distribution feeds both the entropy and the quadrature.
    c = copy_distribution_u1(state, n_copies).c
    h = shannon_entropy(c)
    i = _covariant_info(c, quad)
    return U1RatePoint(
        n_copies=n_copies,
        asymmetry_bits=h,
        mutual_info_bits=i,
        lin_asymmetry_per_copy=_lin_per_copy(h, n_copies),
        lin_mi_per_copy=_lin_per_copy(i, n_copies),
        variance_target=target,
    )


def u1_rate_series(
    state: StandardState,
    n_list: Sequence[int],
    quad: QuadratureSpec | None = None,
) -> list[U1RatePoint]:
    """Per-N asymmetry, mutual information and linearized values; quad=None
    picks the grid per N, a spec is used for every N."""
    _require_u1(state)
    n_list = [int(n) for n in n_list]
    if any(n < 1 for n in n_list):
        raise MalformedInput("every N must be >= 1")
    target = regularized_asymmetry_u1(state)
    return [_rate_point(state, n, quad, target) for n in n_list]
