"""Probability-vector arithmetic shared by the alignment pipelines.

Everything here is a pure function of its inputs; states and profiles are
frozen after construction. All entropic quantities are in bits, with the
0*log(0) = 0 convention.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

LN2 = math.log(2.0)

# Relative tolerance for membership in the maximizer set S.  Chosen so that
# floating-point DFTs of inputs with exact ties (conjugate pairs, symmetric
# vectors) land every tied index in S.
S_TIE_REL = 1e-9

# Moduli at or below this are treated as exact zeros, so that e.g. the
# uniform distribution reports r_max = 0 and an empty maximizer set instead
# of picking up FFT rounding noise.
MODULUS_ZERO_TOL = 1e-12

INPUT_SUM_TOL = 1e-6

# From this N on numpy's complex power calls libm's cpow, about ten times
# slower than the squaring it does below, so _power squares.
SQUARING_MIN_N = 100


class FrameAlignError(Exception):
    """Base class for all errors raised by this package."""


class NegativeProbability(FrameAlignError):
    pass


class WrongLength(FrameAlignError):
    pass


class SumOutOfTolerance(FrameAlignError):
    pass


class SupportMismatch(FrameAlignError):
    pass


class DeltaOutOfRange(FrameAlignError):
    pass


class ResourceLimit(FrameAlignError):
    pass


class GridTooCoarse(FrameAlignError):
    pass


class GroupMismatch(FrameAlignError):
    pass


class DegenerateProfile(FrameAlignError):
    pass


class DimensionMismatch(FrameAlignError):
    pass


class MalformedInput(FrameAlignError):
    pass


@dataclass(frozen=True)
class GroupSpec:
    """Symmetry group of the protocol: U(1) with a cutoff d, or the cyclic group Z_M."""

    kind: str
    d: int | None = None
    M: int | None = None

    def __post_init__(self):
        if self.kind == "u1":
            if self.M is not None or self.d is None or int(self.d) < 1:
                raise MalformedInput("u1 group needs a cutoff d >= 1 and no M")
            object.__setattr__(self, "d", int(self.d))
        elif self.kind == "cyclic":
            if self.d is not None or self.M is None or int(self.M) < 2:
                raise MalformedInput("cyclic group needs an order M >= 2 and no d")
            object.__setattr__(self, "M", int(self.M))
        else:
            raise MalformedInput(f"unknown group kind {self.kind!r}")

    @classmethod
    def u1(cls, d: int) -> "GroupSpec":
        return cls("u1", d=d)

    @classmethod
    def cyclic(cls, M: int) -> "GroupSpec":
        return cls("cyclic", M=M)

    @property
    def is_cyclic(self) -> bool:
        return self.kind == "cyclic"

    @property
    def dim(self) -> int:
        return self.M if self.kind == "cyclic" else self.d  # type: ignore[return-value]


def _sums_to(x: np.ndarray, target: float, tol: float) -> bool:
    """abs(math.fsum(x) - target) <= tol, deciding clear cases without fsum.

    Any float summation of n terms is within n*eps*sum|x| of the exact sum
    (eps = 2u covers the rounding of sum|x| too), so a pairwise np.sum that
    lands within tol/2 of the target settles the check.  Past that, the
    TwoSum tree of :func:`_sum_tree` gives a sum r within err of the exact
    sum; when |r - target| stays more than err plus a few ulps away from
    tol, on either side, fsum's answer is known (the ulps cover the
    rounding of fsum and of the difference).  A tolerance decision needs no
    exact rounding, so this also settles the deviation vectors that sum to
    about 0, which _fsum's rounding test cannot.  Only cases within that
    margin of the boundary, inputs too short for the tree, and inputs that
    could overflow or hold inf or NaN go to math.fsum, which then returns or
    raises as it always has.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        bound = x.size * _EPS * float(np.sum(np.abs(x)))
        if abs(float(np.sum(x)) - target) + bound <= tol / 2:
            return True
    tree = _sum_tree(x)
    if tree is not None:
        r, err = tree
        off = abs(r - target)
        margin = err + 8.0 * _EPS * (abs(r) + abs(target) + err + tol)
        if off + margin < tol:
            return True
        if off - margin > tol:
            return False
    return abs(math.fsum(x.tolist()) - target) <= tol


def _sum_checked(x: np.ndarray, target: float, tol: float, what: str) -> np.ndarray:
    """A read-only copy of x, if x sums to target within tol; otherwise, and
    when the sum overflows or meets inf - inf, SumOutOfTolerance."""
    try:
        ok = _sums_to(x, target, tol)
    except (OverflowError, ValueError):
        ok = False
    if not ok:
        raise SumOutOfTolerance(f"{what} must sum to {target:g} within {tol:g}")
    x = x.copy()
    x.setflags(write=False)
    return x


# Below this many entries math.fsum is as fast as the vector passes of
# _sum_tree.
_FSUM_VECTOR_MIN = 2048

_EPS = float(np.finfo(float).eps)


def _sum_tree(x: np.ndarray) -> tuple[float, float] | None:
    """(r, err): a float r with |sum(x) - r| <= err for the exact sum of a
    1-d float array, or None when x is shorter than _FSUM_VECTOR_MIN or
    could overflow or hold inf or NaN.

    A pairwise tree of error-free TwoSum steps (Ogita, Rump and Oishi, SIAM
    J. Sci. Comput. 26, 1955 (2005)) turns x into hi + sum(errs) with the
    same exact sum.  lo = np.sum(errs) is within used*eps*sum|errs| of
    sum(errs), plus 2^-1070 for subnormal rounding, and r = hi + lo adds
    its own rounding error, which TwoSum gives exactly.
    """
    n = x.size
    # n * max|x| bounds every partial sum of fsum's and of the tree.
    if n < _FSUM_VECTOR_MIN or not max(-np.min(x), np.max(x)) < 2.0**1020 / n:
        return None
    # Level k adds its two halves into ping-pong buffers, carrying an odd
    # last entry; its errors fill err[used:used+h], with err[used+h:] free
    # for scratch (the n-1 errors of all levels fit err exactly).
    err = np.empty(n)
    first = n - n // 2
    work = np.empty(first + first // 2 + 1)
    out, spare = work[:first], work[first:]
    used = 0
    s = x
    while s.size > 1:
        m = s.size
        h = m // 2
        a, b = s[:h], s[h : 2 * h]
        t = out[: m - h]
        t[h:] = s[2 * h :]
        pair = np.add(a, b, out=t[:h])
        bb = np.subtract(pair, a, out=err[used + h : used + 2 * h])
        e = np.subtract(pair, bb, out=err[used : used + h])
        np.subtract(a, e, out=e)
        np.subtract(b, bb, out=bb)
        np.add(e, bb, out=e)
        used += h
        s, out, spare = t, spare, out
    hi = float(s[0])
    errs = err[:used]
    lo = float(np.sum(errs))
    abs_sum = float(np.sum(np.abs(errs, out=errs)))
    bound = used * _EPS * abs_sum + 2.0**-1070
    r = hi + lo
    bb = r - hi
    residual = (hi - (r - bb)) + (lo - bb)
    return r, abs(residual) + bound


def _fsum(x: np.ndarray) -> float:
    """Exactly math.fsum(x) for a 1-d float array, without building a list.

    When the error bound of :func:`_sum_tree` stays under half the gap to
    the floats next to its sum r, r is the exactly rounded sum.  Everything
    else goes to math.fsum itself, which then returns or raises exactly as
    it would: short inputs, inputs that could overflow or hold inf or NaN,
    and undecided results, among them zero and anything below about
    2^-1000 (the bound adds 2^-1070 for subnormal rounding).
    """
    tree = _sum_tree(x)
    if tree is not None:
        r, err = tree
        gap = min(r - math.nextafter(r, -math.inf), math.nextafter(r, math.inf) - r)
        if err < gap / 2:
            return r
    return math.fsum(x.tolist())


@dataclass(frozen=True)
class StandardState:
    """A resource state in standard form: a group tag plus amplitudes-squared p_k.

    Constructed through :func:`validate_state` for raw input; direct
    construction expects an already-normalized vector.
    """

    group: GroupSpec
    probs: np.ndarray
    # The spectral profile of a cyclic state, made on first use; probs is
    # read-only, so it never goes stale.
    _profile: SpectralProfile | None = field(
        default=None, init=False, repr=False, compare=False
    )
    # _unit_modulus_step of a cyclic state, made on first use like _profile.
    _unit_step: int | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1 or p.size != self.group.dim:
            raise WrongLength(
                f"state needs {self.group.dim} entries, got shape {p.shape}"
            )
        if np.any(p < 0):
            raise NegativeProbability("probabilities must be non-negative")
        object.__setattr__(self, "probs", _sum_checked(p, 1.0, 1e-12, "probabilities"))


@dataclass(frozen=True)
class CopyDistribution:
    """Distribution of the total irrep label carried by N copies of a state."""

    group: GroupSpec
    copies: int
    c: np.ndarray

    def __post_init__(self):
        if self.copies < 1:
            raise MalformedInput("copies must be >= 1")
        c = np.asarray(self.c, dtype=float)
        expected = (
            self.group.M
            if self.group.is_cyclic
            else self.copies * (self.group.d - 1) + 1
        )
        if c.ndim != 1 or c.size != expected:
            raise WrongLength(f"copy distribution needs {expected} entries")
        if np.any(c < 0):
            raise NegativeProbability("copy distribution must be non-negative")
        object.__setattr__(self, "c", _sum_checked(c, 1.0, 1e-10, "copy distribution"))


@dataclass(frozen=True)
class DeviationVector:
    """Deviations Delta_k of a length-M distribution from uniform: c_k = (1+Delta_k)/M."""

    M: int
    deltas: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.deltas, dtype=float)
        if d.ndim != 1 or d.size != self.M:
            raise WrongLength(f"deviation vector needs {self.M} entries")
        object.__setattr__(self, "deltas", _sum_checked(d, 0.0, 1e-10, "deviations"))


@dataclass(frozen=True)
class SpectralProfile:
    """Single-copy DFT data of a cyclic state.

    z[n] is the transform of the probability vector with the e^{+2*pi*i*n*m/M}
    kernel, r its moduli, theta its phases in [0, 2*pi).  S is the set of
    indices 1..M-1 whose modulus ties with r_max (relative tolerance
    ``S_TIE_REL``), and D = sum_{s in S} (M - s) / M, which is |S|/2 as S is
    closed under s -> M - s.
    """

    M: int
    z: np.ndarray
    r: np.ndarray
    theta: np.ndarray
    r_max: float
    S: tuple[int, ...]
    D: float


def _as_prob_array(p, *, name: str = "vector") -> np.ndarray:
    try:
        arr = np.asarray(p, dtype=float)
    except (TypeError, ValueError) as exc:
        raise MalformedInput(f"{name} must hold numbers: {exc}") from exc
    if arr.ndim != 1 or arr.size == 0:
        raise WrongLength(f"{name} must be a non-empty 1-d vector")
    if not np.all(np.isfinite(arr)):
        raise MalformedInput(f"{name} has non-finite entries")
    if np.any(arr < 0):
        raise NegativeProbability(f"{name} has negative entries")
    return arr


def validate_state(raw, group: GroupSpec) -> StandardState:
    """Check a raw probability vector and return the normalized state.

    Input sums within ``INPUT_SUM_TOL`` of 1 are rescaled exactly; anything
    further off is rejected rather than silently normalized.
    """
    p = _as_prob_array(raw, name="probs")
    if p.size != group.dim:
        raise WrongLength(f"group expects {group.dim} entries, got {p.size}")
    try:
        total = _fsum(p)
    except OverflowError as exc:
        raise SumOutOfTolerance("probabilities overflow when summed") from exc
    if abs(total - 1.0) > INPUT_SUM_TOL:
        raise SumOutOfTolerance(f"probabilities sum to {total!r}, not 1")
    return StandardState(group, p / total)


def _xlogx(x: np.ndarray) -> np.ndarray:
    """x * ln(x) elementwise for x >= 0, with exact 0 at x = 0."""
    out = np.log(x, out=np.zeros_like(x), where=x > 0)
    out *= x
    return out


def shannon_entropy(p) -> float:
    """Shannon entropy of a probability vector, in bits."""
    arr = _as_prob_array(p)
    return -_fsum(_xlogx(arr)) / LN2


def _uniform_kl_terms(deltas: np.ndarray) -> np.ndarray:
    """(1+Delta)*ln(1+Delta) - Delta, elementwise, accurate for tiny Delta.

    Dropping the linear term is exact because the deltas sum to zero; it is
    what keeps the result meaningful when Delta ~ 1e-150 and the direct
    difference would cancel to noise.
    """
    d = np.asarray(deltas, dtype=float)
    out = np.empty_like(d)
    small = np.abs(d) < 1e-2
    ds = d[small]
    # Alternating series sum_{n>=2} (-1)^n d^n / (n(n-1)); truncation error
    # below 1 ulp for |d| < 1e-2.
    out[small] = ds * ds * (
        1.0 / 2
        + ds
        * (
            -1.0 / 6
            + ds
            * (
                1.0 / 12
                + ds * (-1.0 / 20 + ds * (1.0 / 30 + ds * (-1.0 / 42 + ds / 56)))
            )
        )
    )
    big = ~small
    db = d[big]
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = (1.0 + db) * np.log1p(db) - db
    vals[db == -1.0] = 1.0
    out[big] = vals
    return out


def entropy_deficit(dev: DeviationVector) -> float:
    """log2(M) - H of the distribution {(1+Delta_k)/M}, in bits.

    Computed directly from the deviations, never as a difference of two
    near-equal entropies: the deficit decays like the square of the largest
    deviation and would otherwise drown in rounding long before it
    underflows.
    """
    if np.any(dev.deltas < -1.0):
        raise DeltaOutOfRange("deviations below -1 do not describe probabilities")
    terms = _uniform_kl_terms(dev.deltas)
    return _fsum(terms) / (dev.M * LN2)


def relative_entropy_diag(c, sigma) -> float:
    """-sum_k c_k log2(sigma_k): relative entropy distance for diagonal models."""
    carr = _as_prob_array(c, name="c")
    sarr = _as_prob_array(sigma, name="sigma")
    if carr.size != sarr.size:
        raise WrongLength("c and sigma must have the same length")
    mask = carr > 0
    if np.any(sarr[mask] == 0):
        raise SupportMismatch("sigma vanishes where c has support")
    return -_fsum(carr[mask] * np.log(sarr[mask])) / LN2


def fourier_offsets(x: np.ndarray, k: int) -> np.ndarray:
    """q_j = |sum_m x_m e^{2 pi i m j/k}|^2 / k^2 for j = 1..k//2 (q_{k-j} = q_j),
    from one real FFT of x zero-padded to length k.  With x = sqrt(k c) this is
    the Z_k Fourier-basis offset distribution of c; a constant added to x moves
    only j = 0, so x = sqrt(k c) - 1 keeps q accurate for nearly uniform c."""
    w = np.fft.rfft(x, k)[1:]
    return (w.real**2 + w.imag**2) / (k * k)


def offset_entropy(x: np.ndarray, k: int) -> float:
    """Entropy (bits) of the offset distribution q of :func:`fourier_offsets`
    with q_0 = 1 - t, t the mass off j = 0; log2(k) minus it is the information.
    [-(1-t) log1p(-t) - sum q log q] / ln2 keeps its relative precision when t
    is tiny, and its terms are non-negative, so pairwise summation is accurate
    to a few ulps."""
    q = fourier_offsets(x, k)
    # Offsets j < k/2 stand for j and k - j; offset k/2 is its own mirror.
    pairs = (k - 1) // 2
    t = 2.0 * np.sum(q[:pairs]) + np.sum(q[pairs:])
    terms = -_xlogx(q)
    off = 2.0 * np.sum(terms[:pairs]) + np.sum(terms[pairs:])
    return float(-(1.0 - t) * math.log1p(-t) + off) / LN2


def dft_vector(p: np.ndarray) -> np.ndarray:
    """DFT with the e^{+2*pi*i*n*m / M} kernel: z_n = sum_m p_m exp(2*pi*i*n*m/M)."""
    return np.fft.ifft(np.asarray(p, dtype=float)) * len(p)


def _power(z: np.ndarray, n_copies: int) -> np.ndarray:
    """z**n_copies elementwise in a new array, z left as it is: numpy's
    power below SQUARING_MIN_N, right-to-left square-and-multiply into two
    buffers of its own from there on.  Both groups' transform powers use it
    (cyclic.copy_distribution_zm, u1._fft_power)."""
    if n_copies < SQUARING_MIN_N:
        return z**n_copies
    square = z.copy()
    powered = None
    while True:
        if n_copies & 1:
            if powered is None:
                powered = square.copy()
            else:
                powered *= square
        n_copies >>= 1
        if not n_copies:
            return powered
        square *= square


def dft_profile(state: StandardState) -> SpectralProfile:
    """Spectral profile (moduli, phases, maximizer set) of a cyclic state.

    Made once per state and kept on it; its arrays are read-only.
    """
    if not state.group.is_cyclic:
        raise GroupMismatch("spectral profiles are defined for cyclic states")
    return _state_profile(state)


def _state_profile(state: StandardState) -> SpectralProfile:
    """dft_profile of a cyclic state, made on its first call and kept on it."""
    if state._profile is not None:
        return state._profile
    M = state.group.M
    z = dft_vector(state.probs)
    z[0] = 1.0
    r = np.minimum(np.abs(z), 1.0)
    r[0] = 1.0
    theta = np.mod(np.angle(z), 2.0 * math.pi)
    r_max = float(np.max(r[1:]))
    if r_max <= MODULUS_ZERO_TOL:
        r_max = 0.0
        maximizers: tuple[int, ...] = ()
    else:
        cut = r_max * (1.0 - S_TIE_REL)
        maximizers = tuple((np.flatnonzero(r[1:] >= cut) + 1).tolist())
    z.setflags(write=False)
    r.setflags(write=False)
    theta.setflags(write=False)
    profile = SpectralProfile(M, z, r, theta, r_max, maximizers, len(maximizers) / 2)
    object.__setattr__(state, "_profile", profile)
    return profile


def _unit_modulus_step(state: StandardState) -> int:
    """The step M/g of the indices n with |z_n| = 1 exactly, where
    g = gcd(M, s - s0 over the support) and s0 is its first label: every
    label is s0 mod g, so z_n = exp(2*pi*i*n*s0/M) at the multiples of M/g.
    M for a state with full support.  Made once per cyclic state."""
    if state._unit_step is None:
        m = state.group.M
        support = np.flatnonzero(state.probs)
        g = 1 if support.size == m else np.gcd.reduce(support - support[0], initial=m)
        object.__setattr__(state, "_unit_step", m // int(g))
    return state._unit_step


# --- state file format -------------------------------------------------------

def state_to_json(state: StandardState) -> dict:
    if state.group.is_cyclic:
        group: dict = {"kind": "cyclic", "M": state.group.M}
    else:
        group = {"kind": "u1", "d": state.group.d}
    return {"group": group, "probs": state.probs.tolist()}


def state_from_json(obj) -> StandardState:
    try:
        gd = obj["group"]
        kind = gd["kind"]
        probs = obj["probs"]
    except (KeyError, TypeError) as exc:
        raise MalformedInput(f"state object missing field: {exc}") from exc
    if kind == "cyclic":
        try:
            group = GroupSpec.cyclic(int(gd["M"]))
        except (KeyError, ValueError) as exc:
            raise MalformedInput("cyclic group needs an integer M") from exc
    elif kind == "u1":
        try:
            group = GroupSpec.u1(int(gd["d"]))
        except (KeyError, ValueError) as exc:
            raise MalformedInput("u1 group needs an integer d") from exc
    else:
        raise MalformedInput(f"unknown group kind {kind!r}")
    if not isinstance(probs, Sequence) or isinstance(probs, (str, bytes)):
        raise MalformedInput("probs must be a list of numbers")
    return validate_state(probs, group)


def load_state(path) -> StandardState:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise MalformedInput(f"cannot read state file {path}: {exc}") from exc
    return state_from_json(obj)


def save_state(state: StandardState, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state_to_json(state), fh, indent=2, sort_keys=True)
        fh.write("\n")
