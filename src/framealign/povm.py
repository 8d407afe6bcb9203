"""Finite-ensemble accessible-information machinery: the cyclic orbit
ensemble, mutual information of arbitrary POVMs, and a maximizer over
covariant POVMs with rank-one seeds, one length-M FFT per seed."""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (
    LN2,
    DimensionMismatch,
    MalformedInput,
    ResourceLimit,
    StandardState,
)
from .cyclic import copy_distribution_zm, offset_distribution

PSD_TOL = 1e-10
COMPLETENESS_TOL = 1e-9
# Seed ascent: L-BFGS memory, the step gain that ends it as converged, Armijo
# constant, the backtracking's smallest step, restart 0's nudge off Fourier.
LBFGS_PAIRS = 8
GAIN_TOL = 1e-10
ARMIJO_C1 = 1e-4
MIN_STEP = 2.0**-60
FOURIER_NUDGE = 1e-3

# Largest dense complex array the POVM layer builds (256 MiB); M = 256 fits.
MAX_DENSE_ENTRIES = 1 << 24


def _check_dense(entries: int, what: str) -> None:
    if entries > MAX_DENSE_ENTRIES:
        raise ResourceLimit(f"{what} needs {entries} entries > {MAX_DENSE_ENTRIES}")


@dataclass(frozen=True)
class EnsembleSpec:
    """Orbit ensemble of an N-copy resource: M unit vectors with uniform prior."""

    M: int
    amplitudes: np.ndarray
    states: np.ndarray
    prior: np.ndarray

    def __post_init__(self):
        states = np.asarray(self.states, dtype=complex)
        norms = np.linalg.norm(states, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-12):
            raise MalformedInput("ensemble states must be unit vectors")
        for name in ("amplitudes", "states", "prior"):
            arr = np.asarray(getattr(self, name))
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class PovmSpec:
    """A finite POVM: positive semidefinite effects summing to the identity."""

    effects: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.effects, dtype=complex)
        if e.ndim != 3 or e.shape[1] != e.shape[2]:
            raise DimensionMismatch("effects must be a stack of square matrices")
        if np.max(np.abs(e - e.conj().transpose(0, 2, 1))) > 1e-9:
            raise MalformedInput("effects must be Hermitian")
        if np.linalg.eigvalsh(e).min() < -PSD_TOL:
            raise MalformedInput("effects must be positive semidefinite")
        ident = np.eye(e.shape[1])
        if np.max(np.abs(e.sum(axis=0) - ident)) > COMPLETENESS_TOL:
            raise MalformedInput("effects must sum to the identity")
        e = e.copy()
        e.setflags(write=False)
        object.__setattr__(self, "effects", e)

    @property
    def n_outcomes(self) -> int:
        return self.effects.shape[0]

    @property
    def dim(self) -> int:
        return self.effects.shape[1]


@dataclass(frozen=True)
class OptimizerConfig:
    outcomes: int | None = None
    restarts: int = 5
    max_iters: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1 or self.max_iters < 1:
            raise MalformedInput("restarts and max_iters must be positive")
        if self.outcomes is not None and self.outcomes < 1:
            raise MalformedInput("outcomes must be positive")


@dataclass(frozen=True)
class OptimizeResult:
    povm: PovmSpec
    mi_bits: float
    trace: list[float] = field(repr=False)
    converged: bool = True
    restart_index: int = 0


def ensemble_states(state: StandardState, n_copies: int) -> EnsembleSpec:
    """The M-element orbit of an N-copy resource in its effective M-dim space."""
    m = state.group.M
    _check_dense(m * m, f"the Z{m} orbit ensemble")
    c = copy_distribution_zm(state, n_copies)[0].c
    amps = np.sqrt(c)
    amps = amps / np.linalg.norm(amps)
    k = np.arange(m)
    phases = np.exp(2j * math.pi * np.outer(k, k) / m)
    states = phases * amps[np.newaxis, :]  # states[x, k] = sqrt(c_k) e^{2 pi i k x / M}
    return EnsembleSpec(m, amps, states, np.full(m, 1.0 / m))


def covariant_povm(m: int) -> PovmSpec:
    """Rank-one projectors onto the Fourier basis; sums to identity exactly."""
    if m < 2:
        raise MalformedInput("m must be >= 2")
    _check_dense(m**3, f"the Z{m} Fourier-basis POVM")
    k = np.arange(m)
    basis = np.exp(2j * math.pi * np.outer(k, k) / m) / math.sqrt(m)
    effects = np.einsum("ky,ly->ykl", basis, basis.conj())
    return PovmSpec(effects)


def covariant_table(state: StandardState, n_copies: int) -> np.ndarray:
    """p(y|x) of the Fourier-basis measurement as an (M, M) circulant,
    entry [x, y] = q[(x - y) mod M], from one length-M FFT.  Row x is the
    window of q reversed and doubled that starts at M - 1 - x."""
    q = offset_distribution(copy_distribution_zm(state, n_copies)[1])
    m = q.size
    return sliding_window_view(np.tile(q[::-1], 2), m)[m - 1 :: -1].copy()


def conditional_table(ens: EnsembleSpec, povm: PovmSpec) -> np.ndarray:
    """p(y|x) = max(Re <psi_x| E_y |psi_x>, 0) as an (M, K) real matrix,
    from one stacked matmul."""
    if povm.dim != ens.M:
        raise DimensionMismatch(
            f"POVM acts on dimension {povm.dim}, ensemble lives in {ens.M}"
        )
    e_psi = povm.effects @ ens.states.T  # e_psi[y, :, x] = E_y psi_x
    return np.maximum(np.einsum("xk,ykx->xy", ens.states.conj(), e_psi).real, 0.0)


def mutual_info_of_povm(ens: EnsembleSpec, povm: PovmSpec) -> float:
    """Mutual information (bits) between the hidden shift and the outcome."""
    cond = conditional_table(ens, povm)
    joint = np.asarray(ens.prior)[:, None] * cond
    py = joint.sum(axis=0)
    mask = joint > 0
    _, yi = np.nonzero(mask)
    terms = joint[mask] * np.log(cond[mask] / py[yi])
    return max(float(terms.sum()) / LN2, 0.0)


def _seed_info(a: np.ndarray, amps: np.ndarray) -> tuple[float, np.ndarray]:
    """I (bits) of the covariant POVM whose seeds are the rows of `a`, each
    column scaled to norm 1/sqrt(M), and its ascent gradient in `a` under
    the real inner product Re<u, v>."""
    m = amps.size
    norms = np.linalg.norm(a, axis=0)
    u = a / norms
    y = m * np.fft.ifft(u.conj() * (amps / math.sqrt(m)), axis=1)
    q = y.real**2 + y.imag**2  # q[i, j] = p(g, i | g + j)
    g = np.log(np.maximum(m * q / q.sum(axis=1, keepdims=True), 1e-300))
    info = float(np.sum(q * g)) / LN2
    grad = np.fft.fft(g * y, axis=1).conj() * amps / LN2  # dI/d conj(phi)
    grad -= u * np.sum((u.conj() * grad).real, axis=0)
    return info, grad * (2.0 / math.sqrt(m)) / norms


def _dot(u: np.ndarray, v: np.ndarray) -> float:
    return float(np.vdot(u, v).real)


def _ascend(
    amps: np.ndarray, a: np.ndarray, cfg: OptimizerConfig
) -> tuple[np.ndarray, float, list[float], bool]:
    """L-BFGS ascent on the seeds with Armijo backtracking; converged when an
    accepted step gains less than GAIN_TOL."""
    info, grad = _seed_info(a, amps)
    pairs: deque = deque(maxlen=LBFGS_PAIRS)
    trace: list[float] = []
    for _ in range(cfg.max_iters):
        d = grad.copy()
        alphas = []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * _dot(s, d))
            d -= alphas[-1] * y
        if pairs:
            s, y, rho = pairs[-1]
            d /= rho * _dot(y, y)
        else:
            d *= np.linalg.norm(a) / max(np.linalg.norm(grad), 1e-300)
        for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
            d += (alpha - rho * _dot(y, d)) * s
        slope = _dot(grad, d)
        t = 1.0
        while slope > 0 and t > MIN_STEP:
            trial = a + t * d
            new_info, new_grad = _seed_info(trial, amps)
            if new_info >= info + ARMIJO_C1 * t * slope:
                break
            t *= 0.5
        else:  # no ascent left at working precision
            trace.append(info)
            return a, info, trace, True
        gain = new_info - info
        s, y = trial - a, grad - new_grad
        curvature = _dot(s, y)
        if curvature > 0:
            pairs.append((s, y, 1.0 / curvature))
        a, info, grad = trial, new_info, new_grad
        trace.append(info)
        if gain < GAIN_TOL:
            return a, info, trace, True
    return a, info, trace, False


def _expand_seeds(a: np.ndarray) -> np.ndarray:
    """Dense effects E_{i*M + g} = U_g |phi_i><phi_i| U_g^dagger, with
    U_g = diag(e^{2 pi i g k / M}) and phi the column-scaled seeds."""
    s, m = a.shape
    phi = a / (np.linalg.norm(a, axis=0) * math.sqrt(m))
    k = np.arange(m)
    vecs = (phi[:, None, :] * np.exp(2j * math.pi * np.outer(k, k) / m)).reshape(
        s * m, m
    )
    return vecs[:, :, None] * vecs.conj()[:, None, :]


def optimize_povm(ens: EnsembleSpec, cfg: OptimizerConfig) -> OptimizeResult:
    """Maximize the information over covariant POVMs with rank-one seeds,
    which contain an optimal measurement of the uniform orbit ensemble.
    cfg.outcomes = s*M asks for s seeds (default one).  Restart 0 starts next
    to the Fourier seed, the rest at random; deterministic given cfg.seed.
    Non-convergence is flagged on the result rather than raised."""
    m = ens.M
    k = cfg.outcomes or m
    _check_dense(k * m * m, f"a {k}-outcome POVM on dimension {m}")
    if k % m:
        raise MalformedInput(f"outcomes must be a multiple of M = {m}, got {k}")
    amps = np.asarray(ens.amplitudes)
    runs = []
    for r in range(cfg.restarts):
        rng = np.random.default_rng(cfg.seed + r)
        draw = rng.normal(size=(k // m, m)) + 1j * rng.normal(size=(k // m, m))
        # The exact Fourier seed is a critical point (I is even under
        # phi -> conj(phi)), so restart 0 starts a nudge away from it.
        runs.append(_ascend(amps, 1.0 + FOURIER_NUDGE * draw if r == 0 else draw, cfg))
    r = max(range(cfg.restarts), key=lambda i: runs[i][1])
    a, mi, trace, converged = runs[r]
    return OptimizeResult(
        povm=PovmSpec(_expand_seeds(a)),
        mi_bits=max(mi, 0.0),
        trace=trace,
        converged=converged,
        restart_index=r,
    )


# --- POVM serialization ------------------------------------------------------

def povm_to_json(povm: PovmSpec) -> list:
    return [
        [[{"re": float(v.real), "im": float(v.imag)} for v in row] for row in eff]
        for eff in povm.effects
    ]


def povm_from_json(obj) -> PovmSpec:
    try:
        effects = np.array(
            [
                [[complex(cell["re"], cell["im"]) for cell in row] for row in eff]
                for eff in obj
            ],
            dtype=complex,
        )
    except (TypeError, KeyError, ValueError) as exc:
        raise MalformedInput(f"malformed POVM payload: {exc}") from exc
    return PovmSpec(effects)
