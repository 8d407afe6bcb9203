"""Finite-ensemble accessible-information machinery: the cyclic orbit
ensemble, mutual information of arbitrary POVMs, and a projected-ascent
maximizer used to cross-validate the Fourier-basis measurement."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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
# Gradient entries stay below ln(1e300) ~ 691 in size, so an ascent step up
# to this keeps every update finite.
MAX_STEP = 1e300

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
    step_size: float = 0.1
    tol: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1 or self.max_iters < 1:
            raise MalformedInput("restarts and max_iters must be positive")
        if not all(math.isfinite(v) and v > 0 for v in (self.step_size, self.tol)):
            raise MalformedInput("step_size and tol must be positive and finite")
        if self.step_size > MAX_STEP:
            raise MalformedInput(f"step_size must be at most {MAX_STEP}")
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
    entry [x, y] = q[(x - y) mod M], from one length-M FFT."""
    from scipy.linalg import circulant  # deferred: it adds ~25 ms to CLI start-up

    return circulant(offset_distribution(copy_distribution_zm(state, n_copies)[1]))


def conditional_table(ens: EnsembleSpec, povm: PovmSpec) -> np.ndarray:
    """p(y|x) = <psi_x| E_y |psi_x> as an (M, K) real matrix."""
    if povm.dim != ens.M:
        raise DimensionMismatch(
            f"POVM acts on dimension {povm.dim}, ensemble lives in {ens.M}"
        )
    return _cond(ens.states, povm.effects)


def _cond(states: np.ndarray, effects: np.ndarray) -> np.ndarray:
    """p(y|x) = max(Re <psi_x| E_y |psi_x>, 0) from one stacked matmul."""
    e_psi = effects @ states.T  # e_psi[y, :, x] = E_y psi_x
    return np.maximum(np.einsum("xk,ykx->xy", states.conj(), e_psi).real, 0.0)


def _mutual_info_bits(prior: np.ndarray, cond: np.ndarray) -> float:
    joint = prior[:, None] * cond
    py = joint.sum(axis=0)
    mask = joint > 0
    _, yi = np.nonzero(mask)
    terms = joint[mask] * np.log(cond[mask] / py[yi])
    return max(float(terms.sum()) / LN2, 0.0)


def mutual_info_of_povm(ens: EnsembleSpec, povm: PovmSpec) -> float:
    """Mutual information (bits) between the hidden shift and the outcome."""
    cond = conditional_table(ens, povm)
    return _mutual_info_bits(np.asarray(ens.prior), cond)


def _haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _project_to_povm(effects: np.ndarray) -> np.ndarray:
    """Clip each effect to the PSD cone, then restore completeness by the
    symmetric sandwich E_y -> A^{-1/2} E_y A^{-1/2} with A = sum_y E_y."""
    h = 0.5 * (effects + effects.conj().transpose(0, 2, 1))
    w, v = np.linalg.eigh(h)
    w = np.maximum(w, 0.0)
    clipped = (v * w[:, None, :]) @ v.conj().transpose(0, 2, 1)
    total = clipped.sum(axis=0)
    total = 0.5 * (total + total.conj().T)
    w, v = np.linalg.eigh(total)
    w = np.maximum(w, 1e-12)
    inv_half = (v * (1.0 / np.sqrt(w))) @ v.conj().T
    out = inv_half @ clipped @ inv_half
    return 0.5 * (out + out.conj().transpose(0, 2, 1))


def _ascend(
    ens: EnsembleSpec,
    start: np.ndarray,
    cfg: OptimizerConfig,
) -> tuple[np.ndarray, float, list[float], bool]:
    prior = np.asarray(ens.prior)
    effects = _project_to_povm(start.copy())
    step = cfg.step_size
    trace: list[float] = []
    best_eff = effects
    best_mi = -1.0
    prev_mi = None
    still = 0
    converged = False
    for _ in range(cfg.max_iters):
        cond = _cond(ens.states, effects)
        mi = _mutual_info_bits(prior, cond)
        trace.append(mi)
        if mi > best_mi:
            best_mi = mi
            best_eff = effects
        if prev_mi is not None:
            if mi < prev_mi:
                step *= 0.5
            if abs(mi - prev_mi) < cfg.tol:
                still += 1
                if still >= 10:
                    converged = True
                    break
            else:
                still = 0
        prev_mi = mi
        py = prior @ cond
        log_ratio = np.log(np.maximum(cond, 1e-300) / np.maximum(py, 1e-300)[None, :])
        w = prior[:, None] * log_ratio  # grad_y = sum_x w[x, y] psi_x psi_x^dagger
        grad = (ens.states.T[None] * w.T[:, None, :]) @ ens.states.conj()
        effects = _project_to_povm(effects + step * grad)
    return best_eff, best_mi, trace, converged


def optimize_povm(ens: EnsembleSpec, cfg: OptimizerConfig) -> OptimizeResult:
    """Projected gradient ascent over POVMs, restarted; one restart always
    begins at the Fourier-basis measurement so the result never falls below
    it.  Deterministic given cfg.seed; non-convergence is flagged on the
    result rather than raised."""
    k = cfg.outcomes or ens.M
    _check_dense(k * ens.M * ens.M, f"a {k}-outcome POVM on dimension {ens.M}")
    cov = covariant_povm(ens.M).effects
    best: OptimizeResult | None = None
    for r in range(cfg.restarts):
        if r == 0:
            start = _resize_outcomes(cov, k)
        else:
            rng = np.random.default_rng(cfg.seed + r)
            u = _haar_unitary(rng, ens.M)
            start = _resize_outcomes(u @ cov @ u.conj().T, k)
        eff, mi, trace, converged = _ascend(ens, start, cfg)
        if best is None or mi > best.mi_bits:
            best = OptimizeResult(
                povm=PovmSpec(eff),
                mi_bits=mi,
                trace=trace,
                converged=converged,
                restart_index=r,
            )
    assert best is not None
    return best


def _resize_outcomes(effects: np.ndarray, k: int) -> np.ndarray:
    """Reshape an M-outcome POVM into a k-outcome starting point: split the
    first effect evenly when k > M, merge consecutive groups when k < M."""
    m = effects.shape[0]
    if k == m:
        return effects
    if k > m:
        extra = k - m
        return np.concatenate(
            [np.repeat(effects[:1] / (extra + 1), extra + 1, axis=0), effects[1:]]
        )
    bounds = np.linspace(0, m, k + 1).astype(int)
    return np.stack(
        [effects[lo:hi].sum(axis=0) for lo, hi in zip(bounds[:-1], bounds[1:])]
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
