"""Monte Carlo simulation of the alignment protocol: draw the hidden shift,
sample Bob's outcome, and estimate the mutual information empirically."""
from __future__ import annotations

from dataclasses import dataclass
from io import StringIO

import numpy as np

from .core import (
    LN2,
    MalformedInput,
    ResourceLimit,
    StandardState,
    _fsum,
    shannon_entropy,
)
from .povm import PovmSpec, conditional_table, covariant_table, ensemble_states

# Largest M x K outcome table a simulation draws from: M = 2048 for the
# Fourier-basis measurement.  The table, the int64 counts and their JSON or
# CSV text all grow with M * K: `framealign sample --group z2048` peaks at
# about 220 MiB with 10^6 shots, in JSON or CSV, and at 340 MiB in JSON with
# every cell filled (10^12 shots), where the JSON text sets the peak.
MAX_SAMPLE_CELLS = 1 << 22


@dataclass(frozen=True)
class SampleRecord:
    """Outcome counts n(x, y) of a simulated run, with its reproducibility keys."""

    M: int
    shots: int
    counts: np.ndarray
    seed: int

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if counts.ndim != 2 or counts.shape[0] != self.M:
            raise MalformedInput("counts must be an M x K matrix")
        if int(counts.sum()) != self.shots:
            raise MalformedInput("counts must sum to the number of shots")
        counts = counts.copy()
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)


def simulate_protocol(
    state: StandardState,
    n_copies: int,
    povm: PovmSpec | None,
    shots: int,
    seed: int,
) -> SampleRecord:
    """Sample the hidden shift uniformly and the outcome from p(y|x).

    `povm=None` is the Fourier-basis measurement, whose p(y|x) is the
    circulant `covariant_table`; no dense POVM is built for it.
    Bit-identical counts for identical (seed, shots, inputs).
    """
    if not 1 <= shots <= np.iinfo(np.int64).max:
        raise MalformedInput("shots must be between 1 and 2^63 - 1")
    m = state.group.dim
    cells = m * (m if povm is None else povm.n_outcomes)
    if cells > MAX_SAMPLE_CELLS:
        raise ResourceLimit(f"a {cells}-cell outcome table > {MAX_SAMPLE_CELLS}")
    if povm is None:
        cond = covariant_table(state, n_copies)
    else:
        cond = conditional_table(ensemble_states(state, n_copies), povm)
    cond = cond / cond.sum(axis=1, keepdims=True)
    rng = np.random.default_rng(seed)
    x_counts = rng.multinomial(shots, np.full(m, 1.0 / m))
    counts = np.zeros_like(cond, dtype=np.int64)
    for x in range(m):
        if x_counts[x]:
            counts[x] = rng.multinomial(x_counts[x], cond[x])
    return SampleRecord(m, shots, counts, seed)


def mutual_info_of_counts(counts) -> float:
    """Plug-in mutual information (bits) of a joint count/weight matrix."""
    arr = np.asarray(counts, dtype=float)
    if arr.ndim != 2:
        raise MalformedInput("need a 2-d count matrix")
    total = _fsum(arr.ravel())
    if total <= 0:
        raise MalformedInput("counts must have positive total")
    joint = arr / total
    hx = shannon_entropy(joint.sum(axis=1))
    hy = shannon_entropy(joint.sum(axis=0))
    hxy = shannon_entropy(joint.ravel())
    return hx + hy - hxy


def plugin_mi(rec: SampleRecord) -> tuple[float, float]:
    """(plug-in, bias-corrected) mutual information estimates in bits.

    The correction subtracts (nonzero cells - nonzero rows - nonzero cols
    + 1) / (2 * shots * ln 2), the usual first-order bias of the plug-in
    estimator.
    """
    estimate = mutual_info_of_counts(rec.counts)
    cells = int(np.count_nonzero(rec.counts))
    rows = int(np.count_nonzero(rec.counts.sum(axis=1)))
    cols = int(np.count_nonzero(rec.counts.sum(axis=0)))
    bias = (cells - rows - cols + 1) / (2.0 * rec.shots * LN2)
    return estimate, estimate - bias


def counts_to_csv(rec: SampleRecord) -> str:
    """Counts as CSV with header x,y,count — one row per (x, y) cell."""
    buf = StringIO()
    buf.write("x,y,count\n")
    m, k = rec.counts.shape
    for x in range(m):
        for y in range(k):
            buf.write(f"{x},{y},{int(rec.counts[x, y])}\n")
    return buf.getvalue()
