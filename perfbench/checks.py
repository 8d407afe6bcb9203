"""Output checks for the benchmark's commands.

Every check recomputes what it compares against from the command's inputs,
apart from the program: closed-form binomials, mpmath cyclic convolutions,
direct DFT sums, adaptive quadrature and plain-numpy plug-in estimates.
None of them imports framealign.  A check raises CheckError on the first
disagreement; it never compares against a stored copy of earlier output.
"""
from __future__ import annotations

import functools
import json
import math

import mpmath as mp
import numpy as np
from scipy import integrate
from scipy.special import gammaln

LN2 = math.log(2.0)

# Exact/extrapolated seam of the cyclic pipeline: deficits are exact while
# 2N*log2(r_max) stays at or above this exponent.
EXTRAPOLATION_LOG2 = -980.0

# Cyclic instances small enough for the mpmath deficits: M <= MP_MAX_M and
# M**N <= MP_MAX_STRINGS.
MP_MAX_M = 64
MP_MAX_STRINGS = 4096

# d > 2 U(1) entropies are checked by mpmath convolution up to this N.
MP_MAX_U1_COPIES = 16

# The bias-corrected sampled information must lie within SAMPLING_SIGMAS
# standard deviations of the analytic value plus its residual bias, both
# measured by a fixed-seed parametric bootstrap of BOOTSTRAP_DRAWS samples.
SAMPLING_SIGMAS = 6.0
BOOTSTRAP_DRAWS = 16
BOOTSTRAP_SEED = 12023163

PINNED_MIN_BITS = 0.652002


class CheckError(AssertionError):
    """A command's output disagrees with the independent computation."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def close(got: float, want: float, tol: float, what: str) -> None:
    require(
        isinstance(got, (int, float)) and abs(got - want) <= tol,
        f"{what}: got {got!r}, expected {want!r} within {tol:g}",
    )


def rel_close(got: float, want: float, rel: float, what: str) -> None:
    close(got, want, rel * abs(want) + 1e-300, what)


def load_json(data: bytes) -> dict:
    try:
        return json.loads(data)
    except ValueError as exc:
        raise CheckError(f"output is not JSON: {exc}") from exc


def entropy_bits(p: np.ndarray) -> float:
    p = np.asarray(p, dtype=float)
    p = p[p > 0]
    return -math.fsum((p * np.log(p)).tolist()) / LN2


# --- U(1) -----------------------------------------------------------------

def binomial_dist(p1: float, n: int) -> np.ndarray:
    """Closed-form Binomial(n, p1) weights from log-gamma."""
    k = np.arange(n + 1, dtype=float)
    logc = (
        gammaln(n + 1.0)
        - gammaln(k + 1.0)
        - gammaln(n - k + 1.0)
        + k * math.log(p1)
        + (n - k) * math.log1p(-p1)
    )
    return np.exp(logc)


def mp_number_dist(probs, n: int) -> list:
    """Exact n-fold linear self-convolution in 60-digit arithmetic."""
    with mp.workdps(60):
        p = [mp.mpf(float(x)) for x in probs]
        c = list(p)
        for _ in range(n - 1):
            out = [mp.mpf(0)] * (len(c) + len(p) - 1)
            for i, ci in enumerate(c):
                for j, pj in enumerate(p):
                    out[i + j] += ci * pj
            c = out
        return c


def mp_entropy_bits(c) -> float:
    with mp.workdps(60):
        return float(-mp.fsum(x * mp.log(x, 2) for x in c if x > 0))


def quad_covariant_info(c: np.ndarray) -> float:
    """Information of the covariant phase measurement by adaptive quadrature
    of f log2(2*pi*f), f(phi) = |sum_m sqrt(c_m) e^{i m phi}|^2 / (2*pi)."""
    amp = np.sqrt(np.asarray(c, dtype=float))
    m = np.arange(amp.size)

    def integrand(phi: float) -> float:
        s = np.dot(amp, np.exp(1j * m * phi))
        g = float(s.real * s.real + s.imag * s.imag)
        return g * math.log(g) / (2.0 * math.pi) if g > 0 else 0.0

    pieces = 8 * max(1, amp.size // 16)
    edges = np.linspace(0.0, 2.0 * math.pi, pieces + 1)
    total = math.fsum(
        integrate.quad(integrand, a, b, limit=200, epsabs=1e-13, epsrel=1e-12)[0]
        for a, b in zip(edges[:-1], edges[1:])
    )
    return total / LN2


def number_variance(probs) -> float:
    p = np.asarray(probs, dtype=float)
    n = np.arange(p.size, dtype=float)
    mean = math.fsum((n * p).tolist())
    return math.fsum((p * (n - mean) ** 2).tolist())


def lin_per_copy(bits: float, n: int) -> float:
    return 2.0 ** (2.0 * bits - math.log2(n))


def _u1_exact(probs, n: int) -> tuple[float, np.ndarray | None]:
    """(H, c) from an oracle where one is affordable, else (nan, None)."""
    if len(probs) == 2:
        c = binomial_dist(probs[1], n)
        return entropy_bits(c), c
    if n <= MP_MAX_U1_COPIES:
        cm = mp_number_dist(probs, n)
        return mp_entropy_bits(cm), np.array([float(x) for x in cm])
    return math.nan, None


def check_u1_points(probs, rows: list[dict], quad_n: int, need_h: bool) -> None:
    """U(1) rows of `rate` or `mi`: bounds everywhere, oracle values where
    one exists, and the quadrature information at N = quad_n."""
    d = len(probs)
    target = 4.0 * math.pi * number_variance(probs)
    quad_done = False
    for row in rows:
        n = row["n"]
        i_bits = row["i_bits"]
        h_ref, c = _u1_exact(probs, n)
        log_len = math.log2(n * (d - 1) + 1)
        require(-1e-12 <= i_bits, f"N={n}: negative information {i_bits!r}")
        if need_h:
            h_bits = row["h_bits"]
            require(
                i_bits <= h_bits + 1e-9 and h_bits <= log_len + 1e-9,
                f"N={n}: needs 0 <= I <= H <= log2(L), got I={i_bits!r} H={h_bits!r}",
            )
            if not math.isnan(h_ref):
                close(h_bits, h_ref, 1e-8, f"N={n} entropy vs oracle")
            rel_close(row["lin_h"], lin_per_copy(h_bits, n), 1e-12, f"N={n} lin_h")
            rel_close(row["lin_i"], lin_per_copy(i_bits, n), 1e-12, f"N={n} lin_i")
            rel_close(row["target"], target, 1e-12, f"N={n} target 4*pi*V")
        else:
            require(i_bits <= log_len + 1e-9, f"N={n}: I above log2(L)")
            if not math.isnan(h_ref):
                require(i_bits <= h_ref + 1e-9, f"N={n}: I above the oracle entropy")
        if n == quad_n and c is not None:
            close(i_bits, quad_covariant_info(c), 1e-7, f"N={n} information vs quad")
            quad_done = True
    require(quad_done, f"no point at N={quad_n} for the quadrature check")


def check_u1_rate(data: bytes, probs, n_list, quad_n: int) -> None:
    out = load_json(data)
    require([r["n"] for r in out["points"]] == list(n_list), "N list changed")
    var = number_variance(probs)
    rel_close(out["number_variance"], var, 1e-12, "number variance")
    rel_close(out["rate_bits"], 4.0 * math.pi * var, 1e-12, "rate 4*pi*V")
    check_u1_points(probs, out["points"], quad_n, need_h=True)


def check_u1_mi(data: bytes, probs, n_list, quad_n: int) -> None:
    out = load_json(data)
    require([r["n"] for r in out["points"]] == list(n_list), "N list changed")
    check_u1_points(probs, out["points"], quad_n, need_h=False)


def parse_sweep_csv(data: bytes) -> list[dict]:
    lines = data.decode().splitlines()
    header = lines[0].split(",")
    require(
        header[:4] == ["N", "H_bits", "H_deficit", "I_bits"], f"bad header {header}"
    )
    rows = []
    for line in lines[1:]:
        cells = dict(zip(header, line.split(",")))
        num = lambda key: float(cells[key]) if cells[key] else None  # noqa: E731
        rows.append(
            {
                "n": int(cells["N"]),
                "h_bits": num("H_bits"),
                "h_deficit": num("H_deficit"),
                "i_bits": num("I_bits"),
                "i_deficit": num("I_deficit"),
                "lin_h": num("lin_H_per_N"),
                "lin_i": num("lin_I_per_N"),
                "target": num("target"),
            }
        )
    return rows


def check_u1_rate_csv(data: bytes, probs, n_list, quad_n: int) -> None:
    rows = parse_sweep_csv(data)
    require([r["n"] for r in rows] == list(n_list), "N list changed")
    check_u1_points(probs, rows, quad_n, need_h=True)


# --- Z_M ------------------------------------------------------------------

class CyclicState:
    """A Z_M state written as p = (1-t)/M + t*q with q supported on a few
    labels, so its DFT at n != 0 is t times a short direct sum over q."""

    def __init__(self, m: int, support: np.ndarray, weights: np.ndarray, t: float):
        self.m = m
        self.support = np.asarray(support, dtype=np.int64)
        self.weights = np.asarray(weights, dtype=float)
        self.t = float(t)

    @property
    def probs(self) -> np.ndarray:
        p = np.full(self.m, (1.0 - self.t) / self.m)
        p[self.support] += self.t * self.weights
        return p

    def moduli(self) -> np.ndarray:
        """|z_n| for n = 1..M-1 by direct summation, chunked over n."""
        out = np.empty(self.m - 1)
        step = 1 << 14
        for lo in range(1, self.m, step):
            n = np.arange(lo, min(self.m, lo + step), dtype=np.int64)
            # exact integer residues keep the phases accurate at large M
            phase = (np.outer(n, self.support) % self.m) * (2.0 * math.pi / self.m)
            z = np.exp(1j * phase) @ self.weights
            out[lo - 1 : lo - 1 + n.size] = self.t * np.abs(z)
        return out

    def r_max(self) -> float:
        return float(self.moduli().max())


def direct_moduli(probs) -> np.ndarray:
    """|z_n|, n = 1..M-1, of a dense vector by a direct DFT sum."""
    p = np.asarray(probs, dtype=float)
    m = p.size
    k = np.arange(m, dtype=np.int64)
    phase = (np.outer(k[1:], k) % m) * (2.0 * math.pi / m)
    return np.abs(np.exp(1j * phase) @ p)


def mp_cyclic_dist(probs, n: int, dps: int) -> list:
    """N-copy label distribution by repeated direct cyclic convolution."""
    m = len(probs)
    with mp.workdps(dps):
        p = [mp.mpf(float(x)) for x in probs]
        c = list(p)
        for _ in range(n - 1):
            c = [mp.fsum(p[j] * c[(k - j) % m] for j in range(m)) for k in range(m)]
        return c


def mp_cyclic_deficits(probs, n: int) -> tuple[float, float]:
    """(asymmetry deficit, covariant-information deficit) in bits, exact in
    mpmath: log2(M) - H(c), and H(q) with q_j = |sum_k sqrt(c_k) w^{jk}|^2 / M."""
    return _mp_cyclic_deficits(tuple(float(x) for x in probs), n)


# The `asymmetry` and `mi` checks of one state share these values.
@functools.lru_cache(maxsize=32)
def _mp_cyclic_deficits(probs: tuple, n: int) -> tuple[float, float]:
    m = len(probs)
    dps = 40
    c = mp_cyclic_dist(probs, n, dps)
    with mp.workdps(dps):
        log2m = mp.log(m, 2)
        asym = log2m + mp.fsum(x * mp.log(x, 2) for x in c if x > 0)
        amp = [mp.sqrt(x) for x in c]
        q = []
        for j in range(m):
            s = mp.fsum(amp[k] * mp.expjpi(mp.mpf(2 * j * k) / m) for k in range(m))
            q.append(abs(s) ** 2 / m)
        mi = -mp.fsum(x * mp.log(x, 2) for x in q if x > 0)
        return float(asym), float(mi)


def mp_checkable(m: int, n: int) -> bool:
    return m <= MP_MAX_M and m**n <= MP_MAX_STRINGS


def _check_written_probs(out: dict, state: CyclicState) -> None:
    got = np.asarray(out["config"]["probs"], dtype=float)
    require(got.size == state.m, "wrong state length in config")
    require(
        float(np.max(np.abs(got - state.probs))) <= 1e-15, "config probs differ"
    )


def check_zm_rate_rows(state: CyclicState, rows: list[dict], r_max: float) -> None:
    m = state.m
    log2m = math.log2(m)
    log2r = math.log2(r_max)
    for row in rows:
        n = row["n"]
        h_def, i_def = row["h_deficit"], row["i_deficit"]
        require(h_def >= 0.0 and i_def >= 0.0, f"N={n}: negative deficit")
        require(
            h_def <= i_def * (1 + 1e-9), f"N={n}: asymmetry deficit above info deficit"
        )
        close(row["h_bits"] + h_def, log2m, 1e-12 * log2m, f"N={n} H + deficit")
        close(row["i_bits"] + i_def, log2m, 1e-12 * log2m, f"N={n} I + deficit")
        if "extrapolated" in row:
            want = 2.0 * n * log2r < EXTRAPOLATION_LOG2
            got = row["extrapolated"]
            require(got is want, f"N={n}: extrapolated flag {got}")
        if mp_checkable(m, n):
            a_ref, i_ref = mp_cyclic_deficits(state.probs, n)
            rel_close(h_def, a_ref, 1e-8, f"N={n} asymmetry deficit vs mpmath")
            rel_close(i_def, i_ref, 1e-8, f"N={n} information deficit vs mpmath")


def check_zm_rate(data: bytes, state: CyclicState, n_list) -> None:
    out = load_json(data)
    _check_written_probs(out, state)
    r_max = state.r_max()
    rel_close(out["r_max"], r_max, 1e-12, "r_max vs direct DFT")
    rel_close(out["rate_bits"], -2.0 * math.log2(r_max), 1e-11, "rate_bits")
    rows = out["points"]
    require([r["n"] for r in rows] == list(n_list), "N list changed")
    check_zm_rate_rows(state, rows, r_max)


def check_zm_rate_csv(data: bytes, state: CyclicState, n_list) -> None:
    rows = parse_sweep_csv(data)
    require([r["n"] for r in rows] == list(n_list), "N list changed")
    r_max = state.r_max()
    for row in rows:
        rel_close(row["target"], -2.0 * math.log2(r_max), 1e-11, "target rate")
    check_zm_rate_rows(state, rows, r_max)


def check_zm_single(data: bytes, state: CyclicState, n_list, key: str) -> None:
    """`asymmetry` (key "h") or `mi` (key "i") points on a cyclic state."""
    out = load_json(data)
    _check_written_probs(out, state)
    log2m = math.log2(state.m)
    rows = out["points"]
    require([r["n"] for r in rows] == list(n_list), "N list changed")
    for row in rows:
        n = row["n"]
        bits, deficit = row[f"{key}_bits"], row[f"{key}_deficit"]
        require(deficit >= 0.0, f"N={n}: negative deficit")
        close(bits + deficit, log2m, 1e-12 * log2m, f"N={n} value + deficit")
        if mp_checkable(state.m, n):
            a_ref, i_ref = mp_cyclic_deficits(state.probs, n)
            ref = a_ref if key == "h" else i_ref
            rel_close(deficit, ref, 1e-8, f"N={n} deficit vs mpmath")


def check_zm_pair(asym_data: bytes, mi_data: bytes) -> None:
    """The asymmetry deficit never exceeds the information deficit."""
    for a, i in zip(load_json(asym_data)["points"], load_json(mi_data)["points"]):
        require(a["n"] == i["n"], "point lists differ")
        require(
            a["h_deficit"] <= i["i_deficit"] * (1 + 1e-9),
            f"N={a['n']}: asymmetry deficit above info deficit",
        )


def composition_gap(pa, pb) -> tuple[float, float, float]:
    """(gap, r_max a, r_max b) from direct DFT sums: |DFT(a*b)| = |DFT a||DFT b|."""
    ra, rb = direct_moduli(pa), direct_moduli(pb)
    r_a, r_b = float(ra.max()), float(rb.max())
    gap = 2.0 * (math.log2(r_a) + math.log2(r_b) - math.log2(float((ra * rb).max())))
    return gap, r_a, r_b


def check_superadd(data: bytes, pa, pb) -> None:
    out = load_json(data)
    m = len(pa)
    gap, r_a, r_b = composition_gap(pa, pb)
    rel_close(out["r_max_a"], r_a, 1e-12, "r_max_a")
    rel_close(out["r_max_b"], r_b, 1e-12, "r_max_b")
    got = out["gap_bits"]
    require(got >= 0.0, f"negative gap {got!r}")
    if m <= 3:
        require(got == 0.0, f"gap {got!r} must be exactly 0 for M <= 3")
    close(got, max(gap, 0.0), 1e-9, "gap vs direct DFT")


def check_search(data: bytes, m: int) -> None:
    out = load_json(data)
    witness = []
    for key in ("a", "b"):
        p = np.asarray(out[key]["probs"], dtype=float)
        require(p.size == m, f"witness {key} has {p.size} entries, not {m}")
        require(bool(np.all(p >= 0.0)), f"witness {key} has negative entries")
        close(math.fsum(p.tolist()), 1.0, 1e-12, f"witness {key} sum")
        witness.append(p)
    got = out["gap_bits"]
    require(got >= 0.0, f"negative gap {got!r}")
    gap, _, _ = composition_gap(*witness)
    close(got, max(gap, 0.0), 1e-9, "witness gap vs direct DFT")


# --- POVMs and sampling ------------------------------------------------------

def cyclic_dist(probs, n: int) -> np.ndarray:
    """N-copy label distribution by repeated direct cyclic convolution."""
    p = np.asarray(probs, dtype=float)
    m = p.size
    shift = (np.arange(m)[:, None] - np.arange(m)[None, :]) % m
    c = p.copy()
    for _ in range(n - 1):
        c = p[shift] @ c
    return np.maximum(c, 0.0)


def ensemble(probs, n: int) -> np.ndarray:
    """Orbit states psi_x[k] = sqrt(c_k) e^{2 pi i k x / M}, one per row."""
    c = cyclic_dist(probs, n)
    m = c.size
    amp = np.sqrt(c) / math.sqrt(c.sum())
    k = np.arange(m)
    return np.exp(2j * math.pi * np.outer(k, k) / m) * amp[None, :]


def info_of_table(cond: np.ndarray) -> float:
    """I(X;Y) in bits for a uniform prior over the rows of p(y|x)."""
    joint = cond / cond.shape[0]
    py = joint.sum(axis=0)
    mask = joint > 0
    ratio = cond[mask] / np.broadcast_to(py, cond.shape)[mask]
    return math.fsum((joint[mask] * np.log(ratio)).tolist()) / LN2


def covariant_table(probs, n: int) -> np.ndarray:
    """p(y|x) = q_{(y-x) mod M} of the Fourier-basis measurement, q from the
    FFT of sqrt(c)."""
    c = cyclic_dist(probs, n)
    m = c.size
    q = np.abs(np.fft.fft(np.sqrt(c))) ** 2 / m
    q = q / q.sum()
    return q[(np.arange(m)[None, :] - np.arange(m)[:, None]) % m]


def check_optimize(data: bytes, rc: int, probs, n: int, pinned: bool) -> None:
    out = load_json(data)
    m = len(probs)
    eff = np.array(
        [[[complex(v["re"], v["im"]) for v in row] for row in e] for e in out["povm"]]
    )
    require(eff.ndim == 3 and eff.shape[1:] == (m, m), f"POVM shape {eff.shape}")
    require(
        float(np.max(np.abs(eff - eff.conj().transpose(0, 2, 1)))) <= 1e-9,
        "effects not Hermitian",
    )
    lowest = min(float(np.linalg.eigvalsh(e).min()) for e in eff)
    require(lowest >= -1e-9, f"effect eigenvalue {lowest!r} below 0")
    require(
        float(np.max(np.abs(eff.sum(axis=0) - np.eye(m)))) <= 1e-9,
        "effects do not sum to the identity",
    )
    psi = ensemble(probs, n)
    cond = np.maximum(np.einsum("xk,ykl,xl->xy", psi.conj(), eff, psi).real, 0.0)
    mi = info_of_table(cond)
    close(out["mi_bits"], mi, 1e-9, "mi_bits vs the written POVM")
    cov = info_of_table(covariant_table(probs, n))
    close(out["covariant_mi_bits"], cov, 1e-9, "covariant_mi_bits")
    holevo = entropy_bits(cyclic_dist(probs, n))
    require(
        cov - 1e-9 <= mi <= holevo + 1e-9,
        f"need covariant {cov!r} <= I {mi!r} <= Holevo {holevo!r}",
    )
    converged = out["converged"]
    require(converged is (rc == 0), f"converged={converged} with exit {rc}")
    if pinned:
        require(mi >= PINNED_MIN_BITS, f"pinned instance at {mi!r} < {PINNED_MIN_BITS}")


def sampling_band(cond: np.ndarray, shots: int) -> tuple[float, float]:
    """(centre, half-width) of the window the bias-corrected estimate must
    fall in: a parametric bootstrap of BOOTSTRAP_DRAWS multinomial samples
    of `shots` from the analytic joint law.  The centre is the analytic
    information plus the bootstrap's residual bias; the half-width is
    SAMPLING_SIGMAS bootstrap standard deviations, widened for the error of
    the bootstrap mean."""
    m, k = cond.shape
    joint = (cond / m).ravel()
    rng = np.random.default_rng(BOOTSTRAP_SEED)
    draws = [
        corrected_plugin(rng.multinomial(shots, joint).reshape(m, k))[1]
        for _ in range(BOOTSTRAP_DRAWS)
    ]
    sd = float(np.std(draws, ddof=1))
    half = SAMPLING_SIGMAS * sd * math.sqrt(1.0 + 1.0 / BOOTSTRAP_DRAWS) + 1e-9
    return float(np.mean(draws)), half


def corrected_plugin(counts: np.ndarray) -> tuple[float, float]:
    """(plug-in, first-order bias-corrected) information of a count table."""
    counts = np.asarray(counts, dtype=float)
    shots = counts.sum()
    joint = counts / shots
    hx = entropy_bits(joint.sum(axis=1))
    hy = entropy_bits(joint.sum(axis=0))
    hxy = entropy_bits(joint.ravel())
    est = hx + hy - hxy
    cells = int(np.count_nonzero(counts))
    rows = int(np.count_nonzero(counts.sum(axis=1)))
    cols = int(np.count_nonzero(counts.sum(axis=0)))
    return est, est - (cells - rows - cols + 1) / (2.0 * shots * LN2)


def _check_counts(counts: np.ndarray, probs, n: int, shots: int) -> float:
    m = len(probs)
    require(counts.shape == (m, m), f"count table shape {counts.shape}")
    require(bool(np.all(counts >= 0)), "negative counts")
    total = int(counts.sum())
    require(total == shots, f"counts sum to {total}, not {shots}")
    cond = covariant_table(probs, n)
    analytic = info_of_table(cond)
    _, corrected = corrected_plugin(counts)
    centre, half = sampling_band(cond, shots)
    require(
        abs(corrected - centre) <= half,
        f"corrected estimate {corrected!r} is {abs(corrected - centre):.3g} from "
        f"{centre!r} (analytic {analytic!r} plus residual bias); window {half:.3g}",
    )
    return analytic


def check_sample_json(data: bytes, probs, n: int, shots: int) -> None:
    out = load_json(data)
    counts = np.asarray(out["counts"], dtype=np.int64)
    analytic = _check_counts(counts, probs, n, shots)
    close(out["analytic_bits"], analytic, 1e-9, "analytic_bits")
    est, corrected = corrected_plugin(counts)
    close(out["estimate_bits"], est, 1e-9, "estimate_bits")
    close(out["corrected_bits"], corrected, 1e-9, "corrected_bits")


def check_sample_csv(data: bytes, probs, n: int, shots: int) -> None:
    lines = data.decode().splitlines()
    require(lines[0] == "x,y,count", f"bad header {lines[0]!r}")
    m = len(probs)
    counts = np.full((m, m), -1, dtype=np.int64)
    for line in lines[1:]:
        x, y, cnt = (int(v) for v in line.split(","))
        require(counts[x, y] == -1, f"cell ({x}, {y}) written twice")
        counts[x, y] = cnt
    require(len(lines) - 1 == m * m, f"{len(lines) - 1} cells, not {m * m}")
    _check_counts(counts, probs, n, shots)
