"""The benchmark's workloads: seeded command lists for `framealign.cli.main`.

Each build_* function takes a generator seeded from (workload seed,
repetition), a directory for input and output files, and a size table, and
returns the commands of one repetition.  Every repetition draws fresh
states of the same sizes, so a cache kept across repetitions gains
nothing.  Each command carries the check that verifies its output
afterwards.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

# The Z3 instance pinned in tests/test_povm.py::TestKnownCounterexample.  At
# the default 500 iterations the optimizer stops with converged=False (exit
# 4), so this command is the workload's one expected failure.
PINNED_Z3 = [0.6201700249744639, 0.3557026367891029, 0.024127338236433166]


@dataclass
class Command:
    label: str
    argv: list[str]
    out: Path
    # check(output bytes, exit code) raises checks.CheckError on a mismatch
    check: Callable[[bytes, int], None]
    # Exit codes whose output is checked; any other code is a failed command.
    checked_codes: tuple[int, ...] = (0,)
    # Run once more after the timed region and compare the bytes written.
    repeat: bool = False

    def full_argv(self) -> list[str]:
        return [*self.argv, "--workers", "1", "--out", str(self.out)]


def _fmt(p) -> str:
    return ",".join(repr(float(x)) for x in p)


def _pow2_list(lo: int, hi: int) -> list[int]:
    return [1 << k for k in range(lo, hi + 1)]


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _output_check(fn, *args, **kwargs) -> Callable[[bytes, int], None]:
    """A check of an output that does not depend on the exit code."""
    return lambda data, rc: fn(data, *args, **kwargs)


def _write_state(path: Path, m: int, probs) -> None:
    path.write_text(
        json.dumps(
            {"group": {"kind": "cyclic", "M": m}, "probs": [float(x) for x in probs]}
        )
    )


# --- u1_rate ----------------------------------------------------------------

U1_FULL = {
    # (d, subcommand, highest log2 N, quadrature-check N, extra args)
    "sweeps": [
        (2, "rate", 16, 64, ()),
        (2, "mi", 14, 64, ()),
        (3, "rate", 14, 16, ()),
        (3, "mi", 12, 16, ()),
        (5, "rate", 13, 16, ()),
        (5, "mi", 12, 16, ()),
        (2, "rate", 10, 64, ("--format", "csv")),
        (3, "mi", 4, 16, ("--grid", "65536")),
        (2, "mi", 7, 64, ()),
    ],
}
U1_TINY = {
    "sweeps": [
        (2, "rate", 7, 64, ()),
        (3, "mi", 5, 16, ()),
        (5, "rate", 4, 16, ()),
        (2, "rate", 6, 64, ("--format", "csv")),
        (3, "mi", 4, 16, ("--grid", "1024")),
    ],
}


def _u1_state(rng: np.random.Generator, d: int) -> np.ndarray:
    if d == 2:
        x = rng.uniform(0.15, 0.85)
        return np.array([1.0 - x, x])
    return rng.dirichlet(np.full(d, 2.0))


def build_u1_rate(rng, workdir: Path, sizes: dict) -> list[Command]:
    cmds = []
    for i, (d, sub, top, quad_n, extra) in enumerate(sizes["sweeps"]):
        p = _u1_state(rng, d)
        n_list = _pow2_list(1, top)
        if "--format" in extra:
            check = checks.check_u1_rate_csv
        else:
            check = checks.check_u1_rate if sub == "rate" else checks.check_u1_mi
        argv = [sub, "--group", "u1", "--probs", _fmt(p), "--n-list", _csv(n_list)]
        argv += extra
        cmds.append(
            Command(
                f"{sub} u1 d={d} N<=2^{top}",
                argv,
                workdir / f"u1_{i}.out",
                _output_check(check, p, n_list, quad_n),
                repeat="--format" in extra,
            )
        )
    return cmds


# --- zm_rate ----------------------------------------------------------------

# Seams of the exact path sit at N = 490 / -log2(rho); every N list below
# straddles its state's seam with a margin of at least 2%.
ZM_FULL = {
    "rates": [
        # (M, rho, N list, state file?, csv?)
        (
            65536,
            0.5,
            [1, 2, 4, 8, 16, 32, 64, 128, 256, 400, 480, 500, 600, 800, 1024, 2048],
            True,
            False,
        ),
        (
            4096,
            0.25,
            [1, 2, 4, 8, 16, 32, 64, 128, 200, 240, 250, 300, 512, 1024],
            True,
            False,
        ),
        (256, 0.1, [1, 2, 3, 4, 8, 16, 32, 64, 128, 140, 155, 200, 256], False, False),
        (16, 0.5, [1, 2, 3, 4, 8, 16, 64, 256, 480, 500, 1000], False, True),
        (4, 0.7, [1, 2, 3, 4, 5, 6, 8, 16, 64, 256, 900, 1000, 2000], False, False),
    ],
    "pairs": [
        # (M, rho, N list, state file?): one `asymmetry` and one `mi` command
        (4, 0.6, [1, 2, 3, 4, 5, 6], False),
        (16, 0.4, [1, 2, 3], False),
        (64, 0.3, [1, 2], False),
        (4096, 0.2, [1, 8, 64, 300], True),
    ],
    "superadd": [4, 8, 16, 64, 256],
}
ZM_TINY = {
    "rates": [
        (64, 0.5, [1, 2, 64, 480, 500], True, False),
        (16, 0.5, [1, 2, 3, 480, 500], False, True),
        (4, 0.7, [1, 2, 3, 900, 1000], False, False),
    ],
    "pairs": [(4, 0.6, [1, 2, 3], False), (16, 0.4, [1, 2], True)],
    "superadd": [4, 8],
}

# Labels carrying the non-uniform part of a Z_M state.
ZM_SUPPORT = 8


def cyclic_state(rng: np.random.Generator, m: int, rho: float) -> checks.CyclicState:
    """p = (1-t)/M + t*q with q on min(M, ZM_SUPPORT) random labels and t
    chosen so that r_max(p) = rho exactly; redrawn until r_max(q) > rho."""
    s = min(m, ZM_SUPPORT)
    while True:
        support = np.sort(rng.choice(m, size=s, replace=False))
        weights = rng.dirichlet(np.full(s, 0.5))
        r_q = checks.CyclicState(m, support, weights, 1.0).r_max()
        if r_q > 1.05 * rho:
            return checks.CyclicState(m, support, weights, rho / r_q)


def _state_args(
    state: checks.CyclicState, path: Path, as_file: bool
) -> list[str]:
    if as_file:
        _write_state(path, state.m, state.probs)
        return ["--state", str(path)]
    return ["--group", f"z{state.m}", "--probs", _fmt(state.probs)]


def build_zm_rate(rng, workdir: Path, sizes: dict) -> list[Command]:
    cmds = []
    for i, (m, rho, n_list, as_file, csv) in enumerate(sizes["rates"]):
        st = cyclic_state(rng, m, rho)
        argv = ["rate", *_state_args(st, workdir / f"zm_rate_{i}.json", as_file)]
        argv += ["--n-list", _csv(n_list)]
        if csv:
            argv += ["--format", "csv"]
            check = _output_check(checks.check_zm_rate_csv, st, n_list)
        else:
            check = _output_check(checks.check_zm_rate, st, n_list)
        out = workdir / f"zm_rate_{i}.out"
        cmds.append(Command(f"rate z{m} {len(n_list)} N", argv, out, check))
    for i, (m, rho, n_list, as_file) in enumerate(sizes["pairs"]):
        st = cyclic_state(rng, m, rho)
        src = _state_args(st, workdir / f"zm_pair_{i}.json", as_file)
        src += ["--n-list", _csv(n_list)]
        asym = Command(
            f"asymmetry z{m} {len(n_list)} N",
            ["asymmetry", *src],
            workdir / f"zm_asymmetry_{i}.out",
            _output_check(checks.check_zm_single, st, n_list, "h"),
            repeat=(i == 1),
        )

        def check_mi(data, rc, st=st, n_list=n_list, asym_out=asym.out) -> None:
            checks.check_zm_single(data, st, n_list, "i")
            checks.check_zm_pair(asym_out.read_bytes(), data)

        mi_out = workdir / f"zm_mi_{i}.out"
        mi = Command(f"mi z{m} {len(n_list)} N", ["mi", *src], mi_out, check_mi)
        cmds += [asym, mi]
    for i, m in enumerate(sizes["superadd"]):
        pa = rng.dirichlet(np.ones(m))
        pb = rng.dirichlet(np.ones(m))
        fa, fb = workdir / f"sa_{i}_a.json", workdir / f"sa_{i}_b.json"
        _write_state(fa, m, pa)
        _write_state(fb, m, pb)
        cmds.append(
            Command(
                f"superadd z{m}",
                ["superadd", "--a", str(fa), "--b", str(fb)],
                workdir / f"sa_{i}.out",
                _output_check(checks.check_superadd, pa, pb),
            )
        )
    return cmds


# --- search -----------------------------------------------------------------

SEARCH_FULL = {
    "runs": [(4, 2_000_000), (8, 1_000_000), (16, 250_000), (64, 100_000), (4, 100_000)]
}
SEARCH_TINY = {"runs": [(4, 2000), (8, 1000), (64, 500)]}


def build_search(rng, workdir: Path, sizes: dict) -> list[Command]:
    cmds = []
    runs = sizes["runs"]
    for i, (m, trials) in enumerate(runs):
        seed = int(rng.integers(1 << 31))
        argv = ["search", "--group", f"z{m}", "--trials", str(trials)]
        argv += ["--seed", str(seed)]
        cmds.append(
            Command(
                f"search z{m} {trials} trials",
                argv,
                workdir / f"search_{i}.out",
                _output_check(checks.check_search, m),
                repeat=(i == len(runs) - 2),
            )
        )
    return cmds


# --- protocol ---------------------------------------------------------------

PROTOCOL_FULL = {
    "optimize": [(2, 1), (2, 2)],
    "samples": [(4, 3), (8, 2), (32, 1), (32, 2), (32, 3), (64, 2), (128, 2)],
    "shots": 1_000_000,
}
PROTOCOL_TINY = {
    "optimize": [(2, 1)],
    "samples": [(4, 2), (8, 1)],
    "shots": 20_000,
}


SAMPLE_CHECKS = (("json", checks.check_sample_json), ("csv", checks.check_sample_csv))


def build_protocol(rng, workdir: Path, sizes: dict) -> list[Command]:
    cmds = []
    for i, (m, n) in enumerate(sizes["optimize"]):
        p = rng.dirichlet(np.full(m, 2.0))
        seed = int(rng.integers(1 << 31))
        argv = ["optimize", "--group", f"z{m}", "--probs", _fmt(p), "--n", str(n)]
        argv += ["--restarts", "5", "--seed", str(seed)]
        cmds.append(
            Command(
                f"optimize z{m} N={n}",
                argv,
                workdir / f"opt_{i}.out",
                lambda data, rc, p=p, n=n: checks.check_optimize(
                    data, rc, p, n, pinned=False
                ),
            )
        )
    argv = ["optimize", "--group", "z3", "--probs", _fmt(PINNED_Z3), "--n", "1"]
    argv += ["--restarts", "5", "--seed", "17"]
    cmds.append(
        Command(
            "optimize pinned z3",
            argv,
            workdir / "opt_pinned.out",
            lambda data, rc: checks.check_optimize(data, rc, PINNED_Z3, 1, pinned=True),
            checked_codes=(0, 4),
        )
    )
    shots = sizes["shots"]
    for i, (m, n) in enumerate(sizes["samples"]):
        p = rng.dirichlet(np.full(m, 2.0))
        for fmt, check in SAMPLE_CHECKS:
            seed = int(rng.integers(1 << 31))
            argv = ["sample", "--group", f"z{m}", "--probs", _fmt(p), "--n", str(n)]
            argv += ["--shots", str(shots), "--seed", str(seed), "--format", fmt]
            cmds.append(
                Command(
                    f"sample z{m} N={n} {fmt}",
                    argv,
                    workdir / f"sample_{i}.{fmt}",
                    _output_check(check, p, n, shots),
                    repeat=(i == 1 and fmt == "csv"),
                )
            )
    return cmds


WORKLOADS = {
    "u1_rate": (build_u1_rate, U1_FULL, U1_TINY),
    "zm_rate": (build_zm_rate, ZM_FULL, ZM_TINY),
    "search": (build_search, SEARCH_FULL, SEARCH_TINY),
    "protocol": (build_protocol, PROTOCOL_FULL, PROTOCOL_TINY),
}


def build(
    workload: str, seed: int, repetition: int, workdir: Path, tiny: bool = False
) -> list[Command]:
    """Commands of one repetition, inputs drawn from (seed, repetition)."""
    build_commands, full, small = WORKLOADS[workload]
    rng = np.random.default_rng([seed, repetition])
    workdir.mkdir(parents=True, exist_ok=True)
    return build_commands(rng, workdir, small if tiny else full)
