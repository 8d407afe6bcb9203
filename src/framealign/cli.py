"""Command-line front end: asymmetries, rates, mutual information,
composition gaps, superadditivity search, POVM optimization, and sampling.

Exit codes: 0 success, 2 input error, 3 resource limit or out of memory, 4
optimizer did not converge (the flagged result is still written).  Errors
print one machine-readable JSON line to stderr.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any, Sequence

import numpy as np

from . import cyclic, povm, sampling, u1
from .core import (
    S_TIE_REL,
    FrameAlignError,
    GroupSpec,
    MalformedInput,
    ResourceLimit,
    StandardState,
    dft_profile,
    load_state,
    state_to_json,
    validate_state,
)
from .cyclic import INFINITE_RATE

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_NONCONVERGED = 4

_GROUP_RE = re.compile(r"^[zZ](\d+)$")
# The digits of a --probs token's decimal exponent, as Fraction reads them.
_EXPONENT_RE = re.compile(r"[eE][-+]?([\d_]+)$")
_MAX_PROBS_EXPONENT = 1000
# RunConfig fields main fills from the flag of the same name, or None.
_FLAG_FIELDS = ("trials", "restarts", "outcomes", "max_iters", "shots")


@dataclasses.dataclass
class RunConfig:
    """Fully resolved invocation, embedded in every JSON output."""

    subcommand: str
    group: dict | None = None
    probs: list[float] | None = None
    state_path: str | None = None
    state_path_b: str | None = None
    n_list: list[int] | None = None
    grid: int | None = None
    shots: int | None = None
    seed: int | None = None
    restarts: int | None = None
    trials: int | None = None
    outcomes: int | None = None
    max_iters: int | None = None
    out: str | None = None
    format: str = "json"
    workers: int = 1
    tie_tolerance: float = S_TIE_REL


def _report(error: str, message: str) -> None:
    """The one machine-readable stderr line of a nonzero exit."""
    print(json.dumps({"error": error, "message": message}), file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _report("UsageError", message)
        raise SystemExit(EXIT_INPUT)


def _parse_probs(text: str) -> list[Fraction]:
    parts = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not parts:
        raise MalformedInput("empty probability list")
    for tok in parts:
        # Fraction builds 10**exponent exactly: past +-1000 no float needs
        # it, and at 1e999999999 it does not finish.
        match = _EXPONENT_RE.search(tok)
        digits = match.group(1).replace("_", "").lstrip("0") if match else ""
        if len(digits) > 4 or int(digits or 0) > _MAX_PROBS_EXPONENT:
            raise MalformedInput(f"exponent beyond +-1000 in {tok[:40]!r}")
    try:
        fracs = [Fraction(tok) for tok in parts]
    except (ValueError, ZeroDivisionError) as exc:
        raise MalformedInput(f"cannot parse probabilities: {exc}") from exc
    return fracs


def _resolve_state(args, cfg: RunConfig) -> StandardState:
    """Exactly one input source: --probs (with --group) xor --state."""
    has_probs = args.probs is not None
    has_file = args.state is not None
    if has_probs == has_file:
        raise MalformedInput("provide exactly one of --probs or --state")
    if has_file:
        state = load_state(args.state)
        cfg.state_path = args.state
    else:
        if args.group is None:
            raise MalformedInput("--probs needs --group")
        fracs = _parse_probs(args.probs)
        total = sum(fracs)
        try:
            if abs(float(total) - 1.0) > 1e-6:
                raise MalformedInput(f"probabilities sum to {float(total)!r}, not 1")
            floats = [float(f / total) for f in fracs]
        except OverflowError as exc:
            raise MalformedInput(f"probabilities overflow a float: {exc}") from exc
        group = _parse_group(args.group, len(floats))
        state = validate_state(floats, group)
    as_json = state_to_json(state)
    cfg.group, cfg.probs = as_json["group"], as_json["probs"]
    return state


def _parse_group(text: str, n_probs: int) -> GroupSpec:
    if text.lower() == "u1":
        return GroupSpec.u1(n_probs)
    match = _GROUP_RE.match(text)
    if match:
        return GroupSpec.cyclic(int(match.group(1)))
    raise MalformedInput(f"unknown group {text!r}; expected u1 or zM")


def _parse_n_list(args, cfg: RunConfig) -> list[int]:
    """The copy numbers of --n or --n-list, recorded in cfg.n_list."""
    if args.n_list is not None:
        if args.n is not None:
            raise MalformedInput("give either --n or --n-list, not both")
        try:
            values = [int(tok) for tok in args.n_list.split(",") if tok.strip()]
        except ValueError as exc:
            raise MalformedInput(f"bad --n-list: {exc}") from exc
        if not values or any(v < 1 for v in values):
            raise MalformedInput("--n-list needs positive integers")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise MalformedInput("--n-list must be strictly increasing")
    elif args.n is not None and args.n < 1:
        raise MalformedInput("--n must be >= 1")
    else:
        values = [1 if args.n is None else int(args.n)]
    cfg.n_list = values
    return values


_JSON_LEAVES = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: float.__repr__,
    bool: lambda v: "true" if v else "false",
    type(None): lambda v: "null",
}


# Float lists at least this long repr each distinct value once.
_DISTINCT_FLOATS_MIN = 2048


def _float_reprs(value: list) -> list[str]:
    """[repr(v) for v in value] with one repr call per distinct value, as
    long as at most half of the items are distinct; past that point the
    rest are repr'd one by one.  Zeros always get their own call: -0.0 and
    0.0 are one dict key but print differently.  (A dict keeps peak memory
    lower than np.unique's index arrays.)"""
    texts: dict[float, str] = {}
    items: list[str] = []
    half = len(value) // 2
    for v in value:
        text = texts.get(v)
        if text is None or not v:
            if len(texts) >= half:
                items.extend(map(float.__repr__, value[len(items) :]))
                return items
            text = texts[v] = repr(v)
        items.append(text)
    return items


def _json_text(value: Any, pad: str = "") -> str:
    """JSON text of a command's payload, nested at `pad`: exactly
    json.dumps(value, indent=2, sort_keys=True) once numpy arrays and
    scalars are made lists and numbers, tuples lists, and INFINITE_RATE and
    +-inf the string "inf".  NaN raises ValueError.

    `indent` makes json use its pure-Python encoder, which dominates large
    outputs; here a list whose items share one leaf type is a single join,
    and a long float list with few distinct values reprs each value once.
    """
    kind = type(value)
    if value is INFINITE_RATE or kind is float and math.isinf(value):
        return '"inf"'
    if kind is float and math.isnan(value):
        raise ValueError("refusing to serialize NaN")
    leaf = _JSON_LEAVES.get(kind)
    if leaf is not None:
        return leaf(value)
    if isinstance(value, (np.ndarray, np.floating, np.integer)):
        return _json_text(value.tolist(), pad)
    inner = pad + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        kinds = set(map(type, value))
        leaf = _JSON_LEAVES.get(kinds.pop()) if len(kinds) == 1 else None
        if leaf is float.__repr__ and not math.isfinite(sum(value)):
            leaf = None  # a float sum is finite only when every term is
        items = map(leaf, value) if leaf else (_json_text(v, inner) for v in value)
        if leaf is float.__repr__ and len(value) >= _DISTINCT_FLOATS_MIN:
            items = _float_reprs(value)
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        # json writes a number, bool or None key as a string of its text.
        items = (
            f"{encode_basestring_ascii(k if isinstance(k, str) else json.dumps(k))}: "
            f"{_json_text(v, inner)}"
            for k, v in sorted(value.items())
        )
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _check_out(out: str | None) -> None:
    """Refuse an --out that cannot be written, before anything is computed."""
    if not out:
        return
    if os.path.isdir(out) or not os.path.isdir(os.path.dirname(os.path.abspath(out))):
        raise MalformedInput(f"--out {out!r} is not a file in an existing directory")


def _emit(payload: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _emit_json(obj: dict, cfg: RunConfig) -> None:
    config = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)}
    _emit(_json_text({**obj, "config": config}) + "\n", cfg.out)


def _csv_cell(value) -> str:
    if value is None or value is INFINITE_RATE:
        return ""
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return repr(float(value)) if isinstance(value, float) else str(value)


# (CSV header, row key) of each column of the rate sweep.
_SWEEP_COLUMNS = (
    ("N", "n"),
    ("H_bits", "h_bits"),
    ("H_deficit", "h_deficit"),
    ("I_bits", "i_bits"),
    ("I_deficit", "i_deficit"),
    ("lin_H_per_N", "lin_h"),
    ("lin_I_per_N", "lin_i"),
    ("target", "target"),
)


def _sweep_csv(rows: list[dict]) -> str:
    lines = [",".join(header for header, _ in _SWEEP_COLUMNS)]
    for row in rows:
        lines.append(",".join(_csv_cell(row[key]) for _, key in _SWEEP_COLUMNS))
    return "\n".join(lines) + "\n"


def _series_rows(
    state: StandardState, n_list: list[int], grid: int | None
) -> list[dict]:
    if state.group.is_cyclic:
        points = cyclic.zm_rate_series(state, n_list)
        return [
            {
                "n": p.n_copies,
                "h_bits": p.asymmetry_bits,
                "h_deficit": p.asymmetry_deficit_bits,
                "i_bits": p.mi_bits,
                "i_deficit": p.mi_deficit_bits,
                "lin_h": p.lin_asym_per_copy,
                "lin_i": p.lin_mi_per_copy,
                "target": p.rate_target,
                "predicted_h_deficit": p.predicted_asym_deficit,
                "predicted_i_deficit": p.predicted_mi_deficit,
                "extrapolated": p.extrapolated,
            }
            for p in points
        ]
    quad = u1.QuadratureSpec(grid) if grid is not None else None
    points = u1.u1_rate_series(state, n_list, quad)
    return [
        {
            "n": p.n_copies,
            "h_bits": p.asymmetry_bits,
            "h_deficit": None,
            "i_bits": p.mutual_info_bits,
            "i_deficit": None,
            "lin_h": p.lin_asymmetry_per_copy,
            "lin_i": p.lin_mi_per_copy,
            "target": p.variance_target,
        }
        for p in points
    ]


def _grid_for(state: StandardState, args) -> int | None:
    """--grid sets the U(1) quadrature; a cyclic state has none to set."""
    if args.grid is not None and state.group.is_cyclic:
        raise MalformedInput("--grid applies to U(1) states only")
    return args.grid


def _cyclic_points(state: StandardState, n_list: list[int], *keys: str) -> list[dict]:
    rows = _series_rows(state, n_list, None)
    return [{key: row[key] for key in ("n", *keys)} for row in rows]


def _cmd_asymmetry(args, cfg: RunConfig) -> int:
    state = _resolve_state(args, cfg)
    n_list = _parse_n_list(args, cfg)
    if state.group.is_cyclic:
        points = _cyclic_points(state, n_list, "h_bits", "h_deficit")
    else:
        points = [
            {"n": n, "h_bits": u1.u1_asymmetry(state, n), "h_deficit": None}
            for n in n_list
        ]
    _emit_json({"points": points}, cfg)
    return EXIT_OK


def _cmd_mi(args, cfg: RunConfig) -> int:
    state = _resolve_state(args, cfg)
    n_list = _parse_n_list(args, cfg)
    cfg.grid = _grid_for(state, args)
    if state.group.is_cyclic:
        points = _cyclic_points(state, n_list, "i_bits", "i_deficit")
    else:
        quad = u1.QuadratureSpec(cfg.grid) if cfg.grid is not None else None
        points = [
            {
                "n": n,
                "i_bits": u1.covariant_mutual_info_u1(state, n, quad),
                "i_deficit": None,
            }
            for n in n_list
        ]
    _emit_json({"points": points}, cfg)
    return EXIT_OK


def _cmd_rate(args, cfg: RunConfig) -> int:
    state = _resolve_state(args, cfg)
    n_list = _parse_n_list(args, cfg)
    cfg.grid = _grid_for(state, args)
    rows = _series_rows(state, n_list, cfg.grid)
    # Every row carries the limiting rate as its target.
    summary: dict = {"rate_bits": rows[0]["target"]}
    if state.group.is_cyclic:
        profile = dft_profile(state)
        summary["r_max"] = profile.r_max
        summary["maximizer_set"] = list(profile.S)
        summary["degeneracy_weight"] = profile.D
    else:
        summary["number_variance"] = u1.number_variance(state)
    if cfg.format == "csv":
        _emit(_sweep_csv(rows), cfg.out)
    else:
        _emit_json({**summary, "points": rows}, cfg)
    return EXIT_OK


def _cmd_superadd(args, cfg: RunConfig) -> int:
    state_a = load_state(args.a)
    state_b = load_state(args.b)
    cfg.state_path = args.a
    cfg.state_path_b = args.b
    result = cyclic.tensor_compose(state_a, state_b)
    prof_a = dft_profile(state_a)
    prof_b = dft_profile(state_b)
    rate_a, rate_b, rate_ab = result.rate_components
    _emit_json(
        {
            "a": state_to_json(state_a),
            "b": state_to_json(state_b),
            "gap_bits": result.gap_bits,
            "omega_moduli": result.omega_moduli,
            "r_max_a": prof_a.r_max,
            "r_max_b": prof_b.r_max,
            "rate_a_bits": rate_a,
            "rate_b_bits": rate_b,
            "rate_composed_bits": rate_ab,
            "composed": state_to_json(result.composed),
        },
        cfg,
    )
    return EXIT_OK


def _cmd_search(args, cfg: RunConfig) -> int:
    if args.group is None:
        raise MalformedInput("search needs --group zM")
    match = _GROUP_RE.match(args.group)
    if not match:
        raise MalformedInput("search runs on cyclic groups only (--group zM)")
    m = int(match.group(1))
    cfg.group = {"kind": "cyclic", "M": m}
    result = cyclic.search_superadditive(
        m, args.trials, args.seed, workers=args.workers
    )
    _emit_json(
        {
            "a": state_to_json(result.a),
            "b": state_to_json(result.b),
            "gap_bits": result.gap_bits,
        },
        cfg,
    )
    return EXIT_OK


def _cyclic_state_and_n(args, cfg: RunConfig) -> tuple[StandardState, int]:
    """The cyclic state and single copy number of optimize and sample."""
    state = _resolve_state(args, cfg)
    if not state.group.is_cyclic:
        raise MalformedInput(f"{cfg.subcommand} runs on cyclic states only")
    n_list = _parse_n_list(args, cfg)
    if len(n_list) != 1:
        raise MalformedInput(f"{cfg.subcommand} takes a single --n")
    return state, n_list[0]


def _cmd_optimize(args, cfg: RunConfig) -> int:
    state, n = _cyclic_state_and_n(args, cfg)
    ens = povm.ensemble_states(state, n)
    opt_cfg = povm.OptimizerConfig(
        outcomes=args.outcomes,
        restarts=args.restarts,
        max_iters=args.max_iters,
        seed=args.seed,
    )
    result = povm.optimize_povm(ens, opt_cfg)
    _emit_json(
        {
            "mi_bits": result.mi_bits,
            "covariant_mi_bits": cyclic.covariant_mutual_info_zm(state, n)[0],
            "converged": result.converged,
            "restart_index": result.restart_index,
            "iterations": len(result.trace),
            "povm": povm.povm_to_json(result.povm),
        },
        cfg,
    )
    if result.converged:
        return EXIT_OK
    _report("NotConverged", f"unconverged after {len(result.trace)} iterations")
    return EXIT_NONCONVERGED


def _cmd_sample(args, cfg: RunConfig) -> int:
    state, n = _cyclic_state_and_n(args, cfg)
    record = sampling.simulate_protocol(state, n, None, args.shots, args.seed)
    estimate, corrected = sampling.plugin_mi(record)
    if cfg.format == "csv":
        _emit(sampling.counts_to_csv(record), cfg.out)
        return EXIT_OK
    _emit_json(
        {
            "counts": record.counts,
            "estimate_bits": estimate,
            "corrected_bits": corrected,
            "analytic_bits": cyclic.covariant_mutual_info_zm(state, n)[0],
        },
        cfg,
    )
    return EXIT_OK


def _int_at_least(low: int):
    """argparse type: an integer no smaller than `low`."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its messages
    return parse


def _add_state_args(sub) -> None:
    sub.add_argument("--group", help="u1 or zM (e.g. z4)")
    sub.add_argument("--probs", help="comma-separated probabilities; fractions allowed")
    sub.add_argument("--state", help="path to a state JSON file")
    sub.add_argument("--n", type=int, help="number of copies")
    sub.add_argument("--n-list", dest="n_list", help="strictly increasing list a,b,c")


def _add_common(sub) -> None:
    sub.add_argument(
        "--out", help="output file in an existing directory (default: stdout)"
    )
    sub.add_argument(
        "--workers", type=_int_at_least(1), default=1,
        help="threads that run the search's seeded blocks (default 1, at most "
        "the CPU count); the witness does not depend on it, and no other "
        "subcommand uses it",
    )
    sub.add_argument("--seed", type=_int_at_least(0), default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="framealign")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    sub = subs.add_parser("asymmetry")
    _add_state_args(sub)
    _add_common(sub)
    sub.set_defaults(func=_cmd_asymmetry)

    sub = subs.add_parser("mi")
    _add_state_args(sub)
    _add_common(sub)
    sub.add_argument("--grid", type=int, help="quadrature grid size (power of two)")
    sub.set_defaults(func=_cmd_mi)

    sub = subs.add_parser("rate")
    _add_state_args(sub)
    _add_common(sub)
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--grid", type=int, help="quadrature grid size (power of two)")
    sub.set_defaults(func=_cmd_rate)

    sub = subs.add_parser("superadd")
    sub.add_argument("--a", required=True, help="state file for the first factor")
    sub.add_argument("--b", required=True, help="state file for the second factor")
    _add_common(sub)
    sub.set_defaults(func=_cmd_superadd)

    sub = subs.add_parser("search")
    sub.add_argument("--group", help="zM group to search")
    sub.add_argument("--trials", type=int, default=1000)
    _add_common(sub)
    sub.set_defaults(func=_cmd_search)

    sub = subs.add_parser("optimize")
    _add_state_args(sub)
    _add_common(sub)
    sub.add_argument("--restarts", type=int, default=5)
    sub.add_argument("--outcomes", type=int, default=None)
    sub.add_argument("--max-iters", dest="max_iters", type=int, default=500)
    sub.set_defaults(func=_cmd_optimize)

    sub = subs.add_parser("sample")
    _add_state_args(sub)
    _add_common(sub)
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--shots", type=int, default=10000)
    sub.set_defaults(func=_cmd_sample)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    cfg = RunConfig(
        subcommand=args.subcommand,
        out=args.out,
        format=getattr(args, "format", "json"),
        workers=args.workers,
        seed=args.seed,
        **{name: getattr(args, name, None) for name in _FLAG_FIELDS},
    )
    try:
        _check_out(args.out)
        return args.func(args, cfg)
    except MemoryError as exc:  # numpy raises a private subclass: one stable name
        _report("MemoryError", str(exc))
        return EXIT_RESOURCE
    except FrameAlignError as exc:
        _report(type(exc).__name__, str(exc))
        return EXIT_RESOURCE if isinstance(exc, ResourceLimit) else EXIT_INPUT


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
