"""Layer spans for the benchmark's traced run.

`Tracer.install` wraps every public function of framealign's modules (the
layers core, u1, cyclic, povm, sampling and cli) and rebinds the wrapper in
every module namespace that holds the function, so calls made inside the
library (cli binds dft_profile directly, povm binds copy_distribution_zm,
...) are recorded too.  A span holds its name, start, end, parent and a few
counts read from the call's arguments or result; spans stay in memory until
`layer_metrics` folds them into per-layer figures.  Nothing inside the
program is changed, and `uninstall` restores every binding.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import time
from dataclasses import dataclass, field
from typing import Callable

LAYERS = ("core", "u1", "cyclic", "povm", "sampling", "cli")


@dataclass
class Span:
    name: str
    parent: int
    start: float
    end: float = 0.0
    notes: dict = field(default_factory=dict)
    children: list[int] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.end - self.start


# Counts taken at a span's end: (bound arguments, result) -> notes.
NOTES: dict[str, Callable[[inspect.BoundArguments, object], dict]] = {
    "u1.copy_distribution_u1": lambda b, r: {"coeffs": r.c.size},
    "u1.offset_density_grid": lambda b, r: {"grid": r[0].size},
    "cyclic.zm_rate_series": lambda b, r: {
        "exact": sum(not p.extrapolated for p in r),
        "extrapolated": sum(p.extrapolated for p in r),
    },
    "cyclic.search_superadditive": lambda b, r: {
        "trials": b.arguments["trials"],
        # the two trials x M float64 draws, allocated at once
        "draw_bytes": 2 * 8 * b.arguments["trials"] * b.arguments["m"],
    },
    "povm.covariant_povm": lambda b, r: {"effect_bytes": r.effects.nbytes},
    "povm.optimize_povm": lambda b, r: {
        "iterations": len(r.trace),
        "converged": int(r.converged),
        "effect_bytes": r.povm.effects.nbytes,
    },
    "sampling.simulate_protocol": lambda b, r: {"shots": b.arguments["shots"]},
    "sampling.counts_to_csv": lambda b, r: {"csv_bytes": len(r)},
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        note = NOTES.get(name)
        sig = inspect.signature(fn) if note else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            span = Span(name, parent, 0.0)
            self.spans.append(span)
            if parent >= 0:
                self.spans[parent].children.append(index)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if note:
                span.notes = note(sig.bind(*args, **kwargs), result)
            return result

        return wrapper

    def install(self) -> None:
        modules = {
            layer: importlib.import_module(f"framealign.{layer}") for layer in LAYERS
        }
        wrappers: dict[int, tuple[Callable, Callable]] = {}
        for layer, mod in modules.items():
            for name, fn in vars(mod).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not name.startswith("_")
                ):
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for mod in [*modules.values(), importlib.import_module("framealign")]:
            for name, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, name, hit[1])
                    self._patches.append((mod, name, value))

    def uninstall(self) -> None:
        while self._patches:
            mod, name, value = self._patches.pop()
            setattr(mod, name, value)

    def take(self) -> list[Span]:
        """Hand over the recorded spans and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def _self_seconds(spans: list[Span], span: Span) -> float:
    return span.seconds - sum(spans[c].seconds for c in span.children)


def _descendants(spans: list[Span], span: Span):
    for c in span.children:
        yield spans[c]
        yield from _descendants(spans, spans[c])


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures of one traced repetition (see README.md)."""
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    notes: dict[str, float] = {}
    cli_self = 0.0
    series_self = 0.0
    quadrature = 0.0
    single_exact = single_extrap = 0
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        total[s.name] = total.get(s.name, 0.0) + s.seconds
        for key, value in s.notes.items():
            notes[key] = notes.get(key, 0) + value
        if s.name.startswith("cli."):
            cli_self += _self_seconds(spans, s)
        elif s.name == "cyclic.zm_rate_series":
            series_self += _self_seconds(spans, s)
        elif s.name == "u1.covariant_mutual_info_u1":
            quadrature += s.seconds - sum(
                d.seconds
                for d in _descendants(spans, s)
                if d.name == "u1.copy_distribution_u1"
            )
        elif s.name in ("cyclic.zm_asymmetry", "cyclic.covariant_mutual_info_zm"):
            if any(spans[c].name == "cyclic.copy_distribution_zm" for c in s.children):
                single_exact += 1
            else:
                single_extrap += 1

    def n(name: str) -> int:
        return calls.get(name, 0)

    def t(*names: str) -> float:
        return sum(total.get(name, 0.0) for name in names)

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    search_s = t("cyclic.search_superadditive")
    simulate_s = t("sampling.simulate_protocol")
    return {
        "cli.self_s": cli_self,
        "core.dft_profile.calls": n("core.dft_profile"),
        "core.dft_profile.s": t("core.dft_profile"),
        "core.entropy.s": t("core.shannon_entropy", "core.entropy_deficit"),
        "core.validate_state.calls": n("core.validate_state"),
        "u1.copy_dist.calls": n("u1.copy_distribution_u1"),
        "u1.copy_dist.s": t("u1.copy_distribution_u1"),
        "u1.coeffs": notes.get("coeffs", 0),
        "u1.quadrature.s": quadrature,
        "u1.grid_points": notes.get("grid", 0),
        "cyclic.copy_dist.calls": n("cyclic.copy_distribution_zm"),
        "cyclic.copy_dist.s": t("cyclic.copy_distribution_zm"),
        "cyclic.rate_series.self_s": series_self,
        "cyclic.points_exact": notes.get("exact", 0) + single_exact,
        "cyclic.points_extrapolated": notes.get("extrapolated", 0) + single_extrap,
        "cyclic.compose.s": t("cyclic.tensor_compose"),
        "cyclic.search.s": search_s,
        "cyclic.search.trials": notes.get("trials", 0),
        "cyclic.search.trials_per_s": rate(notes.get("trials", 0), search_s),
        "cyclic.search.draw_bytes": notes.get("draw_bytes", 0),
        "povm.optimize.s": t("povm.optimize_povm"),
        "povm.iterations": notes.get("iterations", 0),
        "povm.converged": notes.get("converged", 0),
        "povm.covariant_povm.s": t("povm.covariant_povm"),
        "povm.conditional_table.s": t("povm.conditional_table"),
        "povm.ensemble.s": t("povm.ensemble_states"),
        "povm.effect_bytes": notes.get("effect_bytes", 0),
        "sampling.simulate.s": simulate_s,
        "sampling.shots": notes.get("shots", 0),
        "sampling.shots_per_s": rate(notes.get("shots", 0), simulate_s),
        "sampling.plugin_mi.s": t("sampling.plugin_mi"),
        "sampling.csv.s": t("sampling.counts_to_csv"),
        "sampling.csv_bytes": notes.get("csv_bytes", 0),
    }
