"""The benchmark's own tests: every workload at tiny size passes its checks,
and every check rejects a deliberately perturbed output.

    PYTHONPATH=src python -m pytest -q perfbench
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from framealign import cli  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run_bench(capsys, *args: str) -> dict:
    rc = run.main(["--seed", "5", "--seconds", "0", "--tiny", *args])
    out = capsys.readouterr().out.strip().splitlines()[-1]
    assert rc == 0
    return json.loads(out)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tiny_workload_passes_checks(capsys, workload):
    result = _run_bench(capsys, "--workload", workload)
    assert result["correct"] is True
    # the pinned Z3 optimizer instance is the only failing command
    assert result["failed"] == (1 if workload == "protocol" else 0)
    names = {m["name"] for m in SPEC["end_to_end"]}
    assert set(result["metrics"]) == names
    assert all(m["value"] > 0 for m in result["metrics"].values())


# A per-layer metric that each workload's traced run must see move.
BUSY_LAYER = {
    "u1_rate": "u1.coeffs",
    "zm_rate": "cyclic.points_extrapolated",
    "search": "cyclic.search.draw_bytes",
    "protocol": "sampling.shots",
}


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_run_reports_every_layer_metric(capsys, workload):
    result = _run_bench(capsys, "--workload", workload, "--trace", "1")
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["metrics"][BUSY_LAYER[workload]]["value"] > 0


def test_missing_program_exits_nonzero(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "search", "--seed", "1", "--seconds", "1"]) != 0


# --- perturbations -----------------------------------------------------------

def _edit_json(data: bytes, edit) -> bytes:
    obj = json.loads(data)
    edit(obj)
    return json.dumps(obj).encode()


def _add(key, delta):
    def edit(obj):
        obj[key] += delta

    return edit


def _flip_last_extrapolated(obj):
    obj["points"][-1]["extrapolated"] = not obj["points"][-1]["extrapolated"]


def _bump_point(key: str, n_index: int, rel: float):
    def edit(obj):
        obj["points"][n_index][key] *= 1.0 + rel

    return edit


def _bump_every_point(key: str, rel: float):
    def edit(obj):
        for point in obj["points"]:
            point[key] *= 1.0 + rel

    return edit


def _edit_csv(data: bytes, row: int, col: int, fn) -> bytes:
    lines = data.decode().splitlines()
    cells = lines[row].split(",")
    cells[col] = fn(cells[col])
    lines[row] = ",".join(cells)
    return ("\n".join(lines) + "\n").encode()


def _flatten_counts(data: bytes) -> bytes:
    """Same shots, spread evenly: the information drops to about zero."""
    lines = data.decode().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    total = sum(int(r[2]) for r in rows)
    share, extra = divmod(total, len(rows))
    for i, r in enumerate(rows):
        r[2] = str(share + (1 if i < extra else 0))
    return ("\n".join([lines[0], *(",".join(r) for r in rows)]) + "\n").encode()


def perturbations(cmd) -> list:
    sub = cmd.argv[0]
    csv = "csv" in cmd.argv
    if sub in ("rate", "mi") and "u1" in cmd.argv:
        if csv:
            return [lambda d: _edit_csv(d, 1, 1, lambda v: repr(float(v) + 1e-6))]
        perturbed = [lambda d: _edit_json(d, _bump_every_point("i_bits", 1e-5))]
        if sub == "rate":
            perturbed.append(lambda d: _edit_json(d, _bump_point("h_bits", 0, 1e-6)))
        return perturbed
    if sub == "rate":
        if csv:
            return [lambda d: _edit_csv(d, 1, 2, lambda v: repr(float(v) * 1.001))]
        return [
            lambda d: _edit_json(d, lambda o: o.update(r_max=o["r_max"] * (1 + 1e-9))),
            lambda d: _edit_json(d, _bump_point("h_deficit", 0, 1e-6)),
            lambda d: _edit_json(d, _flip_last_extrapolated),
        ]
    if sub in ("asymmetry", "mi"):
        key = "h_deficit" if sub == "asymmetry" else "i_deficit"
        return [lambda d: _edit_json(d, _bump_point(key, 0, 1e-6))]
    if sub in ("superadd", "search"):
        return [lambda d: _edit_json(d, _add("gap_bits", 1e-6))]
    if sub == "optimize":
        return [
            lambda d: _edit_json(d, _add("mi_bits", 1e-6)),
            lambda d: _edit_json(d, lambda o: _add("re", 1e-6)(o["povm"][0][0][0])),
        ]
    if sub == "sample":
        if csv:
            return [
                lambda d: _edit_csv(d, 1, 2, lambda v: str(int(v) + 1)),
                _flatten_counts,
            ]
        return [
            lambda d: _edit_json(d, _add("corrected_bits", 1e-6)),
            lambda d: _edit_json(d, lambda o: _add(0, 1)(o["counts"][0])),
        ]
    raise AssertionError(f"no perturbation for {cmd.label}")


@pytest.fixture(scope="module", params=run.WORKLOAD_NAMES)
def tiny_outputs(request, tmp_path_factory):
    workdir = tmp_path_factory.mktemp(request.param)
    cmds = workloads.build(request.param, 7, 0, workdir, tiny=True)
    codes = [cli.main(cmd.full_argv()) for cmd in cmds]
    return cmds, codes


def test_every_check_rejects_perturbed_output(tiny_outputs):
    cmds, codes = tiny_outputs
    for cmd, rc in zip(cmds, codes):
        data = cmd.out.read_bytes()
        cmd.check(data, rc)
        for perturb in perturbations(cmd):
            with pytest.raises(checks.CheckError):
                cmd.check(perturb(data), rc)


def test_superadd_check_wants_exact_zero_below_m4(tmp_path):
    pa, pb = [0.5, 0.3, 0.2], [0.1, 0.6, 0.3]
    out = tmp_path / "sa.json"
    for name, p in (("a", pa), ("b", pb)):
        (tmp_path / f"{name}.json").write_text(
            json.dumps({"group": {"kind": "cyclic", "M": 3}, "probs": p})
        )
    argv = ["superadd", "--a", str(tmp_path / "a.json")]
    argv += ["--b", str(tmp_path / "b.json")]
    assert cli.main([*argv, "--workers", "1", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    obj["gap_bits"] = 1e-13
    with pytest.raises(checks.CheckError):
        checks.check_superadd(json.dumps(obj).encode(), pa, pb)
