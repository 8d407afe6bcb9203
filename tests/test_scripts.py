"""Smoke tests for the example scripts: they run on the public API, exit 0
and print what their docstrings promise, and out-of-range arguments exit 2
with a usage error."""
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, returncode=0):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == returncode, proc.stderr
    if returncode == 0:
        assert proc.stderr == ""
        return proc.stdout
    return proc.stderr


def test_rate_convergence():
    out = run_script("rate_convergence.py", "--max-exp", "3")
    blocks = out.split("# ")[1:]
    assert [b.splitlines()[0] for b in blocks] == [
        "balanced qubit, phase pipeline",
        "Z4 state, cyclic pipeline",
    ]
    for block in blocks:
        header, *rows = block.splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["2", "4", "8"]
        for row in rows:
            fields = row.split(",")
            assert len(fields) == len(header.split(","))
            assert all(float(f) >= 0 for f in fields)


def test_superadditivity_demo():
    out = run_script("superadditivity_demo.py", "--trials", "200")
    # log2(18): the documented Z4 pair's gap.
    assert "additivity gap    = 4.169925 bits/copy" in out
    assert "random search over Z4 (200 trials, seed 1)" in out
    assert out.rstrip().splitlines()[-1].startswith("  gap    = ")


def test_output_digest_tiny():
    args = ("--workload", "zm_rate", "--seed", "5", "--reps", "2", "--tiny")
    out = run_script("output_digest.py", *args)
    rows = [line.split("\t") for line in out.splitlines()]
    # Per repetition: 3 rates, 2 asymmetry/mi pairs and 2 superadds.
    assert [row[0] for row in rows] == ["0"] * 9 + ["1"] * 9
    assert rows[0][1] == "rate z64 5 N"
    assert {row[2] for row in rows} == {"0"}
    assert all(len(row[3]) == 64 and int(row[3], 16) >= 0 for row in rows)
    # Fresh temporary directories, the same digests.
    assert run_script("output_digest.py", *args) == out


def test_output_moves_of_a_tree_against_itself_are_zero():
    src = str(ROOT / "src")
    args = ("--workload", "zm_rate", "--seed", "5", "--reps", "2", "--tiny")
    out = run_script("output_moves.py", src, src, *args)
    header, *rows, last = out.splitlines()
    assert header.split("\t") == ["field", "max_abs", "at", "max_rel", "at"]
    fields = {row.split("\t")[0]: row.split("\t")[1:] for row in rows}
    # JSON leaves with list positions dropped, and CSV columns.
    assert {"points[].h_deficit", "points[].lin_i", "H_deficit", "gap_bits"} <= set(
        fields
    )
    assert all(moves == ["0", "-", "0", "-"] for moves in fields.values())
    assert last == "0 of 18 outputs differ"


def test_output_moves_reports_the_largest_move(tmp_path):
    # A copy of the tree that reports every Z_M asymmetry deficit doubled.
    shutil.copytree(ROOT / "src" / "framealign", tmp_path / "framealign")
    cyclic = tmp_path / "framealign" / "cyclic.py"
    text = cyclic.read_text()
    assert text.count("asymmetry_deficit_bits=a_def,") == 1
    doubled = "asymmetry_deficit_bits=2 * a_def,"
    cyclic.write_text(text.replace("asymmetry_deficit_bits=a_def,", doubled))
    args = ("--workload", "zm_rate", "--seed", "5", "--tiny")
    out = run_script("output_moves.py", str(ROOT / "src"), str(tmp_path), *args)
    rows = {line.split("\t")[0]: line.split("\t")[1:] for line in out.splitlines()}
    _, at_abs, rel, at_rel = rows["points[].h_deficit"]
    assert float(rel) == 1.0 and at_rel.startswith("rep 0: ")
    assert rows["points[].h_bits"] == ["0", "-", "0", "-"]
    assert out.splitlines()[-1].endswith("of 9 outputs differ")


@pytest.mark.parametrize(
    "args",
    [
        ("--order", "1"),
        ("--order", str(2**20 + 1)),
        ("--trials", "0"),
        ("--seed", "-1"),
    ],
)
def test_superadditivity_demo_rejects_bad_arguments(args):
    err = run_script("superadditivity_demo.py", *args, returncode=2)
    assert f"error: {args[0]} must be" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("max_exp", ["0", "-2", "20", "100"])
def test_rate_convergence_rejects_bad_max_exp(max_exp):
    err = run_script("rate_convergence.py", "--max-exp", max_exp, returncode=2)
    assert "error: --max-exp must be between 1 and 19" in err
    assert "Traceback" not in err
