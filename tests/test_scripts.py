"""Smoke tests for the example scripts: they run on the public API, exit 0
and print what their docstrings promise, and out-of-range arguments exit 2
with a usage error."""
import os
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
