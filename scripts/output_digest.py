#!/usr/bin/env python3
"""Print a digest of every output of a benchmark workload's commands.

    PYTHONPATH=src python3 scripts/output_digest.py --workload zm_rate --seed 3 --reps 2

Builds the commands of repetitions 0..reps-1 with perfbench/workloads.py
(read only), runs them through the framealign found on PYTHONPATH in a
temporary directory, and prints one tab-separated line per command:
repetition, label, exit code, and the sha256 of its --out bytes followed
by anything it wrote to stdout, with the temporary directory replaced by a
fixed name.  Two checkouts give the same lines exactly when every output
has the same bytes, so comparing them is one diff:

    PYTHONPATH=../parent/src python3 scripts/output_digest.py ... > parent.txt
    PYTHONPATH=src python3 scripts/output_digest.py ... > change.txt
    diff parent.txt change.txt

BLAS and OpenMP run one thread, as in the benchmark.
"""
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402

from framealign import cli  # noqa: E402


def outputs(workload: str, seed: int, reps: int, tiny: bool):
    """(repetition, label, exit code, output bytes) of each command, in
    order: its --out bytes followed by anything it wrote to stdout, with the
    temporary directory replaced by a fixed name."""
    with tempfile.TemporaryDirectory() as tmp:
        marker = tmp.encode()
        for rep in range(reps):
            cmds = workloads.build(workload, seed, rep, Path(tmp) / f"rep{rep}", tiny)
            for cmd in cmds:
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    rc = cli.main(cmd.full_argv())
                data = cmd.out.read_bytes() if cmd.out.exists() else b""
                data += stdout.getvalue().encode()
                yield rep, cmd.label, rc, data.replace(marker, b"<tmp>")


def digests(workload: str, seed: int, reps: int, tiny: bool):
    """(repetition, label, exit code, sha256) of each command, in order."""
    for rep, label, rc, data in outputs(workload, seed, reps, tiny):
        yield rep, label, rc, hashlib.sha256(data).hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--reps", type=int, default=1)
    parser.add_argument("--tiny", action="store_true", help="the test sizes")
    args = parser.parse_args()
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    for line in digests(args.workload, args.seed, args.reps, args.tiny):
        print("\t".join(map(str, line)))


if __name__ == "__main__":
    main()
