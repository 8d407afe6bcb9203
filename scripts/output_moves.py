#!/usr/bin/env python3
"""Print how far each output field of a benchmark workload moves between two
source trees.

    python3 scripts/output_moves.py PARENT_SRC CHANGE_SRC --workload zm_rate --seed 3 --reps 2

PARENT_SRC and CHANGE_SRC are `src` directories holding a `framealign`
package.  The commands of repetitions 0..reps-1 are built by this checkout's
perfbench/workloads.py (read only) and run once under each tree, each in
its own subprocess with that tree first on PYTHONPATH, exactly as
scripts/output_digest.py runs them.  The outputs are then compared field by
field: a JSON output is walked to its leaves, with list positions dropped
from the field name (`points[].h_deficit`), and a CSV output gives one
field per column.  One tab-separated line per field, in order of first
appearance, gives the largest absolute and relative move of its numbers
(relative to the parent's value) and the command where each happens; a
field whose values are not both numbers moves by inf when they differ.
The last line counts the outputs whose bytes differ, and any command whose
exit code differs is named before it.
"""
import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent
sys.path.insert(0, str(SCRIPTS.parent / "perfbench"))

import workloads  # noqa: E402

# Run in each subprocess: the outputs of scripts/output_digest.py, one JSON
# line per command.
CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
import output_digest
workload, seed, reps, tiny = sys.argv[2], int(sys.argv[3]), int(sys.argv[4]), sys.argv[5]
for rep, label, rc, data in output_digest.outputs(workload, seed, reps, tiny == "1"):
    print(json.dumps([rep, label, rc, data.decode()]))
"""


def run_tree(src: Path, args) -> list:
    """[(repetition, label, exit code, output text)] of every command under
    the framealign in src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p
    )
    argv = [str(SCRIPTS), args.workload, str(args.seed), str(args.reps)]
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, *argv, "1" if args.tiny else "0"],
        capture_output=True,
        text=True,
        env=env,
    )
    if proc.returncode != 0:
        sys.exit(f"running the commands under {src} failed:\n{proc.stderr}")
    return [tuple(json.loads(line)) for line in proc.stdout.splitlines()]


def _number(value):
    """value as a float if it is a number (a CSV cell that parses as one
    counts), else None."""
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str) and value:
        try:
            return float(value)
        except ValueError:
            return None
    return None


def leaves(text: str) -> list:
    """[(field, value)] of one output: the leaves of a JSON object, or the
    cells of a CSV table under their column names."""
    try:
        obj = json.loads(text)
    except ValueError:
        return [
            (key, value)
            for row in csv.DictReader(io.StringIO(text))
            for key, value in row.items()
        ]
    found = []

    def walk(node, name):
        if isinstance(node, dict):
            for key, value in node.items():
                walk(value, f"{name}.{key}" if name else key)
        elif isinstance(node, list):
            for value in node:
                walk(value, f"{name}[]")
        else:
            found.append((name, node))

    walk(obj, "")
    return found


def move(a, b) -> tuple[float, float]:
    """Absolute and relative move from a to b; inf if they differ and are
    not both numbers."""
    x, y = _number(a), _number(b)
    if x is None or y is None or not (math.isfinite(x) and math.isfinite(y)):
        return (0.0, 0.0) if a == b else (math.inf, math.inf)
    gap = abs(y - x)
    if gap == 0.0:
        return 0.0, 0.0
    return gap, gap / abs(x) if x else math.inf


def compare(parent: list, change: list):
    """Per field [max abs, its command, max rel, its command], the commands
    whose exit codes differ, and how many outputs differ."""
    if [row[:2] for row in parent] != [row[:2] for row in change]:
        sys.exit("the two trees ran different command lists")
    fields: dict = {}
    exits = []
    differ = 0
    for (rep, label, rc_a, text_a), (_, _, rc_b, text_b) in zip(parent, change):
        where = f"rep {rep}: {label}"
        if rc_a != rc_b:
            exits.append(f"{where} exits {rc_a} -> {rc_b}")
        if text_a == text_b:
            pairs = [(field, value, value) for field, value in leaves(text_a)]
        else:
            differ += 1
            la, lb = leaves(text_a), leaves(text_b)
            if [f for f, _ in la] != [f for f, _ in lb]:
                la, lb = [("<layout>", text_a)], [("<layout>", text_b)]
            pairs = [(f, va, vb) for (f, va), (_, vb) in zip(la, lb)]
        for field, va, vb in pairs:
            best = fields.setdefault(field, [0.0, "-", 0.0, "-"])
            gap, rel = move(va, vb)
            if gap > best[0]:
                best[:2] = gap, where
            if rel > best[2]:
                best[2:] = rel, where
    return fields, exits, differ


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path, metavar="PARENT_SRC")
    parser.add_argument("change_src", type=Path, metavar="CHANGE_SRC")
    parser.add_argument(
        "--workload", required=True, choices=tuple(workloads.WORKLOADS)
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--reps", type=int, default=1)
    parser.add_argument("--tiny", action="store_true", help="the test sizes")
    args = parser.parse_args()
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    for src in (args.parent_src, args.change_src):
        if not (src / "framealign" / "__init__.py").is_file():
            parser.error(f"{src} holds no framealign package")
    parent = run_tree(args.parent_src.resolve(), args)
    change = run_tree(args.change_src.resolve(), args)
    fields, exits, differ = compare(parent, change)
    print("field\tmax_abs\tat\tmax_rel\tat")
    for field, (gap, at_gap, rel, at_rel) in fields.items():
        print(f"{field}\t{gap:.3g}\t{at_gap}\t{rel:.3g}\t{at_rel}")
    for line in exits:
        print(line)
    print(f"{differ} of {len(parent)} outputs differ")


if __name__ == "__main__":
    main()
