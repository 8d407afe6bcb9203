"""framealign CLI benchmark: one workload per process, end to end or traced.

    python3 perfbench/run.py --workload u1_rate --seed 1 --seconds 20 --trace 0

Run from the repository root.  The command list of the workload (see
workloads.py) is run through `framealign.cli.main(argv)` in this process, in
repetitions with fresh seeded inputs, until --seconds have passed; every
repetition is whole.  Each command passes --workers 1 and the BLAS/OpenMP
pools are pinned to one thread, so the load is one thread.  Outputs go to
a scratch directory under .perfbench_out/ and are checked after the timed
region and after peak RSS is read.  The last line of stdout is one JSON
object with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with --trace 0, the per-layer metrics of a traced run with
--trace 1.  A summary for people goes to stderr.
"""
from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy is first imported.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_out"

# Fresh interpreters timed for setup_s; the median is reported.
SETUP_SPAWNS = 7
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import framealign.cli as cli; cli.build_parser()"
)

WORKLOAD_NAMES = tuple(workloads.WORKLOADS)


@dataclass
class Repetition:
    cmds: list
    results: list  # (exit code or None, seconds, bytes written) per command
    wall: float
    traced: list | None = None
    traced_wall: float | None = None
    figures: dict | None = None


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing framealign.cli and
    building its parser."""
    times = []
    for _ in range(SETUP_SPAWNS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=120,
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            tail = proc.stderr.decode()[-400:]
            raise RuntimeError(f"setup interpreter failed: {tail}")
    return statistics.median(times)


def read_output(cmd) -> bytes | None:
    return cmd.out.read_bytes() if cmd.out.exists() else None


def run_commands(cli, cmds) -> tuple[list, float]:
    """Run each command once; return [(rc, seconds, bytes)] and the pass's
    wall time.  rc is None when cli.main raised."""
    results = []
    t_pass = time.perf_counter()
    for cmd in cmds:
        argv = cmd.full_argv()
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # a crash is a failed operation, not a benchmark error
            rc = None
            traceback.print_exc(file=sys.stderr)
        dt = time.perf_counter() - t0
        size = cmd.out.stat().st_size if cmd.out.exists() else 0
        results.append((rc, dt, size))
    return results, time.perf_counter() - t_pass


def check_outputs(cmds, results) -> list[str]:
    """Check every command that did not fail, and the kept failure."""
    problems = []
    for cmd, (rc, _, _) in zip(cmds, results):
        if rc not in cmd.checked_codes:
            continue
        try:
            cmd.check(cmd.out.read_bytes(), rc)
        except (AssertionError, OSError, KeyError, TypeError, ValueError) as exc:
            problems.append(f"{cmd.label}: {type(exc).__name__}: {exc}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="test sizes (not for timing)"
    )
    args = parser.parse_args(argv)

    if not (SRC / "framealign" / "cli.py").is_file():
        print(f"error: {SRC / 'framealign'} not found; run from a framealign checkout",
              file=sys.stderr)
        return 2
    setup_s = measure_setup()
    sys.path.insert(0, str(SRC))
    from framealign import cli

    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    try:
        reps, problems = run_repetitions(args, cli, workdir)
        return report(args, cli, reps, problems, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_repetitions(args, cli, workdir: Path) -> tuple[list[Repetition], list[str]]:
    """Whole repetitions until --seconds have passed (at least one)."""
    reps: list[Repetition] = []
    problems: list[str] = []
    tracer = Tracer() if args.trace else None
    t_start = time.perf_counter()
    while not reps or time.perf_counter() - t_start < args.seconds:
        k = len(reps)
        cmds = workloads.build(
            args.workload, args.seed, k, workdir / f"rep{k}", tiny=args.tiny
        )
        rep = Repetition(cmds, *run_commands(cli, cmds))
        if tracer is not None:
            # The traced pass rewrites the same files (outputs embed their
            # path), and must reproduce them byte for byte.
            untraced = [read_output(cmd) for cmd in cmds]
            tracer.install()
            try:
                rep.traced, rep.traced_wall = run_commands(cli, cmds)
            finally:
                tracer.uninstall()
            rep.figures = layer_metrics(tracer.take())
            rep.figures["cli.out_bytes"] = sum(size for _, _, size in rep.traced)
            for cmd, before in zip(cmds, untraced):
                if read_output(cmd) != before:
                    problems.append(f"{cmd.label}: traced output differs")
        reps.append(rep)
    return reps, problems


def report(
    args, cli, reps: list[Repetition], problems: list[str], setup_s: float
) -> int:
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # --- checks: after the timed region and the peak-RSS reading -------------
    attempted = failed = 0
    for rep in reps:
        for results in (rep.results, rep.traced or []):
            attempted += len(results)
            failed += sum(rc != 0 for rc, _, _ in results)
        problems += check_outputs(rep.cmds, rep.results)
        for cmd, (rc, _, _) in zip(rep.cmds, rep.results):
            if rc != 0:
                print(f"failed (exit {rc}): {cmd.label}", file=sys.stderr)
    for cmd, (rc, _, _) in zip(reps[0].cmds, reps[0].results):
        if cmd.repeat:
            before = read_output(cmd)
            if cli.main(cmd.full_argv()) != rc or read_output(cmd) != before:
                problems.append(f"{cmd.label}: rerun is not byte-identical")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)

    latencies = [dt for rep in reps for _, dt, _ in rep.results]
    walls = [rep.wall for rep in reps]
    if args.trace:
        overheads = [rep.traced_wall - rep.wall for rep in reps]
        metrics = {
            name: statistics.median(rep.figures[name] for rep in reps)
            for name in reps[0].figures
        }
        metrics["trace.overhead_s"] = statistics.median(overheads)
        metrics["trace.overhead_pct"] = 100.0 * statistics.median(
            o / w for o, w in zip(overheads, walls)
        )
        units = load_units("per_layer")
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "cmd_p50_ms": 1000.0 * statistics.median(latencies),
            "peak_rss_mb": peak_rss_mb,
        }
        units = load_units("end_to_end")

    print(
        f"{args.workload} seed={args.seed}: {len(reps)} repetitions of "
        f"{len(reps[0].cmds)} commands; cmd_p50_ms over {len(latencies)} samples, "
        f"wall_s over {len(walls)}; setup_s median of {SETUP_SPAWNS} interpreters",
        file=sys.stderr,
    )
    for i, cmd in enumerate(reps[0].cmds):
        ms = 1000.0 * statistics.median(rep.results[i][1] for rep in reps)
        print(f"  {ms:10.1f} ms  {cmd.label}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name:32s} {value:16.6f} {units[name]}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def load_units(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


if __name__ == "__main__":
    sys.exit(main())
