"""rnqc benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository. The rnqc package is imported from
the checkout's `src/`, and every command goes through `rnqc.cli.main`
in-process, with the argv a user would type plus `--json` and a pinned
`--timestamp`. One client runs a closed loop: each command starts when
the previous one has returned. `--jobs` stays 1 except in the jobs=2
probes of the traced run.

Workloads (see workloads.py and NOTES.md): exact, small-state.

`--trace 0` prints the end-to-end metrics. Whole cycles of the workload
run until at least `--seconds` have passed, and at least two cycles.

`--trace 1` runs each command untraced and then traced, compares the two
reports byte for byte, and prints per-layer metrics (per cycle), the
tracing overhead, the jobs=2 speed-ups and a memory-bandwidth probe. The
spans go to `.bench_work/trace-<workload>-<seed>.npz`.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. Exit code 2 means the benchmark
could not run (for example, no `src/rnqc` in the checkout).
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPS = 3
# Two cycles give every slot of a long cycle (exact: 20-28 s) two samples,
# so op_p50_s never rests on a single command.
MIN_CYCLES = 2
JOBS_PROBE_REPS = 3
# Each array is more than 4x the 300 MiB last-level cache of the reference
# machine (and at least 1.2 GiB).
COPY_PROBE_MIB = 1280


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import rnqc from this checkout's sources; returns (cli, workloads, seconds)."""
    if not (SRC / "rnqc" / "__init__.py").is_file():
        fail(f"no rnqc sources under {SRC}; run from a checkout of the repository")
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import rnqc.cli
    import workloads

    elapsed = time.perf_counter() - start
    if not Path(rnqc.cli.__file__).resolve().is_relative_to(SRC):
        fail(f"imported rnqc from {rnqc.cli.__file__}, not from {SRC}")
    return rnqc.cli, workloads, elapsed


def _call(main, argv):
    return main(argv)


class Runner:
    """Runs benchmark commands through rnqc.cli.main and checks each report."""

    def __init__(self, main, work: Path, timestamp: str) -> None:
        self.main = main
        self.report = work / "report.json"
        self.timestamp = timestamp
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._devnull = open(os.devnull, "w")

    def close(self) -> None:
        self._devnull.close()

    def problem(self, text: str) -> None:
        self.failed += 1
        self.problems.append(text)

    def run(self, op, extra=(), call=_call):
        """Run one command; returns (wall seconds, report bytes or None if it failed)."""
        argv = op.argv + list(extra) + ["--json", str(self.report), "--timestamp", self.timestamp]
        self.report.unlink(missing_ok=True)
        err = io.StringIO()
        start = time.perf_counter()
        try:
            with redirect_stdout(self._devnull), redirect_stderr(err):
                code = call(self.main, argv)
        except SystemExit as exc:  # argparse rejects a bad argv this way
            code = exc.code
        except Exception:  # noqa: BLE001 - a crashing command is a failed op, not a crashed run
            code = None
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
        self.attempted += 1
        if code not in (0, 1):
            self.problem(f"{op.label}: exit {code}: {err.getvalue().strip()[-300:]}")
            return elapsed, None
        try:
            data = self.report.read_bytes()
            fault = op.check(code, data)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            fault = f"unreadable report: {exc!r}"
        if fault:
            self.problem(f"{op.label}: {fault}")
            return elapsed, None
        return elapsed, data


def tail_percentile(samples):
    """Highest whole percentile with at least ten samples above it, as (p, value)."""
    xs = sorted(samples)
    n = len(xs)
    for p in range(99, 49, -1):
        rank = max(1, math.ceil(p * n / 100))
        if n - rank >= 10:
            return p, xs[rank - 1]
    return None


def enough(c: int, start: float, seconds: float) -> bool:
    """Stop after whole cycles, at least MIN_CYCLES of them, once `seconds` passed."""
    return c >= MIN_CYCLES and time.perf_counter() - start >= seconds


def measure(runner, cycles, seconds):
    """Closed loop over whole cycles until `enough`.

    Both times are medians, so a slow spell of the host that covers a
    minority of the cycles does not move them. ops_per_s is a cycle's
    commands over the median cycle wall time. op_p50_s is the median over a
    cycle's slots of each slot's median time: slots differ in size, so the
    plain median of all durations would fall on the edge between two size
    classes, where host jitter moves it most.
    """
    by_slot: list[list[float]] = [[] for _ in cycles[0]]
    cycle_walls = []
    start = time.perf_counter()
    c = 0
    while True:
        cycle_start = time.perf_counter()
        for slot, op in enumerate(cycles[c % len(cycles)]):
            by_slot[slot].append(runner.run(op)[0])
        cycle_walls.append(time.perf_counter() - cycle_start)
        c += 1
        if enough(c, start, seconds):
            break
    durations = [d for slot in by_slot for d in slot]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "ops_per_s": (len(by_slot) / statistics.median(cycle_walls), "1/s"),
        "op_p50_s": (statistics.median(statistics.median(slot) for slot in by_slot), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return metrics, durations


def measure_traced(runner, cycles, seconds, tracer):
    """Each command untraced, then traced; the two reports must be identical."""
    untraced = traced = 0.0
    start = time.perf_counter()
    c = 0
    while True:
        for op in cycles[c % len(cycles)]:
            du, plain = runner.run(op)
            tracer.install()
            try:
                dt, seen = runner.run(op, call=tracer.op)
            finally:
                tracer.uninstall()
            if plain is not None and seen is not None and plain != seen:
                runner.problem(f"{op.label}: traced report differs from untraced report")
            untraced += du
            traced += dt
        c += 1
        if time.perf_counter() - start >= seconds:
            break
    if not tracer.restored():
        runner.problem("tracer left a wrapped function bound in rnqc")
    metrics = tracer.layer_metrics(c)
    metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
    return metrics


def jobs2_speedup(runner, ops):
    """Wall time with --jobs 1 over wall time with --jobs 2 on the same commands.

    Sides alternate which runs first; the median of JOBS_PROBE_REPS ratios is
    reported. Both sides must write identical reports.
    """
    ratios = []
    for rep in range(JOBS_PROBE_REPS):
        wall = {1: 0.0, 2: 0.0}
        for op in ops:
            data = {}
            for jobs in (1, 2) if rep % 2 == 0 else (2, 1):
                elapsed, data[jobs] = runner.run(op, ["--jobs", str(jobs)])
                wall[jobs] += elapsed
            if data[1] is not None and data[2] is not None and data[1] != data[2]:
                runner.problem(f"{op.label}: --jobs 2 report differs from --jobs 1")
        ratios.append(wall[1] / wall[2])
    return statistics.median(ratios)


def copy_gb_per_s() -> float:
    """Bytes copied per second by np.copyto between two COPY_PROBE_MIB arrays.

    Returns 0.0 when the host cannot spare the memory for the two arrays.
    """
    import numpy as np

    size = COPY_PROBE_MIB << 20
    try:
        src = np.ones(size, dtype=np.uint8)
        dst = np.zeros(size, dtype=np.uint8)
    except MemoryError:
        print("bench: no memory for the copy probe; machine.copy_gb_per_s = 0", file=sys.stderr)
        return 0.0
    np.copyto(dst, src)  # fault in every page before timing
    times = []
    for _ in range(3):
        start = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - start)
    del src, dst
    return size / statistics.median(times) / 1e9


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    cli, workloads, import_s = import_program()
    build = workloads.WORKLOADS.get(args.workload)
    if build is None:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    work = WORK / args.workload
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(cli.main, work, workloads.TIMESTAMP)
    try:
        setups = []
        for _ in range(SETUP_REPS):
            start = time.perf_counter()
            cycles = build(args.seed, work)
            runner.run(cycles[0][0])  # untimed warm-up op
            setups.append(time.perf_counter() - start)
        setup_s = import_s + statistics.median(setups)

        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            metrics = measure_traced(runner, cycles, args.seconds, tracer)
            sampled, pathsum = workloads.jobs_probe_ops(work / "jobs-probe")
            metrics["majsat.jobs2_speedup"] = (jobs2_speedup(runner, sampled), "ratio")
            metrics["pathsum.jobs2_speedup"] = (jobs2_speedup(runner, pathsum), "ratio")
            metrics["machine.copy_gb_per_s"] = (copy_gb_per_s(), "GB/s")
            tracer.save(WORK / f"trace-{args.workload}-{args.seed}.npz")
            shown = metrics
        else:
            metrics, durations = measure(runner, cycles, args.seconds)
            metrics["setup_s"] = (setup_s, "s")
            # Printed, not in the JSON line: the tail needs enough ops to exist,
            # failed_ratio is 0 whenever the run is correct, and op_p50_s on
            # small-state (a 40 ms sampled solve) follows the host's speed
            # swings too closely to hold a bound (see NOTES.md).
            shown = {**metrics, "failed_ratio": (runner.failed / runner.attempted, "ratio")}
            del metrics["op_p50_s"]
            tail = tail_percentile(durations)
            if tail is not None:
                shown[f"op_tail_s(p{tail[0]})"] = (tail[1], "s")
            print(f"{args.workload}: {len(durations)} ops, {len(durations) // len(cycles[0])} cycles")
    finally:
        runner.close()

    for name, (value, unit) in shown.items():
        print(f"  {name:30s} {value:.6g} {unit}")

    for text in runner.problems[:20]:
        print(f"FAILED {text}", file=sys.stderr)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
