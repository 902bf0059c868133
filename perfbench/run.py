"""Benchmark of the hybridmfi pipeline: read -> prune -> build -> mine -> render.

    python3 perfbench/run.py --workload sparse --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The workload's database is generated from
the seed and written to perfbench/.work before any timing starts. Every
operation then runs in a fresh single-threaded interpreter with default
flags (asserts on), one at a time:

--trace 0  repeats the whole pipeline until --seconds is used up, then runs
           set-up alone for at least 5 s and five set-up samples, and
           reports the medians of total_s, setup_s and peak_rss_mb.
--trace 1  runs the pipeline once untraced and once with every layer wrapped
           in spans, and reports the per-layer metrics.

Every pipeline's rendered output is checked against a SHA-256 reference:
the digest recorded in workloads.py for the default seed, or else the
digest of mine_bitmap_baseline's output, derived once per checkout and seed
and kept in perfbench/.work. The last
line of standard output is the result as JSON; the line before it gives the
samples and the conditions they were taken under.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import BENCH_DIR, ROOT, WORK_DIR, WORKLOADS, import_program, write_input

# Every run must end within 180 s; leave room for the last operation.
DEADLINE_S = 170.0
# Set-up runs alone until there are this many samples and this long has
# passed. Dense set-up takes ~0.1 s and, on a shared 2-core VM, swings
# between about 0.09 s and 0.17 s from one second to the next, so its median
# needs many samples spread over several seconds.
SETUP_SAMPLES = 5
SETUP_SECONDS = 5.0


class OperationFailed(Exception):
    pass


class Runner:
    """Runs pipeline.py operations one at a time in fresh interpreters."""

    def __init__(self, workload, path: Path, started: float):
        self.workload = workload
        self.path = path
        self.deadline = started + DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        # sys.flags.optimize of every counted operation.
        self.optimize: set[int] = set()

    def call(self, mode: str, optimize: bool = False) -> dict:
        command = [sys.executable]
        if optimize:
            command.append("-O")
        command += [str(BENCH_DIR / "pipeline.py"), mode, self.workload.name, str(self.path)]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise OperationFailed(f"{mode}: no time left before the {DEADLINE_S:.0f} s limit")
        try:
            done = subprocess.run(
                command, cwd=ROOT, capture_output=True, text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            raise OperationFailed(f"{mode}: still running at the {DEADLINE_S:.0f} s limit") from None
        if done.returncode != 0:
            raise OperationFailed(f"{mode}: exit {done.returncode}: {done.stderr.strip()[-2000:]}")
        return json.loads(done.stdout.strip().splitlines()[-1])

    def operation(self, mode: str, reference: str | None) -> dict | None:
        """One counted operation. Fails when it raises or when its digest
        differs from the reference."""
        self.attempted += 1
        try:
            out = self.call(mode)
        except OperationFailed as exc:
            self.failed += 1
            self.errors.append(str(exc))
            return None
        self.optimize.add(out["optimize"])
        for key in ("digest", "baseline_digest"):
            if key in out and out[key] != reference:
                self.failed += 1
                self.errors.append(f"{mode}: {key} {out[key]} differs from reference {reference}")
                break
        return out


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(runner: Runner, seed: int, seconds: int, trace: bool, reference_source: str) -> dict:
    workload = runner.workload
    return {
        "workload": workload.name,
        "spec": workload.spec(seed),
        "minsups": list(workload.minsups),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": sys.version.split()[0],
        "optimize": sorted(runner.optimize),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "reference": reference_source,
    }


def reference_digest(runner: Runner, workload, seed: int) -> tuple[str, str]:
    """The digest every pipeline must reproduce, and where it came from."""
    recorded = workload.recorded_digest(seed)
    if recorded is not None:
        return recorded, "recorded"
    cached = WORK_DIR / f"{workload.name}-{seed}.reference"
    if cached.is_file():
        return cached.read_text().strip(), "mine_bitmap_baseline, derived by an earlier run"
    # Under -O: the reference needs only the baseline's output, not its
    # quadratic antichain assert.
    digest = runner.call("reference", optimize=True)["digest"]
    cached.write_text(digest + "\n")
    return digest, "mine_bitmap_baseline"


def measure(runner: Runner, reference: str, seconds: int):
    """Whole-pipeline repetitions while --seconds lasts (at least one), then
    set-up alone for at least SETUP_SECONDS and SETUP_SAMPLES samples."""
    runs, walls = [], []
    started = time.monotonic()
    while True:
        t = time.monotonic()
        out = runner.operation("run", reference)
        walls.append(time.monotonic() - t)
        if out is None:
            break
        runs.append(out)
        if time.monotonic() + statistics.median(walls) > started + seconds:
            break
    setups = [r["setup_s"] for r in runs]
    setup_started = time.monotonic()
    while runs and (
        len(setups) < SETUP_SAMPLES or time.monotonic() < setup_started + SETUP_SECONDS
    ):
        out = runner.operation("setup", None)
        if out is None:
            break
        setups.append(out["setup_s"])
    if not runs:
        return None, {}
    samples = {
        "total_s": [r["total_s"] for r in runs],
        "setup_s": setups,
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
    }
    units = {"total_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    metrics = {
        name: {"value": statistics.median(values), "unit": units[name]}
        for name, values in samples.items()
    }
    return metrics, samples


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_ratio", "_yield")):
        return "ratio"
    return "count"


def measure_traced(runner: Runner, reference: str):
    plain = runner.operation("run", reference)
    if plain is None:
        return None, {}
    traced = runner.operation("trace", reference)
    if traced is None:
        return None, {}
    values = dict(traced["metrics"])
    values["trace.overhead_s"] = traced["total_s"] - plain["total_s"]
    metrics = {
        name: {"value": value, "unit": layer_unit(name)}
        for name, value in values.items()
    }
    return metrics, {"untraced_total_s": plain["total_s"], "traced_total_s": traced["total_s"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="generator seed (default: the workload's own)")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    # Turn SIGTERM into SystemExit, so subprocess.run kills and reaps the
    # operation in flight before this process exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    try:
        import_program()
    except ImportError as exc:
        print(f"error: cannot import the program under test: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    path = write_input(workload, seed)
    try:
        runner = Runner(workload, path, started)
        try:
            reference, source = reference_digest(runner, workload, seed)
        except OperationFailed as exc:
            print(f"error: cannot derive the reference: {exc}", file=sys.stderr)
            return 1
        if args.trace:
            metrics, samples = measure_traced(runner, reference)
        else:
            metrics, samples = measure(runner, reference, args.seconds)
    finally:
        path.unlink(missing_ok=True)

    for error in runner.errors:
        print(f"error: {error}", file=sys.stderr)
    if metrics is None:
        return 1
    info = stamp(runner, seed, args.seconds, bool(args.trace), source)
    info.update(reference_digest=reference, samples=samples)
    print(json.dumps({"run": info}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
