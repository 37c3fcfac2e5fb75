#!/usr/bin/env python3
"""Benchmark for the symsplit CLI: one workload per run, untraced or traced.

Run from the repository root:

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

Each run imports the package from `src/` and drives the real CLI code path in
process, `symsplit.cli.main(argv)` with stdout and stderr captured, from one
thread as a closed loop with one client.  The workload's fixed batch of calls
is repeated until half of another repeat would pass `--seconds`; every
output is checked by the workload's oracle, outside the timed interval.
Times are in reference-speed seconds: each call's duration is scaled by the
speed of the host measured right around it (see calibrate.py).

--trace 0 reports the end-to-end metrics named in BENCHMARK.json:
  setup_s      median wall time of a fresh interpreter running
               `python -m symsplit.cli --version`, over several starts
  wall_s       the batch's wall time: sum over its calls of each call's
               median time across the run's repeats
  call_p50_ms  median of those per-call medians
  call_p99_ms  99th percentile (nearest rank) of those per-call medians
  peak_rss_mb  peak resident memory of this process (one workload per process)
--trace 1 repeats the same untraced measurement, then runs the batch twice
with spans around the package's public functions (see tracing.py), checks
that every count repeats exactly, and reports the per-layer metrics.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  Lines before it repeat the metrics for
people, with the failure ratio and sample counts.  Exit codes: 0 all outputs
correct; 1 some output wrong (the result is still printed); 2 the package
or BENCHMARK.json is missing; 3 a count differed between runs of one seed.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from calibrate import REFERENCE_KERNEL_S, Speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_out"

SETUP_STARTS = 15  # timed fresh-interpreter starts, after one untimed start
TRACED_BATCHES = 2
MAX_FAILURES_SHOWN = 5


class Runner:
    """Calls `cli.main`, times the call, checks the output, and counts outcomes."""

    def __init__(self, cli, speed: Speed) -> None:
        self.cli = cli
        self.speed = speed
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < MAX_FAILURES_SHOWN:
                self.failures.append(what)

    def call(self, call) -> float:
        argv = list(call.argv)
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = out, err
        code = None
        start = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except Exception:  # a traceback is a wrong outcome, not a benchmark crash
            err.write(traceback.format_exc())
        finally:
            elapsed = time.perf_counter() - start
            sys.stdout, sys.stderr = saved
        try:
            ok = code is not None and call.check(code, out.getvalue(), err.getvalue())
        except (ValueError, KeyError, TypeError, IndexError):
            ok = False
        self.record(ok, f"symsplit {' '.join(argv)} -> exit {code}: {err.getvalue()[-500:]!r}")
        return self.speed.scale(elapsed)


def measure_setup(runner: Runner) -> float:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    cmd = [sys.executable, "-m", "symsplit.cli", "--version"]
    times = []
    for i in range(SETUP_STARTS + 1):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
        elapsed = runner.speed.scale(time.perf_counter() - start)
        runner.record(proc.returncode == 0 and proc.stdout.startswith("symsplit "),
                      f"{' '.join(cmd[1:])} -> exit {proc.returncode}: {proc.stderr[-500:]!r}")
        if i:
            times.append(elapsed)
    return statistics.median(times)


def measure(runner: Runner, calls, seconds: float) -> tuple[list[float], int]:
    """Repeat the batch until half of another repeat would pass the deadline; per-call medians."""
    samples: list[list[float]] = [[] for _ in calls]
    start = time.perf_counter()
    deadline = start + seconds
    batches = 0
    while True:
        for times, call in zip(samples, calls):
            times.append(runner.call(call))
        batches += 1
        now = time.perf_counter()
        if now + (now - start) / batches / 2 > deadline:
            return [statistics.median(t) for t in samples], batches


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def group_seconds(calls, medians, group: str) -> float:
    return sum(m for c, m in zip(calls, medians) if c.group == group)


def fingerprint() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(HERE.glob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def check_counts_across_runs(workload: str, seed: int, counts: dict) -> list[str]:
    """Compare with the counts an earlier run of the same code and seed left behind."""
    path = WORKDIR / f"counts-{workload}-{seed}.json"
    record = {"fingerprint": fingerprint(), "counts": counts}
    try:
        earlier = json.loads(path.read_text())
    except (OSError, ValueError):
        earlier = None
    path.write_text(json.dumps(record, sort_keys=True) + "\n")
    if not earlier or earlier.get("fingerprint") != record["fingerprint"]:
        return []
    old = earlier["counts"]
    return [f"{k}: {old.get(k)} then {v}" for k, v in counts.items() if old.get(k) != v]


def traced_metrics(runner: Runner, batch, workload: str, seed: int,
                   untraced_wall: float) -> tuple[dict, list[str]]:
    from tracing import Tracer

    tracer = Tracer()
    first_kernel = len(runner.speed.kernel_times)
    tracer.install()
    try:
        runs = []
        for _ in range(TRACED_BATCHES):
            tracer.reset()
            times = [runner.call(c) for c in batch.calls]
            runs.append((times, *tracer.summary()))
        tracer.write(WORKDIR / f"trace-{workload}")
    finally:
        tracer.uninstall()
    counts = runs[0][1]
    errors = [f"{k}: {counts[k]} then {other[k]}"
              for _, other, _ in runs[1:] for k in counts if other[k] != counts[k]]
    errors += check_counts_across_runs(workload, seed, counts)
    values = dict(counts)
    # spans are timed raw; scale them by the host speed over the traced batches
    factor = REFERENCE_KERNEL_S / runner.speed.median_kernel(since=first_kernel)
    for key in runs[0][2]:
        values[key] = factor * statistics.median(r[2][key] for r in runs)
    traced_wall = sum(statistics.median(t) for t in zip(*(r[0] for r in runs)))
    values["trace.overhead_s"] = traced_wall - untraced_wall
    return values, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if not (SRC / "symsplit" / "__init__.py").is_file():
        print(f"error: no symsplit package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import symsplit.cli as cli
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    WORKDIR.mkdir(exist_ok=True)

    # one CPU for this process and the interpreters it starts, so that the
    # speed kernel runs on the CPU the measured work runs on
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass  # not Linux, or pinning refused: measure unpinned
    runner = Runner(cli, Speed())
    values: dict[str, float] = {}
    if not args.trace:
        values["setup_s"] = measure_setup(runner)
    batch = WORKLOADS[args.workload](args.seed, WORKDIR)
    for call in batch.warmup:
        runner.call(call)
    medians, batches = measure(runner, batch.calls, args.seconds)
    wall = sum(medians)
    notes = [f"workload {args.workload}  seed {args.seed}  {len(batch.calls)} calls per batch"
             f"  {batches} batches  python {sys.version.split()[0]}  nproc {os.cpu_count()}",
             f"host speed: kernel median {1000 * runner.speed.median_kernel():.4f} ms"
             f" (reference {1000 * REFERENCE_KERNEL_S:g} ms)"]
    errors: list[str] = []
    if args.trace:
        layer, errors = traced_metrics(runner, batch, args.workload, args.seed, wall)
        values.update(layer)
        values["orbits_s"] = group_seconds(batch.calls, medians, "orbits")
        values["split_s"] = group_seconds(batch.calls, medians, "split")
        wanted = spec["per_layer"]
    else:
        values["wall_s"] = wall
        values["call_p50_ms"] = 1000 * statistics.median(medians)
        values["call_p99_ms"] = 1000 * nearest_rank(medians, 0.99)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        beyond = len(medians) - math.ceil(0.99 * len(medians))
        notes.append(f"per-call latency over {len(medians)} per-call medians,"
                     f" {beyond} beyond p99")
        wanted = spec["end_to_end"]
    if errors:
        print("error: counts differ between runs of one seed:", *errors, sep="\n  ",
              file=sys.stderr)
        return 3
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 2

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for line in notes:
        print(line)
    for name, metric in metrics.items():
        print(f"{name:<46} {metric['value']:>16.6f} {metric['unit']}")
    print(f"{'fail_ratio':<46} {runner.failed / runner.attempted:>16.6f}"
          f" ({runner.failed} of {runner.attempted} calls)")
    print(f"unscaled time of all timed calls: {runner.speed.raw_total:.3f} s")
    for failure in runner.failures:
        print(f"wrong outcome: {failure}", file=sys.stderr)
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
