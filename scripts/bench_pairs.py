#!/usr/bin/env python3
"""Compare two checkouts on one perfbench workload in alternating pairs of runs.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload arith --pairs 10 --seconds 6

PARENT and CHANGE are checkouts of this repository.  Pair k runs
`perfbench/run.py --workload W --seed SEED+k --seconds S --trace 0` once in
each, from the checkout's own root; even pairs run PARENT first and odd pairs
CHANGE first, so an order bias falls on both sides alike.  Each run's metrics
are printed as it ends.  Then, per end-to-end metric of BENCHMARK.json, the
summary gives each side's median and quartiles over the pairs, the difference
of the medians (CHANGE minus PARENT, also in percent), whether that
difference is larger than the PARENT's own interquartile range, and the pairs
CHANGE won out of N: better in the metric's direction, a tie counting for
neither side.

The two directories must have names of equal length: perfbench's
`peak_rss_mb` was seen to move with the length of the checkout's directory
name alone.

Exit codes: 0 every run correct; 1 a run failed or reported a wrong output;
2 a usage error, a checkout without perfbench, or names of unequal length.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


class RunFailed(Exception):
    """A perfbench run exited non-zero or reported a wrong output."""


def run_order(pairs: int) -> list[tuple[int, str]]:
    """(pair, side) in the order they run: parent first in even pairs, change first in odd ones."""
    return [(k, side) for k in range(pairs) for side in (SIDES if k % 2 == 0 else SIDES[::-1])]


def run_perfbench(checkout: Path, workload: str, seed: int, seconds: float) -> dict[str, float]:
    """One untraced perfbench run in checkout; its end-to-end metric values by name."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"{checkout}: perfbench exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RunFailed(f"{checkout}: {result['failed']} of {result['attempted']} outputs wrong")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def summary(results: dict[str, list[dict[str, float]]], metrics: list[dict]) -> list[str]:
    """Per metric: each side's median [q1, q3], the difference of medians, and change's wins.

    results holds, per side, one dict of metric values per pair, in pair order.
    """
    lines = [f"{'metric':<12} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34}"
             f" {'change - parent':>24} {'> parent IQR':>12} {'wins':>6}"]
    pairs = len(results["parent"])
    for metric in metrics:
        name = metric["name"]
        sides = [[run[name] for run in results[side]] for side in SIDES]
        (p1, p2, p3), (c1, c2, c3) = (statistics.quantiles(v, n=4, method="inclusive") for v in sides)
        sign = -1 if metric["better"] == "lower" else 1
        wins = sum(sign * (c - p) > 0 for p, c in zip(*sides))
        diff = c2 - p2
        pct = f"{100 * diff / p2:+.1f}%" if p2 else "n/a"
        lines.append(f"{name:<12} {f'{p2:.6g} [{p1:.6g}, {p3:.6g}]':>34}"
                     f" {f'{c2:.6g} [{c1:.6g}, {c3:.6g}]':>34} {f'{diff:+.6g} ({pct})':>24}"
                     f" {'yes' if abs(diff) > p3 - p1 else 'no':>12} {f'{wins}/{pairs}':>6}")
    return lines


def main(argv=None, run=run_perfbench) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=1, help="seed of pair 0; pair k runs seed + k")
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    if len(checkouts["parent"].name) != len(checkouts["change"].name):
        print(f"error: directory names {checkouts['parent'].name!r} and {checkouts['change'].name!r}"
              " differ in length, and peak_rss_mb moves with that length", file=sys.stderr)
        return 2
    try:
        spec = json.loads((checkouts["parent"] / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read the parent's BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if not all((path / "perfbench" / "run.py").is_file() for path in checkouts.values()):
        print("error: each checkout needs perfbench/run.py", file=sys.stderr)
        return 2

    results: dict[str, list] = {side: [None] * args.pairs for side in SIDES}
    for k, side in run_order(args.pairs):
        try:
            values = run(checkouts[side], args.workload, args.seed + k, args.seconds)
        except RunFailed as exc:
            print(f"error: pair {k} {side}: {exc}", file=sys.stderr)
            return 1
        results[side][k] = values
        print(f"pair {k} seed {args.seed + k} {side}: "
              + "  ".join(f"{name}={value:.6g}" for name, value in sorted(values.items())), flush=True)
    print(f"workload {args.workload}, {args.pairs} pairs, --seconds {args.seconds:g},"
          f" seeds {args.seed}..{args.seed + args.pairs - 1}")
    print("\n".join(summary(results, spec["end_to_end"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
