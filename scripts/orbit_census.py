#!/usr/bin/env python3
"""Tabulate refinement orbit sizes against the closed formulas, rank by rank.

Each rank contributes two orbits, one per Arf value; the census recomputes the
sizes by closing each orbit, held as one 4^r-bit int, under the 3r - 1
generating transvections and compares with 2^(2r-1) +/- 2^(r-1).  A rank costs
a few rounds of 3r - 1 big-int steps on 4^r bits: rank 10 takes about 0.05 s.
"""

from __future__ import annotations

import argparse
import time

from symsplit.quadratic import DECOMPOSITION_RANK_LIMIT, expected_orbit_sizes, orbit_decomposition


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-rank", type=int, default=5,
                        help=f"largest rank to census (1..{DECOMPOSITION_RANK_LIMIT})")
    args = parser.parse_args()
    if not 1 <= args.max_rank <= DECOMPOSITION_RANK_LIMIT:
        parser.error(f"--max-rank must lie in 1..{DECOMPOSITION_RANK_LIMIT}")

    print("rank  arf  size  formula  representative      seconds")
    for r in range(1, args.max_rank + 1):
        start = time.monotonic()
        report = orbit_decomposition(r)
        elapsed = time.monotonic() - start
        expected = expected_orbit_sizes(r)
        for cls, exp in zip(report.orbits, expected):
            rep = "".join(str(b) for b in cls.representative.basis_values)
            mark = "" if cls.size == exp else "  <- MISMATCH"
            print(f"{r:>4}  {cls.arf_label:>3}  {cls.size:>4}  {exp:>7}  {rep:<18}  {elapsed:7.2f}{mark}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
