#!/usr/bin/env python3
"""Tabulate refinement orbit sizes against the closed formulas, rank by rank.

Each rank contributes two orbits, one per Arf value; the census recomputes the
sizes by closing each orbit, held as one 4^r-bit int, under the 3r - 1
generating transvections and compares with 2^(2r-1) +/- 2^(r-1).  A rank costs
a few rounds of 3r - 1 big-int steps on 4^r bits: rank 10 takes about 0.05 s.
The table is printed once every rank is done, each column as wide as its
header or its widest entry.
"""

from __future__ import annotations

import argparse
import time

from symsplit.limits import DECOMPOSITION_RANK_LIMIT
from symsplit.quadratic import expected_orbit_sizes, orbit_decomposition
from symsplit.symplectic import _check_int


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-rank", type=int, default=5,
                        help=f"largest rank to census (1..{DECOMPOSITION_RANK_LIMIT})")
    args = parser.parse_args()
    try:
        _check_int(args.max_rank, "--max-rank", 1, DECOMPOSITION_RANK_LIMIT)
    except ValueError as exc:
        parser.error(str(exc))

    rows = []
    for r in range(1, args.max_rank + 1):
        start = time.monotonic()
        report = orbit_decomposition(r)
        elapsed = time.monotonic() - start
        for cls, exp in zip(report.orbits, expected_orbit_sizes(r)):
            rep = "".join(str(b) for b in cls.representative.basis_values)
            mark = "" if cls.size == exp else "  <- MISMATCH"
            rows.append((str(r), str(cls.arf_label), str(cls.size), str(exp), rep, f"{elapsed:.2f}", mark))

    # each column as wide as its header or its widest entry; the representative,
    # left-aligned, keeps at least 18 characters, the width of a rank-9 one
    header = ("rank", "arf", "size", "formula", "representative", "seconds")
    widths = [max(len(name), *(len(row[i]) for row in rows)) for i, name in enumerate(header)]
    widths[4] = max(widths[4], 18)
    for cells in [header + ("",)] + rows:
        *numbers, rep, seconds, mark = cells
        left = "  ".join(f"{cell:>{w}}" for cell, w in zip(numbers, widths))
        print(f"{left}  {rep:<{widths[4]}}  {seconds:>{widths[5]}}{mark}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
