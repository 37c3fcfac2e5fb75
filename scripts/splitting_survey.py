#!/usr/bin/env python3
"""Survey the splitting decision over both middle dimensions and a rank range.

For each (p, r) the survey decides the smooth model (integer covectors) and
the homotopy model (covectors modulo twice the coefficient order) and prints
the witness or the size of the exhausted certificate.
"""

from __future__ import annotations

import argparse

from symsplit.jacobi import SPLIT_RANK_LIMIT
from symsplit.mcg import ManifoldParams, splitting_theorem_verdict


def _describe(verdict) -> str:
    if verdict.splits:
        witness = "".join(str(b) for b in verdict.witness.coords)
        return f"splits, witness {witness}"
    return f"no section among {verdict.candidates_checked} translates"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-rank", type=int, default=4,
                        help=f"largest rank to survey (1..{SPLIT_RANK_LIMIT})")
    args = parser.parse_args()
    if not 1 <= args.max_rank <= SPLIT_RANK_LIMIT:
        parser.error(f"--max-rank must lie in 1..{SPLIT_RANK_LIMIT}")

    for p in (3, 7):
        c = ManifoldParams(p, 1).c
        print(f"p = {p}  (coefficient order {c}, homotopy modulus {2 * c})")
        for r in range(1, args.max_rank + 1):
            verdict = splitting_theorem_verdict(p, r)
            agree = verdict.smooth.splits == verdict.homotopy.splits
            print(f"  r={r}: smooth {_describe(verdict.smooth)}; "
                  f"homotopy {_describe(verdict.homotopy)}; "
                  f"agree {'yes' if agree else 'NO'}")
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
