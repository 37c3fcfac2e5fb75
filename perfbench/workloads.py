"""The three workloads: fixed batches of CLI calls, each with its output oracle.

census  `orbits --r 1..6` and `split --p {3,7} --r 1..8`, JSON output.
        Stresses the mod-2 layer two ways: the packed-int orbit search
        (`quadratic`) and the per-candidate translate search
        (`jacobi.splits` -> `qtranslate`/`is_group_fixed`).  No integer
        matrices, so `symplectic` arithmetic stays idle.
arith   `mul` and `inv` with `--psi` on element documents generated here
        from the seed (see reference.py), ranks 2/4/6, moduli 0/24/240,
        small and several-hundred-digit entries, a few deliberate
        non-members that must exit 1.  Stresses integer `symplectic`
        arithmetic, membership (`principal_at`/`qact`) and `cli` parsing and
        JSON; no orbit or split search.
verify  `verify --r {2,4,6}` with seeds derived from the benchmark seed, plus
        one `--negative-control` call that must exit 1.  The same layers as
        arith but with library-generated words, no JSON, construction-heavy,
        and a light split search at small rank.

Census inputs are fixed by the paper's statements; the seed only orders the
calls.  Every batch is a closed loop with one client: each call starts after
the previous one returned.
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from reference import random_element

Check = Callable[[Optional[int], str, str], bool]


@dataclass(frozen=True)
class Call:
    """One CLI invocation: argv for `symsplit.cli.main`, a group name, and its oracle."""

    argv: tuple[str, ...]
    group: str
    check: Check


@dataclass(frozen=True)
class Batch:
    calls: list[Call]
    warmup: list[Call]


# --- census -----------------------------------------------------------------

ORBIT_RANKS = range(1, 7)
SPLIT_RANKS = range(1, 9)
HOMOTOPY_MODULUS = {3: 24, 7: 240}


def _orbits_check(r: int) -> Check:
    sizes = [2 ** (2 * r - 1) + 2 ** (r - 1), 2 ** (2 * r - 1) - 2 ** (r - 1)]
    # lexicographically least member of each Arf class
    want = [{"arf": 0, "size": sizes[0], "representative": [0] * (2 * r)},
            {"arf": 1, "size": sizes[1], "representative": [0] * (2 * r - 2) + [1, 1]}]

    def check(code, out, err):
        if code != 0:
            return False
        res = json.loads(out)["results"]
        return (res["rank"] == r and res["orbits"] == want
                and res["expected_sizes"] == sizes and res["pass"] is True)
    return check


def _split_check(p: int, r: int) -> Check:
    def check(code, out, err):
        if code != 0:
            return False
        res = json.loads(out)["results"]
        smooth, homotopy = res["smooth"], res["homotopy"]
        if smooth["modulus"] != 0 or homotopy["modulus"] != HOMOTOPY_MODULUS[p]:
            return False
        if res["verdicts_agree"] is not True:
            return False
        for v in (smooth, homotopy):
            if v["splits"] is not (r == 1):
                return False
            if r == 1:
                # the only group-fixed refinement at rank 1 has basis values (1, 1)
                shifted = [b ^ w for b, w in zip(v["base"], v["witness"])]
                if shifted != [1, 1] or v["fixed_refinement"] != [1, 1]:
                    return False
            elif v["witness"] is not None or v["candidates_checked"] != 4 ** r:
                return False
        return True
    return check


def _orbits_call(r: int) -> Call:
    return Call(("orbits", "--r", str(r), "--format", "json"), "orbits", _orbits_check(r))


def _split_call(p: int, r: int) -> Call:
    return Call(("split", "--p", str(p), "--r", str(r), "--format", "json"), "split",
                _split_check(p, r))


def census(seed: int, workdir: Path) -> Batch:
    calls = [_orbits_call(r) for r in ORBIT_RANKS]
    calls += [_split_call(p, r) for p in (3, 7) for r in SPLIT_RANKS]
    random.Random(seed).shuffle(calls)
    warmup = [_orbits_call(r) for r in range(1, 5)] + [_split_call(3, r) for r in range(1, 5)]
    return Batch(calls, warmup)


# --- arith ------------------------------------------------------------------

ARITH_RANKS = (2, 4, 6)
ARITH_MODULI = (0, 24, 240)
# per (rank, modulus, op) cell; 18 small and 18 big cells give 1044 calls, so
# p99 over the batch has 10 calls beyond it
SMALL_PER_CELL = 50
BIG_PER_CELL = 8
NON_MEMBERS_PER_SMALL_CELL = 2


def _element_check(expected: Optional[dict]) -> Check:
    def check(code, out, err):
        if expected is None:
            return code == 1 and out == "" and err.startswith("membership violation")
        if code != 0:
            return False
        doc = json.loads(out)
        return {k: doc.get(k) for k in expected} == expected
    return check


def arith(seed: int, workdir: Path) -> Batch:
    rng = random.Random(seed)
    docdir = workdir / "arith"
    shutil.rmtree(docdir, ignore_errors=True)
    docdir.mkdir(parents=True)
    numbers = itertools.count()

    def write(element) -> str:
        path = docdir / f"e{next(numbers):05d}.json"
        path.write_text(json.dumps(element.document()))
        return str(path)

    calls, warmup = [], []
    for r in ARITH_RANKS:
        for m in ARITH_MODULI:
            for big, count in ((False, SMALL_PER_CELL), (True, BIG_PER_CELL)):
                for op in ("mul", "inv"):
                    bad = set(rng.sample(range(count), 0 if big else NON_MEMBERS_PER_SMALL_CELL))
                    for i in range(count):
                        psi = [rng.randint(0, 1) for _ in range(2 * r)]
                        bits = "".join(map(str, psi))
                        # index of the operand made a non-member, -1 for none
                        bad_side = (rng.randrange(2) if op == "mul" else 0) if i in bad else -1
                        g = random_element(rng, r, m, big, psi, bad_side != 0)
                        if op == "mul":
                            h = random_element(rng, r, m, big, psi, bad_side != 1)
                            argv = ("mul", "--lhs", write(g), "--rhs", write(h), "--psi", bits)
                            expected = g.mul(h) if bad_side < 0 else None
                        else:
                            argv = ("inv", "--lhs", write(g), "--psi", bits)
                            expected = g.inverse() if bad_side < 0 else None
                        call = Call(argv, op, _element_check(
                            None if expected is None else expected.document()))
                        calls.append(call)
                        if i == 0:
                            warmup.append(call)
    rng.shuffle(calls)
    return Batch(calls, warmup)


# --- verify -----------------------------------------------------------------

VERIFY_RANKS = (2, 4, 6)
VERIFY_SEEDS_PER_RANK = 6
VERIFY_SAMPLES = 20


def _verify_check(r: int, samples: int, seed: int, negative: bool) -> Check:
    totals = {"cocycle_law": samples, "torsor": samples + 1, "additivity": samples,
              "minus_id": 2 * samples, "group_axioms": 4 * samples, "reframe": 3 * samples,
              "section": 2}  # from rank 2 on, the section suite is two split searches
    want = {name: (t, t, "yes") for name, t in totals.items()}
    if negative:
        want["negative_control"] = (0, 1, "NO")
    header = ["verify", f"r={r}", f"samples={samples}", f"seed={seed}"]
    verdict = "all suites: FAIL" if negative else "all suites: PASS"

    def check(code, out, err):
        if code != (1 if negative else 0):
            return False
        lines = out.splitlines()
        if lines[0].split()[:4] != header or lines[-1] != verdict:
            return False
        rows = {}
        for line in lines[2:-1]:
            name, passed, total, ok = line.split()
            rows[name] = (int(passed), int(total), ok)
        return rows == want
    return check


def _verify_call(r: int, samples: int, seed: int, negative: bool = False) -> Call:
    argv = ("verify", "--r", str(r), "--samples", str(samples), "--seed", str(seed))
    if negative:
        argv += ("--negative-control",)
    return Call(argv, "verify", _verify_check(r, samples, seed, negative))


def verify(seed: int, workdir: Path) -> Batch:
    rng = random.Random(seed)
    calls = [_verify_call(r, VERIFY_SAMPLES, rng.randrange(1 << 31))
             for r in VERIFY_RANKS for _ in range(VERIFY_SEEDS_PER_RANK)]
    calls.append(_verify_call(2, VERIFY_SAMPLES, rng.randrange(1 << 31), negative=True))
    rng.shuffle(calls)
    warmup = [_verify_call(r, 2, 0) for r in VERIFY_RANKS] + [_verify_call(2, 2, 0, negative=True)]
    # fill the transvection cache for every direction the word generator can draw
    from symsplit.symplectic import transvection, transvection_candidates
    for r in VERIFY_RANKS:
        for v in transvection_candidates(r):
            transvection(v)
    return Batch(calls, warmup)


WORKLOADS = {"census": census, "arith": arith, "verify": verify}
