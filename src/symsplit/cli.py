"""Command line surface: deterministic reports and serialized group arithmetic.

Exit codes: 0 success, 1 verified-property failure (including membership
violations), 2 input error.  Every `ValueError` a command raises is an input
error, printed as "error: <text>" on stderr with exit code 2.  So each rank
and sample limit is checked once, by the library call it bounds.  The rank
and modulus of an element document and `--jmax`, which no library call
bounds, go through the library's integer guard `symplectic._check_int`, so
this module words no integer bound itself; it checks only the shape of
element documents and `--psi`.  JSON reports are byte-deterministic for
fixed inputs and seed, and embed the seed and package version.

Integers are written in decimal, so an output entry may have at most the
interpreter's integer-string digit limit (`sys.get_int_max_str_digits()`,
4300 by default).  A result with a longer entry is not written: the command
exits 2 with an error naming the limit, as it does for input past the same
limit.  The limit is process-wide and left as it is.

The argument parser is built on the first `main` call and reused by later
calls in the same process; importing the module builds nothing.  At import it
loads only the standard library, `__version__` and `limits`, so `--version`,
`--help` and a usage error compile no library module.  The whole library is
imported once, when the first command needs it, and kept for later calls.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence
from functools import lru_cache
from types import SimpleNamespace

from . import __version__
from .limits import (DECOMPOSITION_RANK_LIMIT, ELEMENT_RANK_LIMIT, SPLIT_RANK_LIMIT,
                     VERIFY_RANK_LIMIT, VERIFY_SAMPLES_LIMIT)

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


@lru_cache(maxsize=None)
def _library() -> SimpleNamespace:
    # Every module at once, not only those a command calls: perfbench's tracer
    # looks up each module it wraps in sys.modules.  Callers reach functions
    # through the modules, so a function rebound on its module is the one called.
    from . import jacobi, mcg, quadratic, symplectic, verify
    return SimpleNamespace(jacobi=jacobi, mcg=mcg, quadratic=quadratic, symplectic=symplectic,
                           verify=verify)


def _encode_int(value: int):
    # decimal strings keep arbitrary-precision entries safe for 64-bit readers
    if _INT64_MIN <= value <= _INT64_MAX:
        return value
    try:
        return str(value)
    except ValueError as exc:  # past the interpreter's int-string digit limit
        raise ValueError(f"result entry exceeds the {sys.get_int_max_str_digits()}-digit"
                         " decimal output limit") from exc


def _decode_int(value: object) -> int:
    if isinstance(value, bool):
        raise ValueError("expected an integer")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        body = value[1:] if value[:1] in "+-" else value
        if body.isdecimal():  # the digits int() reads, so only the digit limit can refuse them
            try:
                return int(value)
            except ValueError as exc:
                raise ValueError(f"integer entry exceeds the {sys.get_int_max_str_digits()}-digit"
                                 " decimal input limit") from exc
    raise ValueError(f"expected an integer or decimal string, got {value!r}")


def _encode_row(values: Sequence[int]) -> list:
    # one C-level min/max pass instead of a call per entry when no entry leaves 64 bits
    if _INT64_MIN <= min(values) and max(values) <= _INT64_MAX:
        return list(values)
    return [_encode_int(v) for v in values]


def _decode_row(values: list) -> tuple[int, ...]:
    # JSON integers (bools excluded: their type is bool) pass as they are;
    # any other row is decoded entry by entry, which also reports the bad entry
    if set(map(type, values)) == {int}:
        return tuple(values)
    return tuple(map(_decode_int, values))


def element_to_document(g) -> dict:
    return {
        "r": g.rank,
        "modulus": g.modulus,
        "x": _encode_row(g.x.coords),
        "A": [_encode_row(row) for row in g.a.rows],
    }


def element_from_document(doc: object):
    """The `JacobiElement` an element document describes."""
    lib = _library()
    check_int = lib.symplectic._check_int
    if not isinstance(doc, dict):
        raise ValueError("element document must be a JSON object")
    missing = {"r", "modulus", "x", "A"} - set(doc)
    if missing:
        raise ValueError(f"element document lacks keys: {sorted(missing)}")
    r = check_int(_decode_int(doc["r"]), "rank", 1, ELEMENT_RANK_LIMIT)
    m = check_int(_decode_int(doc["modulus"]), "modulus", 0)
    x_raw, a_raw = doc["x"], doc["A"]
    if not isinstance(x_raw, list) or len(x_raw) != 2 * r:
        raise ValueError("x must be a list of 2r entries")
    coords = _decode_row(x_raw)
    if m and not (0 <= min(coords) and max(coords) < m):
        raise ValueError("x entries must lie in [0, modulus)")
    if not isinstance(a_raw, list) or len(a_raw) != 2 * r or any(
            not isinstance(row, list) or len(row) != 2 * r for row in a_raw):
        raise ValueError("A must be a 2r x 2r matrix")
    a = lib.symplectic.SymplecticMatrix(tuple(map(_decode_row, a_raw)))
    return lib.jacobi.JacobiElement(lib.symplectic.Covector(coords, m), a)


def _parse_psi(bits: str, r: int):
    if len(bits) != 2 * r or any(ch not in "01" for ch in bits):
        raise ValueError(f"--psi must be a string of 2r = {2 * r} bits")
    # bit 2r-1-i is value i
    return _library().quadratic.QuadraticRefinement._trusted(2 * r, int(bits, 2))


def _report(command: str, parameters: dict, results: dict, seed: int | None = None) -> dict:
    return {
        "command": command,
        "parameters": parameters,
        "results": results,
        "seed": seed,
        "version": __version__,
    }


def _render(report: dict, fmt: str, lines: list[str]) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True) + "\n"
    return "\n".join(lines) + "\n"


def _bits(values) -> str:
    return "".join(str(b) for b in values)


def _cmd_orbits(args, lib) -> tuple[int, str]:
    r = args.r
    rep = lib.quadratic.orbit_decomposition(r)
    exp = lib.quadratic.expected_orbit_sizes(r)
    labels = tuple(c.arf_label for c in rep.orbits)
    sizes = tuple(c.size for c in rep.orbits)
    passed = labels == (0, 1) and sizes == exp
    results = {
        "rank": r,
        "orbits": [
            {"arf": c.arf_label, "size": c.size,
             "representative": list(c.representative.basis_values)}
            for c in rep.orbits
        ],
        "expected_sizes": list(exp),
        "pass": passed,
    }
    # right-aligned columns, each as wide as its header or its widest entry
    size_w = max(len("size"), *(len(str(c.size)) for c in rep.orbits))
    exp_w = max(len("expected"), *(len(str(e)) for e in exp))
    lines = [f"orbits  r={r}  version={__version__}",
             f"arf  {'size':>{size_w}}  {'expected':>{exp_w}}  representative"]
    for c, e in zip(rep.orbits, exp):
        lines.append(f"{c.arf_label:>3}  {c.size:>{size_w}}  {e:>{exp_w}}  {_bits(c.representative.basis_values)}")
    lines.append(f"formulas: {'PASS' if passed else 'FAIL'}")
    text = _render(_report("orbits", {"r": r}, results), args.format, lines)
    return (0 if passed else 1), text


def _verdict_dict(v) -> dict:
    return {
        "modulus": v.modulus,
        "splits": v.splits,
        "base": list(v.base.basis_values),
        "witness": None if v.witness is None else list(v.witness.coords),
        "fixed_refinement": None if v.fixed_refinement is None else list(v.fixed_refinement.basis_values),
        "candidates_checked": v.candidates_checked,
        "section": "A -> (x.A - x, A) for x any lift of witness" if v.splits else None,
    }


def _verdict_line(flavor: str, v, modulus_w: int, checked_w: int) -> str:
    witness = _bits(v.witness.coords) if v.witness is not None else "-"
    return (f"{flavor:<9} {v.modulus:>{modulus_w}}  {'yes' if v.splits else 'no':<6}  "
            f"{witness:<8} {v.candidates_checked:>{checked_w}}")


def _cmd_split(args, lib) -> tuple[int, str]:
    r = args.r
    verdict = lib.mcg.splitting_theorem_verdict(args.p, r, homotopy_modulus=args.modulus)
    agree = verdict.smooth.splits == verdict.homotopy.splits
    results = {
        "p": args.p,
        "r": r,
        "smooth": _verdict_dict(verdict.smooth),
        "homotopy": _verdict_dict(verdict.homotopy),
        "verdicts_agree": agree,
    }
    # right-aligned number columns, each as wide as its header or its widest entry
    flavors = (("smooth", verdict.smooth), ("homotopy", verdict.homotopy))
    modulus_w = max(len("modulus"), *(len(str(v.modulus)) for _, v in flavors))
    checked_w = max(len("checked"), *(len(str(v.candidates_checked)) for _, v in flavors))
    lines = [f"split  p={args.p}  r={r}  version={__version__}",
             f"flavor    {'modulus':>{modulus_w}}  splits  witness  {'checked':>{checked_w}}",
             *(_verdict_line(name, v, modulus_w, checked_w) for name, v in flavors)]
    if verdict.smooth.splits:
        lines.append("section: A -> (x.A - x, A) for x any lift of the witness")
    else:
        lines.append(f"certificate: {verdict.smooth.candidates_checked} translates searched, none group-fixed")
    lines.append(f"verdicts agree: {'yes' if agree else 'no'}")
    params = {"p": args.p, "r": r, "modulus": args.modulus}
    return 0, _render(_report("split", params, results), args.format, lines)


def _load_document(path: str) -> object:
    try:
        with open(path) as f:
            payload = f.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(payload)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON ({exc})") from exc
    except ValueError as exc:  # an integer literal past the int-string digit limit
        raise ValueError(f"{path}: integer literal exceeds the {sys.get_int_max_str_digits()}-digit"
                         " decimal input limit") from exc
    except RecursionError as exc:
        raise ValueError(f"{path}: JSON nested too deeply") from exc


def _element_result(args, lib, out, named_elements) -> tuple[int, str]:
    """Check the named elements' membership at --psi, if given, then write out as JSON."""
    if args.psi is not None:
        psi = _parse_psi(args.psi, out.rank)
        bad = [name for name, el in named_elements if not lib.jacobi.gamma_psi_member(el, psi)]
        if bad:
            print(f"membership violation at base {args.psi}: {', '.join(bad)}", file=sys.stderr)
            return 1, ""
    return 0, json.dumps(element_to_document(out), sort_keys=True) + "\n"


def _cmd_mul(args, lib) -> tuple[int, str]:
    g = element_from_document(_load_document(args.lhs))
    h = element_from_document(_load_document(args.rhs))
    out = lib.jacobi.jmul(g, h)
    return _element_result(args, lib, out, (("lhs", g), ("rhs", h), ("product", out)))


def _cmd_inv(args, lib) -> tuple[int, str]:
    g = element_from_document(_load_document(args.lhs))
    out = lib.jacobi.jinv(g)
    return _element_result(args, lib, out, (("lhs", g), ("inverse", out)))


def _cmd_verify(args, lib) -> tuple[int, str]:
    suites = lib.verify.run_suites(args.r, args.samples, args.seed, negative_control=args.negative_control)
    all_ok = all(s.ok for s in suites)
    results = {
        "r": args.r,
        "samples": args.samples,
        "suites": [{"name": s.name, "passed": s.passed, "total": s.total, "ok": s.ok}
                   for s in suites],
        "all_ok": all_ok,
    }
    params = {"r": args.r, "samples": args.samples, "seed": args.seed,
              "negative_control": bool(args.negative_control)}
    lines = [f"verify  r={args.r}  samples={args.samples}  seed={args.seed}  version={__version__}",
             "suite             passed  total  ok"]
    for s in suites:
        lines.append(f"{s.name:<16} {s.passed:>7} {s.total:>6}  {'yes' if s.ok else 'NO'}")
    lines.append(f"all suites: {'PASS' if all_ok else 'FAIL'}")
    text = _render(_report("verify", params, results, seed=args.seed), args.format, lines)
    return (0 if all_ok else 1), text


def _cmd_coeff(args, lib) -> tuple[int, str]:
    lib.symplectic._check_int(args.jmax, "--jmax", 1)
    rows = []
    for j in range(1, args.jmax + 1):
        a, c, f = lib.mcg.pontryagin_parts(j)
        rows.append({"j": j, "a": a, "c": c, "odd_factorial": _encode_int(f),
                     "coefficient": _encode_int(a * c * f)})
    results = {"jmax": args.jmax, "rows": rows}
    width = max(16, *(len(str(row["odd_factorial"])) for row in rows))
    lines = [f"coeff  jmax={args.jmax}  version={__version__}",
             f"j    a  c  {'(2j-1)!':<{width}} coefficient"]
    for row in rows:
        lines.append(f"{row['j']:<4} {row['a']}  {row['c']}  {row['odd_factorial']!s:<{width}} {row['coefficient']}")
    return 0, _render(_report("coeff", {"jmax": args.jmax}, results), args.format, lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symsplit",
        description="Exact symplectic-group, refinement-orbit and extension-splitting reports.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    orbits = sub.add_parser("orbits", help="decompose quadratic refinements into orbits")
    orbits.add_argument("--r", type=int, required=True, help=f"rank, 1..{DECOMPOSITION_RANK_LIMIT}")
    orbits.add_argument("--format", choices=("table", "json"), default="table")

    split = sub.add_parser("split", help="decide the extension splitting question")
    split.add_argument("--p", type=int, choices=(3, 7), required=True, help="middle dimension")
    split.add_argument("--r", type=int, required=True, help=f"rank, 1..{SPLIT_RANK_LIMIT}")
    split.add_argument("--modulus", type=int, default=None,
                       help="override the homotopy-model modulus (a positive integer divisible by 4)")
    split.add_argument("--format", choices=("table", "json"), default="table")

    mul = sub.add_parser("mul", help="multiply two serialized group elements")
    mul.add_argument("--lhs", required=True, help="path to the left element document")
    mul.add_argument("--rhs", required=True, help="path to the right element document")
    mul.add_argument("--psi", default=None, help="base refinement bits for membership validation")

    inv = sub.add_parser("inv", help="invert a serialized group element")
    inv.add_argument("--lhs", required=True, help="path to the element document")
    inv.add_argument("--psi", default=None, help="base refinement bits for membership validation")

    verify = sub.add_parser("verify", help="run the seeded property suites")
    verify.add_argument("--r", type=int, required=True, help=f"rank, 1..{VERIFY_RANK_LIMIT}")
    verify.add_argument("--samples", type=int, required=True,
                        help=f"rounds per suite, 1..{VERIFY_SAMPLES_LIMIT}")
    verify.add_argument("--seed", type=int, required=True)
    verify.add_argument("--negative-control", action="store_true",
                        help="inject a law-violating tabulated cocycle (expected failure)")
    verify.add_argument("--format", choices=("table", "json"), default="table")

    coeff = sub.add_parser("coeff", help="tabulate the twist coefficients a_j c_j (2j-1)!")
    coeff.add_argument("--jmax", type=int, required=True)
    coeff.add_argument("--format", choices=("table", "json"), default="table")

    return parser


_HANDLERS = {
    "orbits": _cmd_orbits,
    "split": _cmd_split,
    "mul": _cmd_mul,
    "inv": _cmd_inv,
    "verify": _cmd_verify,
    "coeff": _cmd_coeff,
}


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    # parse_args keeps no state between calls, so one parser serves every call
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code, text = _HANDLERS[args.command](args, _library())
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if text:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
