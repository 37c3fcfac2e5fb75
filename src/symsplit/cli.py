"""Command line surface: deterministic reports and serialized group arithmetic.

Exit codes: 0 success, 1 verified-property failure (including membership
violations and a failed internal check), 2 input error, a closed stdout or
running out of memory.  Every `ValueError` a command raises is an input error,
printed as "error: <text>" on stderr with exit code 2.  So each rank and
sample limit, and the middle dimension `--p`, is checked once, by the library
call it bounds.  The rank and
modulus of an element document and `--jmax`, which no library call bounds, go
through the library's integer guard `symplectic._check_int`, so this module
words no integer bound itself; it checks only the shape of element documents
and `--psi`.  An `ArithmeticError`, which the library raises when an internal
check fails (such as the inverse's postcondition), is printed the same way
with exit code 1, and a `MemoryError` as "error: out of memory" with exit
code 2, so no error ends in a traceback.  JSON reports are byte-deterministic
for fixed inputs and seed, and embed the seed and package version.
A command line in the plain form (exact option strings, each once with one
valid value) is read straight from the command's own argparse action table;
one top-level argparse parse reads every other line and words all help and errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence
from functools import lru_cache
from itertools import chain, repeat
from types import SimpleNamespace

from . import __version__
from .limits import (DECOMPOSITION_RANK_LIMIT, ELEMENT_RANK_LIMIT, SPLIT_RANK_LIMIT,
                     VERIFY_RANK_LIMIT, VERIFY_SAMPLES_LIMIT)

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


@lru_cache(maxsize=None)  # no arguments: one entry
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
    # an optional sign and decimal digits: int() reads them, and beyond them only
    # underscores and surrounding whitespace, which are refused before it parses
    if isinstance(value, str) and "_" not in value and value.strip() == value:
        try:
            return int(value)
        except ValueError as exc:
            if (value[1:] if value[:1] in "+-" else value).isdecimal():  # only the digit limit
                raise ValueError(f"integer entry exceeds the {sys.get_int_max_str_digits()}-digit"
                                 " decimal input limit") from exc
    raise ValueError(f"expected an integer or decimal string, got {value!r}")


def _encode_rows(rows) -> list:
    # one C-level min/max pass over the whole document; entry by entry only when it leaves 64 bits
    if _INT64_MIN <= min(map(min, rows)) and max(map(max, rows)) <= _INT64_MAX:
        return [*map(list, rows)]
    return [[*map(_encode_int, row)] for row in rows]


def _decode_rows(rows):
    # JSON integers (bools excluded: their type is bool) pass as they are, in one C-level
    # type pass over the whole document; else entry by entry, which also reports the bad entry
    if set(map(type, chain.from_iterable(rows))) == {int}:
        return rows
    return [[*map(_decode_int, row)] for row in rows]


def element_to_document(g) -> dict:
    x, *a = _encode_rows((g.x.coords, *g.a.rows))
    return {"r": g.rank, "modulus": _encode_int(g.modulus), "x": x, "A": a}


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
    (coords,) = _decode_rows((x_raw,))
    if m and not (0 <= min(coords) and max(coords) < m):
        raise ValueError("x entries must lie in [0, modulus)")
    if (not isinstance(a_raw, list) or len(a_raw) != 2 * r
            or not all(map(isinstance, a_raw, repeat(list))) or set(map(len, a_raw)) != {2 * r}):
        raise ValueError("A must be a 2r x 2r matrix")
    # the constructor reads the entries' types once more, in one pass of its own
    a = lib.symplectic.SymplecticMatrix(_decode_rows(a_raw))
    return lib.jacobi.JacobiElement(lib.symplectic.Covector(coords, m), a)


def _parse_psi(bits: str, r: int):
    if len(bits) != 2 * r or bits.strip("01"):
        raise ValueError(f"--psi must be a string of 2r = {2 * r} bits")
    # the bytes 48 and 49 of "0" and "1" have the parities the constructor keeps
    return _library().quadratic.QuadraticRefinement(bits.encode())


@lru_cache(maxsize=None)  # no arguments: one entry
def _json_encode():
    """`json.dumps(value, sort_keys=True)` as one encoder's bound method, built once."""
    import json  # here, not at the top: a start that writes no JSON never loads it
    return json.JSONEncoder(sort_keys=True).encode


def _report(command: str, parameters: dict, results: dict, seed: int | None = None) -> str:
    """The JSON report; a command builds this or its table lines, never both."""
    return _json_encode()({"command": command, "parameters": parameters, "results": results,
                           "seed": seed, "version": __version__}) + "\n"


def _bits(values) -> str:
    return "".join(str(b) for b in values)


def _cmd_orbits(args, lib) -> tuple[int, str]:
    r = args.r
    rep = lib.quadratic.orbit_decomposition(r)
    exp = lib.quadratic.expected_orbit_sizes(r)
    labels = tuple(c.arf_label for c in rep.orbits)
    sizes = tuple(c.size for c in rep.orbits)
    passed = labels == (0, 1) and sizes == exp
    code = 0 if passed else 1
    if args.format == "json":
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
        return code, _report("orbits", {"r": r}, results)
    # right-aligned columns, each as wide as its header or its widest entry
    size_w = max(len("size"), *(len(str(c.size)) for c in rep.orbits))
    exp_w = max(len("expected"), *(len(str(e)) for e in exp))
    lines = [f"orbits  r={r}  version={__version__}",
             f"arf  {'size':>{size_w}}  {'expected':>{exp_w}}  representative"]
    for c, e in zip(rep.orbits, exp):
        lines.append(f"{c.arf_label:>3}  {c.size:>{size_w}}  {e:>{exp_w}}  {_bits(c.representative.basis_values)}")
    lines.append(f"formulas: {'PASS' if passed else 'FAIL'}")
    return code, "\n".join(lines) + "\n"


def _verdict_dict(v, modulus: int) -> dict:
    return {
        "modulus": modulus,
        "splits": v.splits,
        "base": list(v.base.basis_values),
        "witness": None if v.witness is None else list(v.witness.coords),
        "fixed_refinement": None if v.fixed_refinement is None else list(v.fixed_refinement.basis_values),
        "candidates_checked": v.candidates_checked,
        "section": "A -> (x.A - x, A) for x any lift of witness" if v.splits else None,
    }


def _cmd_split(args, lib) -> tuple[int, str]:
    r = args.r
    theorem = lib.mcg.splitting_theorem_verdict(args.p, r)
    v, m = theorem.verdict, theorem.params.homotopy_modulus
    if args.format == "json":
        results = {
            "p": args.p,
            "r": r,
            "smooth": _verdict_dict(v, 0),
            "homotopy": _verdict_dict(v, m),
            "verdicts_agree": True,  # one verdict answers for both models
        }
        return 0, _report("split", {"p": args.p, "r": r}, results)
    # the modulus is 0, 24 or 240, so its column is as wide as its header
    lines = [f"split  p={args.p}  r={r}  version={__version__}",
             "flavor    modulus  splits  witness"]
    witness = _bits(v.witness.coords) if v.witness is not None else "-"
    for flavor, modulus in (("smooth", 0), ("homotopy", m)):
        lines.append(f"{flavor:<9} {modulus:>7}  {'yes' if v.splits else 'no':<6}  {witness}")
    if v.splits:
        lines.append("section: A -> (x.A - x, A) for x any lift of the witness")
    else:
        lines.append("obstruction: a fixed translate is 1 at every u_i and v_i,"
                     " but all ones, the only such refinement, is 0 at u1 + u2")
    return 0, "\n".join(lines) + "\n"


def _load_document(path: str) -> object:
    """The JSON value in the file at path, read as UTF-8 text with universal newlines."""
    import json
    try:
        with open(path, "rb") as f:
            payload = f.read().decode()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text") from exc
    if "\r" in payload:  # as text mode reads it, so an error's line and column stay the same
        payload = payload.replace("\r\n", "\n").replace("\r", "\n")
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
    return 0, _json_encode()(element_to_document(out)) + "\n"


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
    code = 0 if all_ok else 1
    if args.format == "json":
        results = {
            "r": args.r,
            "samples": args.samples,
            "suites": [{"name": s.name, "passed": s.passed, "total": s.total, "ok": s.ok}
                       for s in suites],
            "all_ok": all_ok,
        }
        seed = _encode_int(args.seed)
        params = {"r": args.r, "samples": args.samples, "seed": seed,
                  "negative_control": bool(args.negative_control)}
        return code, _report("verify", params, results, seed=seed)
    lines = [f"verify  r={args.r}  samples={args.samples}  seed={args.seed}  version={__version__}",
             "suite             passed  total  ok"]
    for s in suites:
        lines.append(f"{s.name:<16} {s.passed:>7} {s.total:>6}  {'yes' if s.ok else 'NO'}")
    lines.append(f"all suites: {'PASS' if all_ok else 'FAIL'}")
    return code, "\n".join(lines) + "\n"


def _cmd_coeff(args, lib) -> tuple[int, str]:
    lib.symplectic._check_int(args.jmax, "--jmax", 1)
    rows = []
    for j in range(1, args.jmax + 1):
        a, c, f = lib.mcg.pontryagin_parts(j)
        rows.append({"j": j, "a": a, "c": c, "odd_factorial": _encode_int(f),
                     "coefficient": _encode_int(a * c * f)})
    if args.format == "json":
        return 0, _report("coeff", {"jmax": args.jmax}, {"jmax": args.jmax, "rows": rows})
    width = max(16, *(len(str(row["odd_factorial"])) for row in rows))
    lines = [f"coeff  jmax={args.jmax}  version={__version__}",
             f"j    a  c  {'(2j-1)!':<{width}} coefficient"]
    for row in rows:
        lines.append(f"{row['j']:<4} {row['a']}  {row['c']}  {row['odd_factorial']!s:<{width}} {row['coefficient']}")
    return 0, "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symsplit",
        description="Exact symplectic-group, refinement-orbit and extension-splitting reports.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # each command's parser by name, as add_parser fills it

    orbits = sub.add_parser("orbits", help="decompose quadratic refinements into orbits")
    orbits.add_argument("--r", type=int, required=True, help=f"rank, 1..{DECOMPOSITION_RANK_LIMIT}")
    orbits.add_argument("--format", choices=("table", "json"), default="table")

    split = sub.add_parser("split", help="decide the extension splitting question")
    split.add_argument("--p", type=int, required=True, help="middle dimension, 3 or 7")
    split.add_argument("--r", type=int, required=True, help=f"rank, 1..{SPLIT_RANK_LIMIT}")
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


@lru_cache(maxsize=None)  # no arguments: one entry
def _parser() -> argparse.ArgumentParser:
    # parsing keeps no state in the parsers between calls, so one set serves every call
    return build_parser()


@lru_cache(maxsize=8)  # one entry per command, and build_parser defines six
def _plain_table(command: str) -> tuple:
    """(command parser, its actions by exact option string, its required actions, its defaults).

    All four are read from argparse's own tables for the command, which the
    `add_argument` calls of `build_parser` fill.  Only actions that take one
    value or none enter the option table; help and version, whose default is
    SUPPRESS, do not.  The defaults are those `parse_known_args` gives an
    absent option (it would also convert a string default by the action's
    type, but no default here is a string with a type).
    """
    sub = _parser().commands[command]
    options = {s: a for s, a in sub._option_string_actions.items()
               if a.default is not argparse.SUPPRESS and a.nargs in (None, 0)}
    defaults = {a.dest: a.default for a in sub._actions
                if a.dest is not argparse.SUPPRESS and a.default is not argparse.SUPPRESS}
    return sub, options, frozenset(a for a in sub._actions if a.required), defaults


def _read_plain(command: str, tokens: Sequence[str]) -> argparse.Namespace | None:
    """The namespace the command's `parse_known_args` gives tokens in the plain form, else None.

    The plain form: each option is an exact option string of the command, at
    most once, followed by one value unless it is a flag; no value starts with
    "-"; each value converts by its action's type and lies in its choices; and
    every required option is present.  Anything else (help, "--opt=value", an
    abbreviation, "--", a negative number, a repeat, a bad or missing value) is
    None, so argparse parses it and words every help text and error.
    """
    sub, options, required, defaults = _plain_table(command)
    args = argparse.Namespace(**defaults)
    seen = set()
    rest = iter(tokens)
    for token in rest:
        action = options.get(token)
        if action is None or action in seen:
            return None
        seen.add(action)
        value = []  # what argparse hands a flag's action
        if action.nargs is None:
            value = next(rest, "-")
            if value[:1] == "-":
                return None
            if action.type is not None:
                try:
                    value = action.type(value)
                except (TypeError, ValueError, argparse.ArgumentTypeError):
                    return None
            if action.choices is not None and value not in action.choices:
                return None
        action(sub, args, value, token)
    return args if required <= seen else None


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _parser()
    if len(argv) > 1 and argv[0] == "--" and argv[1] in parser.commands:
        argv = argv[1:]  # the end-of-options marker before a command, read as newer argparse reads it
    command = argv[0] if argv else None
    try:
        args = _read_plain(command, argv[1:]) if command in parser.commands else None
        if args is None:
            args = parser.parse_args(argv)
            command = args.command
    except SystemExit as exc:
        # help and version text wait in the stdout buffer: the flush below catches a closed pipe
        code, text = (exc.code if isinstance(exc.code, int) else 2), ""
    else:
        try:
            code, text = _HANDLERS[command](args, _library())
        except (ValueError, ArithmeticError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1 if isinstance(exc, ArithmeticError) else 2  # a failed internal check is 1
        except MemoryError:
            print("error: out of memory", file=sys.stderr)
            return 2
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: fd 1 on devnull keeps the interpreter's exit flush quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: stdout closed before the output was written", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
