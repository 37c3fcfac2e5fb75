#!/usr/bin/env python3
"""Digest the outputs of a fixed set of CLI calls, per command, and compare two checkouts.

Run from anywhere:

    python3 scripts/output_digest.py CHECKOUT [CHECKOUT]

Each CHECKOUT is a checkout of this repository.  The script runs one fixed
call set through each checkout's own `symsplit.cli.main`, in this process,
with the package imported from the checkout's `src` and dropped again after
its last call.  The set is:

- every argv of `tests/golden/cases.json`;
- the calls of the three perfbench batches (`perfbench/workloads.py`, loaded
  by path) for each seed of BATCH_SEEDS;
- `verify --r 1..8` for each seed of VERIFY_SEEDS and sample count of
  VERIFY_SAMPLES, as a table and as JSON, with and without
  `--negative-control`;
- the exit-contract edge cases of `tests/test_cli.py`: every argv of its
  `DISPATCH_EDGES`, and each document of `test_document_validation` read by
  `inv` and by `mul` on either side, plus the `--psi` strings of PSI_EDGES.

The calls are read from this script's own repository, so every checkout runs
the same ones.  The element documents they read are written to a temporary
directory, which is the working directory while the calls run, so argv and
output name them by relative paths and no digest depends on where that
directory is.

A call's digest is the sha256 of the JSON list [argv, exit code, stdout,
stderr], with COLUMNS=80 so that argparse wraps its text alike everywhere; a
command's digest is the sha256 of its calls' digests in order.  The script
prints, per command (the first argv token, or "(other)" when it names no
command), the number of calls and each checkout's digest, then the same over
all calls.

Exit codes: 0 one checkout, or two with identical outputs; 1 two checkouts
differ, and stderr names the first call whose output differs; 2 a usage
error or a checkout without `src/symsplit`.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import shlex
import sys
import tempfile
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent

COMMANDS = ("orbits", "split", "mul", "inv", "verify", "coeff")
BATCH_SEEDS = (7, 8)
VERIFY_SEEDS = (1, 2, 7, -3)
VERIFY_SAMPLES = (1, 20)
PSI_EDGES = ("01", "10", "0", "012", "1x", "x1", "0 ", "٠١")  # for a rank-1 element


def _literal(path: Path, name: str, function: str | None = None):
    """The literal assigned to name at the top level of the Python file path, or in its function."""
    scope = ast.parse(path.read_text(encoding="utf-8")).body
    if function is not None:
        scope = next(node.body for node in scope
                     if isinstance(node, ast.FunctionDef) and node.name == function)
    return next(ast.literal_eval(node.value) for node in scope if isinstance(node, ast.Assign)
                and [getattr(target, "id", None) for target in node.targets] == [name])


def _workloads():
    """perfbench/workloads.py of this repository, loaded by path."""
    perfbench = str(ROOT / "perfbench")
    sys.path.insert(0, perfbench)  # workloads imports its sibling `reference` by name
    try:
        spec = importlib.util.spec_from_file_location("_digest_workloads", ROOT / "perfbench" / "workloads.py")
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(perfbench)
    return module


def call_set(workdir: Path) -> list[tuple[str, ...]]:
    """Every argv of the fixed set, in order; the documents they read are written under workdir."""
    cases = json.loads((ROOT / "tests" / "golden" / "cases.json").read_text(encoding="utf-8"))
    calls = [tuple(case["argv"]) for case in cases.values()]
    workloads = _workloads()
    for seed in BATCH_SEEDS:
        for build in workloads.WORKLOADS.values():
            calls += [call.argv for call in build(seed, workdir / f"seed{seed}").calls]
    for r in range(1, 9):
        for seed in VERIFY_SEEDS:
            for samples in VERIFY_SAMPLES:
                for flags in ((), ("--negative-control",)):
                    for fmt in ((), ("--format", "json")):
                        calls.append(("verify", "--r", str(r), "--samples", str(samples),
                                      "--seed", str(seed), *flags, *fmt))
    test_cli = ROOT / "tests" / "test_cli.py"
    calls += [tuple(argv) for argv in _literal(test_cli, "DISPATCH_EDGES")]
    identity = workdir / "identity.json"
    identity.write_text(json.dumps({"r": 1, "modulus": 0, "x": [0, 0], "A": [[1, 0], [0, 1]]}))
    for i, (doc, _) in enumerate(_literal(test_cli, "cases", "test_document_validation")):
        path = workdir / f"document{i:02d}.json"
        path.write_text(json.dumps(doc))
        calls += [("inv", "--lhs", str(path)), ("mul", "--lhs", str(path), "--rhs", str(identity)),
                  ("mul", "--lhs", str(identity), "--rhs", str(path))]
    calls += [("inv", "--lhs", str(identity), "--psi", bits) for bits in PSI_EDGES]
    return calls


@contextlib.contextmanager
def _package(src: Path):
    """symsplit imported from src inside the block; the modules it displaced come back after."""
    def ours(name: str) -> bool:
        return name == "symsplit" or name.startswith("symsplit.")

    saved = {name: sys.modules.pop(name) for name in [*filter(ours, sys.modules)]}
    sys.path.insert(0, str(src))
    try:
        yield importlib.import_module("symsplit.cli")
    finally:
        sys.path.remove(str(src))
        for name in [*filter(ours, sys.modules)]:
            del sys.modules[name]
        sys.modules.update(saved)


def run_calls(src: Path, calls) -> list[str]:
    """Each call's digest, in order, the calls run through the `symsplit.cli.main` of src."""
    digests = []
    with _package(src) as cli, mock.patch.dict(os.environ, COLUMNS="80"):
        for argv in calls:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(list(argv))
                except Exception as exc:  # a traceback breaks the exit contract: digest it as one
                    code = f"raised {exc!r}"
            record = json.dumps([list(argv), code, out.getvalue(), err.getvalue()])
            digests.append(hashlib.sha256(record.encode()).hexdigest())
    return digests


def _digest(digests) -> str:
    return hashlib.sha256("".join(digests).encode()).hexdigest()


def main(argv=None, build=call_set) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path)
    parser.add_argument("other", type=Path, nargs="?", help="a second checkout to compare with")
    args = parser.parse_args(argv)
    checkouts = [path.resolve() for path in (args.checkout, args.other) if path is not None]
    for path in checkouts:
        if not (path / "src" / "symsplit" / "cli.py").is_file():
            print(f"error: {path} has no src/symsplit/cli.py", file=sys.stderr)
            return 2

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="symsplit-digest-") as tmp:
        os.chdir(tmp)
        try:
            with _package(ROOT / "src"):  # perfbench's verify batch warms the package's caches
                calls = build(Path("."))
            runs = [run_calls(path / "src", calls) for path in checkouts]
        finally:
            os.chdir(cwd)

    groups: dict[str, list[int]] = {}
    for i, call in enumerate(calls):
        groups.setdefault(call[0] if call and call[0] in COMMANDS else "(other)", []).append(i)
    groups["(all)"] = list(range(len(calls)))
    print(f"{'command':<8} {'calls':>5}  " + "  ".join(f"sha256 of {path}" for path in checkouts))
    for name, indices in groups.items():
        digests = [_digest([run[i] for i in indices]) for run in runs]
        shown = [digests[0], *("same" if d == digests[0] else d for d in digests[1:])]
        print(f"{name:<8} {len(indices):>5}  " + "  ".join(shown))
    differing = [call for call, *outcomes in zip(calls, *runs) if len(set(outcomes)) > 1]
    if differing:
        print(f"{len(differing)} of {len(calls)} calls differ; the first differing call:"
              f" {shlex.join(differing[0])}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
