"""Traced mode: spans around the package's public functions, wrapped from outside.

`Tracer.install` replaces each listed function with a wrapper that records a
span (layer name, parent span, request, start, end), and rebinds every name
under which a `symsplit` module imported the original, so that calls between
modules are caught too (for example `jacobi.principal_at` and `verify.jmul`).
Methods are wrapped on their class.  A request is one `cli.main` call: every
span it causes carries the index of its root span.

Spans stay in memory as flat arrays; self time (a span's duration minus the
durations of its wrapped children) and the counts are computed after the
batch, and the spans are written out when the benchmark ends.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

# (span name, module, attribute)
FUNCTIONS = (
    ("cli.main", "symsplit.cli", "main"),
    ("cli.build_parser", "symsplit.cli", "build_parser"),
    ("cli.element_from_document", "symsplit.cli", "element_from_document"),
    ("cli.element_to_document", "symsplit.cli", "element_to_document"),
    ("mcg.splitting_theorem_verdict", "symsplit.mcg", "splitting_theorem_verdict"),
    ("verify.run_suites", "symsplit.verify", "run_suites"),
    ("jacobi.splits", "symsplit.jacobi", "splits"),
    ("jacobi.gamma_psi_member", "symsplit.jacobi", "gamma_psi_member"),
    ("jacobi.jmul", "symsplit.jacobi", "jmul"),
    ("jacobi.jinv", "symsplit.jacobi", "jinv"),
    ("cocycles.principal_at", "symsplit.cocycles", "principal_at"),
    ("cocycles.check_cocycle_law", "symsplit.cocycles", "check_cocycle_law"),
    ("quadratic.orbit_decomposition", "symsplit.quadratic", "orbit_decomposition"),
    ("quadratic.enumerate_refinements", "symsplit.quadratic", "enumerate_refinements"),
    ("quadratic.is_group_fixed", "symsplit.quadratic", "is_group_fixed"),
    ("quadratic.qtranslate", "symsplit.quadratic", "qtranslate"),
    ("quadratic.qact", "symsplit.quadratic", "qact"),
    ("symplectic.matmul", "symsplit.symplectic", "_matmul"),
    ("symplectic.random_word", "symsplit.symplectic", "random_symplectic_word"),
)

# (span name, class in symsplit.symplectic, method)
METHODS = (
    ("symplectic.construct", "SymplecticMatrix", "__post_init__"),
    ("symplectic.construct", "Covector", "__post_init__"),
    ("symplectic.inverse", "SymplecticMatrix", "inverse"),
    ("symplectic.covector_act", "Covector", "act"),
)

SPANS = tuple(dict.fromkeys(name for name, _, _ in FUNCTIONS + METHODS))


class Tracer:
    """Span recorder: `install`, run a batch, `summary`, `reset`; `uninstall` at the end."""

    def __init__(self) -> None:
        self.names = array("i")
        self.parents = array("i")
        self.requests = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []
        self._hooks = {
            "quadratic.orbit_decomposition": self._on_orbits,
            "jacobi.splits": self._on_splits,
            "jacobi.gamma_psi_member": self._on_member,
            "verify.run_suites": self._on_suites,
        }

    # -- counts taken from return values, at the layer boundary ------------

    def _on_orbits(self, report, span):
        self.counts["quadratic.refinements_classified"] += sum(c.size for c in report.orbits)

    def _on_splits(self, verdict, span):
        self.counts["jacobi.splits.candidates"] += verdict.candidates_checked
        parent = self.parents[span]
        if parent >= 0 and SPANS[self.names[parent]] == "mcg.splitting_theorem_verdict":
            self.counts["splits_in_verdicts"] += 1

    def _on_member(self, member, span):
        self.counts["members"] += bool(member)

    def _on_suites(self, suites, span):
        self.counts["verify.checks"] += sum(s.total for s in suites)

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        ident = SPANS.index(name)
        hook = self._hooks.get(name)
        names, parents, requests = self.names, self.parents, self.requests
        starts, ends, stack = self.starts, self.ends, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = len(names)
            names.append(ident)
            if stack:
                parents.append(stack[-1])
                requests.append(stack[0])
            else:
                parents.append(-1)
                requests.append(span)
            ends.append(0.0)
            stack.append(span)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()
            if hook is not None:
                hook(result, span)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "symsplit" or key.startswith("symsplit.")]
        for name, module_name, attr in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)
        symplectic = sys.modules["symsplit.symplectic"]
        for name, class_name, attr in METHODS:
            cls = getattr(symplectic, class_name)
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def reset(self) -> None:
        for arr in (self.names, self.parents, self.requests, self.starts, self.ends):
            del arr[:]
        self.stack.clear()
        self.counts.clear()

    # -- results -------------------------------------------------------------

    def summary(self) -> tuple[dict, dict]:
        """Per-layer `.calls`, `.self_s` and the derived counts and ratios.

        Returns (counts, self times): counts must repeat exactly for one seed,
        self times are measurements.
        """
        n = len(self.names)
        child = [0.0] * n
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += durations[i]
        calls = [0] * len(SPANS)
        self_s = [0.0] * len(SPANS)
        for i, ident in enumerate(self.names):
            calls[ident] += 1
            self_s[ident] += durations[i] - child[i]
        counts = {f"{name}.calls": calls[k] for k, name in enumerate(SPANS)}
        for key in ("quadratic.refinements_classified", "jacobi.splits.candidates",
                    "verify.checks"):
            counts[key] = self.counts[key]
        split_calls = counts["jacobi.splits.calls"]
        verdicts = counts["mcg.splitting_theorem_verdict.calls"]
        member_calls = counts["jacobi.gamma_psi_member.calls"]
        counts["jacobi.splits.candidates_per_verdict"] = (
            counts["jacobi.splits.candidates"] / split_calls if split_calls else 0)
        counts["mcg.splits_per_verdict"] = (
            self.counts["splits_in_verdicts"] / verdicts if verdicts else 0)
        counts["jacobi.gamma_psi_member.member_ratio"] = (
            self.counts["members"] / member_calls if member_calls else 0)
        times = {f"{name}.self_s": self_s[k] for k, name in enumerate(SPANS)}
        return counts, times

    def write(self, stem: Path) -> None:
        """Spans as five arrays in native byte order in `<stem>.bin`, described by `<stem>.json`."""
        fields = [("name", self.names), ("parent", self.parents), ("request", self.requests),
                  ("start_s", self.starts), ("end_s", self.ends)]
        with open(stem.with_suffix(".bin"), "wb") as fh:
            for _, arr in fields:
                arr.tofile(fh)
        header = {
            "spans": len(self.names),
            "names": list(SPANS),
            "byteorder": sys.byteorder,
            "arrays": [{"field": f, "typecode": a.typecode, "itemsize": a.itemsize}
                       for f, a in fields],
            "clock": "time.perf_counter",
        }
        stem.with_suffix(".json").write_text(json.dumps(header, indent=1) + "\n")
