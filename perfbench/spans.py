"""Span tracing around calls into ptqsim's public functions, from outside src/.

`Tracer.install` rebinds each traced function in every ``ptqsim.*`` module
namespace that holds it, so calls between modules (and within one module
through its globals) are recorded too. A span is (function, start, end,
parent span, op id, raised); spans are kept in flat arrays in memory until
the run ends. Wrappers record only while `active` is set, so the
benchmark's own correctness checks between ops stay untraced.
"""
from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from pathlib import Path

#: Traced functions as "<module>.<name>", grouped by layer.
TRACED = (
    "model.build_hamiltonian",
    "spectrum.eigenvalues_closed_form",
    "spectrum.eigenvectors_closed_form",
    "spectrum.classify_phase",
    "spectrum.eigensystem_oracle",
    "spectrum.spectrum_closed_form",
    "spectrum.spectrum_oracle",
    "ep.locate_ep",
    "entanglement.eigenstate_concurrence_wootters",
    "entanglement.eigenstate_concurrence_closed",
    "entanglement.concurrence_mixed",
    "entanglement.concurrence_pure",
    "dynamics.propagate",
    "dynamics.detect_revivals",
    "sensing.sensing_sweep",
    "sensing.qfi",
    "sensing.sensitivity_variance",
    "sensing.coherence_expectation",
    "cli.main",
)


class Tracer:
    def __init__(self):
        self.names = list(TRACED)
        self.active = False
        self.op_id = -1
        self._stack: list[int] = []
        self.fn = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.raised = array("b")
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, index: int, fn):
        clock = time.perf_counter_ns
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = len(self.fn)
            self.fn.append(index)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.raised.append(0)
            self.end.append(0)
            stack.append(span)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.raised[span] = 1
                raise
            finally:
                self.end[span] = clock()
                stack.pop()

        return traced

    def install(self):
        """Rebind every traced function in each loaded ptqsim module."""
        originals = {}
        for index, qualname in enumerate(self.names):
            module, name = qualname.rsplit(".", 1)
            fn = getattr(sys.modules[f"ptqsim.{module}"], name)
            originals[id(fn)] = self._wrap(index, fn)
        for modname in sorted(sys.modules):
            if modname != "ptqsim" and not modname.startswith("ptqsim."):
                continue
            module = sys.modules[modname]
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per function: calls, self_ms (span minus direct child spans), errors."""
        n = len(self.fn)
        child_ns = [0] * n
        for s in range(n):
            p = self.parent[s]
            if p >= 0:
                child_ns[p] += self.end[s] - self.start[s]
        out = {name: {"calls": 0, "self_ms": 0.0, "errors": 0} for name in self.names}
        for s in range(n):
            row = out[self.names[self.fn[s]]]
            row["calls"] += 1
            row["self_ms"] += (self.end[s] - self.start[s] - child_ns[s]) / 1e6
            row["errors"] += self.raised[s]
        return out

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans of `name` that have a span of `ancestor` on their parent chain."""
        want, anc = self.names.index(name), self.names.index(ancestor)
        total = 0
        for s in range(len(self.fn)):
            if self.fn[s] != want:
                continue
            p = self.parent[s]
            while p >= 0 and self.fn[p] != anc:
                p = self.parent[p]
            total += p >= 0
        return total

    def inclusive_ms(self, name: str) -> float:
        want = self.names.index(name)
        return sum(self.end[s] - self.start[s]
                   for s in range(len(self.fn)) if self.fn[s] == want) / 1e6

    def write(self, path: Path):
        """Dump all spans as gzip CSV: span,op,parent,function,start_ns,end_ns,raised."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span,op,parent,function,start_ns,end_ns,raised\n")
            for s in range(len(self.fn)):
                fh.write(f"{s},{self.op[s]},{self.parent[s]},{self.names[self.fn[s]]},"
                         f"{self.start[s]},{self.end[s]},{self.raised[s]}\n")
