"""Outside-in per-layer trace of the qclone package.

The modules bind one another's functions with ``from .x import y``, so a
function is wrapped at every ``qclone`` module that binds it, not only where it
is defined.  ``StateVector`` and ``DensityOperator`` are wrapped at their
constructors.  Nothing under ``src/`` changes.

Each wrapped call is a span (name, start, end, parent, report id) kept in
memory.  A span's self time is its duration minus the time its child spans
cover; the program is single-threaded, so children never overlap.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import json
import operator
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


def _nbytes(obj) -> int:
    if obj is None:
        return 0
    array = getattr(obj, "amplitudes", None)
    return (array if array is not None else obj.matrix).nbytes


@dataclass(frozen=True)
class Target:
    """One traced boundary and, optionally, a count measured at it.

    ``measure(args, result)`` feeds the count ``counter``; ``per`` says what
    the reported value is normalised by: "report", "call" or "none".
    """

    span: str
    module: str
    attr: str
    counter: str | None = None
    measure: Callable | None = None
    unit: str = "B/report"
    per: str = "report"
    combine: Callable = operator.add


TARGETS = (
    Target("cli.main", "qclone.cli", "main"),
    Target("cli.render_report", "qclone.cli", "render_report"),
    Target("cli.atomic_write", "qclone.cli", "atomic_write",
           "cli.atomic_write.bytes", lambda a, r: len(a[1].encode())),
    Target("analysis.encryption_audit", "qclone.analysis", "encryption_audit"),
    Target("protocol.prepare_initial", "qclone.protocol", "prepare_initial"),
    Target("protocol.encode", "qclone.protocol", "encode"),
    Target("protocol.encoding_unitary", "qclone.protocol", "encoding_unitary"),
    Target("protocol.decoding_unitary", "qclone.protocol", "decoding_unitary"),
    Target("protocol.decrypt", "qclone.protocol", "decrypt",
           "protocol.decrypt.residual_bytes", lambda a, r: _nbytes(r.residual)),
    Target("protocol.execute_iterated_cloning", "qclone.protocol",
           "execute_iterated_cloning"),
    Target("protocol.decrypt_clone", "qclone.protocol", "decrypt_clone"),
    Target("states.StateVector", "qclone.states", "StateVector.__init__",
           "registers.max_qubits", lambda a, r: a[0].num_qubits,
           unit="qubits", per="none", combine=max),
    Target("states.DensityOperator", "qclone.states", "DensityOperator.__init__",
           "states.DensityOperator.validated_bytes", lambda a, r: _nbytes(a[0])),
    Target("states.partial_trace", "qclone.states", "partial_trace",
           "states.partial_trace.out_bytes", lambda a, r: _nbytes(r)),
    Target("states.trace_distance", "qclone.states", "trace_distance"),
    # Computed, not measured: bytes of the input plus the output array.
    Target("states.apply_unitary", "qclone.states", "apply_unitary",
           "states.apply_unitary.amp_bytes", lambda a, r: _nbytes(a[0]) + _nbytes(r)),
    Target("states.kron_states", "qclone.states", "kron_states"),
    Target("paulis.PauliString.to_matrix", "qclone.paulis", "PauliString.to_matrix"),
    Target("circuits.circuit_to_unitary", "qclone.circuits", "circuit_to_unitary",
           "circuits.circuit_to_unitary.gates_applied", lambda a, r: len(a[0].gates),
           unit="gates/report"),
    Target("circuits.equivalence_up_to_global_phase", "qclone.circuits",
           "equivalence_up_to_global_phase"),
    Target("circuits.export_circuit", "qclone.circuits", "export_circuit",
           "circuits.export_circuit.bytes", lambda a, r: len(r.encode())),
    Target("compiler.compile_encoding", "qclone.compiler", "compile_encoding",
           "compiler.compile_encoding.two_qubit_gates",
           lambda a, r: r.two_qubit_count, unit="gates/call", per="call"),
    Target("compiler.compile_decoding", "qclone.compiler", "compile_decoding",
           "compiler.compile_decoding.two_qubit_gates",
           lambda a, r: r.two_qubit_count, unit="gates/call", per="call"),
)

SPAN_FIELDS = ("id", "name", "start_s", "end_s", "parent", "report")


class Tracer:
    """Spans and per-boundary totals for the calls made while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.calls: Counter = Counter()
        self.total_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: dict[str, float] = {t.counter: 0 for t in TARGETS if t.counter}
        self.reports = 0
        self._stack: list[list] = []  # [span id, start, time covered by children]
        self._patches: list[tuple[object, str, object]] = []

    def _enter(self, name: str) -> None:
        if not self._stack:
            self.reports += 1
        parent = self._stack[-1][0] if self._stack else None
        span_id = len(self.spans)
        start = time.perf_counter()
        self.spans.append([span_id, name, start, None, parent, self.reports])
        self._stack.append([span_id, start, 0.0])

    def _exit(self, name: str) -> None:
        end = time.perf_counter()
        span_id, start, covered = self._stack.pop()
        self.spans[span_id][3] = end
        duration = end - start
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - covered
        if self._stack:
            self._stack[-1][2] += duration

    def _wrap(self, target: Target, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._enter(target.span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(target.span)
            if target.counter:
                value = target.measure(args, result)
                tracer.counts[target.counter] = target.combine(
                    tracer.counts[target.counter], value
                )
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    @contextmanager
    def installed(self):
        """Wrap every target at every binding site; restore them on exit."""
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "qclone"]
        try:
            for target in TARGETS:
                owner = importlib.import_module(target.module)
                if "." in target.attr:
                    cls_name, method = target.attr.split(".")
                    cls = getattr(owner, cls_name)
                    self._patch(cls, method, self._wrap(target, cls.__dict__[method]))
                    continue
                original = getattr(owner, target.attr)
                wrapper = self._wrap(target, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()

    def metrics(self) -> dict[str, dict]:
        """Every boundary's calls, total and self time per report, and its count."""
        reports = max(self.reports, 1)
        out: dict[str, dict] = {}
        for t in TARGETS:
            name = t.span
            out[f"{name}.calls"] = {"value": self.calls[name] / reports, "unit": "calls/report"}
            out[f"{name}.total_s"] = {"value": self.total_s[name] / reports, "unit": "s/report"}
            out[f"{name}.self_s"] = {"value": self.self_s[name] / reports, "unit": "s/report"}
            if t.counter:
                base = {"report": reports, "call": max(self.calls[name], 1), "none": 1}[t.per]
                out[t.counter] = {"value": self.counts[t.counter] / base, "unit": t.unit}
        return out

    def write_spans(self, path) -> None:
        """Gzipped JSON lines: a header naming the fields, then one array per span."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"fields": SPAN_FIELDS}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
