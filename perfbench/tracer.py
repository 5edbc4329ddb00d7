"""Spans recorded from outside the package, by wrapping its public functions.

Each wrapper is installed at the module binding where callers look the
function up (``qdarwin.darwinism.subsystem_entropy``, not only
``qdarwin.qcore.subsystem_entropy``), so calls made inside the package are
seen too.  ``StateVector`` and ``CorrelatorTable`` are traced through their
``__post_init__``, which keeps the classes themselves, and so ``isinstance``
checks, untouched.

A span is ``[name, start, end, parent, op, amount]``: perf_counter seconds,
the index of the enclosing span (-1 at the root), the id of the benchmark
operation it belongs to, and an optional byte count.  Spans stay in memory
until ``write_csv`` is called.
"""
from __future__ import annotations

import functools
from time import perf_counter

import qdarwin.cli
import qdarwin.darwinism
import qdarwin.estimator
import qdarwin.graphstate
import qdarwin.measurement
import qdarwin.qcore

_CLI = qdarwin.cli
_DARWINISM = qdarwin.darwinism
_ESTIMATOR = qdarwin.estimator
_GRAPHSTATE = qdarwin.graphstate
_MEASUREMENT = qdarwin.measurement
_QCORE = qdarwin.qcore

# (span name, [(object, attribute), ...]): every binding a caller resolves.
TARGETS = (
    ("graphstate.build_graph_state", [(_GRAPHSTATE, "build_graph_state"), (_CLI, "build_graph_state")]),
    ("graphstate.evolve_ising", [(_GRAPHSTATE, "evolve_ising")]),
    ("qcore.apply_gate", [(_QCORE, "apply_gate"), (_GRAPHSTATE, "apply_gate"), (_MEASUREMENT, "apply_gate")]),
    ("qcore.StateVector", [(_QCORE.StateVector, "__post_init__")]),
    ("darwinism.mi_curve", [(_DARWINISM, "mi_curve"), (_ESTIMATOR, "mi_curve"), (_CLI, "mi_curve")]),
    ("darwinism.mutual_information", [(_DARWINISM, "mutual_information")]),
    ("qcore.subsystem_entropy", [(_DARWINISM, "subsystem_entropy")]),
    ("qcore.partial_trace", [(_DARWINISM, "partial_trace")]),
    ("qcore.von_neumann_entropy", [(_DARWINISM, "von_neumann_entropy")]),
    ("measurement.estimate_mi_curve", [(_MEASUREMENT, "estimate_mi_curve")]),
    ("measurement.sample_setting", [(_MEASUREMENT, "sample_setting"), (_CLI, "sample_setting")]),
    ("measurement.estimate_correlators", [(_MEASUREMENT, "estimate_correlators")]),
    ("measurement.mi_curve_from_counts", [(_MEASUREMENT, "mi_curve_from_counts"), (_CLI, "mi_curve_from_counts")]),
    ("estimator.CorrelatorTable", [(_ESTIMATOR.CorrelatorTable, "__post_init__")]),
    ("estimator.reconstruct_density", [(_ESTIMATOR, "reconstruct_density")]),
    ("estimator.diamond_mutual_information", [(_MEASUREMENT, "diamond_mutual_information")]),
    ("qcore.project_to_physical", [(_ESTIMATOR, "project_to_physical")]),
    ("estimator.star_parameters", [(_MEASUREMENT, "star_parameters")]),
    ("estimator.star_mutual_information", [(_MEASUREMENT, "star_mutual_information")]),
)

# Spans whose amount is the bytes of the array they produced.
_BYTES = {"qcore.StateVector": lambda args: args[0].amplitudes.nbytes}


class Recorder:
    """In-memory span log plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self.op = -1
        for name, bindings in TARGETS:
            for owner, attr in bindings:
                original = getattr(owner, attr)
                self._patches.append((owner, attr, original, self._wrap(name, original)))

    def _wrap(self, name: str, fn):
        spans, stack, amount_of = self.spans, self._stack, _BYTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if amount_of is not None:
                span[5] = amount_of(args)
            return result

        return traced

    def call(self, op: int, fn):
        """Run fn() as operation `op` under an "op" root span, with every
        wrapper installed only for its duration."""
        self.op = op
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            return self._wrap("op", fn)()
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)

    def per_op(self) -> dict[int, dict[str, dict[str, float]]]:
        """{op: {span name: {"calls", "total_s", "self_s", "amount"}}}.

        Self time is a span's duration minus the durations of the wrapped
        spans directly inside it.
        """
        child_s = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[int, dict[str, dict[str, float]]] = {}
        for idx, (name, start, end, _, op, amount) in enumerate(self.spans):
            row = out.setdefault(op, {}).setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "amount": 0}
            )
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_s[idx]
            row["amount"] += amount
        return out

    def write_csv(self, path) -> None:
        with open(path, "w") as out:
            out.write("name,start_s,end_s,parent,op,bytes\n")
            for name, start, end, parent, op, amount in self.spans:
                out.write(f"{name},{start!r},{end!r},{parent},{op},{amount}\n")
