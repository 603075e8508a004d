"""Span tracing installed from outside the program.

``Tracer.installed`` swaps the public functions of each layer for wrappers
that record a span (name, start, end, parent) per call, and puts the
originals back on exit.  The core stage functions are wrapped under the
names ``msdc.memory`` binds them to, since that is where the model calls
them; snapshot functions are also wrapped where ``msdc.cli`` binds them.
No file of the program changes.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

from msdc import cli, experiments, memory, snapshot

CORE_STAGES = (
    "compute_u",
    "normalize_u",
    "familiarity",
    "eta_for_familiarity",
    "mu_from_u",
    "rho_from_mu",
    "draw_winners",
    "hard_max_winners",
    "apply_learning",
)
EXPERIMENT_FUNCTIONS = (
    "build_appendix_corpus",
    "run_scenario",
    "aggregate_records",
    "similarity_rank_correlation",
    "emit_results",
)
SNAPSHOT_FUNCTIONS = ("encode_model", "decode_model", "atomic_write_bytes")


def _targets():
    """(owner object, attribute, span name) for every wrapped function."""
    yield from ((memory, name, f"core.{name}") for name in CORE_STAGES)
    for attr, span in (
        ("__init__", "memory.init"),
        ("store", "memory.store"),
        ("retrieve", "memory.retrieve"),
        ("belief_update", "memory.belief_update"),
    ):
        yield memory.MemoryModel, attr, span
    for name in SNAPSHOT_FUNCTIONS:
        yield snapshot, name, f"snapshot.{name}"
        if hasattr(cli, name):
            yield cli, name, f"snapshot.{name}"
    yield from ((experiments, name, f"experiments.{name}") for name in EXPERIMENT_FUNCTIONS)


class Tracer:
    """Spans kept in memory, grouped by the workload segment that made them."""

    def __init__(self):
        self.spans: list[tuple[str, int, int, int]] = []
        self.segments: dict[str, tuple[int, int]] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Record one span around a block of the benchmark's own code."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)

    def _wrap(self, name: str, fn):
        # The same bookkeeping as ``span``, inlined: a generator-based context
        # manager would add about a microsecond to every wrapped call, which
        # is a large share of a core stage's self time.
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return traced

    @contextmanager
    def installed(self, segment: str):
        """Wrap every layer's functions while the block runs, as ``segment``."""
        saved = []
        for owner, attr, name in _targets():
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        first = len(self.spans)
        try:
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            self.segments[segment] = (first, len(self.spans))

    def self_times_us(self, segment: str) -> dict[str, list[float]]:
        """Per span name, each span's duration minus its children's, in us."""
        first, last = self.segments[segment]
        child_ns = [0] * (last - first)
        for name, start, end, parent in self.spans[first:last]:
            if parent >= first:
                child_ns[parent - first] += end - start
        out: dict[str, list[float]] = {}
        for (name, start, end, _), children in zip(self.spans[first:last], child_ns):
            out.setdefault(name, []).append((end - start - children) / 1e3)
        return out
