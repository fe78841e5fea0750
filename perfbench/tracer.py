"""In-memory span recorder for one benchmark process.

Spans are recorded from outside the program: `install` replaces public
attributes of the traceweight modules with wrappers that time each call.
A span is [name, start, end, parent], with times from time.monotonic(),
which every process on the machine reads from the same clock, so the
parent can place a child's spans on its own timeline.  Nothing is
written until the process ends.
"""

from __future__ import annotations

import importlib
import time

# (module, attribute, span name).  A module that imports a function by
# name holds its own reference, so each importing module is wrapped.
SPANNED = (
    ("traceweight.cli", "verify", "engine.verify"),
    ("traceweight.cli", "make_field", "fields.make_field"),
    ("traceweight.cli", "build_code", "codes.build_code"),
    ("traceweight.cli", "predict", "spectra.predict"),
    ("traceweight.cli", "cayley_spectrum", "hermitian.cayley_spectrum"),
    ("traceweight.cli", "rank1_count", "hermitian.rank1_count"),
    ("traceweight.cli", "verify_isomorphism", "hermitian.verify_isomorphism"),
    ("traceweight.engine", "make_field", "fields.make_field"),
    ("traceweight.engine", "build_code", "codes.build_code"),
    ("traceweight.engine", "predict", "spectra.predict"),
    ("traceweight.engine", "brute_distribution", "engine.brute_distribution"),
    ("traceweight.engine", "rank_sweep", "engine.rank_sweep"),
    ("traceweight.engine", "measure_rank_counts", "engine.measure_rank_counts"),
    ("traceweight.engine", "assemble_distribution", "spectra.assemble_distribution"),
    ("traceweight.fields", "make_field", "fields.make_field"),
    ("traceweight.fields", "find_primitive_modulus", "fields.find_primitive_modulus"),
    ("traceweight.codes", "build_code", "codes.build_code"),
    ("traceweight.spectra", "predict", "spectra.predict"),
    ("traceweight.quadforms", "big_T", "quadforms.big_T"),
    ("traceweight.quadforms", "s_histogram", "quadforms.s_histogram"),
    ("traceweight.quadforms", "r_histogram", "quadforms.r_histogram"),
)

# (module, attribute, counter name): calls counted, not timed.
COUNTED = (
    ("traceweight.hermitian", "hermitian_at", "hermitian.matrices"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def record(self, name: str, start: float, end: float):
        """Add a finished span under the currently open one."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent])

    def timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            span = [name, time.monotonic(), None,
                    self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[2] = time.monotonic()
        return wrapper

    def counted(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        for module, attr, name in SPANNED:
            mod = importlib.import_module(module)
            setattr(mod, attr, self.timed(name, getattr(mod, attr)))
        for module, attr, name in COUNTED:
            mod = importlib.import_module(module)
            setattr(mod, attr, self.counted(name, getattr(mod, attr)))
        # require_tables runs on every exp/log lookup; only the call that
        # actually builds the tables (its table slot still empty) is a span.
        from traceweight.fields import FieldCtx
        build = self.timed("fields.require_tables", FieldCtx.require_tables)
        no_op = FieldCtx.require_tables

        def require_tables(ctx):
            if getattr(ctx, "_log", None) is None:
                return build(ctx)
            return no_op(ctx)
        FieldCtx.require_tables = require_tables


def self_times(spans) -> dict[str, float]:
    """Seconds per span name with the time of direct children removed."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = {}
    for (name, start, end, _), inner in zip(spans, child_time):
        out[name] = out.get(name, 0.0) + (end - start) - inner
    return out


def totals(spans) -> dict[str, float]:
    """Seconds per span name including children."""
    out: dict[str, float] = {}
    for name, start, end, _ in spans:
        out[name] = out.get(name, 0.0) + (end - start)
    return out
