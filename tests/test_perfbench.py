"""The benchmark's tracer wraps program names, which must keep resolving."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_name_the_tracer_wraps_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = [(module, attr) for module, attr, _ in tracer.SPANNED + tracer.COUNTED]
    missing = [(module, attr) for module, attr in names
               if not hasattr(importlib.import_module(module), attr)]
    assert names and missing == []
    assert callable(importlib.import_module("traceweight.fields").FieldCtx.require_tables)
