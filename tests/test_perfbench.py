"""The benchmark's tracer wraps program names, which must keep resolving,
and its witness cases must pass its own output check."""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

from traceweight.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_every_name_the_tracer_wraps_resolves():
    tracer = _load(TRACER, "perfbench_tracer")
    names = [(module, attr) for module, attr, _ in tracer.SPANNED + tracer.COUNTED]
    missing = [(module, attr) for module, attr in names
               if not hasattr(importlib.import_module(module), attr)]
    assert names and missing == []
    assert callable(importlib.import_module("traceweight.fields").FieldCtx.require_tables)


def test_benchmark_witness_cases_pass_the_benchmark_check(capsys):
    workloads = _load(PERFBENCH / "workloads.py", "perfbench_workloads")
    cases = [c for c in workloads.cases_for("setup", 0) if c.kind == "witness"]
    assert sorted((c.q, c.m) for c in cases) == sorted(workloads.WITNESSES)
    for case in cases:
        rc = main(list(case.argv))
        doc = json.loads(capsys.readouterr().out)
        assert workloads.check_witness(case, rc, doc) is None, case.name
