"""Admission: refusals and usage errors are decided by the standard library
alone, before numpy or the engine is imported."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import traceweight
from traceweight.admission import (TIER_BUDGETS, BudgetExceeded, FieldSizeError,
                                   choose_oracle, default_workers)

# the directory traceweight is imported from, for the fresh interpreters
IMPORT_ROOT = str(Path(traceweight.__file__).resolve().parents[1])

# Runs the CLI, then prints its exit status and which of the heavy modules
# it loaded as the last line of stdout.
CLI_PROBE = """
import json, sys
from traceweight.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
heavy = [name for name in ("numpy", "traceweight.engine") if name in sys.modules]
print(json.dumps({"code": code, "heavy": heavy}))
"""


def fresh_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [IMPORT_ROOT] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("argv,code", [
    (["verify", "--family", "D", "--q", "2", "--m", "5", "--tier", "standard"], 3),
    (["verify", "--family", "D", "--q", "3", "--m", "4", "--tier", "quick"], 3),
    (["verify", "--family", "C", "--q", "257", "--m", "1"], 3),
    (["witness", "--q", "2", "--m", "4"], 3),
    (["verify", "--family", "D", "--q", "6", "--m", "2"], 2),
])
def test_refusals_and_usage_errors_never_import_numpy(argv, code):
    result = json.loads(fresh_python("-c", CLI_PROBE, *argv).splitlines()[-1])
    assert result == {"code": code, "heavy": []}


def test_admission_imports_only_the_standard_library():
    out = fresh_python("-c", "import json, sys, traceweight.admission\n"
                             "print(json.dumps(sorted(m for m in sys.modules "
                             "if m.split('.')[0] in ('numpy', 'traceweight'))))")
    assert json.loads(out) == ["traceweight", "traceweight.admission"]


def test_choose_oracle_prefers_brute_then_the_sweep():
    assert choose_oracle(2, 4, "D", "standard", TIER_BUDGETS["standard"]) == "brute"
    assert choose_oracle(2, 5, "D", "extended", TIER_BUDGETS["extended"]) == "rank_sweep"
    with pytest.raises(BudgetExceeded) as err:
        choose_oracle(2, 5, "D", "standard", TIER_BUDGETS["standard"])
    assert type(err.value) is BudgetExceeded and "tier 'standard'" in str(err.value)
    # both oracles over the exp/log-table bound: a size refusal
    with pytest.raises(FieldSizeError):
        choose_oracle(128, 2, "D", "extended", 2**90)


def test_default_workers_counts_the_cpus_the_process_may_run_on(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
    assert default_workers() == 2
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert default_workers() == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert default_workers() == 1
