"""Admission: refusals and usage errors are decided by the standard library
alone, before numpy or the engine is imported."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import traceweight
from traceweight.admission import (TIER_BUDGETS, BudgetExceeded, FieldSizeError,
                                   brute_work, check_witness_budget, choose_oracle,
                                   default_workers, rank_sweep_work)

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
    # phi(2^4 - 1)/4 = 2 primitive moduli of degree 4 over F_2
    (["verify", "--family", "D", "--q", "2", "--m", "2", "--modulus-rank", "2"], 2),
])
def test_refusals_and_usage_errors_never_import_numpy(argv, code):
    result = json.loads(fresh_python("-c", CLI_PROBE, *argv).splitlines()[-1])
    assert result == {"code": code, "heavy": []}


def test_witness_over_the_field_size_bound_is_refused_at_once(tmp_path, capsys,
                                                              monkeypatch):
    # the budget admits the work of F_{251^26}, ~10^465; the field-size
    # bound refuses the field
    cfg = tmp_path / "cfg"
    cfg.write_text(f"witness_budget={10**700}\n")
    argv = ["witness", "--q", "251", "--m", "13", "--config", str(cfg)]
    *report, probe = fresh_python("-c", CLI_PROBE, *argv).splitlines()
    assert json.loads(probe) == {"code": 3, "heavy": []}
    doc = json.loads("\n".join(report))
    assert doc["refused"] is True and "exp/log" in doc["message"]

    from traceweight import admission, cli

    def no_factorize(n):  # the one factorization, which the modulus search reuses
        raise AssertionError("factorized before the field-size check")
    monkeypatch.setattr(admission, "factorize", no_factorize)
    start = time.monotonic()
    assert cli.main(argv) == 3
    assert time.monotonic() - start < 1.0
    assert json.loads(capsys.readouterr().out) == doc


def test_admission_imports_only_the_standard_library():
    out = fresh_python("-c", "import json, sys, traceweight.admission\n"
                             "print(json.dumps(sorted(m for m in sys.modules "
                             "if m.split('.')[0] in ('numpy', 'traceweight'))))")
    assert json.loads(out) == ["traceweight", "traceweight.admission"]


def test_every_public_name_resolves_from_its_home_module():
    """The package's lazy names: each in __all__ is the attribute of the
    module its _HOMES entry names."""
    from importlib import import_module
    for name in traceweight.__all__:
        home = import_module(f"traceweight.{traceweight._MODULE_OF[name]}")
        assert getattr(traceweight, name) is getattr(home, name)


def test_choose_oracle_prefers_brute_then_the_sweep():
    assert choose_oracle(2, 4, "D", "standard", TIER_BUDGETS["standard"]) == "brute"
    assert choose_oracle(2, 5, "D", "extended", TIER_BUDGETS["extended"]) == "rank_sweep"
    with pytest.raises(BudgetExceeded) as err:
        choose_oracle(2, 5, "D", "standard", TIER_BUDGETS["standard"])
    assert type(err.value) is BudgetExceeded and "tier 'standard'" in str(err.value)
    # both oracles over the exp/log-table bound: a size refusal
    with pytest.raises(FieldSizeError):
        choose_oracle(128, 2, "D", "extended", 2**90)


@pytest.fixture
def default_digit_limit():
    """The interpreter's default int-to-str digit limit, 4300, which a
    caller that has not lifted it (the command line lifts it) runs under."""
    if not hasattr(sys, "set_int_max_str_digits"):  # no limit to apply
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("m", [93, 300, 1000, 10000])
def test_large_m_is_refused_without_forming_the_estimate(default_digit_limit, m):
    """At large m both admission checks refuse at once, with only their own
    exception types: the work is compared by its log2, the estimate of
    more than about 1,000 digits is None and the message shows ~2^x.  The
    budgets include one whose bit length ties the work's (2^8835 against
    2^8649 (2^186 - 1) forms x coordinates of C(2,93)), which forms the
    exact power, and one of more than 4,300 digits."""
    start = time.monotonic()
    for q in (2, 3, 256, 257):
        for budget in (TIER_BUDGETS["quick"], TIER_BUDGETS["extended"], 2**8835, 2**20000):
            for family in "CDE":
                with pytest.raises(BudgetExceeded) as err:
                    choose_oracle(q, m, family, "quick", budget)
                # a size refusal (the byte-label cap, or the field where the
                # budget affords the work) prints no work
                assert err.value.estimate is None
                assert type(err.value) is FieldSizeError or "~2^" in str(err.value)
                assert err.value.budget == budget
            with pytest.raises(BudgetExceeded) as err:
                check_witness_budget(q, m, budget)
            assert err.value.estimate is None
            str(err.value)
    assert time.monotonic() - start < 2.0


def test_estimates_stay_exact_up_to_about_a_thousand_digits(default_digit_limit):
    """Below the digit bound a refusal carries the exact work model and
    prints it in full, and admission agrees with the exact comparison."""
    for q, m in [(2, 5), (3, 4), (2, 40), (3, 45), (257, 2), (4, 28)]:
        for family in "CDE":
            exact = min(brute_work(q, m, family), rank_sweep_work(q, m))
            with pytest.raises(BudgetExceeded) as err:
                choose_oracle(q, m, family, "quick", TIER_BUDGETS["quick"])
            assert err.value.estimate == exact and len(str(exact)) <= 1000
        # the sweep's work at the budget is admitted, one more is refused
        work = rank_sweep_work(q, m)
        if q <= 256 and 2 * m <= 26:
            assert choose_oracle(q, m, "C", "x", work) in ("brute", "rank_sweep")
    with pytest.raises(BudgetExceeded) as err:
        choose_oracle(2, 40, "D", "x", rank_sweep_work(2, 40) - 1)
    assert type(err.value) is BudgetExceeded
    assert err.value.estimate == rank_sweep_work(2, 40)


def test_verify_at_m_10000_is_refused_at_once(capsys):
    from traceweight import cli
    start = time.monotonic()
    assert cli.main(["verify", "--q", "3", "--m", "10000", "--family", "D"]) == 3
    assert time.monotonic() - start < 0.5
    doc = json.loads(capsys.readouterr().out)
    assert doc["refused"] is True and doc["work_estimate"] is None
    assert doc["budget"] == TIER_BUDGETS["quick"] and "~2^" in doc["message"]


def test_default_workers_counts_the_cpus_the_process_may_run_on(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
    assert default_workers() == 2
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert default_workers() == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert default_workers() == 1
