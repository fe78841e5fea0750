"""CLI contract: formats, exit statuses, config, output routing."""

import json
import sys

import pytest

from traceweight.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_predict_csv_exact(capsys):
    code, out, _ = run(capsys, "predict", "--q", "3", "--m", "2",
                       "--family", "C", "--format", "csv")
    assert code == 0
    assert out == "weight,count\n0,1\n48,60\n72,20\n"


def test_predict_json_round_trips(capsys):
    code, out, _ = run(capsys, "predict", "--q", "2", "--m", "2",
                       "--family", "D", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert json.loads(json.dumps(doc)) == doc
    assert doc["n"] == 15 and doc["k"] == 8 and doc["d"] == 4
    assert len(doc["distribution"]) == 6
    assert all(isinstance(c, str) for _, c in doc["distribution"])
    assert sum(int(c) for _, c in doc["distribution"]) == 256


def test_invalid_q_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["predict", "--q", "6", "--m", "2", "--family", "C"])
    assert err.value.code == 2
    for command in ("predict", "verify"):
        for e in ("0", "-1"):
            with pytest.raises(SystemExit) as err:
                main([command, "--p", "2", "--e", e, "--m", "2", "--family", "D"])
            assert err.value.code == 2
            assert "--e must be >= 1" in capsys.readouterr().err


def test_q_and_pe_forms_agree(capsys):
    _, out_q, _ = run(capsys, "predict", "--q", "4", "--m", "2", "--family", "D")
    _, out_pe, _ = run(capsys, "predict", "--p", "2", "--e", "2", "--m", "2",
                       "--family", "D")
    assert out_q == out_pe


def test_verify_quick_json(capsys):
    code, out, _ = run(capsys, "verify", "--q", "3", "--m", "2", "--family", "E",
                       "--tier", "quick", "--workers", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["equal"] is True
    assert doc["oracle_kind"] == "brute"
    assert doc["predicted"]["distribution"] == doc["oracle"]["distribution"]
    assert isinstance(doc["runtime_seconds"], float)
    assert doc["work_count"] == 81 * 81 * 80


def test_verify_reports_runtime_to_the_microsecond(capsys, monkeypatch):
    # a golden oracle runs in a few ms, so milliseconds would hide its changes
    import dataclasses

    from traceweight import cli, engine

    def timed(*args, **kwargs):
        report = engine.verify(*args, **kwargs)
        return dataclasses.replace(report, runtime_seconds=0.0123456789)
    monkeypatch.setattr(cli, "verify", timed)
    code, out, _ = run(capsys, "verify", "--q", "3", "--m", "2", "--family", "D",
                       "--tier", "quick", "--workers", "1")
    assert code == 0
    assert json.loads(out)["runtime_seconds"] == 0.012346


def test_verify_refusal_exit_3(capsys):
    code, out, _ = run(capsys, "verify", "--q", "2", "--m", "5", "--family", "D",
                       "--tier", "quick")
    assert code == 3
    doc = json.loads(out)
    assert doc["refused"] is True
    assert doc["work_estimate"] > doc["budget"]


def test_verify_csv_emits_oracle_distribution(capsys):
    code, out, _ = run(capsys, "verify", "--q", "2", "--m", "2", "--family", "C",
                       "--format", "csv", "--workers", "1")
    assert code == 0
    assert out == "weight,count\n0,1\n6,10\n12,5\n"


def test_verify_worker_count_does_not_change_output(capsys):
    _, out1, _ = run(capsys, "verify", "--q", "3", "--m", "2", "--family", "D",
                     "--workers", "1")
    _, out2, _ = run(capsys, "verify", "--q", "3", "--m", "2", "--family", "D",
                     "--workers", "2")
    d1, d2 = json.loads(out1), json.loads(out2)
    for key in ("oracle", "predicted", "equal", "oracle_kind"):
        assert d1[key] == d2[key]


def test_witness_reports(capsys):
    code, out, _ = run(capsys, "witness", "--q", "2", "--m", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"q": 2, "m": 2, "hermitian_count": 16, "rank1_count": 5,
                   "spectrum": [[5, 1], [-3, 5], [1, 10]],
                   "equal": True, "first_diff": None,
                   "isomorphism_ok": True}
    code, out, _ = run(capsys, "witness", "--q", "2", "--m", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["spectrum"] == [[1, 1], [-1, 1]]
    assert (doc["hermitian_count"], doc["rank1_count"]) == (2, 1)


def test_witness_exits_1_on_a_wrong_spectrum(capsys, monkeypatch):
    from traceweight import cli
    monkeypatch.setattr(cli, "cayley_spectrum", lambda ctx, budget: {999: 1})
    code, out, _ = run(capsys, "witness", "--q", "2", "--m", "2")
    assert code == 1
    doc = json.loads(out)
    assert (doc["equal"], doc["first_diff"]) == (False, -3)
    assert doc["spectrum"] == [[999, 1]] and doc["isomorphism_ok"] is True


def test_witness_exits_1_on_a_failed_embedding(capsys, monkeypatch):
    from traceweight import cli, hermitian

    def failed(ctx, budget):
        return hermitian.IsomorphismReport(False, True, True, 5, 5, ["forced"])
    monkeypatch.setattr(cli, "verify_isomorphism", failed)
    code, out, _ = run(capsys, "witness", "--q", "2", "--m", "2")
    assert code == 1
    doc = json.loads(out)
    assert (doc["equal"], doc["first_diff"]) == (True, None)
    assert doc["isomorphism_ok"] is False and doc["isomorphism_notes"] == ["forced"]


@pytest.mark.parametrize("q,p,e", [(17, 17, 1), (256, 2, 8)])
def test_witness_at_m_1_builds_no_label_table(capsys, q, p, e):
    # a stack of 1 x 1 matrices over F_{q^2} updates no row, so label_ranks
    # builds no op table of up to 2^16 x 2^16 labels for it
    from traceweight.fields import make_field
    code, out, _ = run(capsys, "witness", "--q", str(q), "--m", "1")
    assert code == 0
    doc = json.loads(out)
    assert (doc["rank1_count"], doc["equal"], doc["isomorphism_ok"]) == (q - 1, True, True)
    for sub in make_field(p, e, 2)._subfields.values():
        assert not any(a.startswith("_tab_") for a in vars(sub))


def test_witness_rank1_at_32(capsys):
    _, out, _ = run(capsys, "witness", "--q", "3", "--m", "2")
    assert json.loads(out)["rank1_count"] == 20


def test_out_writes_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "predict", "--q", "3", "--m", "2", "--family", "C",
                       "--out", str(path))
    assert code == 0 and out == ""
    doc = json.loads(path.read_text())
    assert doc["distribution"] == [[0, "1"], [48, "60"], [72, "20"]]


def test_config_budget_override(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("# budgets\nquick_budget=10\nworkers=1\n")
    code, out, _ = run(capsys, "verify", "--q", "3", "--m", "2", "--family", "C",
                       "--tier", "quick", "--config", str(cfg))
    assert code == 3
    assert json.loads(out)["budget"] == 10


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("colour=blue\n")
    code, _, err = run(capsys, "predict", "--q", "3", "--m", "2", "--family",
                       "C", "--config", str(cfg))
    assert code == 2
    assert "unknown config key" in err


@pytest.mark.parametrize("line", ["workers=0", "workers=-3", "quick_budget=-5",
                                  "witness_budget=0"])
def test_config_values_below_1_are_config_errors(tmp_path, capsys, line):
    cfg = tmp_path / "cfg"
    cfg.write_text(line + "\n")
    code, out, err = run(capsys, "verify", "--q", "2", "--m", "2", "--family", "D",
                         "--config", str(cfg))
    assert (code, out) == (2, "")
    assert f"config error: {line.partition('=')[0]} must be >= 1" in err


def test_internal_error_exit_1(capsys):
    code, _, err = run(capsys, "verify", "--q", "2", "--m", "1", "--family", "E")
    assert code == 1
    assert "undefined" in err


def test_modulus_rank_flag(capsys):
    _, out0, _ = run(capsys, "verify", "--q", "3", "--m", "2", "--family", "C",
                     "--workers", "1")
    _, out1, _ = run(capsys, "verify", "--q", "3", "--m", "2", "--family", "C",
                     "--workers", "1", "--modulus-rank", "1")
    assert json.loads(out0)["oracle"] == json.loads(out1)["oracle"]


@pytest.mark.parametrize("flag,value", [("--modulus-rank", "-1"), ("--modulus-rank", "-5"),
                                        ("--workers", "0"), ("--workers", "-3")])
def test_negative_modulus_rank_and_workers_below_1_are_usage_errors(capsys, flag,
                                                                     value):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--q", "2", "--m", "2", "--family", "D", flag, value])
    assert err.value.code == 2
    assert f"{flag} must be" in capsys.readouterr().err


def test_modulus_rank_past_the_primitive_moduli_is_a_usage_error(capsys, monkeypatch):
    from traceweight import fields

    def no_field(*args, **kwargs):
        raise AssertionError("field built before the modulus rank check")
    monkeypatch.setattr(fields, "FieldCtx", no_field)
    # phi(2^4 - 1)/4 = 2 primitive polynomials of degree 4 over F_2
    for rank in ("2", "5"):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--q", "2", "--m", "2", "--family", "D", "--modulus-rank", rank])
        assert err.value.code == 2
        assert "there are 2 primitive polynomials of degree 4 over F_2" in \
            capsys.readouterr().err


def test_verify_refuses_q_above_256_exit_3(capsys):
    code, out, _ = run(capsys, "verify", "--q", "257", "--m", "1", "--family", "C")
    assert code == 3
    doc = json.loads(out)
    assert doc["refused"] is True
    assert doc["work_estimate"] > 0


def test_refusals_exit_3_before_any_field_is_built(tmp_path, capsys, monkeypatch):
    from traceweight import cli, engine

    def no_setup(*args, **kwargs):
        raise AssertionError("field built before the budget check")
    monkeypatch.setattr(cli, "make_field", no_setup)
    monkeypatch.setattr(engine, "make_field", no_setup)
    cfg = tmp_path / "cfg"
    cfg.write_text("witness_budget=79\n")  # 16 matrices x 5 rank-1 = 80
    code, out, _ = run(capsys, "witness", "--q", "2", "--m", "2", "--config", str(cfg))
    assert code == 3
    doc = json.loads(out)
    assert doc["refused"] is True
    assert (doc["work_estimate"], doc["budget"]) == (80, 79)
    # the rank sweep fits the extended budget, but F_{128^4} is over the
    # exp/log-table bound
    code, out, _ = run(capsys, "verify", "--q", "128", "--m", "2", "--family", "D",
                       "--tier", "extended")
    assert code == 3
    assert json.loads(out)["work_estimate"] > 0
    # F_{257^2} labels do not fit, whatever the witness budget
    code, out, _ = run(capsys, "witness", "--q", "257", "--m", "1")
    assert code == 3
    doc = json.loads(out)
    assert doc["refused"] is True
    assert (doc["work_estimate"], doc["budget"]) == (257 * 256, 2**20)


def test_brute_over_the_table_bound_is_refused_before_any_field_is_built(
        tmp_path, capsys, monkeypatch):
    from traceweight import cli, engine

    def no_setup(*args, **kwargs):
        raise AssertionError("field built before the budget check")
    monkeypatch.setattr(cli, "make_field", no_setup)
    monkeypatch.setattr(engine, "make_field", no_setup)
    cfg = tmp_path / "cfg"
    cfg.write_text(f"extended_budget={2**80}\n")
    # brute C(128,2) fits the budget, but F_{128^4} is over the exp/log-table
    # bound that its count plan needs too
    code, out, _ = run(capsys, "verify", "--q", "128", "--m", "2", "--family", "C",
                       "--tier", "extended", "--config", str(cfg))
    assert code == 3
    doc = json.loads(out)
    assert doc["refused"] is True
    assert (doc["work_estimate"], doc["budget"]) == (engine.rank_sweep_work(128, 2), 2**80)


@pytest.mark.parametrize("q,m,work", [(2, 4, 2**16 * 85), (3, 3, 3**9 * 182)])
def test_witness_refuses_its_real_work_before_any_field_is_built(capsys, monkeypatch,
                                                                 q, m, work):
    from traceweight import cli

    def no_setup(*args, **kwargs):
        raise AssertionError("field built before the budget check")
    monkeypatch.setattr(cli, "make_field", no_setup)
    # the matrices alone (2^16, 3^9) fit the default 2^20 budget; the
    # matrices x rank-1 set pairs do not
    code, out, _ = run(capsys, "witness", "--q", str(q), "--m", str(m))
    assert code == 3
    doc = json.loads(out)
    assert doc["refused"] is True
    assert (doc["work_estimate"], doc["budget"]) == (work, 2**20)


def _progress_percents(err):
    lines = [line for line in err.splitlines() if line.startswith("progress:")]
    return [int(line.split()[1].rstrip("%")) for line in lines]


def test_short_brute_run_prints_no_progress(capsys):
    code, out, err = run(capsys, "verify", "--q", "2", "--m", "4", "--family", "D",
                         "--tier", "standard", "--workers", "1")
    assert code == 0
    assert json.loads(out)["oracle_kind"] == "brute"  # 109 forms enumerated
    assert _progress_percents(err) == []


def test_sweep_over_the_threshold_prints_monotone_progress(capsys, monkeypatch):
    from traceweight import cli
    # D(2,5) extended sweeps 9,962 forms, one per orbit of its 2^25
    monkeypatch.setattr(cli, "PROGRESS_MIN_FORMS", 9962)
    code, out, err = run(capsys, "verify", "--q", "2", "--m", "5", "--family", "D",
                         "--tier", "extended", "--workers", "1")
    assert code == 0
    assert json.loads(out)["oracle_kind"] == "rank_sweep"
    percents = _progress_percents(err)
    assert len(percents) > 10
    assert percents == sorted(set(percents)) and percents[-1] == 100
    monkeypatch.setattr(cli, "PROGRESS_MIN_FORMS", 9962 + 1)
    _, _, err = run(capsys, "verify", "--q", "2", "--m", "5", "--family", "D",
                    "--tier", "extended", "--workers", "1")
    assert _progress_percents(err) == []


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_predict_counts_beyond_the_int_string_digit_limit(capsys, no_digit_limit, fmt):
    # D(2,120) has counts of over 4,300 decimal digits, which the test's
    # own int() and str() read under no_digit_limit
    code, out, _ = run(capsys, "predict", "--q", "2", "--m", "120",
                       "--family", "D", "--format", fmt)
    assert code == 0
    if fmt == "json":
        doc = json.loads(out)
        k, counts = doc["k"], [int(c) for _, c in doc["distribution"]]
    else:
        k = json.loads(run(capsys, "predict", "--q", "2", "--m", "120",
                           "--family", "D")[1])["k"]
        counts = [int(line.split(",")[1]) for line in out.splitlines()[1:]]
    assert max(len(str(c)) for c in counts) > 4300
    assert sum(counts) == 2**k


def test_main_lifts_the_digit_limit_for_its_call_only(capsys, default_digit_limit):
    """Under the default 4,300-digit limit, predict prints D(3,100)'s
    counts of 4,867 digits, and the limit is 4,300 again afterwards."""
    code, out, _ = run(capsys, "predict", "--q", "3", "--m", "100", "--family", "D")
    assert code == 0
    assert max(len(c) for _, c in json.loads(out)["distribution"]) == 4867
    assert getattr(sys, "get_int_max_str_digits", lambda: 4300)() == 4300


@pytest.mark.parametrize("command", ["verify", "witness"])
def test_large_prime_q_is_refused_at_once(capsys, command):
    argv = [command, "--q", str(2**31 - 1), "--m", "1"]
    code, out, _ = run(capsys, *argv, *(["--family", "D"] if command == "verify" else []))
    assert code == 3
    assert json.loads(out)["refused"] is True
