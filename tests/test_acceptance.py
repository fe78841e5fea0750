"""Acceptance suite: every exit criterion at its stated (exact) tolerance.

Each criterion prints one PASS/FAIL line; run `pytest -s tests/test_acceptance.py`
to watch them.  Time limits are the stated wall-clock budgets; the heavy
cases use 8 worker processes as stated.
"""

import time
from contextlib import contextmanager

import pytest
from conftest import (annihilated_by, codeword, offset_sum_rows, parameter_slots,
                      prime_powers_up_to, shift_sum_rows)

from traceweight.codes import build_code
from traceweight.engine import measure_rank_counts, verify
from traceweight.fields import make_field, split_prime_power
from traceweight.hermitian import (cayley_spectrum, enumerate_hermitian,
                                   rank1_count, verify_isomorphism)
from traceweight.quadforms import FormSpace, all_forms, big_T, r_histogram, s_histogram
from traceweight.spectra import eigenvalues, frequencies, minimum_distance, predict

WORKERS = 8


@contextmanager
def criterion(name):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {name}: FAIL ({time.monotonic() - start:.1f}s)")
        raise
    print(f"\nACCEPTANCE {name}: PASS ({time.monotonic() - start:.1f}s)")


def _golden(q, m, family, tier, workers, limit, kind, nkd):
    start = time.monotonic()
    report = verify(q, m, family, tier=tier, workers=workers)
    elapsed = time.monotonic() - start
    assert report.equal, f"{family}({q},{m}) mismatch at weight {report.first_diff}"
    assert report.oracle_kind == kind
    dist = report.oracle
    assert (dist.n, dist.k, dist.d) == nkd
    assert elapsed < limit, f"{family}({q},{m}) took {elapsed:.1f}s, limit {limit}s"
    return elapsed


def test_criterion_1_golden_enumerators_fast():
    with criterion("1a golden (3,2) brute under 1s each"):
        _golden(3, 2, "D", "quick", 1, 1.0, "brute", (80, 8, 45))
        _golden(3, 2, "C", "quick", 1, 1.0, "brute", (80, 4, 48))
        _golden(3, 2, "E", "quick", 1, 1.0, "brute", (80, 9, 44))
    with criterion("1b golden (4,2) brute under 5s each"):
        _golden(4, 2, "D", "quick", 1, 5.0, "brute", (255, 8, 176))
        _golden(4, 2, "C", "quick", 1, 5.0, "brute", (255, 4, 180))
        _golden(4, 2, "E", "quick", 1, 5.0, "brute", (255, 9, 175))
    with criterion("1c golden C(2,4) brute under 30s"):
        _golden(2, 4, "C", "standard", 1, 30.0, "brute", (255, 16, 96))


def test_criterion_1_golden_enumerators_heavy():
    with criterion("1d golden D(2,4)/E(2,4) match-counting under 10min"):
        _golden(2, 4, "D", "standard", WORKERS, 600.0, "brute", (255, 24, 64))
        _golden(2, 4, "E", "standard", WORKERS, 600.0, "brute", (255, 25, 63))
    with criterion("1e golden C(4,3) brute under 2min"):
        _golden(4, 3, "C", "standard", 1, 120.0, "brute", (4095, 9, 2880))
    with criterion("1f golden E(3,3) extended under 60min"):
        _golden(3, 3, "E", "extended", WORKERS, 3600.0, "brute", (728, 16, 404))
    with criterion("1g golden D(2,5) rank sweep under 60min"):
        _golden(2, 5, "D", "extended", WORKERS, 3600.0, "rank_sweep",
                (1023, 35, 256))


def test_criterion_2_rank_distribution_equivalence():
    with criterion("2 measured rank counts equal closed-form frequencies"):
        for q, m in [(2, 2), (3, 2), (2, 3), (4, 2), (3, 3), (4, 3), (5, 2), (9, 2)]:
            p, e = split_prime_power(q)
            spec = build_code(make_field(p, e, 2 * m), "D")
            assert measure_rank_counts(spec) == frequencies(q, m), (q, m)


def _check_form_sums(ctx, form):
    q, s = ctx.q, ctx.s
    r, eps = form.rank, form.epsilon
    assert big_T(form) in {(-1) ** j * q ** (2 * ctx.m - j) for j in range(ctx.m + 1)}
    assert s_histogram(form) == shift_sum_rows(q, s, r, eps)
    sub = ctx.subfield(q)
    for lbl in range(1, q):
        assert r_histogram(form, sub.from_label(lbl)) == offset_sum_rows(q, s, r, eps)


def test_criterion_3_exponential_sum_suite():
    with criterion("3 exponential-sum histograms match the rank-driven rows"):
        for p, e, m in [(2, 1, 2), (3, 1, 2), (2, 1, 3)]:
            ctx = make_field(p, e, 2 * m)
            for form in all_forms(ctx):
                _check_form_sums(ctx, form)
        ctx42 = make_field(2, 2, 4)
        space = FormSpace(ctx42)
        sampled = range(0, space.num_forms, 2)  # 128 >= 100 forms
        assert len(sampled) >= 100
        for form in space.forms(sampled):
            _check_form_sums(ctx42, form)


def test_criterion_4_hermitian_witness():
    with criterion("4 Hermitian witness (counts, spectrum, embedding) under 1min"):
        start = time.monotonic()
        for q, m in [(2, 1), (2, 2), (2, 3), (3, 2)]:
            p, e = split_prime_power(q)
            ctx = make_field(p, e, 2 * m)
            count = sum(1 for _ in enumerate_hermitian(ctx))
            assert count == q ** (m * m)
            assert rank1_count(ctx) == (q ** (2 * m) - 1) // (q + 1)
            expected = {}
            for xi, fj in zip(eigenvalues(q, m), frequencies(q, m)):
                expected[xi] = expected.get(xi, 0) + fj
            assert cayley_spectrum(ctx) == expected
            assert verify_isomorphism(ctx).ok
        assert time.monotonic() - start < 60.0


def _structural_grid():
    pairs = []
    for m in range(1, 11):
        for q in prime_powers_up_to(1 << 10):
            if q ** (2 * m) <= 1 << 20:
                pairs.append((q, m))
    return pairs


def test_criterion_5_structural_suite():
    with criterion("5a dimension formulas on the full q^(2m) <= 2^20 grid"):
        for q, m in _structural_grid():
            p, e = split_prime_power(q)
            ctx = make_field(p, e, 2 * m)
            for family, k in (("C", m * m), ("D", m * m + 2 * m),
                              ("E", m * m + 2 * m + 1)):
                if family == "E" and (q, m) == (2, 1):
                    continue  # (x-1) already divides h there; family undefined
                spec = build_code(ctx, family)
                assert spec.k == k and spec.parity_check.degree == k
    with criterion("5b subcode membership C < D < E on sampled codewords"):
        import random
        rng = random.Random(2024)
        for p, e, m in [(3, 1, 2), (2, 1, 3)]:
            ctx = make_field(p, e, 2 * m)
            qm = ctx.q**ctx.m
            delta0_space = [0] + [ctx.pow(ctx.pi, (ctx.n // (qm - 1)) * i)
                                  for i in range(qm - 1)]
            c_spec, d_spec, e_spec = (build_code(ctx, f) for f in "CDE")
            for _ in range(5):
                lam_slots = tuple(
                    rng.choice(delta0_space) if name == "delta0"
                    else rng.randrange(ctx.size)
                    for name in parameter_slots(c_spec))
                word = codeword(c_spec, lam_slots)
                assert annihilated_by(d_spec.parity_check, word.values)
                assert annihilated_by(e_spec.parity_check, word.values)
                beta = rng.randrange(ctx.size)
                word_d = codeword(d_spec, (beta,) + lam_slots)
                assert annihilated_by(e_spec.parity_check, word_d.values)
    with criterion("5c predict totals and minimum weights on the grid"):
        for q, m in _structural_grid():
            for family in "CDE":
                if family == "E" and (q, m) == (2, 1):
                    continue
                dist = predict(q, m, family)
                assert dist.total() == q**dist.k
                assert dist.d == minimum_distance(q, m, family)
    with criterion("5d spectral trace identities for m <= 6, q <= 9"):
        for q in (2, 3, 4, 5, 7, 8, 9):
            for m in range(1, 7):
                f, xi = frequencies(q, m), eigenvalues(q, m)
                kset = (q ** (2 * m) - 1) // (q + 1)
                assert sum(a * b for a, b in zip(f, xi)) == 0
                assert sum(a * b * b for a, b in zip(f, xi)) == q ** (m * m) * kset


def test_criterion_6_determinism():
    with criterion("6 determinism across worker counts and moduli"):
        from traceweight.engine import brute_distribution
        for family in "CDE":
            spec = build_code(make_field(3, 1, 4), family)
            reference = brute_distribution(spec, workers=1).counts
            for workers in (4, 8):
                assert brute_distribution(spec, workers=workers).counts == reference
            alt_spec = build_code(make_field(3, 1, 4, modulus_rank=1), family)
            assert alt_spec.ctx.modulus != spec.ctx.modulus
            assert brute_distribution(alt_spec, workers=1).counts == reference
