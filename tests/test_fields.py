"""Field tower: modulus selection, traces, minimal polynomials, cosets."""

import hashlib
import random

import numpy as np
import pytest
from conftest import (coset_size, element_order, frobenius_sum, lex_primitive_moduli,
                      lex_primitive_modulus, literal_label_rank, literal_linear_image,
                      literal_subfield_element, naive_add, naive_mul, poly_divides,
                      poly_divmod, prime_powers_up_to, step_order_of_x, trace)
from hypothesis import given, settings
from hypothesis import strategies as st

from traceweight import admission, fields
from traceweight.admission import (FieldSizeError, ModulusRankError, check_witness_budget,
                                   choose_oracle)
from traceweight.fields import (FieldCtx, Poly, coordinate_inverse, find_primitive_modulus,
                                label_matrix_rank, make_field, minimal_polynomial,
                                split_prime_power)


def test_modulus_matches_independent_search():
    for p, e, s in [(2, 1, 4), (3, 1, 4), (2, 2, 4)]:
        ctx = make_field(p, e, s)
        assert ctx.modulus == lex_primitive_modulus(p, e * s)
    assert make_field(3, 1, 4, modulus_rank=1).modulus == lex_primitive_modulus(3, 4, rank=1)
    for p, degree, rank in [(2, 2, 0), (2, 3, 1), (2, 5, 2), (2, 6, 0), (2, 8, 3),
                            (3, 2, 1), (3, 3, 1), (5, 2, 3), (7, 2, 2), (11, 2, 0)]:
        assert find_primitive_modulus(p, degree, rank) == \
            lex_primitive_modulus(p, degree, rank)


# odd degrees at odd p, where (-1)^d f(0) differs from f(0), and p - 1 with
# several prime factors (30 = 2 * 3 * 5, 210 = 2 * 3 * 5 * 7)
@pytest.mark.parametrize("p,degree", [(p, 2) for p in (5, 7, 11, 13, 31, 67, 131, 211)]
                         + [(2, d) for d in range(2, 13)]
                         + [(3, d) for d in range(2, 7)]
                         + [(5, 3), (7, 3), (11, 3), (13, 3), (5, 5)])
def test_block_search_matches_independent_search_at_ranks_0_to_3(p, degree):
    expected = lex_primitive_moduli(p, degree, 4)
    for rank in range(4):
        if rank < len(expected):
            assert find_primitive_modulus(p, degree, rank) == expected[rank], rank
        else:  # the degree has fewer primitive polynomials, e.g. one at (2, 2)
            with pytest.raises(ModulusRankError, match=f"there are {len(expected)} "):
                find_primitive_modulus(p, degree, rank)


@pytest.mark.parametrize("p,degree", [(2, d) for d in range(2, 9)]
                         + [(3, d) for d in range(2, 5)] + [(5, 2), (5, 3), (7, 2)])
def test_block_search_finds_every_primitive_modulus(p, degree):
    expected = lex_primitive_moduli(p, degree, p**degree)
    for rank, modulus in enumerate(expected):
        assert find_primitive_modulus(p, degree, rank) == modulus, rank
    with pytest.raises(ModulusRankError, match=f"there are {len(expected)} "):
        find_primitive_modulus(p, degree, len(expected))


@pytest.mark.parametrize("p,degree", [(2, 1), (3, 1), (5, 0)])
def test_modulus_degree_below_2_is_refused(p, degree):
    with pytest.raises(ValueError, match="below 2"):
        find_primitive_modulus(p, degree)


# p^degree >= 2^63 in each case, far over the 2^26 field-size bound
@pytest.mark.parametrize("p,degree", [(2, 64), (2, 63), (3, 40), (5, 28)])
def test_high_degree_fields_are_refused_before_factorizing(p, degree, monkeypatch):
    def no_factorize(n):
        raise AssertionError("factorized before the field-size check")
    # the modulus search takes its primes from check_modulus_rank's one
    # factorization, so admission.factorize is the only one to guard
    monkeypatch.setattr(admission, "factorize", no_factorize)
    with pytest.raises(FieldSizeError):
        find_primitive_modulus(p, degree)


def test_no_binomial_is_primitive():
    # the search starts past the binomials x^d + c on this lemma
    for p in (2, 3, 5, 7, 11, 13):
        for d in range(2, 6):
            if p**d <= 1 << 14:
                for c in range(p):
                    coeffs = [c] + [0] * (d - 1) + [1]
                    assert step_order_of_x(p, coeffs) < p**d - 1, (p, d, c)


def test_generator_table_marks_the_residues_of_order_p_minus_1():
    for p in (q for q in range(2, 256) if admission.is_prime(q)):
        orders = [0]
        for g in range(1, p):
            power, order = g, 1
            while power != 1:
                power, order = power * g % p, order + 1
            orders.append(order)
        primes = admission.factorize(p - 1)
        assert [fields._generates(g, p, primes) for g in range(p)] == \
            [o == p - 1 for o in orders], p


def test_no_primitive_modulus_fails_the_constant_term_filter():
    # the search drops f unless (-1)^d f(0) generates F_p^*, on this lemma
    for p, generators in ((5, {2, 3}), (7, {3, 5})):
        for d in (2, 3):
            for packed in range(p**d):
                coeffs = [packed // p**i % p for i in range(d)] + [1]
                if (-1) ** d * coeffs[0] % p not in generators:
                    assert step_order_of_x(p, coeffs) != p**d - 1, (p, coeffs)


def test_no_primitive_modulus_has_a_root_at_one_or_minus_one():
    # the search drops f when f(1) or f(-1) is 0, on this lemma: a root is a
    # linear factor, so f is reducible at every degree d >= 2
    for p in (2, 3, 5, 7, 11):
        for d in range(2, 6):
            if p**d <= 1 << 11:
                for packed in range(p**d):
                    coeffs = [packed // p**i % p for i in range(d)] + [1]
                    if sum(coeffs) % p == 0 or \
                            sum(c * (-1) ** i for i, c in enumerate(coeffs)) % p == 0:
                        assert step_order_of_x(p, coeffs) != p**d - 1, (p, coeffs)


def test_modulus_search_pins_every_grid_field_at_ranks_0_to_3():
    # the moduli at every (p, e * 2m) of the criterion-5 grid, q^(2m) <= 2^20,
    # at each rank below 4 that the degree has, as the numpy block search
    # gave them
    fields_of_grid = sorted({(split_prime_power(q)[0], 2 * split_prime_power(q)[1] * m)
                             for q in prime_powers_up_to(1 << 10) for m in range(1, 11)
                             if q ** (2 * m) <= 1 << 20})
    assert len(fields_of_grid) == 198
    moduli = []
    for p, degree in fields_of_grid:
        for rank in range(4):
            try:
                moduli.append((p, degree, rank, find_primitive_modulus(p, degree, rank)))
            except ModulusRankError:
                break
    assert len(moduli) == 785
    digest = hashlib.sha1(repr(moduli).encode()).hexdigest()
    assert digest == "524e78802c978f54d598da85184128672184306b"


class _NoNumpy:
    def __getattr__(self, name):
        raise AssertionError(f"the modulus search used np.{name}")


@pytest.mark.parametrize("p,degree,rank", [(2, 2, 0), (2, 9, 3), (2, 20, 1), (3, 5, 2),
                                           (7, 3, 1), (1021, 2, 3)])
def test_modulus_search_runs_without_numpy(p, degree, rank, monkeypatch):
    expected = find_primitive_modulus(p, degree, rank)
    monkeypatch.setattr(fields, "np", _NoNumpy())
    assert find_primitive_modulus(p, degree, rank) == expected


# the outputs of the search that scanned the binomials too; p^degree is
# beyond what the independent search steps through in a test
@pytest.mark.parametrize("p,degree,expected", [
    (1021, 2, [(10, 1, 1), (30, 1, 1), (35, 1, 1), (40, 1, 1)]),
    (509, 2, [(2, 1, 1), (7, 1, 1), (8, 1, 1), (19, 1, 1)]),
    (2, 20, [tuple(int(i in terms) for i in range(21)) for terms in
             ({0, 3, 20}, {0, 1, 4, 6, 20}, {0, 2, 5, 6, 20}, {0, 3, 5, 6, 20})]),
])
def test_block_search_pins_ranks_0_to_3(p, degree, expected):
    assert [find_primitive_modulus(p, degree, rank) for rank in range(4)] == expected


def test_block_search_refuses_sums_beyond_int64():
    # prime, 2 * p^2 < 2^63 < 3 * p^2; p^3 is far over the field-size bound,
    # so the search refuses it before any arithmetic
    p = 2**31 - 1
    with pytest.raises(FieldSizeError):
        find_primitive_modulus(p, 3)


@pytest.mark.parametrize("p,degree,rank", [(2, 4, -1), (3, 4, -5)])
def test_negative_modulus_rank_is_refused(p, degree, rank):
    with pytest.raises(ValueError, match="negative"):
        find_primitive_modulus(p, degree, rank)
    with pytest.raises(ValueError, match="negative"):
        make_field(p, 1, degree, modulus_rank=rank)


def test_pi_generates_on_the_structural_grid():
    for q in prime_powers_up_to(1 << 10):
        for m in range(1, 11):
            if q ** (2 * m) <= 1 << 20:
                p, e = split_prime_power(q)
                ctx = make_field(p, e, 2 * m)
                assert element_order(ctx, ctx.pi) == ctx.n, (q, m)


def test_canonical_f16_modulus_is_x4_x_1():
    assert make_field(2, 1, 4).modulus == (1, 1, 0, 0, 1)


def test_pi_is_x_and_generates():
    for p, e, s in [(2, 1, 4), (3, 1, 4), (2, 2, 4)]:
        ctx = make_field(p, e, s)
        assert ctx.pi == p
        assert element_order(ctx, ctx.pi) == ctx.n
        assert step_order_of_x(p, list(ctx.modulus)) == ctx.n


def test_f81_pi_has_order_80():
    assert element_order(make_field(3, 1, 4), make_field(3, 1, 4).pi) == 80


def test_embedded_f4_is_frobenius_fixed_set():
    ctx = make_field(2, 2, 4)  # F_256 with q = 4
    fixed = {a for a in range(ctx.size) if ctx.frobenius_q(a) == a}
    assert len(fixed) == 4
    assert fixed == set(ctx.subfield(4).elements_by_label)


def test_mul_against_schoolbook():
    for p, e, s in [(2, 1, 4), (3, 1, 4), (2, 2, 4)]:
        ctx = make_field(p, e, s)
        ctx.require_tables()
        sample = range(0, ctx.size, max(1, ctx.size // 23))
        for a in sample:
            for b in sample:
                assert ctx.mul(a, b) == naive_mul(ctx, a, b)
                assert ctx.add(a, b) == naive_add(ctx, a, b)


# p = 2 at degrees 4, 20 and 26; the largest fields within the size bound
# at p = 3 and p = 5; q = 4 and q = 9; and p = 1021 at degree 2, whose
# Kronecker slots are the widest
KERNEL_FIELDS = [(2, 1, 4), (2, 1, 20), (2, 1, 26), (3, 1, 16), (5, 1, 10),
                 (2, 2, 4), (3, 2, 4), (1021, 1, 2)]


@pytest.mark.parametrize("p,e,s", KERNEL_FIELDS)
def test_table_free_mul_against_schoolbook(p, e, s):
    ctx = make_field(p, e, s)
    rng = random.Random(f"{p},{e},{s}")
    # size - 1 has every digit p - 1, the largest slot sums
    sample = [0, 1, ctx.pi, ctx.size - 1] + [rng.randrange(ctx.size) for _ in range(8)]
    for a in sample:
        for b in sample:
            assert ctx._mul_poly(a, b) == naive_mul(ctx, a, b), (a, b)


@settings(deadline=None, max_examples=100)
@given(st.sampled_from(KERNEL_FIELDS), st.data())
def test_table_free_mul_on_random_pairs(field, data):
    ctx = make_field(*field)
    a = data.draw(st.integers(0, ctx.size - 1))
    b = data.draw(st.integers(0, ctx.size - 1))
    assert ctx._mul_poly(a, b) == naive_mul(ctx, a, b)


@pytest.mark.parametrize("p,s", [(2, 8), (3, 6), (5, 4), (1021, 2)])
def test_table_free_mul_by_a_scalar_equals_the_full_product(p, s):
    """Without tables, mul takes an F_p scalar digit by digit; it gives what
    the full product gives for every scalar, on either side, times a
    spread of elements (size - 1 has every digit p - 1)."""
    ref = make_field(p, 1, s)
    ctx = FieldCtx(p, 1, s, ref.modulus)  # a fresh context holds no tables
    elements = sorted({*range(0, ctx.size, max(1, ctx.size // 40)), 1, p - 1, ctx.pi,
                       ctx.size - 1})
    for c in range(p):
        for x in elements:
            assert ctx.mul(c, x) == ctx.mul(x, c) == ctx._mul_poly(c, x), (c, x)
    assert ctx._log is None


# F_16 and F_81, and F_{4^2} and F_{9^2}: p = 2, 3 at e = 1 and e = 2
@pytest.mark.parametrize("p,e,s", [(2, 1, 4), (3, 1, 4), (2, 2, 2), (3, 2, 2)])
def test_mul_by_a_scalar_is_the_same_with_and_without_tables(p, e, s):
    """mul takes an F_p scalar's shortcut before the exp/log tables where it
    is one read (1, or a product of two scalars): every c < p times every
    element, on either side, gives the same with and without tables, and
    what the full product gives."""
    ctx = FieldCtx(p, e, s, find_primitive_modulus(p, e * s))
    pairs = [(c, x) for c in range(p) for x in range(ctx.size)]
    without = [ctx.mul(c, x) for c, x in pairs]
    assert [ctx.mul(x, c) for c, x in pairs] == without
    assert without == [ctx._mul_poly(c, x) for c, x in pairs]
    assert ctx._log is None
    ctx.require_tables()
    assert [ctx.mul(c, x) for c, x in pairs] == without
    assert [ctx.mul(x, c) for c, x in pairs] == without


def _square_and_multiply(ctx, a, k):
    """a^k by left-to-right square and multiply of the table-free product."""
    out = 1
    for bit in bin(k)[2:]:
        out = ctx._mul_poly(out, out)
        if bit == "1":
            out = ctx._mul_poly(out, a)
    return out


# p = 2 and odd p, e = 1 and e = 2, and the widest Kronecker slots
@pytest.mark.parametrize("p,e,s", [(2, 1, 4), (3, 1, 4), (2, 2, 4), (3, 2, 4),
                                   (2, 1, 12), (5, 1, 6), (1021, 1, 2)])
def test_frobenius_equals_the_literal_power_with_and_without_tables(p, e, s):
    # a context of its own, so no other test's tables are present at first
    ctx = FieldCtx(p, e, s, find_primitive_modulus(p, e * s))
    rng = random.Random(f"frobenius {p},{e},{s}")
    sample = [0, 1, ctx.pi, ctx.size - 1] + [rng.randrange(ctx.size) for _ in range(40)]
    expected = [_square_and_multiply(ctx, a, ctx.q) for a in sample]
    assert [ctx.frobenius_q(a) for a in sample] == expected
    ctx.require_tables()
    assert [ctx.frobenius_q(a) for a in sample] == expected


def test_trace_examples_f16():
    ctx = make_field(2, 1, 4)
    assert trace(ctx, 0, "q") == 0
    pi3 = ctx.pow(ctx.pi, 3)
    assert frobenius_sum(ctx, ctx.pi, 2, 4) == 0
    assert frobenius_sum(ctx, pi3, 2, 4) == 1
    assert trace(ctx, ctx.pi, "q") == 0
    assert trace(ctx, pi3, "q") == 1


def test_trace_additive_and_frobenius_stable():
    ctx = make_field(2, 1, 4)
    for a in range(16):
        for b in range(16):
            assert trace(ctx, ctx.add(a, b), "q") == ctx.add(trace(ctx, a, "q"),
                                                             trace(ctx, b, "q"))
        assert trace(ctx, ctx.frobenius_q(a), "q") == trace(ctx, a, "q")
    ctx81 = make_field(3, 1, 4)
    for a in range(0, 81, 5):
        assert trace(ctx81, ctx81.frobenius_q(a), "q") == trace(ctx81, a, "q")


def test_trace_transitivity_through_f4():
    ctx = make_field(2, 2, 4)  # tower F_2 < F_4 < F_256
    for a in range(0, ctx.size, 7):
        via_q = ctx.trace_q_to_p(trace(ctx, a, "q"))
        assert trace(ctx, a, "p") == via_q


def test_trace_lands_in_subfield():
    ctx = make_field(2, 2, 6)
    sub = ctx.subfield(4)
    for a in range(0, ctx.size, 97):
        assert sub.contains(trace(ctx, a, "q"))


def test_qm_trace_odd_m_only():
    even = make_field(2, 1, 4)
    with pytest.raises(ValueError):
        trace(even, 1, "qm")
    odd = make_field(2, 1, 6)
    qm = odd.q**odd.m
    member = odd.pow(odd.pi, (odd.n) // (qm - 1))
    assert trace(odd, member, "qm") in set(odd.subfield(2).elements_by_label)
    with pytest.raises(ValueError):
        trace(odd, odd.pi, "qm")  # pi generates the whole field, not F_8


def test_minimal_polynomial_of_zero_is_x():
    ctx = make_field(2, 1, 4)
    assert minimal_polynomial(ctx, 0).coeffs == (0, 1)


def test_minimal_polynomial_frozen_example():
    ctx = make_field(2, 1, 4)
    mp = minimal_polynomial(ctx, ctx.inv(ctx.pi))
    # least-degree search oracle: no monic polynomial of degree < 4 with
    # this root exists, and the degree-4 one is unique
    root = ctx.inv(ctx.pi)
    matches = []
    for packed in range(16):
        coeffs = [(packed >> i) & 1 for i in range(4)] + [1]
        acc = 0
        for c in reversed(coeffs):
            acc = ctx.add(naive_mul(ctx, acc, root), c)
        if acc == 0:
            matches.append(tuple(coeffs))
    assert matches == [(1, 0, 0, 1, 1)]
    assert mp.coeffs == (1, 0, 0, 1, 1)


def test_minimal_polynomial_degree_is_coset_size():
    ctx = make_field(2, 1, 4)
    for k in range(1, 15):
        a = ctx.pow(ctx.pi, k)
        assert minimal_polynomial(ctx, a).degree == coset_size(k, 15, 2)
    assert minimal_polynomial(ctx, ctx.pow(ctx.pi, (-5) % 15)).degree == 2


def test_minimal_polynomial_divides_field_polynomial():
    ctx = make_field(3, 1, 4)
    xq_minus_x = Poly.make(ctx, [0, ctx.neg(1)] + [0] * 79 + [1])  # x^81 - x
    for a in [1, ctx.pi, ctx.pow(ctx.pi, 7), ctx.pow(ctx.pi, 40)]:
        assert poly_divides(minimal_polynomial(ctx, a), xq_minus_x)


def test_gamma_minimal_polynomials_distinct():
    from traceweight.codes import build_gamma
    for p, e, s in [(2, 1, 4), (2, 1, 6), (3, 1, 4)]:
        ctx = make_field(p, e, s)
        polys = [minimal_polynomial(ctx, ctx.pow(ctx.pi, (-u) % ctx.n))
                 for u in build_gamma(ctx.q, ctx.m)]
        assert len({p_.coeffs for p_ in polys}) == len(polys)


@pytest.mark.parametrize("q,m", [(2, 2), (3, 2), (2, 3), (4, 2), (4, 3), (2, 5)])
def test_coset_sizes_on_gamma(q, m):
    n = q ** (2 * m) - 1
    assert coset_size(1, n, q) == 2 * m
    if m % 2:
        assert coset_size(q**m + 1, n, q) == m
    for i in range(1, m // 2 + 1):
        assert coset_size(q ** (2 * i - 1) + 1, n, q) == 2 * m


def test_coset_size_trivial_and_errors():
    assert coset_size(0, 15, 2) == 1
    with pytest.raises(ValueError):
        coset_size(1, 0, 2)


def test_make_field_rejects_bad_input():
    with pytest.raises(ValueError):
        make_field(4, 1, 4)  # p not prime
    with pytest.raises(ValueError):
        make_field(2, 1, 3)  # s odd
    with pytest.raises(FieldSizeError):
        make_field(2, 1, 70)  # over the field-size bound


def test_field_size_bound_is_one_rule_for_fields_verify_and_witness():
    budget = 10**700  # admits the work; only the size rules can refuse
    for (p, e, s), fits in [((2, 1, 26), True), ((2, 13, 2), True), ((2, 1, 28), False)]:
        q, m = p**e, s // 2
        if fits:
            assert make_field(p, e, s).size == 2**26
        else:
            with pytest.raises(FieldSizeError, match="exp/log"):
                make_field(p, e, s)
        # F_8192 labels are over a byte, which refuses (2,13,2) but not for its size
        refusals = []
        for check in (lambda: choose_oracle(q, m, "D", "extended", budget),
                      lambda: check_witness_budget(q, m, budget)):
            try:
                check()
            except FieldSizeError as exc:
                refusals.append("exp/log" in str(exc))
            else:
                refusals.append(False)
        assert refusals == [not fits] * 2, (p, e, s)


def test_log_table_bound_refusal():
    with pytest.raises(FieldSizeError):
        make_field(2, 7, 4)  # F_{2^28}, over the 2^26 table bound


# q = 2, 3, 4, 5, 8, 9 and 16, each with m odd, so that both slot fields
# are traced from, and at q = 2, 4, 8, 9 with m even too
@pytest.mark.parametrize("p,e,s", [(2, 1, 6), (2, 2, 4), (2, 3, 4), (3, 1, 6),
                                   (3, 2, 2), (3, 2, 4), (2, 1, 2), (2, 2, 2),
                                   (2, 3, 2), (5, 1, 2), (2, 4, 2), (2, 1, 4)])
def test_exp_log_and_trace_tables_match_literal_definitions(p, e, s):
    ctx = make_field(p, e, s)
    exp = ctx.exp_table()
    assert exp.shape == (ctx.n,) and exp[0] == 1
    for k in range(ctx.n - 1):
        assert exp[k + 1] == ctx._mul_poly(int(exp[k]), ctx.pi), k
    assert (ctx._log[exp] == np.arange(ctx.n)).all()
    sub_q = ctx.subfield(ctx.q)
    uppers = {"q": ctx.size, "qm": ctx.q**ctx.m} if ctx.m % 2 else {"q": ctx.size}
    for selector, upper in uppers.items():
        # pi^k lies in F_upper exactly at the multiples of n/(upper - 1)
        step = ctx.n // (upper - 1)
        table = ctx.trace_labels(upper)
        assert table.shape == (ctx.n,) and table.dtype == np.uint8
        assert [int(table[k]) for k in range(0, ctx.n, step)] == \
            [sub_q.label_of(trace(ctx, int(exp[k]), selector)) for k in range(0, ctx.n, step)]
        assert np.count_nonzero(table != 0xFF) == upper - 1  # 0xFF outside F_upper
        assert ctx.trace_labels(upper) is table  # built once


# p = 2 at D = 4, 6 (q = 8) and 12, odd p = 3, 5, 31 and 251 (F_{251^2})
@pytest.mark.parametrize("p,e,s", [(2, 1, 4), (2, 3, 2), (2, 1, 12), (3, 1, 8), (5, 1, 6),
                                   (31, 1, 2), (251, 1, 2)])
def test_linear_image_equals_the_literal_digit_map(monkeypatch, p, e, s):
    """At p = 2 short inputs take the direct path and long ones the half
    tables; at odd p both take the direct path.  Each gives the literal
    map, in blocks of 64 values, for square and two-column matrices, at
    0, size - 1 and the values around the split between the digit
    halves."""
    ctx = make_field(p, e, s)
    monkeypatch.setattr(fields, "_LINEAR_BLOCK", 64)
    D, h = ctx.degree, (ctx.degree + 1) // 2
    rng = np.random.default_rng(p * D)
    edges = [0, ctx.size - 1, p**h - 1, p**h, p**h + 1, ctx.size - p**h, ctx.size - p**h - 1]
    short = np.array(edges + rng.integers(0, ctx.size, 20).tolist(), dtype=np.int64)
    long = np.concatenate([short, rng.integers(0, ctx.size, fields._HALF_TABLES_FROM)])
    assert len(short) < fields._HALF_TABLES_FROM < len(long)
    for columns in (D, 2):
        matrix = rng.integers(0, p, (D, columns))
        matrix[0] = p - 1  # every digit p - 1: the largest digit sums
        for values in (short, long):
            expected = literal_linear_image(ctx, values, matrix.tolist())
            assert ctx.linear_image(values, matrix).tolist() == expected
            out = np.full(2 * len(values), -1, dtype=np.int64)
            ctx.linear_image(values, matrix, out=out[::2])
            assert out[::2].tolist() == expected and (out[1::2] == -1).all()


@pytest.mark.parametrize("p,rows", [
    (2, [[0, 1, 1], [1, 1, 0]]), (3, [[2, 0, 1, 1], [0, 0, 2, 1], [1, 0, 0, 2]]),
    (5, [[1, 0], [0, 1]]), (7, [[3, 5, 0], [6, 2, 4]])])
def test_coordinate_inverse_recovers_coordinates(p, rows):
    matrix = coordinate_inverse(rows, p)
    basis = np.array(rows)
    assert matrix.shape == basis.T.shape
    for coords in np.ndindex(*(p,) * len(rows)):
        x = np.array(coords) @ basis % p
        assert (x @ matrix % p).tolist() == list(coords)
    with pytest.raises(ValueError):
        coordinate_inverse(rows + [[(a + b) % p for a, b in zip(rows[0], rows[-1])]], p)


def test_trace_labels_refuse_labels_above_a_byte():
    with pytest.raises(FieldSizeError):
        make_field(2, 9, 2).trace_labels(2**18)


def test_split_prime_power():
    assert split_prime_power(4) == (2, 2)
    assert split_prime_power(27) == (3, 3)
    assert split_prime_power(7) == (7, 1)
    for bad in (1, 6, 12, 100):
        with pytest.raises(ValueError):
            split_prime_power(bad)


def _trial_division_split(q):
    p = next(d for d in range(2, q + 1) if q % d == 0)
    e = 0
    while q % p == 0:
        q //= p
        e += 1
    return (p, e) if q == 1 else None


def test_split_prime_power_equals_trial_division_below_2_12():
    for q in range(2, 1 << 12):
        try:
            got = split_prime_power(q)
        except ValueError:
            got = None
        assert got == _trial_division_split(q), q


def test_split_prime_power_of_large_primes_and_powers():
    m31, m61 = 2**31 - 1, 2**61 - 1  # Mersenne primes
    assert split_prime_power(m61) == (m61, 1)
    assert split_prime_power(m31**2) == (m31, 2)
    assert split_prime_power(3**40) == (3, 40)
    with pytest.raises(ValueError):
        split_prime_power(m31 * m61)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25])
def test_subfield_elements_equal_the_digit_by_digit_construction(q):
    """elements_by_label, one linear_image of the labels, equals the
    elements built digit by digit, at orders q and q^2 inside F_{q^4}."""
    p, e = split_prime_power(q)
    ctx = make_field(p, e, 4)
    for order in (q, q * q):
        sub = fields.SubfieldView(ctx, order)
        assert list(sub.elements_by_label) == \
            [literal_subfield_element(sub, lbl) for lbl in range(order)]


def test_subfield_elements_of_the_largest_labelled_field():
    """A spread of 1,000 labels of F_65536, the largest order with labels."""
    sub = fields.SubfieldView(make_field(2, 8, 2), 2**16)
    labels = np.linspace(0, 2**16 - 1, 1000).astype(np.int64).tolist()
    assert [sub.elements_by_label[lbl] for lbl in labels] == \
        [literal_subfield_element(sub, lbl) for lbl in labels]


def test_subfield_labels_are_additive():
    ctx = make_field(2, 2, 4)
    sub = ctx.subfield(4)
    for i in range(4):
        for j in range(4):
            total = ctx.add(sub.from_label(i), sub.from_label(j))
            assert sub.label_of(total) == sub.add_labels(i, j)


def _label_product(sub, a, b):
    """The matrix product of two label matrices, entry by entry through
    the field's own add and mul."""
    ctx = sub.ctx
    out = []
    for row in a:
        out.append([])
        for col in zip(*b):
            acc = 0
            for x, y in zip(row, col):
                acc = ctx.add(acc, ctx.mul(sub.from_label(x), sub.from_label(y)))
            out[-1].append(sub.label_of(acc))
    return out


def _rank_cases(sub, rng):
    """(matrix, known rank or None) over the labels of sub: 1 x 1, 1 x k,
    k x 1, zero, full-rank (unit lower times invertible upper triangular),
    random squares up to 10 x 10 and rank-deficient k x r times r x k
    products."""
    Q = sub.order

    def rand(rows, cols):
        return [[rng.randrange(Q) for _ in range(cols)] for _ in range(rows)]

    cases = [([[0]], 0), ([[rng.randrange(1, Q)]], 1)]
    for k in range(2, 7):
        cases += [(rand(1, k), None), (rand(k, 1), None), ([[0] * k] * k, 0),
                  ([[0] * (k + 1)] * k, 0)]
    for k in range(2, 11):
        lower = [[1 if i == j else rng.randrange(Q) if i > j else 0 for j in range(k)]
                 for i in range(k)]
        upper = [[rng.randrange(1, Q) if i == j else rng.randrange(Q) if i < j else 0
                  for j in range(k)] for i in range(k)]
        full = _label_product(sub, lower, upper)
        rng.shuffle(full)
        cases += [(full, k), (rand(k, k), None), (rand(k, k + 2), None)]
        for r in range(1, k):
            cases.append((_label_product(sub, rand(k, r), rand(r, k)), None))
    return cases


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49, 256])
def test_label_matrix_rank_equals_the_literal_elimination(q):
    # the echelon elimination through the label tables against Gauss-Jordan
    # with a field operation per entry, on seeded random matrices
    p, e = split_prime_power(q)
    sub = make_field(p, 1, 2 * e).subfield(q)
    for rows, known in _rank_cases(sub, random.Random(q)):
        expected = literal_label_rank(sub, rows)
        if known is not None:
            assert expected == known, rows
        assert label_matrix_rank(sub, rows) == expected, rows


def test_label_matrix_rank_above_the_byte_tables():
    # F_{17^2} has labels above 255: its uint8 op tables are refused before
    # any entry is computed, while the elimination's list tables hold them
    sub = make_field(17, 1, 4).subfield(17**2)
    with pytest.raises(FieldSizeError):
        sub.mul_table()
    assert not sub._rows
    rng = random.Random(17)
    for rows in ([[rng.randrange(289) for _ in range(3)] for _ in range(3)],
                 _label_product(sub, [[5], [200]], [[7, 288]])):
        assert label_matrix_rank(sub, rows) == literal_label_rank(sub, rows)


def test_poly_divmod_roundtrip():
    ctx = make_field(3, 1, 4)
    a = Poly.make(ctx, [2, 0, 1, 1, 0, 2, 1])
    b = Poly.make(ctx, [1, 2, 1])
    quot, rem = poly_divmod(a, b)
    assert rem.degree < b.degree
    assert _poly_add(ctx, quot * b, rem) == a


def _poly_add(ctx, f, g):
    coeffs = [0] * max(len(f.coeffs), len(g.coeffs))
    for i, c in enumerate(f.coeffs):
        coeffs[i] = ctx.add(coeffs[i], c)
    for i, c in enumerate(g.coeffs):
        coeffs[i] = ctx.add(coeffs[i], c)
    return Poly.make(ctx, coeffs)
