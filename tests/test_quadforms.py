"""Quadratic forms: rank via the radical, character sums, histograms."""

from collections import Counter

import numpy as np
import pytest
from conftest import (count_solutions, literal_bilinear, literal_gram, literal_value,
                      naive_mul, offset_sum_rows, shift_sum_rows,
                      solution_count_multiset, solution_counts, trace)

from traceweight.codes import ConsistencyError
from traceweight.fields import label_matrix_rank, make_field
from traceweight.quadforms import (FormSpace, QuadForm, all_forms, big_T,
                                   coordinate_matches, coordinate_values,
                                   integral_character_sum,
                                   linear_trace_rows, r_histogram, s_histogram)
from traceweight.spectra import frequencies


def brute_radical_size(form):
    """|{y : B(x, y) = 0 for all x}| by double loop, no linear algebra."""
    ctx = form.ctx
    return sum(1 for y in range(ctx.size)
               if all(literal_bilinear(form, x, y) == 0 for x in range(ctx.size)))


def test_form_space_sizes():
    for p, e, m in [(2, 1, 2), (3, 1, 2), (2, 1, 3), (2, 2, 2), (2, 1, 1)]:
        ctx = make_field(p, e, 2 * m)
        assert FormSpace(ctx).num_forms == (p**e) ** (m * m)


def test_zero_form_everywhere_zero():
    ctx = make_field(2, 1, 4)
    zero = FormSpace(ctx).form_at(0)
    assert all(literal_value(zero, x) == 0 for x in range(16))


def test_forms_vanish_at_zero():
    ctx = make_field(2, 1, 4)
    assert all(literal_value(f, 0) == 0 for f in all_forms(ctx))


def test_eval_example_22():
    ctx = make_field(2, 1, 4)
    form = QuadForm(ctx, (1,))
    expected = trace(ctx, naive_mul(ctx, ctx.pi, naive_mul(ctx, ctx.pi, ctx.pi)), "q")
    assert expected == 1
    assert literal_value(form, ctx.pi) == 1


def test_odd_m_leading_coefficient_validated():
    ctx = make_field(2, 1, 6)
    with pytest.raises(ValueError, match="F_{q\\^m}"):
        QuadForm(ctx, (ctx.pi, 0))


def test_rank_against_brute_radical():
    ctx = make_field(2, 1, 4)
    for form in all_forms(ctx):
        size = brute_radical_size(form)
        assert size == 2 ** (4 - form.rank)
    ctx32 = make_field(3, 1, 4)
    space = FormSpace(ctx32)
    for index in range(0, space.num_forms, 7):
        form = space.form_at(index)
        assert brute_radical_size(form) == 3 ** (4 - form.rank)


@pytest.mark.parametrize("p,e,m,modulus_rank", [(2, 1, 2, 0), (3, 1, 2, 0),
                                                (2, 2, 2, 0), (2, 1, 3, 0),
                                                (3, 1, 2, 1)])
def test_rank_equals_rank_of_the_literal_gram(p, e, m, modulus_rank):
    # the Gram read off the value table against s^2 literal B(pi^a, pi^b)
    ctx = make_field(p, e, 2 * m, modulus_rank)
    sub = ctx.subfield(ctx.q)
    for form in all_forms(ctx):
        assert form.rank == label_matrix_rank(sub, literal_gram(form)), form.coeffs


@pytest.mark.parametrize("p,e,m,expected", [
    (2, 1, 2, {0: 1, 2: 5, 4: 10}),
    (3, 1, 2, {0: 1, 2: 20, 4: 60}),
])
def test_rank_counts(p, e, m, expected):
    ctx = make_field(p, e, 2 * m)
    assert dict(Counter(f.rank for f in all_forms(ctx))) == expected


def test_big_T_zero_form():
    for p, e, m in [(2, 1, 2), (3, 1, 2)]:
        ctx = make_field(p, e, 2 * m)
        assert big_T(FormSpace(ctx).form_at(0)) == ctx.size


def test_big_T_values_and_multiplicities():
    for p, e, m in [(2, 1, 2), (3, 1, 2), (2, 1, 3)]:
        ctx = make_field(p, e, 2 * m)
        q = p**e
        observed = Counter(big_T(f) for f in all_forms(ctx))
        expected = Counter()
        for j, f_j in enumerate(frequencies(q, m)):
            expected[(-1) ** j * q ** (2 * m - j)] += f_j
        assert observed == expected


def test_big_T_frozen_examples():
    ctx = make_field(2, 1, 4)
    for form in all_forms(ctx):
        if form.rank == 2:
            assert big_T(form) == -8
    ctx32 = make_field(3, 1, 4)
    space = FormSpace(ctx32)
    seen_rank4 = [space.form_at(i) for i in range(0, 81, 11)]
    for form in seen_rank4:
        if form.rank == 4:
            assert big_T(form) == 9


def test_big_T_against_naive_recount():
    # independent recount with schoolbook arithmetic on a couple of forms
    ctx = make_field(3, 1, 4)
    space = FormSpace(ctx)
    for index in (1, 17):
        form = space.form_at(index)
        counts = [0, 0, 0]
        for x in range(81):
            value = literal_value(form, x)
            counts[ctx.trace_q_to_p(value)] += 1
        assert counts[1] == counts[2]
        assert big_T(form) == counts[0] - counts[1]


def test_integral_character_sum_rejects_irrational():
    with pytest.raises(ConsistencyError):
        integral_character_sum([5, 3, 1], 3)
    assert integral_character_sum([5, 3, 3], 3) == 2
    assert integral_character_sum([7, 4], 2) == 3


def test_epsilon_values():
    ctx = make_field(2, 1, 4)
    zero = FormSpace(ctx).form_at(0)
    assert zero.epsilon == 1
    for form in all_forms(ctx):
        assert form.epsilon == (-1) ** (form.rank // 2)
        if form.rank == 2:
            assert form.epsilon == -1
        if form.rank == 4:
            assert form.epsilon == 1
    for form in all_forms(make_field(3, 1, 4)):
        assert form.epsilon == (-1) ** (form.rank // 2)


def test_count_solutions_trivial_cases():
    ctx = make_field(3, 1, 4)
    zero = FormSpace(ctx).form_at(0)
    assert count_solutions(zero, 0, 0) == 81
    assert count_solutions(zero, 5, 0) == 27
    assert count_solutions(zero, 5, 1) == 27


def test_count_solutions_sums_to_field_size():
    ctx = make_field(3, 1, 4)
    space = FormSpace(ctx)
    sub = ctx.subfield(3)
    for index in (0, 1, 13, 44):
        form = space.form_at(index)
        for beta in (0, 7, 50):
            total = sum(count_solutions(form, beta, sub.from_label(z))
                        for z in range(3))
            assert total == 81


@pytest.mark.parametrize("p,e,m", [(2, 1, 2), (3, 1, 2)])
def test_solution_counts_match_two_case_pattern(p, e, m):
    # per zeta, the multiset over beta of solution counts has the balanced
    # value q^s - q^r times plus one batch per constant offset
    ctx = make_field(p, e, 2 * m)
    q = p**e
    for form in all_forms(ctx):
        if not any(form.coeffs):
            continue
        for zeta in range(q):
            observed = Counter(count_solutions(form, beta, zeta)
                               for beta in range(ctx.size))
            expected = solution_count_multiset(q, 2 * m, form.rank, form.epsilon, zeta)
            assert dict(observed) == expected


def test_s_histogram_zero_form():
    ctx = make_field(3, 1, 4)
    zero = FormSpace(ctx).form_at(0)
    assert s_histogram(zero) == {2 * 81: 1, 0: 80}


def test_s_histogram_frozen_22():
    ctx = make_field(2, 1, 4)
    by_rank = {}
    for form in all_forms(ctx):
        by_rank.setdefault(form.rank, form)
    assert s_histogram(by_rank[2]) == {0: 12, -8: 1, 8: 3}
    assert s_histogram(by_rank[4]) == {-4: 6, 4: 10}


def test_r_histogram_zero_form_and_b_validation():
    ctx = make_field(3, 1, 4)
    zero = FormSpace(ctx).form_at(0)
    assert r_histogram(zero, 1) == {-81: 1, 0: 80}
    with pytest.raises(ValueError):
        r_histogram(zero, 0)
    with pytest.raises(ValueError):
        r_histogram(zero, ctx.pi)  # not in F_q


def test_r_histogram_frozen():
    ctx = make_field(2, 1, 4)
    rank2 = next(f for f in all_forms(ctx) if f.rank == 2)
    assert r_histogram(rank2, 1) == {0: 12, -8: 3, 8: 1}
    ctx32 = make_field(3, 1, 4)
    rank2_32 = next(f for f in all_forms(ctx32) if f.rank == 2)
    hist = r_histogram(rank2_32, 1)
    assert hist == {0: 72, -54: 4, 27: 5}
    assert sum(v * c for v, c in hist.items()) == -81  # first moment = -q^s


@pytest.mark.parametrize("p,e,m", [(2, 1, 2), (3, 1, 2), (2, 1, 3)])
def test_histograms_match_rank_driven_rows_exhaustively(p, e, m):
    ctx = make_field(p, e, 2 * m)
    q, s = p**e, 2 * m
    sub = ctx.subfield(q)
    for form in all_forms(ctx):
        r, eps = form.rank, form.epsilon
        assert s_histogram(form) == shift_sum_rows(q, s, r, eps)
        assert sum(s_histogram(form).values()) == ctx.size
        for lbl in range(1, q):
            assert r_histogram(form, sub.from_label(lbl)) == offset_sum_rows(q, s, r, eps)


@pytest.mark.parametrize("p,e,m", [(2, 1, 2), (3, 1, 2), (2, 2, 2)])
def test_histograms_equal_the_counter_of_solution_counts(p, e, m):
    # every form, the zero form first: the bincount histograms against the
    # Counter over beta of q * N_beta(zeta) - q^s, zeta = 0 for S and -b for R_b
    ctx = make_field(p, e, 2 * m)
    sub = ctx.subfield(ctx.q)

    def shifted(form, zeta):
        return Counter(ctx.q * count_solutions(form, beta, zeta) - ctx.size
                       for beta in range(ctx.size))
    for form in all_forms(ctx):
        assert s_histogram(form) == shifted(form, 0)
        for b in sub.elements_by_label[1:]:
            assert r_histogram(form, b) == shifted(form, ctx.neg(b))


def test_epsilon_then_big_T_tallies_the_residues_once(monkeypatch):
    from traceweight import quadforms
    calls = []

    def counted(counts, p):
        calls.append(p)
        return integral_character_sum(counts, p)
    monkeypatch.setattr(quadforms, "integral_character_sum", counted)
    for form in all_forms(make_field(3, 1, 4)):
        calls.clear()
        eps = form.epsilon
        assert big_T(form) == eps * 3 ** (4 - form.rank // 2)
        assert len(calls) == 1

@pytest.mark.parametrize("p,e,m,stride", [(2, 1, 2, 1), (3, 1, 2, 1), (2, 1, 3, 1),
                                          (2, 2, 2, 17)])
def test_coordinate_tables_match_literal_definitions(p, e, m, stride):
    ctx = make_field(p, e, 2 * m)
    sub = ctx.subfield(ctx.q)
    coords = [ctx.pow(ctx.pi, i) for i in range(ctx.n)]
    uppers = {"qm": ctx.q**ctx.m, "q": ctx.size}
    space = FormSpace(ctx)
    forms = [space.form_at(i) for i in range(0, space.num_forms, stride)]
    for form in forms:
        literal = [literal_value(form, x) for x in coords]
        assert form.value_labels().tolist() == [sub.label_of(v) for v in literal]
        for c, u, sel in zip(form.coeffs, form.exponents, form.selectors):
            if c:
                term = [sub.label_of(trace(ctx, ctx.mul(c, ctx.pow(x, u)), sel))
                        for x in coords]
                assert coordinate_values(ctx, c, u, uppers[sel]).tolist() == term
    if ctx.size > 81:
        return
    traces = [[trace(ctx, ctx.mul(b, x)) for x in coords] for b in range(ctx.size)]
    assert linear_trace_rows(ctx).tolist() == \
        [[sub.label_of(t) for t in row] for row in traces]
    for form in forms[::7]:
        literal = [literal_value(form, x) for x in coords]
        matches = coordinate_matches(ctx, form.value_labels(), range(ctx.q))
        for target in sub.elements_by_label:
            double_loop = [sum(ctx.add(t, v) == target for t, v in zip(row, literal))
                           for row in traces]
            assert matches[sub.label_of(target)].tolist() == double_loop


@pytest.mark.parametrize("p,e,m", [(2, 1, 3), (3, 1, 2), (2, 2, 2), (5, 1, 2), (7, 1, 2),
                                   (2, 3, 2), (3, 2, 1), (2, 4, 1), (2, 6, 1)])
def test_plane_matches_equal_literal_counts(p, e, m):
    # q = 2..64: one to six bit planes, and n = 63, 80, 255, 624, 2400,
    # 4095 coordinates, none a multiple of 64
    ctx = make_field(p, e, 2 * m)
    space = FormSpace(ctx)
    sub = ctx.subfield(ctx.q)
    # at 4096 x 4095 bytes a target, one nonzero form only
    picks = [space.num_forms // 3] + ([0, 1, space.num_forms - 1] if ctx.size < 4096 else [])
    forms = [space.form_at(i) for i in picks]
    batch = coordinate_matches(ctx, np.stack([f.value_labels() for f in forms]),
                               range(ctx.q))
    assert batch.shape == (ctx.q, len(forms), ctx.size)
    for i, form in enumerate(forms):
        alone = coordinate_matches(ctx, form.value_labels(), range(ctx.q))
        assert (alone == batch[:, i]).all()
        # any sequence of targets, in any order
        assert (coordinate_matches(ctx, form.value_labels(), range(ctx.q)[::-1]) ==
                alone[::-1]).all()
        for lbl, zeta in enumerate(sub.elements_by_label):
            literal = solution_counts(form, zeta) - (zeta == 0)  # x = 0 is not a coordinate
            assert (alone[lbl] == literal).all()
        for beta in (0, 1, ctx.size - 1):  # tied to the per-beta reference
            assert solution_counts(form, 0)[beta] == count_solutions(form, beta, 0)


def test_count_solutions_validates_beta_and_zeta():
    ctx = make_field(2, 1, 4)
    form = FormSpace(ctx).form_at(5)
    assert count_solutions(form, ctx.size - 1, 0) >= 0
    for beta in (-1, ctx.size):
        with pytest.raises(ValueError):
            count_solutions(form, beta, 0)
    with pytest.raises(ValueError):
        count_solutions(form, 0, ctx.pi)  # not in F_q
