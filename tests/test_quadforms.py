"""Quadratic forms: rank via the radical, character sums, histograms."""

import tracemalloc
from collections import Counter

import numpy as np
import pytest
from conftest import (count_solutions, form_at, linear_trace_rows, literal_bilinear,
                      literal_coefficients, literal_gram, literal_label_rank, literal_value,
                      naive_mul, offset_sum_rows, packed_trace_rows, per_form_histogram,
                      per_form_tables, shift_sum_rows, slot_trace, solution_count_multiset,
                      solution_counts, trace)

from traceweight.admission import LINEAR_TRACE_BOUND, FieldSizeError
from traceweight.codes import ConsistencyError
from traceweight.fields import make_field
from traceweight.quadforms import (MATCH_WORDS, FormSpace, QuadForm, all_forms, big_T,
                                   coordinate_matches, form_values, gram_labels,
                                   gram_points, integral_character_sum,
                                   linear_trace_planes, match_block, r_histogram,
                                   s_histogram)
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
    zero = form_at(FormSpace(ctx), 0)
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
        form = form_at(space, index)
        assert brute_radical_size(form) == 3 ** (4 - form.rank)


@pytest.mark.parametrize("p,e,m,modulus_rank", [(2, 1, 2, 0), (3, 1, 2, 0),
                                                (2, 2, 2, 0), (2, 1, 3, 0),
                                                (3, 2, 1, 0), (3, 1, 2, 1)])
def test_rank_equals_rank_of_the_literal_gram(p, e, m, modulus_rank):
    # the block's batched rank against the literal elimination of the s^2
    # literal B(pi^a, pi^b)
    ctx = make_field(p, e, 2 * m, modulus_rank)
    sub = ctx.subfield(ctx.q)
    for form in all_forms(ctx):
        assert form.rank == literal_label_rank(sub, literal_gram(form)), form.coeffs


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
        assert big_T(form_at(FormSpace(ctx), 0)) == ctx.size


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
    seen_rank4 = [form_at(space, i) for i in range(0, 81, 11)]
    for form in seen_rank4:
        if form.rank == 4:
            assert big_T(form) == 9


def test_big_T_against_naive_recount():
    # independent recount with schoolbook arithmetic on a couple of forms
    ctx = make_field(3, 1, 4)
    space = FormSpace(ctx)
    for index in (1, 17):
        form = form_at(space, index)
        counts = [0, 0, 0]
        for x in range(81):
            value = literal_value(form, x)
            counts[ctx.trace_q_to_p(value)] += 1
        assert counts[1] == counts[2]
        assert big_T(form) == counts[0] - counts[1]


def test_big_T_holds_no_coordinate_long_temporary(monkeypatch):
    """big_T tallies the labels a block at a time and sums the label counts
    per residue: with blocks of 256 labels, its traced peak at n = 16,383
    stays below n bytes, where one residue per coordinate takes 8n."""
    from traceweight import quadforms
    ctx = make_field(2, 1, 14)
    form = form_at(FormSpace(ctx), 12345)
    residues = np.bincount(quadforms.trace_residues(ctx)[form.value_labels()], minlength=2)
    monkeypatch.setattr(quadforms, "MATCH_WORDS", 256)
    tracemalloc.start()
    try:
        t = big_T(form)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t == residues[0] + 1 - residues[1]
    assert peak < ctx.n


@pytest.mark.parametrize("p,e,m", [(2, 1, 3), (2, 1, 4), (2, 1, 5), (3, 1, 2), (3, 1, 3),
                                   (2, 2, 2), (2, 2, 3), (3, 2, 1), (3, 2, 2), (3, 2, 3)])
def test_coefficients_equal_the_digit_by_digit_construction(p, e, m):
    """FormSpace.coefficients, one linear map per slot, equals the
    coefficients built digit by digit: at both ends of the space, on both
    sides of every slot boundary and at a spread of indices, in one call
    (the half tables at p = 2 from 256 indices) and in short calls."""
    space = FormSpace(make_field(p, e, 2 * m))
    q, widths = p**e, [len(basis) for basis in space.slot_bases]
    picks = {0, 1, space.num_forms - 1,
             *range(0, space.num_forms, max(1, space.num_forms // 300))}
    for j in range(1, len(widths)):
        bound = q ** sum(widths[:j])  # the first index of slot j
        picks |= {bound - 1, bound, bound + 1, 2 * bound - 1, bound * (bound + 1) - 1}
    idx = sorted(i for i in picks if i < space.num_forms)
    expected = [list(literal_coefficients(space, i)) for i in idx]
    assert space.coefficients(np.array(idx)).tolist() == expected
    assert space.coefficients(idx[-5:]).tolist() == expected[-5:]
    assert space.coefficients(np.array([], dtype=np.int64)).shape == (0, len(widths))


@pytest.mark.parametrize("modulus_rank", [0, 1])
@pytest.mark.parametrize("p,e,m", [(2, 1, 2), (3, 1, 2), (2, 2, 2), (2, 1, 3), (3, 2, 1),
                                   (2, 2, 3)])
def test_local_values_invert_the_coefficients(p, e, m, modulus_rank):
    """FormSpace.local_values recovers every nonzero value of every slot
    from the log of the coefficient that FormSpace.coefficients gives it."""
    space = FormSpace(make_field(p, e, 2 * m, modulus_rank))
    ctx, below = space.ctx, 0
    for j, basis in enumerate(space.slot_bases):
        values = np.arange(1, ctx.q ** len(basis), dtype=np.int64)
        coeffs = space.coefficients(values * ctx.q**below)[:, j]
        assert coeffs.all()
        assert space.local_values(j, ctx.log_table()[coeffs]).tolist() == values.tolist()
        below += len(basis)


def test_integral_character_sum_rejects_irrational():
    with pytest.raises(ConsistencyError):
        integral_character_sum([5, 3, 1], 3)
    assert integral_character_sum([5, 3, 3], 3) == 2
    assert integral_character_sum([7, 4], 2) == 3


def test_epsilon_values():
    ctx = make_field(2, 1, 4)
    zero = form_at(FormSpace(ctx), 0)
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
    zero = form_at(FormSpace(ctx), 0)
    assert count_solutions(zero, 0, 0) == 81
    assert count_solutions(zero, 5, 0) == 27
    assert count_solutions(zero, 5, 1) == 27


def test_count_solutions_sums_to_field_size():
    ctx = make_field(3, 1, 4)
    space = FormSpace(ctx)
    sub = ctx.subfield(3)
    for index in (0, 1, 13, 44):
        form = form_at(space, index)
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
    zero = form_at(FormSpace(ctx), 0)
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
    zero = form_at(FormSpace(ctx), 0)
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
    """The first epsilon or big_T of a form contracts the residues of every
    form of its block, one integral_character_sum call each, and no later
    epsilon or big_T of the block calls it again: in one block of all 81
    forms and in blocks of 3."""
    from traceweight import quadforms
    calls = []

    def counted(counts, p):
        calls.append(p)
        return integral_character_sum(counts, p)
    monkeypatch.setattr(quadforms, "integral_character_sum", counted)
    ctx = make_field(3, 1, 4)
    for block_forms in (81, 3):
        monkeypatch.setattr(quadforms, "MATCH_WORDS", block_forms * ctx.n)
        calls.clear()
        for i, form in enumerate(FormSpace(ctx).forms(range(81))):
            eps = form.epsilon
            assert big_T(form) == eps * 3 ** (4 - form.rank // 2)
            assert len(calls) == (i // block_forms + 1) * block_forms


@pytest.mark.parametrize("p,e,m", [(2, 1, 2), (3, 1, 2), (2, 2, 2)])
def test_s_and_every_r_histogram_of_a_form_cost_one_match_call(monkeypatch, p, e, m):
    """Over a whole forms() pass, the first histogram of a block's first
    form fills the beta tables of the whole block, one coordinate_matches
    call for every target per match_block of forms; S and each R_b of
    every form then read their rows and never call it again.  In blocks
    of the default size and of 3 forms."""
    from traceweight import quadforms
    calls = []

    def counted(ctx, values, targets):
        calls.append((len(values), list(targets)))
        return coordinate_matches(ctx, values, targets)
    monkeypatch.setattr(quadforms, "coordinate_matches", counted)
    ctx = make_field(p, e, 2 * m)
    sub = ctx.subfield(ctx.q)
    space = FormSpace(ctx)
    for words in (MATCH_WORDS, 3 * ctx.n):
        monkeypatch.setattr(quadforms, "MATCH_WORDS", words)
        block, step = max(1, words // ctx.n), match_block(ctx, ctx.q)
        expected = []
        for lo in range(0, space.num_forms, block):
            size = min(block, space.num_forms - lo)
            expected += [(min(step, size - at), list(range(ctx.q)))
                         for at in range(0, size, step)]
        calls.clear()
        forms = []
        for i, form in enumerate(space.forms(range(space.num_forms))):
            s_histogram(form)
            for b in sub.elements_by_label[1:]:
                r_histogram(form, b)
            # the block's calls, made at its first form
            assert len(calls) == sum(-(-min(block, space.num_forms - lo) // step)
                                     for lo in range(0, i + 1, block))
            forms.append(form)
        assert calls == expected
        for form in forms:
            s_histogram(form)
            for b in sub.elements_by_label[1:]:
                r_histogram(form, b)
        assert calls == expected


@pytest.mark.parametrize("block_forms", [0, 1, 3])
@pytest.mark.parametrize("p,e,m", [(2, 1, 2), (3, 1, 2), (2, 1, 3), (2, 2, 2), (3, 2, 1)])
def test_block_tables_equal_the_per_form_path(monkeypatch, p, e, m, block_forms):
    """Every form's beta table, T, S histogram and R_b histograms, read off
    its block's tables, equal the per-form path on the form's own value
    table (conftest's per_form_tables), in blocks of the default size
    (block_forms 0) and of 1 and of 3 forms."""
    from traceweight import quadforms
    ctx = make_field(p, e, 2 * m)
    if block_forms:
        monkeypatch.setattr(quadforms, "MATCH_WORDS", block_forms * ctx.n)
    sub = ctx.subfield(ctx.q)
    space = FormSpace(ctx)
    for form in space.forms(range(space.num_forms)):
        values, table, t = per_form_tables(form)
        assert np.array_equal(form.value_labels(), values)
        assert form.beta_table().shape == table.shape
        assert np.array_equal(form.beta_table(), table)
        assert big_T(form) == t
        assert s_histogram(form) == per_form_histogram(ctx, table, 0)
        for b in sub.elements_by_label[1:]:
            assert r_histogram(form, b) == \
                per_form_histogram(ctx, table, sub.label_of(ctx.neg(b)))


@pytest.mark.parametrize("match_words", [MATCH_WORDS, 64])
@pytest.mark.parametrize("p,e,m", [(2, 1, 2), (3, 1, 2), (2, 1, 3), (2, 2, 2), (3, 2, 1)])
def test_form_space_grams_equal_each_forms_own(monkeypatch, p, e, m, match_words):
    """The Grams FormSpace.forms reads for a block of forms at once, in
    blocks of many forms or of a few, are gram_labels of each form's own
    table at the Gram points."""
    from traceweight import quadforms
    monkeypatch.setattr(quadforms, "MATCH_WORDS", match_words)
    ctx = make_field(p, e, 2 * m)
    space = FormSpace(ctx)
    for form in space.forms(range(space.num_forms)):
        own = gram_labels(ctx, form.value_labels()[gram_points(ctx)])
        assert np.array_equal(form._block.grams[form._at], own)


@pytest.mark.parametrize("p,e,m,stride", [(2, 1, 2, 1), (3, 1, 2, 1), (2, 1, 3, 1),
                                          (2, 2, 2, 17)])
def test_coordinate_tables_match_literal_definitions(p, e, m, stride):
    ctx = make_field(p, e, 2 * m)
    sub = ctx.subfield(ctx.q)
    coords = [ctx.pow(ctx.pi, i) for i in range(ctx.n)]
    space = FormSpace(ctx)
    forms = [form_at(space, i) for i in range(0, space.num_forms, stride)]
    for form in forms:
        literal = [literal_value(form, x) for x in coords]
        assert form.value_labels().tolist() == [sub.label_of(v) for v in literal]
        for j, (c, u) in enumerate(zip(form.coeffs, form.exponents)):
            # one slot alone: the one trace term Tr(c x^u)
            alone = tuple(c if i == j else 0 for i in range(len(form.coeffs)))
            term = [sub.label_of(trace(ctx, ctx.mul(c, ctx.pow(x, u)), slot_trace(ctx, j)))
                    for x in coords]
            assert form_values(ctx, [alone])[0].tolist() == term
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
    forms = [form_at(space, i) for i in picks]
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


# F_{2^4} (n = 15), F_{3^6}, F_{31^2} (n = 960, a multiple of 64) and
# F_{64^2} (six planes, at the linear-trace bound)
@pytest.mark.parametrize("p,e,s", [(2, 1, 4), (3, 1, 6), (31, 1, 2), (2, 6, 2)])
def test_linear_trace_planes_equal_the_packed_rows(p, e, s):
    """The planes cut from the one packed trace sequence equal the byte
    table of every row, packed row by row."""
    ctx = make_field(p, e, s)
    planes = linear_trace_planes(ctx)
    assert planes.dtype == np.uint64 and not planes.flags.writeable
    assert (planes == packed_trace_rows(ctx)).all()


def test_linear_trace_planes_refuse_fields_above_the_bound():
    ctx = make_field(2, 1, 14)
    assert ctx.size > LINEAR_TRACE_BOUND
    with pytest.raises(FieldSizeError, match="linear-trace"):
        linear_trace_planes(ctx)


def test_count_solutions_validates_beta_and_zeta():
    ctx = make_field(2, 1, 4)
    form = form_at(FormSpace(ctx), 5)
    assert count_solutions(form, ctx.size - 1, 0) >= 0
    for beta in (-1, ctx.size):
        with pytest.raises(ValueError):
            count_solutions(form, beta, 0)
    with pytest.raises(ValueError):
        count_solutions(form, 0, ctx.pi)  # not in F_q
