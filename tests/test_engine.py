"""Enumeration engine: oracle agreement, budgets, determinism."""

import gc
import hashlib
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from conftest import (codeword, form_at, full_map_local_values, literal_coefficients,
                      literal_gram, literal_label_rank, literal_value, parameter_slots, weight)
from hypothesis import given, settings
from hypothesis import strategies as st

from traceweight import engine, fields, quadforms
from traceweight.admission import BudgetExceeded, FieldSizeError
from traceweight.codes import ConsistencyError, build_code
from traceweight.engine import (TIER_BUDGETS, brute_distribution, brute_work,
                                measure_rank_counts, rank_sweep,
                                rank_sweep_work, verify)
from traceweight.fields import make_field
from traceweight.quadforms import FormSpace, QuadForm, form_values, gram_labels, gram_points
from traceweight.spectra import frequencies, predict


def direct_codeword_distribution(spec):
    """The honest oracle: every parameter tuple through codeword()."""
    ctx = spec.ctx
    slot_spaces = []
    for name in parameter_slots(spec):
        if name == "b":
            slot_spaces.append(list(ctx.subfield(ctx.q).elements_by_label))
        elif name == "delta0":
            qm = ctx.q**ctx.m
            gen = ctx.pow(ctx.pi, ctx.n // (qm - 1))
            slot_spaces.append([0] + [ctx.pow(gen, i) for i in range(qm - 1)])
        else:
            slot_spaces.append(list(range(ctx.size)))
    counts = Counter()
    import itertools
    for params in itertools.product(*slot_spaces):
        counts[weight(codeword(spec, params))] += 1
    return dict(counts)


@pytest.mark.parametrize("family", "CDE")
def test_brute_matches_direct_codeword_enumeration_22(family):
    spec = build_code(make_field(2, 1, 4), family)
    assert brute_distribution(spec).counts == direct_codeword_distribution(spec)


def test_brute_matches_direct_codeword_enumeration_odd_m():
    spec = build_code(make_field(2, 1, 6), "C")  # 512 codewords, delta0 slot
    assert brute_distribution(spec).counts == direct_codeword_distribution(spec)


def test_brute_frozen_22():
    assert brute_distribution(build_code(make_field(2, 1, 4), "C")).counts == \
        {0: 1, 6: 10, 12: 5}
    assert brute_distribution(build_code(make_field(2, 1, 4), "D")).counts == \
        {0: 1, 4: 15, 6: 100, 8: 75, 10: 60, 12: 5}


@pytest.mark.parametrize("p,e,m", [(2, 1, 2), (3, 1, 2), (2, 1, 3)])
@pytest.mark.parametrize("family", "CDE")
def test_brute_equals_sweep_equals_predict(p, e, m, family):
    if (p**e, m) == (2, 1) and family == "E":
        pytest.skip("family E undefined at (2, 1)")
    spec = build_code(make_field(p, e, 2 * m), family)
    bd = brute_distribution(spec)
    rs = rank_sweep(spec)
    pr = predict(p**e, m, family)
    assert bd.counts == rs.counts == pr.counts


def test_measured_rank_counts_equal_frequencies():
    for p, e, m in [(2, 1, 2), (3, 1, 2), (2, 1, 3)]:
        spec = build_code(make_field(p, e, 2 * m), "D")
        assert measure_rank_counts(spec) == frequencies(p**e, m)


def test_work_estimates():
    assert brute_work(2, 5, "D") == 2**25 * 2**10 * 1023
    assert rank_sweep_work(2, 5) == 2**25 * 1000
    assert brute_work(2, 5, "D") > TIER_BUDGETS["extended"]
    assert rank_sweep_work(2, 5) < TIER_BUDGETS["extended"]
    assert brute_work(2, 4, "C") == 2**16 * 255


def test_work_count_within_twice_of_estimate():
    spec = build_code(make_field(3, 1, 4), "D")
    dist = brute_distribution(spec)
    assert dist.work_count <= 2 * brute_work(3, 2, "D")
    assert brute_work(3, 2, "D") <= 2 * dist.work_count


def test_budget_refusal_carries_estimate(monkeypatch):
    def no_plan(spec):
        raise AssertionError("plan built before the refusal")
    monkeypatch.setattr(engine, "_CountPlan", no_plan)
    monkeypatch.setattr(engine, "_RankPlan", no_plan)
    spec = build_code(make_field(2, 1, 10), "D")
    with pytest.raises(BudgetExceeded) as err:
        brute_distribution(spec, budget=10**6)
    assert (err.value.estimate, err.value.budget) == (brute_work(2, 5, "D"), 10**6)
    with pytest.raises(BudgetExceeded) as err:
        measure_rank_counts(spec, budget=10**6)
    assert (err.value.estimate, err.value.budget) == (rank_sweep_work(2, 5), 10**6)
    # F_{128^4} = F_{2^28} is over the field-size bound: no field to count on
    with pytest.raises(FieldSizeError, match="exp/log"):
        make_field(2, 7, 4)
    # F_{67^2} builds, but is over the linear-trace table bound
    with pytest.raises(FieldSizeError, match="linear-trace"):
        brute_distribution(build_code(make_field(67, 1, 2), "D"), budget=2**100)
    # F_257 labels do not fit a byte, whatever the budget
    spec = build_code(make_field(257, 1, 2), "C")
    for oracle in (brute_distribution, measure_rank_counts):
        with pytest.raises(FieldSizeError, match="byte"):
            oracle(spec, budget=2**100)


def test_verify_quick_32():
    for family in "CDE":
        report = verify(3, 2, family, tier="quick")
        assert report.equal and report.oracle_kind == "brute"
        assert report.first_diff is None
        assert report.work_count == brute_work(3, 2, family)


def test_verify_refuses_25_quick():
    with pytest.raises(BudgetExceeded):
        verify(2, 5, "D", tier="quick")


def test_verify_picks_sweep_when_brute_too_big():
    # at (2, 3) with a budget squeezed below brute work but above sweep work
    budgets = {"quick": rank_sweep_work(2, 3) + 1}
    assert brute_work(2, 3, "D") > budgets["quick"]
    report = verify(2, 3, "D", tier="quick", budgets=budgets)
    assert report.oracle_kind == "rank_sweep"
    assert report.equal


def test_determinism_across_workers_and_moduli():
    spec = build_code(make_field(3, 1, 4), "D")
    reference = brute_distribution(spec, workers=1).counts
    assert brute_distribution(spec, workers=4).counts == reference
    alt = build_code(make_field(3, 1, 4, modulus_rank=1), "D")
    assert alt.ctx.modulus != spec.ctx.modulus
    assert brute_distribution(alt, workers=1).counts == reference


@pytest.mark.parametrize("method", ["fork", "spawn"])
@pytest.mark.parametrize("oracle", ["brute", "sweep"])
def test_oracle_counts_equal_in_process_and_in_a_pool(monkeypatch, oracle, method):
    """Spawned workers get the plan pickled, forked ones inherit it."""
    import multiprocessing
    spec = build_code(make_field(2, 2, 4), "D")
    if oracle == "brute":
        def run():
            return brute_distribution(spec, workers=2).counts
        expected = predict(4, 2, "D").counts
    else:
        def run():
            return measure_rank_counts(spec, workers=2)
        expected = frequencies(4, 2)
    forms = 3  # one form per orbit of the symmetry group
    enumerated, pools = [], []
    orbit_batch, start_pool = engine._orbit_batch, multiprocessing.get_context(method).Pool

    def spy(space):
        idx, weights = orbit_batch(space)
        enumerated.append(len(idx))
        return idx, weights

    def pool_spy(processes=None, *args, **kwargs):
        pools.append(processes)
        return start_pool(processes, *args, **kwargs)

    monkeypatch.setattr(engine, "_orbit_batch", spy)
    monkeypatch.setattr(multiprocessing, "Pool", pool_spy)
    reference = run()  # fewer forms than _POOL_MIN_FORMS: in-process
    assert pools == []
    monkeypatch.setattr(engine, "_POOL_MIN_FORMS", 0)
    assert run() == reference == expected
    assert pools == [2]
    assert enumerated == [forms, forms]


def test_progress_callback_monotone():
    seen = []
    spec = build_code(make_field(2, 1, 4), "D")
    brute_distribution(spec, progress=lambda done, total: seen.append((done, total)))
    assert seen and seen[-1][0] == seen[-1][1]
    assert seen[-1] == (3, 3)  # the forms enumerated, one per orbit
    assert all(a <= b for (a, _), (b, _) in zip(seen, seen[1:]))


# The full enumeration of E at (7,2) and of D and E at (8,2) takes 30 to
# 230 s a case, too long for the suite; those three were compared once.
_ORBIT_CASES = [(p, e, m, family)
                for p, e, m in [(2, 1, 2), (3, 1, 2), (2, 1, 3), (2, 2, 2), (5, 1, 2),
                                (7, 1, 2), (2, 3, 2)]
                for family in "CDE"
                if (p**e, m, family) not in {(7, 2, "E"), (8, 2, "D"), (8, 2, "E")}]


@pytest.mark.parametrize("modulus_rank", [0, 1])
@pytest.mark.parametrize("p,e,m,family", _ORBIT_CASES)
def test_orbit_reduced_brute_equals_full_enumeration(p, e, m, family, modulus_rank):
    spec = build_code(make_field(p, e, 2 * m, modulus_rank), family)
    every = np.arange((p**e) ** (m * m), dtype=np.int64)
    full = engine._CountPlan(spec).counts(every, np.ones_like(every))
    dist = brute_distribution(spec)
    assert dist.counts == {w: int(c) for w, c in enumerate(full) if c}
    assert dist.work_count == brute_work(p**e, m, family)


# every form at the sizes of up to 81 field elements
_VALUE_SIZES = [(2, 1, 1), (3, 1, 1), (2, 2, 1), (5, 1, 1), (7, 1, 1), (2, 3, 1), (3, 2, 1),
                (2, 1, 2), (3, 1, 2), (2, 1, 3)]


@pytest.mark.parametrize("p,e,m", _VALUE_SIZES + [(2, 1, 4), (3, 1, 3), (2, 2, 3), (7, 1, 2)])
def test_combined_values_equal_each_forms_own(p, e, m):
    """A form's value table is F_p-linear in its index's base-p digits, as
    the rank plan's per-digit Grams assume: the combination of the digit
    forms' tables (at the indices p^d) by the digits equals the table the
    brute oracle counts, form_values of FormSpace.coefficients, for every
    form up to 81 field elements and for every counted form above."""
    ctx = make_field(p, e, 2 * m)
    space = FormSpace(ctx)
    if (p, e, m) in _VALUE_SIZES:
        idx = np.arange(space.num_forms, dtype=np.int64)
    else:
        idx, _ = engine._orbit_batch(space)
    digits = e * space.digit_count
    tables = form_values(ctx, space.coefficients([p**d for d in range(digits)]))
    label_digits = p ** np.arange(e)
    coords = tables[:, :, None] // label_digits % p  # F_p coordinates of the labels
    index_digits = idx[:, None] // p ** np.arange(digits) % p
    combined = np.einsum("fd,dik->fik", index_digits, coords) % p @ label_digits
    assert (combined == form_values(ctx, space.coefficients(idx))).all()
    assert form_values(ctx, space.coefficients(idx[:0])).shape == (0, ctx.n)


@pytest.mark.parametrize("p,e,m", _VALUE_SIZES + [(2, 1, 4), (3, 1, 3), (2, 2, 3), (7, 1, 2),
                                                   (2, 4, 1)])
def test_form_values_equal_the_literal_values(p, e, m):
    """form_values of a batch equals the literal Q(pi^l) of each form: every
    form up to 81 field elements, and every counted form above, at every
    coordinate or, above 300 coordinates, at a stride of them.  Read at
    logs, it gives those columns of the full table."""
    ctx = make_field(p, e, 2 * m)
    space = FormSpace(ctx)
    sub = ctx.subfield(ctx.q)
    if (p, e, m) in _VALUE_SIZES:
        idx = range(space.num_forms)
    else:
        idx = engine._orbit_batch(space)[0].tolist()
    coeffs = [literal_coefficients(space, i) for i in idx]
    full = form_values(ctx, coeffs)
    assert full.shape == (len(coeffs), ctx.n)
    logs = np.arange(ctx.n - 1, -1, -max(1, ctx.n // 300))  # descending
    at_logs = form_values(ctx, coeffs, logs)
    assert (at_logs == full[:, logs]).all()
    coords = [ctx.pow(ctx.pi, int(log)) for log in logs]
    for c, values in zip(coeffs, at_logs):
        form = QuadForm(ctx, c)
        assert values.tolist() == [sub.label_of(literal_value(form, x)) for x in coords]
    assert form_values(ctx, []).shape == (0, ctx.n)
    assert form_values(ctx, [], logs).shape == (0, len(logs))


@pytest.mark.parametrize("match_words", [quadforms.MATCH_WORDS, 1])
def test_forms_equal_form_at_one_index_at_a_time(monkeypatch, match_words):
    """FormSpace.forms, in blocks of many forms or of one, gives the tables,
    ranks and signs that form_at gives one index at a time."""
    for p, e, m in [(2, 1, 3), (3, 1, 2), (2, 2, 2), (2, 1, 4)]:
        space = FormSpace(make_field(p, e, 2 * m))
        indices = list(range(0, space.num_forms, max(1, space.num_forms // 300)))
        alone = [form_at(space, i) for i in indices]
        monkeypatch.setattr(quadforms, "MATCH_WORDS", match_words)
        batch = list(space.forms(np.array(indices)))
        monkeypatch.undo()
        assert len(batch) == len(alone)
        for one, form in zip(alone, batch):
            assert form.coeffs == one.coeffs
            assert (form.value_labels() == one.value_labels()).all()
            assert (form.rank, form.epsilon) == (one.rank, one.epsilon)


@pytest.mark.parametrize("p,e,m", [(2, 1, 4), (3, 1, 3), (2, 2, 2), (3, 1, 2), (3, 2, 2)])
def test_point_value_grams_equal_the_full_tables_grams(p, e, m):
    """The rank plan's per-digit Grams, from values at the Gram points only,
    equal those gram_labels reads off the digit forms' full tables."""
    ctx = make_field(p, e, 2 * m)
    space = FormSpace(ctx)
    full = form_values(ctx, space.coefficients([p**d for d in range(e * space.digit_count)]))
    assert (_rank_plan(p, e, m).grams == gram_labels(ctx, full[:, gram_points(ctx)])).all()


def test_brute_counts_equal_for_any_block_size(monkeypatch):
    """Blocks of one form, matched one (target, form) pair a group (a
    MATCH_WORDS of 1 holds less than a pair's words), and blocks of several
    match blocks, more than one block a run, count what the default blocks
    count.  quadforms.MATCH_WORDS alone sizes the blocks, the match blocks
    and the kernel's groups."""
    specs = [build_code(make_field(p, e, 2 * m), family)
             for p, e, m, family in [(2, 1, 4, "D"), (2, 2, 2, "E"), (3, 1, 3, "E"),
                                     (2, 2, 3, "C")]]
    every = [engine._orbit_batch(FormSpace(spec.ctx)) for spec in specs]
    default = [engine._CountPlan(spec).counts(*batch) for spec, batch in zip(specs, every)]
    blocks, matched, groups = [], [], []
    real_values, real_matches = quadforms.form_values, quadforms.coordinate_matches
    real_work = quadforms._match_work
    monkeypatch.setattr(quadforms, "form_values",
                        lambda ctx, coeffs: blocks.append(len(coeffs)) or real_values(ctx, coeffs))
    monkeypatch.setattr(quadforms, "coordinate_matches", lambda ctx, values, targets:
                        matched.append(len(values)) or real_matches(ctx, values, targets))
    monkeypatch.setattr(quadforms, "_match_work",
                        lambda shape: groups.append(shape[0]) or real_work(shape))
    for words in (1, 1 << 12):
        monkeypatch.setattr(quadforms, "MATCH_WORDS", words)
        shapes = []
        for spec, batch, counts in zip(specs, every, default):
            for log in (blocks, matched, groups):
                log.clear()
            assert (engine._CountPlan(spec).counts(*batch) == counts).all()
            assert sum(blocks) == len(batch[0])
            shapes.append((blocks[:], matched[:], groups[:]))
        if words == 1:
            for sizes, forms_matched, pairs in shapes:
                assert set(sizes) == {1} and set(forms_matched) <= {1} and set(pairs) <= {1}
            assert shapes[0][1]  # C alone matches nothing
        else:  # a block of several match blocks, and more than one block
            assert any(forms_matched and len(sizes) > 1 and max(forms_matched) < max(sizes)
                       for sizes, forms_matched, _ in shapes)


def test_brute_builds_no_grams_and_no_beta_tables(monkeypatch):
    """The brute oracle reads only its blocks' value tables and match
    counts: a run at D(2,4) and E(2,4) calls gram_labels and
    _FormBlock.beta_tables zero times."""
    calls = []
    real_grams = quadforms.gram_labels
    for module in (quadforms, engine):
        monkeypatch.setattr(module, "gram_labels", lambda ctx, values:
                            calls.append("gram_labels") or real_grams(ctx, values))
    monkeypatch.setattr(quadforms._FormBlock, "beta_tables",
                        property(lambda block: calls.append("beta_tables")))
    for family in "DE":
        spec = build_code(make_field(2, 1, 8), family)
        assert brute_distribution(spec).counts == predict(2, 4, family).counts
    assert calls == []


_SWEEP_CASES = [(2, 1, 2), (3, 1, 2), (2, 1, 3), (2, 2, 2), (5, 1, 2), (3, 1, 3),
                (2, 1, 4), (3, 2, 2), (2, 3, 2)]


@pytest.mark.parametrize("modulus_rank", [0, 1])
@pytest.mark.parametrize("p,e,m", _SWEEP_CASES)
def test_orbit_reduced_sweep_equals_full_sweep(p, e, m, modulus_rank):
    spec = build_code(make_field(p, e, 2 * m, modulus_rank), "D")
    every = np.arange((p**e) ** (m * m), dtype=np.int64)
    full = engine._RankPlan(spec.ctx).counts(every, np.ones_like(every))
    assert measure_rank_counts(spec) == full.tolist() == frequencies(p**e, m)


@pytest.mark.parametrize("modulus_rank", [0, 1])
@pytest.mark.parametrize("p,e,m,forms,runs", [
    (2, 2, 2, 3, 3), (3, 1, 3, 30, 30), (2, 1, 4, 109, 109), (2, 2, 3, 40, 40),
    (2, 1, 5, 9962, 383), (3, 1, 4, 3337, 3337)])
def test_orbit_layer_pins_the_counted_form_count(p, e, m, forms, runs, modulus_rank):
    space = FormSpace(make_field(p, e, 2 * m, modulus_rank))
    starts, lengths, weights = engine._form_orbits(space)
    assert all(col.dtype == np.int64 for col in (starts, lengths, weights))
    assert (int(lengths.sum()), len(starts)) == (forms, runs)
    assert sum(w * size for w, size in zip(weights.tolist(), lengths.tolist())) == \
        space.num_forms
    assert (starts[1:] >= starts[:-1] + lengths[:-1]).all()  # ascending, disjoint
    # the zero form is its own orbit
    assert (starts[0], lengths[0], weights[0]) == (0, 1, 1)
    idx, weights = engine._orbit_batch(space)
    assert len(idx) == forms and idx.tolist() == sorted(set(idx.tolist()))
    assert int(weights.sum()) == space.num_forms


# every size where an orbit test runs
_ORBIT_SIZES = sorted({(p, e, m) for p, e, m, _ in _ORBIT_CASES} | set(_SWEEP_CASES)
                      | {(2, 2, 3), (2, 1, 5), (3, 1, 4)})


@pytest.mark.parametrize("modulus_rank", [0, 1])
@pytest.mark.parametrize("p,e,m", _ORBIT_SIZES)
def test_orbit_ranges_equal_the_full_map_reference(monkeypatch, p, e, m, modulus_rank):
    """The slot values solved at the representative logs only give the
    runs and weights that the full map of every slot value gives."""
    space = FormSpace(make_field(p, e, 2 * m, modulus_rank))
    solved = engine._form_orbits(space)
    monkeypatch.setattr(FormSpace, "local_values", full_map_local_values)
    reference = engine._form_orbits(space)
    assert len(solved) == len(reference) == 3
    assert all(np.array_equal(col, ref) for col, ref in zip(solved, reference))


def test_form_orbits_holds_nothing_but_its_result():
    """With the cyclic collector off, what _form_orbits leaves allocated
    after it returns is its result: the walk's closures hold no cycle."""
    space = FormSpace(make_field(2, 2, 8))
    engine._form_orbits(space)  # the field tables the walk reads are built
    gc.disable()
    try:
        tracemalloc.start()
        runs = engine._form_orbits(space)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert held <= sum(col.nbytes for col in runs) + 200_000


# SHA-1 of idx.tobytes() + weights.tobytes() from _orbit_batch at (q, m)
# = (2,5), (3,4), (4,4), (2,6), (3,5)
@pytest.mark.parametrize("p,e,m,digest", [
    (2, 1, 5, "d2bc7324869618a5448c7e3942e60b78932e604f"),
    (3, 1, 4, "f4e97146aa69b459d44d3676ced807f68f19d338"),
    (2, 2, 4, "e5227c1a1ffdd8d1784a6d07dc3b14fb671485ef"),
    (2, 1, 6, "4bce58f12e6315404a0d911ced827bc0b9e613bb"),
    (3, 1, 5, "f6d2a69f7786330b8fe194323535ee5a4976ce48")])
def test_orbit_batch_is_pinned_bit_for_bit(p, e, m, digest):
    idx, weights = engine._orbit_batch(FormSpace(make_field(p, e, 2 * m)))
    assert hashlib.sha1(idx.tobytes() + weights.tobytes()).hexdigest() == digest


def test_an_oracle_run_builds_one_form_space(monkeypatch):
    """The plan keeps the FormSpace it builds, and the orbit layer and the
    epsilon check read it there."""
    built = []

    def spy(ctx):
        built.append(ctx)
        return FormSpace(ctx)
    monkeypatch.setattr(engine, "FormSpace", spy)
    spec = build_code(make_field(2, 1, 6), "D")
    for oracle in (brute_distribution, rank_sweep):
        engine._plan.cache_clear()
        built.clear()
        assert oracle(spec).counts == predict(2, 3, "D").counts
        assert built == [spec.ctx]


def test_brute_refuses_ranges_that_miss_forms_before_counting(monkeypatch):
    form_orbits = engine._form_orbits

    def no_zero_form(space):
        return tuple(col[1:] for col in form_orbits(space))

    def no_counting(*args, **kwargs):
        raise AssertionError("counted before the coverage check")
    monkeypatch.setattr(engine, "_form_orbits", no_zero_form)
    monkeypatch.setattr(engine._CountPlan, "counts", no_counting)
    monkeypatch.setattr(engine._RankPlan, "counts", no_counting)
    spec = build_code(make_field(3, 1, 4), "D")
    for oracle in (brute_distribution, measure_rank_counts):  # the sweep too
        with pytest.raises(ConsistencyError):
            oracle(spec)


def test_verify_prime_q_above_127():
    # label sums of two F_131 labels exceed 255
    report = verify(131, 1, "C")
    assert report.oracle_kind == "brute" and report.equal


def test_verify_refuses_before_building_the_field(monkeypatch):
    def no_setup(*args, **kwargs):
        raise AssertionError("field built before the oracle choice")
    monkeypatch.setattr(engine, "make_field", no_setup)
    with pytest.raises(BudgetExceeded):
        verify(2, 30, "C")
    with pytest.raises(BudgetExceeded):
        verify(257, 1, "C")
    # the sweep fits the extended budget but not the exp/log-table bound
    assert rank_sweep_work(128, 2) <= TIER_BUDGETS["extended"]
    with pytest.raises(BudgetExceeded) as err:
        verify(128, 2, "D", tier="extended")
    assert err.value.estimate == rank_sweep_work(128, 2)


def test_verify_takes_sweep_when_linear_trace_table_is_too_big():
    report = verify(67, 1, "D", tier="standard")
    assert report.oracle_kind == "rank_sweep" and report.equal
    with pytest.raises(BudgetExceeded):
        brute_distribution(build_code(make_field(67, 1, 2), "D"))


def _rank_plan(p, e, m):
    return engine._RankPlan(make_field(p, e, 2 * m))


@pytest.mark.parametrize("p,e,m", [(2, 1, 2), (3, 1, 2), (2, 2, 2), (5, 1, 2),
                                   (3, 2, 2)])
def test_per_digit_grams_equal_the_literal_bilinear_gram(p, e, m):
    # covers the zero sums pi^a + pi^b = 0: a = b when p = 2
    plan = _rank_plan(p, e, m)
    ctx = plan.ctx
    space = FormSpace(ctx)
    assert len(plan.grams) == e * m * m
    for d, gram in enumerate(plan.grams):
        form = form_at(space, p**d)  # base-p digit d alone
        assert gram.tolist() == literal_gram(form), d


@pytest.mark.parametrize("p,e", [(3, 1), (2, 2), (2, 3)])
def test_batched_ranks_equal_form_rank_on_every_form(p, e):
    plan = _rank_plan(p, e, 2)
    space = FormSpace(plan.ctx)
    assert plan.ranks(np.arange(space.num_forms)).tolist() == \
        [form_at(space, i).rank for i in range(space.num_forms)]


@pytest.mark.parametrize("p,e,m", [(2, 1, 3), (3, 1, 2), (2, 2, 2)])
def test_epsilon_check_catches_sweep_ranks_off_by_two(p, e, m, monkeypatch):
    spec = build_code(make_field(p, e, 2 * m), "D")
    ranks = engine._RankPlan.ranks

    def off_by_two(self, idx):
        r = ranks(self, idx)
        return np.where(r < 2 * m, r + 2, r - 2)  # still even, still in range
    monkeypatch.setattr(engine._RankPlan, "ranks", off_by_two)
    with pytest.raises(ConsistencyError, match="sweep rank"):
        rank_sweep(spec)


@pytest.mark.parametrize("p,e,m", [(3, 1, 3), (2, 2, 2)])
def test_epsilon_check_ranks_its_sample_in_one_call(p, e, m, monkeypatch):
    # D(3,3) and D(4,2): the sampled forms share one block, whose Grams go
    # to one label_ranks call
    calls = []
    real = quadforms.label_ranks
    monkeypatch.setattr(quadforms, "label_ranks",
                        lambda sub, mats: calls.append(mats.shape) or real(sub, mats))
    rank_sweep(build_code(make_field(p, e, 2 * m), "D"))
    assert calls == [(engine._CHECK_SAMPLES, 2 * m, 2 * m)]


@pytest.mark.parametrize("p,e,m", [(2, 1, 2), (3, 1, 2), (2, 2, 2), (3, 2, 2)])
def test_sweep_refuses_f_p_ranks_off_the_multiples_of_2e(p, e, m, monkeypatch):
    for name in ("gf2_ranks", "fp_ranks"):
        elimination = getattr(engine, name)
        monkeypatch.setattr(engine, name, lambda *args, f=elimination: f(*args) + 1)
    with pytest.raises(ConsistencyError, match="multiple of 2e"):
        measure_rank_counts(build_code(make_field(p, e, 2 * m), "D"))


@st.composite
def _residue_matrices(draw):
    """(p, stack), every matrix in the stack a product of rows x k and
    k x cols matrices mod p, so its rank is at most k (k = 0 gives the
    zero matrix)."""
    # 251, the largest p a sweep can meet, is the uint16 arithmetic's worst case
    p = draw(st.sampled_from([2, 3, 5, 7, 251]))
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    residues = st.integers(0, p - 1)
    stack = []
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.integers(0, min(rows, cols)))
        left = np.array(draw(st.lists(residues, min_size=rows * k, max_size=rows * k)),
                        dtype=np.int64).reshape(rows, k)
        right = np.array(draw(st.lists(residues, min_size=k * cols, max_size=k * cols)),
                         dtype=np.int64).reshape(k, cols)
        stack.append(left @ right % p)
    return p, np.stack(stack)


@settings(deadline=None, max_examples=80)
@given(_residue_matrices())
def test_batched_prime_field_ranks_equal_label_matrix_rank(case):
    # each of the three eliminations against the literal one
    p, stack = case
    sub = make_field(p, 1, 2).subfield(p)  # F_p labels are the residues
    expected = [literal_label_rank(sub, mat.tolist()) for mat in stack]
    assert fields.fp_ranks(stack, p).tolist() == expected
    assert fields.label_ranks(sub, stack).tolist() == expected
    if p == 2:
        cols = stack.shape[2]
        words = (stack @ (1 << np.arange(cols))).astype(np.uint32)
        assert fields.gf2_ranks(words, cols).tolist() == expected


@settings(deadline=None, max_examples=30)
@given(st.data())
def test_rank_counts_add_up_over_any_split(data):
    """Both plans, on any ascending subset of indices with any weights: the
    parts of any split add up to the whole, and the result scales with the
    weights."""
    p, e, m = data.draw(st.sampled_from([(3, 1, 2), (2, 2, 2), (2, 1, 3)]))
    spec = build_code(make_field(p, e, 2 * m), data.draw(st.sampled_from("CDE")))
    rank_plan, count_plan = engine._RankPlan(spec.ctx), engine._CountPlan(spec)
    total = (p**e) ** (m * m)
    idx = np.array(sorted(data.draw(st.sets(st.integers(0, total - 1), max_size=40))),
                   dtype=np.int64)
    weights = np.array(data.draw(st.lists(st.integers(1, 10**6), min_size=len(idx),
                                          max_size=len(idx))), dtype=np.int64)
    cuts = sorted(data.draw(st.lists(st.integers(0, len(idx)), max_size=6)))
    bounds = [0, *cuts, len(idx)]
    for counts in (rank_plan.counts, count_plan.counts):
        whole = counts(idx, weights)
        parts = sum(counts(idx[a:b], weights[a:b]) for a, b in zip(bounds, bounds[1:]))
        assert (parts == whole).all()
        assert (counts(idx, 3 * weights) == 3 * whole).all()
