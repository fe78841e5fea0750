"""The independent oracles: exhaustive codeword counting and the rank sweep.

brute_distribution counts codewords one form (the quadratic part of the
parameters) at a time, by literal match counting.  It never
materializes codewords: for each form it keeps the n-vector of form
values at the coordinates x = pi^i, in coordinate order, as F_q labels,
updated incrementally while the form index walks its odometer.  The
per-digit odometer steps and the per-beta match counts come from the
coordinate tables shared with quadforms (value_labels,
linear_trace_rows, coordinate_matches): a codeword b + Tr(beta x) + Q(x)
vanishes where Tr(beta x) equals -b - Q(x), so each form costs one
comparison of the linear-trace rows with one n-vector per constant
shift.  Family E uses one bin per constant shift; family C has no beta
and counts the zeros of Q alone.

It counts one form per cyclic-shift orbit class, not all q^(m^2) forms.
The substitution x -> pi^k x maps the form coefficients
c_j -> c_j pi^(k u_j) and beta -> pi^k beta; it shifts every codeword
cyclically (the cyclic-shift automorphism of a cyclic code), so a form's
histogram, summed over beta and b, is the same across its orbit.
_orbit_ranges lists the zero form with weight 1 and, for each slot j
taken as the last nonzero slot, one coefficient per coset of <pi^g>,
g = gcd(u_j, n), with the lower slots free: a contiguous form-index
range of weight n/g, the orbit size (q^m - 1 for the F_{q^m} slot of odd
m).  The ranges must cover all q^(m^2) forms with their weights before
anything is counted, and the merge adds weight x histogram.  Only which
forms are counted changes, never how a form is counted.  The merge over
any partition of the ranges is a plain integer histogram sum, so results
are bitwise identical for every worker count and chunking.

rank_sweep instead measures the radical rank of every form and converts
the measured rank multiplicities into the weight distribution through
the exponential-sum value classes.  The Gram matrix of the polarized
bilinear form is F_p-linear in the form index, so a chunk's Grams are
combined from per-digit Grams, which are read off the digit forms'
value tables (value_labels) through an s x s log table of basis sums.
The whole chunk is then eliminated at once: over GF(2) on bit-packed
rows when q = 2, over F_q labels through the subfield's mul and sub
tables otherwise.  It trusts those value distributions, which
quadforms.py property-tests, but not the closed-form rank frequencies,
which it measures; the ranks are cross-checked against the per-form
QuadForm.rank and the sign convention against the plain character sum
on a sample of forms.

Both oracles run their chunks in-process, whatever the worker count,
when they enumerate fewer than _POOL_MIN_FORMS forms.

Work is accounted in elementary operations: coordinate matches for the
brute oracle (forms x betas x n, or forms x n for family C; a counted
form's matches times its weight, so the count covers all q^(m^2) forms)
and s^3 per form for the sweep.  Both estimates depend on (q, m, family)
alone, so verify picks its oracle, or refuses with the estimate
attached, before building any field.  Brute D and E also need the
linear-trace table within its size bound, the sweep needs the field's
exp/log tables within theirs, and q above 256 is refused because F_q
labels are bytes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from .codes import CodeSpec, ConsistencyError, build_code
from .fields import (DEFAULT_TABLE_BOUND, BudgetExceeded, FieldSizeError,
                     SubfieldView, make_field, split_prime_power)
from .quadforms import (LINEAR_TRACE_BOUND, FormSpace, QuadForm,
                        coordinate_matches)
from .spectra import WeightDistribution, assemble_distribution, predict

TIER_BUDGETS = {"quick": 2**24, "standard": 2**32, "extended": 2**38}
DEFAULT_BUDGET = 2**36
_EPSILON_SAMPLES = 12
# Enumerations of fewer forms run in-process whatever the worker count: a
# second worker gained nothing on the (4,3) sweep, 2^18 forms in about
# 1.5 s, and below that a pool's start-up only adds to the time and to its
# spread.
_POOL_MIN_FORMS = 1 << 18
MAX_LABEL_Q = 256  # F_q labels are uint8


def brute_work(q: int, m: int, family: str) -> int:
    forms, size = q ** (m * m), q ** (2 * m)
    if family == "C":
        return forms * (size - 1)
    return forms * size * (size - 1)


def rank_sweep_work(q: int, m: int) -> int:
    return q ** (m * m) * (2 * m) ** 3


def _brute_table_fits(q: int, m: int, family: str) -> bool:
    """D and E count against the linear-trace table, which is bounded."""
    return family == "C" or q ** (2 * m) <= LINEAR_TRACE_BOUND


def _sweep_table_fits(q: int, m: int) -> bool:
    """The sweep reads form values through the field's exp/log tables."""
    return q ** (2 * m) <= DEFAULT_TABLE_BOUND


# ---------------------------------------------------------------------------
# per-process plans


class _Task:
    """Picklable description of one enumeration job; workers rebuild the
    context deterministically from it."""

    def __init__(self, spec: CodeSpec):
        self.p = spec.ctx.p
        self.e = spec.ctx.e
        self.s = spec.ctx.s
        self.family = spec.family
        self.modulus_rank = spec.ctx.modulus_rank

    def key(self):
        return (self.p, self.e, self.s, self.family, self.modulus_rank)

    def rebuild(self) -> CodeSpec:
        ctx = make_field(self.p, self.e, self.s, self.modulus_rank)
        return build_code(ctx, self.family)


class _CountPlan:
    """The odometer a worker walks over a form-index range, and the
    histogram of codeword weights it fills."""

    def __init__(self, spec: CodeSpec):
        ctx = spec.ctx
        ctx.require_tables()
        self.spec = spec
        self.ctx = ctx
        self.space = FormSpace(ctx)
        q = ctx.q
        self.sub = sub = ctx.subfield(q)
        # steps[d][c]: the form values added when digit d steps from label c
        # to label c + 1 (mod q)
        deltas = [ctx.sub(sub.from_label((c + 1) % q), sub.from_label(c))
                  for c in range(q)]
        self.steps = [np.stack([self._digit_values(d, delta) for delta in deltas])
                      for d in range(self.space.digit_count)]

    def _digit_values(self, d: int, scalar: int) -> np.ndarray:
        """Values of the form whose only nonzero coefficient is scalar
        times digit d's basis element."""
        coeffs = [0] * len(self.space.exponents)
        coeffs[self.space.slot_of[d]] = self.ctx.mul(scalar, self.space.basis_of[d])
        return QuadForm(self.ctx, coeffs).value_labels()

    def count_range(self, lo: int, hi: int) -> tuple[np.ndarray, int]:
        """Histogram of codeword weights contributed by forms lo..hi-1."""
        spec, ctx = self.spec, self.ctx
        q, n = ctx.q, ctx.n
        family = spec.family
        hist = np.zeros(n + 1, dtype=np.int64)
        digits = self.space.digits_at(lo)
        values = self.space.form_at(lo).value_labels()
        c_weights = np.empty(hi - lo, dtype=np.int64) if family == "C" else None
        for step, index in enumerate(range(lo, hi)):
            if family == "C":
                c_weights[step] = np.count_nonzero(values)
            else:
                # codeword b + Tr(beta x) + Q(x) vanishes where Tr(beta x) + Q(x) = -b
                remaining = np.full(ctx.size, n, dtype=np.int64)
                for lbl in range(q if family == "E" else 1):
                    if lbl < q - 1:
                        cnt = coordinate_matches(ctx, values, lbl)
                        remaining -= cnt
                    else:
                        cnt = remaining
                    hist += np.bincount(n - cnt, minlength=n + 1)
            if index + 1 < hi:
                d = 0
                while True:
                    c = digits[d]
                    values = self.sub.add_labels(values, self.steps[d][c])
                    digits[d] = (c + 1) % q
                    if digits[d]:
                        break
                    d += 1
        if family == "C":
            hist += np.bincount(c_weights, minlength=n + 1)
        per_form = n if family == "C" else ctx.size * n
        return hist, (hi - lo) * per_form


class _RankPlan:
    """Gram matrices of the forms over a form-index range, and their ranks.

    The Gram matrix of the polarized form on the basis pi^0..pi^(s-1) is
    F_p-linear in the form index's base-p digits, so it is a combination
    of per-digit Grams: digit d's Gram belongs to the form at index p^d.
    Each per-digit Gram is read off that form's value table through
    B(pi^a, pi^b) = Q(pi^a + pi^b) - Q(pi^a) - Q(pi^b), with pi^a + pi^b
    located by an s x s log table (a zero sum reads Q(0) = 0).

    When q = 2 a range's Grams are XORs of bit-packed rows, eliminated
    over GF(2) one word per row.  Otherwise they are assembled by one
    matmul of the index digits with the per-digit Grams' F_p coordinates
    (reduced mod p), packed back to F_q labels, and eliminated all at once
    through the subfield's mul and sub tables.
    """

    def __init__(self, spec: CodeSpec):
        ctx = spec.ctx
        ctx.require_tables()
        self.ctx = ctx
        q, s, p, e, n = ctx.q, ctx.s, ctx.p, ctx.e, ctx.n
        space = FormSpace(ctx)
        self.sub = sub = ctx.subfield(q)
        self.p_digits = e * space.digit_count
        basis = [ctx.pow(ctx.pi, i) for i in range(s)]
        sums = [[ctx.add(a, b) for b in basis] for a in basis]
        sum_log = np.array([[ctx.log(t) if t else n for t in row] for row in sums])
        # column n holds Q(0) = 0
        values = np.zeros((self.p_digits, n + 1), dtype=np.uint8)
        for d in range(self.p_digits):
            values[d, :n] = space.form_at(p**d).value_labels()
        sub_t = sub.sub_table()
        at_basis = values[:, :s]
        # grams[d, a, b] = B_d(pi^a, pi^b) as an F_q label
        self.grams = sub_t[sub_t[values[:, sum_log], at_basis[:, :, None]],
                           at_basis[:, None, :]]
        if q == 2:
            weights = (1 << np.arange(s, dtype=np.uint32))
            self.gram_bits = self.grams.astype(np.uint32) @ weights
        else:
            self.digit_powers = p ** np.arange(self.p_digits, dtype=np.int64)
            self.label_powers = p ** np.arange(e, dtype=np.int64)
            # float64 for a BLAS matmul: every sum is an integer below
            # p_digits * p^2, so it stays exact
            self.gram_coords = (self.grams[..., None] // self.label_powers % p
                                ).reshape(self.p_digits, -1).astype(np.float64)

    def ranks_q2(self, lo: int, hi: int) -> np.ndarray:
        s = self.ctx.s
        idx = np.arange(lo, hi, dtype=np.int64)
        mats = np.zeros((len(idx), s), dtype=np.uint32)
        for d, rowbits in enumerate(self.gram_bits):
            mask = ((idx >> d) & 1).astype(np.uint32)
            mats ^= mask[:, None] * rowbits[None, :]
        return _batched_gf2_rank(mats, s)

    def ranks(self, lo: int, hi: int) -> np.ndarray:
        """Radical rank of every form in the index range."""
        if self.ctx.q == 2:
            return self.ranks_q2(lo, hi)
        p, e, s = self.ctx.p, self.ctx.e, self.ctx.s
        idx = np.arange(lo, hi, dtype=np.int64)
        digits = (idx[:, None] // self.digit_powers % p).astype(np.float64)
        coords = (digits @ self.gram_coords).astype(np.int64) % p
        mats = coords.reshape(len(idx), s, s, e) @ self.label_powers
        return _batched_label_rank(self.sub, mats.astype(np.uint8))

    def rank_counts(self, lo: int, hi: int) -> np.ndarray:
        """Multiplicity of rank 2j, j = 0..m, over the index range."""
        ranks = self.ranks(lo, hi)
        if np.any(ranks & 1):
            raise ConsistencyError("odd rank in sweep")
        return np.bincount(ranks >> 1, minlength=self.ctx.m + 1)


def _batched_gf2_rank(mats: np.ndarray, s: int) -> np.ndarray:
    """Ranks of a batch of GF(2) matrices given as bit-packed rows."""
    b = mats.shape[0]
    rows = np.arange(b)
    cols = np.arange(s)
    pivot_count = np.zeros(b, dtype=np.int64)
    for col in range(s):
        bit = (mats >> col) & 1
        cand = (bit == 1) & (cols[None, :] >= pivot_count[:, None])
        has = cand.any(axis=1)
        piv = cand.argmax(axis=1)
        pc = np.minimum(pivot_count, s - 1)
        a_vals = mats[rows, piv]
        b_vals = mats[rows, pc]
        mats[rows, piv] = np.where(has, b_vals, a_vals)
        mats[rows, pc] = np.where(has, a_vals, b_vals)
        bit = (mats >> col) & 1
        elim = (bit == 1) & (cols[None, :] != pc[:, None]) & has[:, None]
        mats ^= elim * mats[rows, pc][:, None]
        pivot_count += has
    return pivot_count


def _batched_label_rank(sub: SubfieldView, mats: np.ndarray) -> np.ndarray:
    """Ranks over F_Q of a (batch, rows, cols) stack of label matrices.

    One Gaussian elimination runs on the whole stack.  In each column every
    matrix takes its first unused row with a nonzero entry as pivot, scales
    it to 1 and subtracts it from every row to clear the column, which is
    then dropped.  A used row is never read again, so clearing it (the
    pivot row included) is harmless, and so is the row argmax picks for a
    matrix without a pivot: its unused rows are already zero there."""
    mul_t, sub_t = sub.mul_table(), sub.sub_table()
    inv = (mul_t == 1).argmax(axis=1).astype(np.uint8)
    batch = np.arange(mats.shape[0])
    used = np.zeros(mats.shape[:2], dtype=bool)
    rank = np.zeros(mats.shape[0], dtype=np.int64)
    while mats.shape[2]:
        entries, rest = mats[:, :, 0], mats[:, :, 1:]
        cand = (entries != 0) & ~used
        has = cand.any(axis=1)
        piv = cand.argmax(axis=1)
        used[batch, piv] |= has
        rank += has
        pivot_row = mul_t[inv[entries[batch, piv]][:, None], rest[batch, piv]]
        mats = sub_t[rest, mul_t[entries[:, :, None], pivot_row[:, None, :]]]
    return rank


# ---------------------------------------------------------------------------
# worker entry points (top level so they pickle)


_PLAN_CACHE: dict = {}


def _get_plan(task: _Task, kind: str, spec: CodeSpec | None = None):
    key = (task.key(), kind)
    if key not in _PLAN_CACHE:
        spec = spec or task.rebuild()
        _PLAN_CACHE[key] = _CountPlan(spec) if kind == "count" else _RankPlan(spec)
    return _PLAN_CACHE[key]


def _count_chunk(args):
    task, lo, hi = args
    hist, work = _get_plan(task, "count").count_range(lo, hi)
    return hist, work


def _rank_chunk(args):
    task, lo, hi = args
    counts = _get_plan(task, "rank").rank_counts(lo, hi)
    return counts, (hi - lo) * task.s**3


def _run_chunks(fn, task: _Task, ranges, workers: int, progress=None,
                batch_cap: int = 1 << 16):
    """Split each form-index range [lo, hi) into contiguous chunks and run fn
    over them: in a pool when workers > 1 and the ranges hold at least
    _POOL_MIN_FORMS forms, else in-process.  Returns (range number, result)
    for every chunk, in order; progress counts the forms done."""
    total = sum(hi - lo for lo, hi in ranges)
    n_chunks = min(total, max(100, 4 * workers))
    if total > n_chunks * batch_cap:
        n_chunks = -(-total // batch_cap)
    owners, jobs = [], []
    for r, (lo, hi) in enumerate(ranges):
        pieces = -(-(hi - lo) * n_chunks // total)
        cuts = [lo + (hi - lo) * i // pieces for i in range(pieces + 1)]
        owners += [r] * pieces
        jobs += [(task, a, b) for a, b in zip(cuts, cuts[1:])]
    pool = None
    if workers > 1 and total >= _POOL_MIN_FORMS:
        import multiprocessing as mp
        pool = mp.Pool(processes=workers)
    results, done = [], 0
    with pool or contextlib.nullcontext():
        mapped = pool.imap(fn, jobs) if pool else map(fn, jobs)
        for r, (_, lo, hi), res in zip(owners, jobs, mapped):
            results.append((r, res))
            done += hi - lo
            if progress:
                progress(done, total)
    return results


def _orbit_ranges(space: FormSpace) -> list[tuple[int, int, int]]:
    """Form-index ranges (lo, hi, weight), one per orbit class under the
    cyclic shift (see the module docstring).  A class's representative is
    the smallest slot-local index with that log(c_j) mod g; the slot's
    nonzero values form the group <pi^h>, h = n / (q^width - 1), which
    meets g / h of the classes."""
    ctx = space.ctx
    q, n = ctx.q, ctx.n
    ranges = [(0, 1, 1)]  # the zero form
    offset = 0
    for j, (u, basis) in enumerate(zip(space.exponents, space.slot_bases)):
        width, g = len(basis), math.gcd(u, n)
        classes = g // (n // (q**width - 1))
        reps: dict[int, int] = {}
        for v in range(1, q**width):
            reps.setdefault(ctx.log(space.coeffs_at(v * q**offset)[j]) % g, v)
            if len(reps) == classes:
                break
        ranges += [(v * q**offset, (v + 1) * q**offset, n // g)
                   for v in sorted(reps.values())]
        offset += width
    return ranges


# ---------------------------------------------------------------------------
# the oracles


def brute_distribution(spec: CodeSpec, budget: int = DEFAULT_BUDGET,
                       workers: int = 1, progress=None) -> WeightDistribution:
    """Exact weight distribution by enumerating every parameter tuple."""
    work = brute_work(spec.q, spec.m, spec.family)
    if work > budget:
        raise BudgetExceeded(
            f"brute enumeration needs ~{work} elementary operations "
            f"(budget {budget}); try rank_sweep", estimate=work, budget=budget)
    if not _brute_table_fits(spec.q, spec.m, spec.family):
        raise FieldSizeError(
            f"brute {spec.family} needs the linear-trace table, refused above "
            f"{LINEAR_TRACE_BOUND} field elements; try rank_sweep",
            estimate=work, budget=budget)
    task = _Task(spec)
    # built here, the plan serves the in-process chunks and forked workers
    plan = _get_plan(task, "count", spec)
    ranges = _orbit_ranges(plan.space)
    covered = sum(weight * (hi - lo) for lo, hi, weight in ranges)
    if covered != plan.space.num_forms:
        raise ConsistencyError(
            f"orbit ranges cover {covered} forms, expected {plan.space.num_forms}")
    hist = np.zeros(spec.n + 1, dtype=np.int64)
    done_work = 0
    for r, (h, w) in _run_chunks(_count_chunk, task,
                                 [(lo, hi) for lo, hi, _ in ranges],
                                 workers, progress):
        weight = ranges[r][2]
        hist += weight * h
        done_work += weight * w
    counts = {int(w): int(c) for w, c in enumerate(hist) if c}
    dist = WeightDistribution(spec.q, spec.m, spec.family, spec.n, spec.k,
                              counts, work_count=done_work)
    expected_total = spec.q**spec.k
    if dist.total() != expected_total:
        raise ConsistencyError(
            f"enumerated {dist.total()} codewords, expected {expected_total}")
    return dist


def measure_rank_counts(spec: CodeSpec, budget: int = DEFAULT_BUDGET,
                        workers: int = 1, progress=None) -> list[int]:
    """Rank-2j multiplicities measured by radical elimination per form."""
    work = rank_sweep_work(spec.q, spec.m)
    if work > budget:
        raise BudgetExceeded(
            f"rank sweep needs ~{work} elementary operations (budget {budget})",
            estimate=work, budget=budget)
    if not spec.ctx.tables_available():
        raise FieldSizeError(
            f"rank sweep needs the exp/log tables, refused above "
            f"{spec.ctx.table_bound} field elements", estimate=work, budget=budget)
    task = _Task(spec)
    # built here, the plan serves the in-process chunks, the ε check and
    # forked workers alike
    _get_plan(task, "rank", spec)
    forms = spec.q ** (spec.m * spec.m)
    counts = np.zeros(spec.m + 1, dtype=np.int64)
    for _, (c, _) in _run_chunks(_rank_chunk, task, [(0, forms)], workers,
                                 progress):
        counts += c
    return [int(c) for c in counts]


def _epsilon_cross_check(spec: CodeSpec):
    """Sample forms: the sweep's rank must be the radical rank, and the plain
    character sum must agree with it in magnitude and in the sign
    (-1)^(rank/2) that the sweep relies on."""
    space = FormSpace(spec.ctx)
    plan = _get_plan(_Task(spec), "rank", spec)
    total = space.num_forms
    sample = sorted({round(i * (total - 1) / (_EPSILON_SAMPLES - 1))
                     for i in range(_EPSILON_SAMPLES)}) if total > 1 else [0]
    for index in sample:
        r_sweep = int(plan.ranks(index, index + 1)[0])
        form = space.form_at(index)
        if form.rank != r_sweep:
            raise ConsistencyError(
                f"sweep rank {r_sweep} != radical rank {form.rank} at {index}")
        form.epsilon  # raises unless |T| and the sign of T agree with form.rank


def rank_sweep(spec: CodeSpec, budget: int = DEFAULT_BUDGET,
               workers: int = 1, progress=None) -> WeightDistribution:
    """Semi-analytic oracle: measured rank multiplicities pushed through the
    exponential-sum value classes."""
    counts = measure_rank_counts(spec, budget, workers, progress)
    _epsilon_cross_check(spec)
    dist = assemble_distribution(spec.q, spec.m, spec.family, counts)
    return dataclasses.replace(dist, work_count=rank_sweep_work(spec.q, spec.m))


@dataclass
class VerifyReport:
    q: int
    m: int
    family: str
    tier: str
    oracle_kind: str
    equal: bool
    first_diff: int | None
    predicted: WeightDistribution
    oracle: WeightDistribution
    work_count: int
    runtime_seconds: float
    workers: int


def verify(q: int, m: int, family: str, tier: str = "quick", workers: int = 1,
           modulus_rank: int = 0, budgets: dict[str, int] | None = None,
           progress=None) -> VerifyReport:
    """Predict the distribution and check it against the strongest oracle
    the tier budget affords: brute enumeration if it fits, else the rank
    sweep, else a budget refusal.  The choice, and any refusal, is made
    from (q, m, family) before the field is built."""
    budget = (budgets or TIER_BUDGETS)[tier]
    p, e = split_prime_power(q)
    brute, sweep = brute_work(q, m, family), rank_sweep_work(q, m)
    if q > MAX_LABEL_Q:
        raise FieldSizeError(
            f"F_q labels are bytes; q = {q} exceeds {MAX_LABEL_Q}",
            estimate=min(brute, sweep), budget=budget)
    brute_fits = _brute_table_fits(q, m, family)
    sweep_fits = _sweep_table_fits(q, m)
    if brute <= budget and brute_fits:
        kind, run = "brute", brute_distribution
    elif sweep <= budget and sweep_fits:
        kind, run = "rank_sweep", rank_sweep
    else:
        brute_over = "" if brute_fits else ", over the linear-trace table bound"
        sweep_over = "" if sweep_fits else ", over the log-table bound"
        raise BudgetExceeded(
            f"no oracle fits tier {tier!r}: brute ~{brute}{brute_over}, "
            f"rank sweep ~{sweep}{sweep_over} (budget {budget})",
            estimate=min(brute, sweep), budget=budget)
    ctx = make_field(p, e, 2 * m, modulus_rank)
    spec = build_code(ctx, family)
    predicted = predict(q, m, family)
    start = time.monotonic()
    oracle = run(spec, budget, workers, progress)
    runtime = time.monotonic() - start
    equal = predicted.counts == oracle.counts
    first_diff = None
    if not equal:
        all_weights = sorted(set(predicted.counts) | set(oracle.counts))
        first_diff = next(w for w in all_weights
                          if predicted.counts.get(w) != oracle.counts.get(w))
    return VerifyReport(q, m, family, tier, kind, equal, first_diff, predicted,
                        oracle, oracle.work_count or 0, runtime, workers)


def default_workers() -> int:
    return os.cpu_count() or 1
