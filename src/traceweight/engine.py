"""The independent oracles: exhaustive codeword counting and the rank sweep.

brute_distribution counts codewords a block of forms (the quadratic part
of the parameters) at a time, by literal match counting.  It never
materializes codewords.  A form's value table (the n-vector of F_q
labels of Q(pi^i) in coordinate order) is F_p-linear in its index's
base-p digits, so a block's tables are combined from the per-digit
tables, FormSpace.digit_values, which the rank sweep reads its
per-digit Grams from too.  Each table is matched against every
linear-trace row by quadforms.coordinate_matches, over bit planes: a
codeword b + Tr(beta x) + Q(x) vanishes where Tr(beta x) equals
-b - Q(x), and every coordinate is compared, 64 to a machine word.
Family E uses one bin per constant shift; family C has no beta and
counts the zeros of Q alone.  The brute oracle never trusts the
combination: on every run the values check compares the combined
tables of a fixed sample of counted forms with each form's own,
QuadForm.value_labels, built from its coefficients.

Both oracles count one form per orbit of the code's symmetry group, not
all q^(m^2) forms.  Three maps act on every slot coefficient c_j = pi^l
separately and preserve each form's histogram (summed over beta and b)
and its radical rank: the cyclic shift x -> pi^k x (c_j -> c_j pi^(k u_j),
beta -> pi^k beta; it shifts every codeword), the scalars lambda in F_q^*
(Q, beta and b scaled together) and the Frobenius c -> c^p (coordinates
permuted by i -> p i, values through F_q's Frobenius).  On logs the
element (f, k, a) acts as l -> p^f l + k u_j + a n/(q-1) mod n, and the
group has order e s n (q-1).  _form_orbits walks the slots from the most
significant down: under the current stabilizer H it takes the zero
value (which keeps H) and one value per H-orbit of the slot's nonzero
values, and recurses with that value's stabilizer.  Once H fixes every
value of every lower slot, the lower slots are free: it emits one
contiguous form-index range of weight |G|/|H|, the orbit size of each of
its forms.  H is held as the translations k allowed per (f, a), a coset
of one subgroup d Z_n (or none), so no temporary grows with |G|.  The
ranges must cover all q^(m^2) forms with their weights before anything
is counted; they are then flattened into one index array with one weight
per form, which _enumerate cuts into contiguous slices.  Only which
forms are counted changes, never how a form is counted, and every merge
is a plain int64 sum of weight x histogram (brute) or weight x rank
count (sweep), so results are bitwise identical for every worker count
and chunking.

rank_sweep instead measures the radical rank of each form and converts
the measured rank multiplicities into the weight distribution through
the exponential-sum value classes.  The Gram matrix of the polarized
bilinear form B is F_p-linear in the form index, so a chunk's Grams are
combined from per-digit Grams, which quadforms.gram_labels reads off the
digit tables, and eliminated at once over F_p: as
bit-packed GF(2) rows at every even q, mod p otherwise.  The trace form
of F_q/F_p is nondegenerate, so Tr_{q/p}(B) has F_p-rank e times the
F_q-rank of B.  The sweep trusts the value tables, which the tests check
against the literal Q(x), but not the closed-form rank frequencies,
which it measures.  On a sample of forms the epsilon check compares its
ranks with QuadForm.rank, which eliminates each form's own Gram over F_q
(fields.label_matrix_rank, forward elimination through F_q's own
multiplication and subtraction tables, built from the field's mul and
sub and shared with no kernel here): two eliminations over two fields
must agree.  It also checks the sign convention against the plain
character sum T, which the form caches.
Neither side evaluates Q through pow and trace at run time.

Both oracles run through one function, _enumerate.  It admits or refuses
the run, builds the oracle's plan (or reuses it: the epsilon check reads
the sweep's), takes the orbit batch and sums the plan's counts over its
slices.  With fewer than _POOL_MIN_FORMS forms the slices run
in-process, whatever the worker count; else a pool runs them, and its
workers receive the plan once, as they start (forked workers inherit it,
spawned ones unpickle it).

Work is accounted, and every run admitted or refused, by the admission
module, from (q, m, family) alone: its one rule, _refusal, and
choose_oracle, which verify calls, run before any field or plan is built.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from .admission import (TIER_BUDGETS, _refusal, brute_work,  # noqa: F401 - re-exported
                        choose_oracle, rank_sweep_work, split_prime_power)
from .codes import CodeSpec, ConsistencyError, build_code
from .fields import make_field
from .quadforms import (MATCH_WORDS, FormSpace, coordinate_matches, gram_labels,
                        linear_trace_planes, trace_residues)
from .spectra import WeightDistribution, assemble_distribution, predict

DEFAULT_BUDGET = 2**36
# forms sampled by the epsilon check and by the brute values check
_CHECK_SAMPLES = 12
# Enumerations of fewer forms run in-process whatever the worker count: a
# second worker gained nothing on the (4,3) sweep, 2^18 forms in about
# 1.5 s, and below that a pool's start-up only adds to the time and to its
# spread.
_POOL_MIN_FORMS = 1 << 18
# A chunk holds at least this many forms: a rank call costs about 0.5 ms
# before its first form, as much as about 200 GF(2) ranks at (2,5).
_MIN_CHUNK_FORMS = 256
# and at most this many, which bounds the Gram stack of one rank call
_BATCH_CAP = 1 << 16


# ---------------------------------------------------------------------------
# per-process plans


class _CountPlan:
    """The histogram of codeword weights a worker fills, a block of counted
    forms at a time.

    A form's value table is F_p-linear in its index's base-p digits, so a
    block's tables are combined from the per-digit tables
    (FormSpace.digit_values): at p = 2 as XORs of the digit rows the index
    bits select, a machine word at a time; at odd p as one matmul of the
    base-p digits with the digit tables' F_p coordinates, reduced mod p and
    packed back into labels.  Each block's tables are then matched against
    the linear-trace rows by coordinate_matches.  A block holds as many
    forms as keep its largest temporaries under quadforms.MATCH_WORDS
    words, so a chunk of 2^16 forms of 4,095 labels is never held at once.
    """

    def __init__(self, spec: CodeSpec):
        ctx = spec.ctx
        ctx.require_tables()
        self.spec = spec
        self.ctx = ctx
        self.space = FormSpace(ctx)
        p, e, n = ctx.p, ctx.e, ctx.n
        digit_values = self.space.digit_values()
        digits = len(digit_values)
        if p == 2:
            # the matmul below serves p = 2 as well, but with its float mod
            # and repacking the brute benchmark's oracle_s read 43 % higher
            # (BENCH_bitplane_brute.json, p2_branch_check)
            self.digit_shifts = np.arange(digits, dtype=np.int64)
            row_words = -(-n // 8)
            padded = np.zeros((digits, 8 * row_words), dtype=np.uint8)
            padded[:, :n] = digit_values
            self.digit_words = padded.view(np.uint64)
            per_form = digits * row_words
        else:
            self.digit_powers = p ** np.arange(digits, dtype=np.int64)
            # digit_coords[d, i * e + k] is F_p coordinate k of label i of
            # digit d; float64 for a BLAS matmul: every sum is an integer
            # below digits * p^2, so it stays exact
            coords = digit_values[:, :, None] // p ** np.arange(e) % p
            self.digit_coords = coords.reshape(digits, -1).astype(np.float64)
            self.label_weights = (p ** np.arange(e)).astype(np.float64)
            per_form = n * e
        if spec.family != "C":
            # one target's XOR words, W per packed beta, and every target's
            # int64 match counts
            targets = ctx.q if spec.family == "E" else 1
            per_form += (-(-n // 64) + targets) * ctx.size
            # built now, so that a field over the table bound is refused
            # before the orbit layer and forked workers inherit the planes
            linear_trace_planes(ctx)
        self.block = max(1, MATCH_WORDS // per_form)

    def values(self, idx: np.ndarray) -> np.ndarray:
        """(len(idx), n) uint8 value tables of the forms at the indices idx."""
        ctx = self.ctx
        if ctx.p == 2:
            bits = ((idx[:, None] >> self.digit_shifts) & 1).astype(np.uint64)
            words = np.bitwise_xor.reduce(bits[:, :, None] * self.digit_words, axis=1)
            return words.view(np.uint8)[:, :ctx.n]
        digits = (idx[:, None] // self.digit_powers % ctx.p).astype(np.float64)
        coords = (digits @ self.digit_coords) % ctx.p
        if ctx.e > 1:
            coords = coords.reshape(len(idx), ctx.n, ctx.e) @ self.label_weights
        return coords.astype(np.uint8)

    def counts(self, idx: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Weighted histogram of codeword weights over the forms at the
        indices idx, summed in int64."""
        ctx, family = self.ctx, self.spec.family
        q, n = ctx.q, ctx.n
        hist = np.zeros(n + 1, dtype=np.int64)
        for lo in range(0, len(idx), self.block):
            values = self.values(idx[lo:lo + self.block])
            if family == "C":
                # no beta: the codeword Q(x) has weight |{x : Q(x) != 0}|
                cw_weights = np.count_nonzero(values, axis=1)[:, None]
            else:
                # codeword b + Tr(beta x) + Q(x) vanishes where
                # Tr(beta x) + Q(x) = -b; E's last target takes the rest
                matches = coordinate_matches(
                    ctx, values, range(q - 1 if family == "E" else 1)).astype(np.int64)
                if family == "E":
                    matches = np.concatenate([matches, n - matches.sum(axis=0)[None]])
                cw_weights = n - matches
            forms = len(values)
            offsets = (n + 1) * np.arange(forms, dtype=np.int64)[:, None]
            per_form = np.bincount((cw_weights + offsets).ravel(),
                                   minlength=forms * (n + 1)).reshape(forms, n + 1)
            hist += weights[lo:lo + self.block] @ per_form
        return hist


class _RankPlan:
    """Gram matrices of the forms at a batch of form indices, and their ranks.

    The Gram matrix of the polarized form B on the basis pi^0..pi^(s-1) is
    F_p-linear in the form index's base-p digits: a combination of
    per-digit Grams, digit d's read off the value table of the form at
    index p^d by quadforms.gram_labels, as QuadForm.rank reads a single
    form's.  The ranks are measured over F_p: on the F_p-basis g^i pi^a
    (g generating F_q, i < e) the Gram of Tr_{q/p}(B) holds the e x e block
    Tr_{q/p}(g^(i+j) L) for each F_q label L of B's, and as the trace form
    of F_q/F_p is nondegenerate, its F_p-rank is e times B's F_q-rank.  At
    p = 2 a batch's Grams are XORs of bit-packed rows, eliminated over
    GF(2); at odd p they are one matmul of the index digits with the
    per-digit Grams, reduced mod p and eliminated all at once.
    """

    def __init__(self, spec: CodeSpec):
        ctx = spec.ctx
        ctx.require_tables()
        self.ctx = ctx
        p, e = ctx.p, ctx.e
        self.es = e * ctx.s
        space = FormSpace(ctx)
        self.p_digits = e * space.digit_count
        values = space.digit_values()
        # grams[d, a, b] = B_d(pi^a, pi^b) as an F_q label
        self.grams = gram_labels(ctx, values)
        # block[L, i, j] = Tr_{q/p}(g^(i+j) L) as a residue
        sub = ctx.subfield(ctx.q)
        g_ij = [[sub.label_of(ctx.pow(sub.gen, i + j)) for j in range(e)] for i in range(e)]
        block = trace_residues(ctx)[sub.mul_table()[:, g_ij]]
        # fp_grams[d] has row (a, i) and column (b, j) at a * e + i, b * e + j
        fp_grams = block[self.grams].swapaxes(2, 3).reshape(self.p_digits, self.es, -1)
        if p == 2:
            # es = log2(field size) <= 26 under the default table bound
            weights = (1 << np.arange(self.es, dtype=np.uint32))
            self.gram_bits = fp_grams.astype(np.uint32) @ weights
        else:
            self.digit_powers = p ** np.arange(self.p_digits, dtype=np.int64)
            # float64 for a BLAS matmul: every sum is an integer below
            # p_digits * p^2, so it stays exact
            self.gram_coords = fp_grams.reshape(self.p_digits, -1).astype(np.float64)

    def ranks(self, idx: np.ndarray) -> np.ndarray:
        """Radical rank of the form at every index in the int64 array idx."""
        p, e, es = self.ctx.p, self.ctx.e, self.es
        if p == 2:
            mats = np.zeros((len(idx), es), dtype=np.uint32)
            for d, rowbits in enumerate(self.gram_bits):
                mats ^= ((idx >> d) & 1).astype(np.uint32)[:, None] * rowbits
            fp_ranks = _batched_gf2_rank(mats, es)
        else:
            digits = (idx[:, None] // self.digit_powers % p).astype(np.float64)
            mats = (digits @ self.gram_coords).astype(np.uint32) % p
            fp_ranks = _batched_fp_rank(mats.reshape(len(idx), es, es), p)
        if np.any(fp_ranks % (2 * e)):
            raise ConsistencyError(f"sweep F_p rank not a multiple of 2e = {2 * e}")
        return fp_ranks // e

    def counts(self, idx: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Weighted multiplicity of rank 2j, j = 0..m, over the indices idx,
        summed in int64."""
        counts = np.zeros(self.ctx.m + 1, dtype=np.int64)
        np.add.at(counts, self.ranks(idx) >> 1, weights)
        return counts


def _batched_gf2_rank(mats: np.ndarray, cols: int) -> np.ndarray:
    """Ranks over GF(2) of a (batch, rows) stack of cols-bit row words, by
    _batched_fp_rank's elimination, XOR-ing the pivot row into the rows."""
    batch = np.arange(mats.shape[0])
    rank = np.zeros(mats.shape[0], dtype=np.int64)
    for col in range(cols):
        bit = (mats >> col) & 1
        rank += bit.any(axis=1)
        mats ^= bit * mats[batch, bit.argmax(axis=1)][:, None]
    return rank


def _batched_fp_rank(mats: np.ndarray, p: int) -> np.ndarray:
    """Ranks over F_p of a (batch, rows, cols) stack of residue matrices.

    One Gaussian elimination runs on the whole stack.  In each column every
    matrix takes a row with a nonzero entry as pivot, scales it to 1 and
    subtracts it from every row to clear the column, which is then
    dropped.  That zeroes the pivot row too, so no row is picked twice; a
    matrix whose column is zero subtracts nothing.  In uint16 no
    intermediate reaches p^2, as q <= MAX_LABEL_Q."""
    mats = mats.astype(np.uint16, copy=False)
    inv = np.array([0] + [pow(a, -1, p) for a in range(1, p)], dtype=np.uint16)
    batch = np.arange(mats.shape[0])
    rank = np.zeros(mats.shape[0], dtype=np.int64)
    while mats.shape[2]:
        entries, rest = mats[:, :, 0], mats[:, :, 1:]
        piv = entries.argmax(axis=1)
        pivot = entries[batch, piv]
        rank += pivot != 0
        pivot_row = inv[pivot][:, None] * rest[batch, piv] % p
        mats = (rest + (p - entries)[:, :, None] * pivot_row[:, None, :]) % p
    return rank


# ---------------------------------------------------------------------------
# the orbit layer


def _logs_to_values(space: FormSpace, j: int) -> np.ndarray:
    """Slot j's local value v at every log l of a nonzero slot coefficient
    (entries at other logs are unset).  The coefficient is F_p-linear in
    v's base-p digits: digit e*d + i scales basis_d by the F_q label p^i."""
    ctx = space.ctx
    sub = ctx.subfield(ctx.q)
    basis = space.slot_bases[j]
    matrix = np.zeros((ctx.degree, ctx.degree))
    matrix[:ctx.e * len(basis)] = [ctx.digits(ctx.mul(sub.from_label(ctx.p**i), b))
                                   for b in basis for i in range(ctx.e)]
    values = np.arange(1, ctx.q ** len(basis), dtype=np.int64)
    out = np.empty(ctx.n, dtype=np.int64)
    out[ctx.log_table()[ctx.linear_image(values, matrix)]] = values
    return out


def _form_orbits(space: FormSpace) -> list[tuple[int, int, int]]:
    """Form-index ranges (lo, hi, weight), ascending: the forms counted for
    each orbit of the symmetry group, with the orbit size as weight (see
    the module docstring).

    A stabilizer H is a pair (K, d): K[f, a] >= 0 when H holds elements
    (f, k, a), which are then those with k = K[f, a] mod d, and -1 when it
    holds none.  So |H| = |{K >= 0}| n / d."""
    ctx = space.ctx
    p, q, n, degree = ctx.p, ctx.q, ctx.n, ctx.degree
    order = degree * (q - 1) * n
    p_pow = np.array([pow(p, f, n) for f in range(degree)], dtype=np.int64)
    scalar = np.arange(q - 1, dtype=np.int64) * (n // (q - 1))
    us = [u % n for u in space.exponents]
    widths = [len(b) for b in space.slot_bases]
    # slot j's coefficient logs are the multiples of steps[j]; digits
    # below ends[j] belong to slots 0..j-1
    steps = [n // (q**w - 1) for w in widths]
    ends = [sum(widths[:j]) for j in range(len(widths) + 1)]
    values_at = {}
    ranges = []

    def fixes_slot(K, d, i):
        valid = K >= 0
        moved = (K * us[i] + scalar) % n
        frob = p_pow[valid.any(axis=1)] - 1
        return (d * us[i] % n == 0 and not np.any(moved[valid])
                and not np.any(frob * steps[i] % n))

    def stabilizer(K, d, j, log):
        """(K, d) of the elements of H that fix log in slot j: each (f, a)
        solves k u_j = log - p^f log - a n/(q-1) over k = K[f, a] + d y."""
        g = math.gcd(d * us[j], n)
        m = n // g
        rhs = (log - p_pow[:, None] * log - scalar[None, :] - K * us[j]) % n
        y = rhs // g * pow(d * us[j] // g, -1, m) % m
        fixed = (K >= 0) & (rhs % g == 0)
        return np.where(fixed, (K + d * y) % (d * m), -1), d * m

    def orbits(K, d, j):
        """One log per H-orbit of slot j's nonzero coefficients, and the
        orbit's size.  The f = 0 elements of H translate logs by the
        multiples of g, and the smallest positive f in H permutes the
        residues mod g in cycles whose lengths divide degree / f."""
        valid = K >= 0
        g = int(np.gcd.reduce([n, d * us[j] % n,
                               *((K[0] * us[j] + scalar) % n)[valid[0]]]))
        residues = np.arange(0, g, steps[j], dtype=np.int64)
        # powers of that element: how many, and how many fix each residue
        smallest, fixing, powers = residues, np.ones_like(residues), 1
        frobs = np.flatnonzero(valid.any(axis=1))
        if len(frobs) > 1:
            f = frobs[1]
            a = np.flatnonzero(valid[f])[0]
            shift = (K[f, a] * us[j] + scalar[a]) % g
            image, powers = residues, degree // f
            for _ in range(powers - 1):
                image = (image * p_pow[f] + shift) % g
                smallest = np.minimum(smallest, image)
                fixing += image == residues
        first = smallest == residues
        return residues[first], powers // fixing[first] * (n // g)

    def visit(j, base, K, d):
        weight = order // (np.count_nonzero(K >= 0) * (n // d))
        if all(fixes_slot(K, d, i) for i in range(j + 1)):
            ranges.append((base, base + q ** ends[j + 1], weight))
            return
        if j not in values_at:
            values_at[j] = _logs_to_values(space, j)
        logs, sizes = orbits(K, d, j)
        if j == 0:
            # no slot is left below: each value's form is one orbit, of
            # |G|/|H| times the value's H-orbit size
            ranges.append((base, base + 1, weight))
            ranges.extend((base + v, base + v + 1, weight * size) for v, size in
                          zip(values_at[0][logs].tolist(), sizes.tolist()))
            return
        visit(j - 1, base, K, d)  # the zero coefficient keeps H
        for log in logs.tolist():
            v = int(values_at[j][log])
            visit(j - 1, base + v * q ** ends[j], *stabilizer(K, d, j, log))

    visit(len(widths) - 1, 0, np.zeros((degree, q - 1), dtype=np.int64), 1)
    return sorted(ranges)


def _orbit_batch(space: FormSpace) -> tuple[np.ndarray, np.ndarray]:
    """The index of every counted form and its weight, in ascending index
    order, after checking that the weighted ranges cover every form."""
    ranges = _form_orbits(space)
    covered = sum(weight * (hi - lo) for lo, hi, weight in ranges)
    if covered != space.num_forms:
        raise ConsistencyError(
            f"orbit ranges cover {covered} forms, expected {space.num_forms}")
    lo, hi, weight = (np.array(col, dtype=np.int64) for col in zip(*ranges))
    sizes = hi - lo
    starts = np.cumsum(sizes) - sizes
    idx = np.arange(int(sizes.sum()), dtype=np.int64) + np.repeat(lo - starts, sizes)
    return idx, np.repeat(weight, sizes)


# ---------------------------------------------------------------------------
# the oracles


@functools.lru_cache(maxsize=4)
def _plan(kind: str, spec: CodeSpec):
    """The plan an oracle counts with; cached, so the epsilon check reuses
    the sweep's."""
    return _CountPlan(spec) if kind == "brute" else _RankPlan(spec)


_worker_plan = None  # set in each pool worker as it starts


def _start_worker(plan):
    global _worker_plan
    _worker_plan = plan


def _worker_counts(chunk):
    return _worker_plan.counts(*chunk)


def _enumerate(kind: str, spec: CodeSpec, budget: int, workers: int,
               progress) -> np.ndarray:
    """The sum of the oracle kind's plan.counts over every counted form,
    each with its orbit weight, once _refusal admits the run.  The forms go
    in up to 100 contiguous slices (4 per worker if more) of at least
    _MIN_CHUNK_FORMS forms, none over _BATCH_CAP; progress counts the
    forms done."""
    refusal = _refusal(kind, spec.q, spec.m, spec.family, budget)
    if refusal:
        raise refusal
    plan = _plan(kind, spec)
    idx, weights = _orbit_batch(FormSpace(spec.ctx))
    if kind == "brute":
        _values_cross_check(plan, idx)
    total = len(idx)
    n_chunks = max(min(-(-total // _MIN_CHUNK_FORMS), max(100, 4 * workers)),
                   -(-total // _BATCH_CAP))
    cuts = [total * i // n_chunks for i in range(n_chunks + 1)]
    chunks = [(idx[a:b], weights[a:b]) for a, b in zip(cuts, cuts[1:])]
    pool = None
    if workers > 1 and total >= _POOL_MIN_FORMS:
        import multiprocessing as mp
        pool = mp.Pool(processes=workers, initializer=_start_worker, initargs=(plan,))
    counts, done = 0, 0
    with pool or contextlib.nullcontext():
        results = (pool.imap(_worker_counts, chunks) if pool
                   else (plan.counts(*chunk) for chunk in chunks))
        for (part, _), result in zip(chunks, results):
            counts += result
            done += len(part)
            if progress:
                progress(done, total)
    return counts


def _spread(total: int) -> list[int]:
    """_CHECK_SAMPLES positions spread evenly over range(total), both ends
    included (fewer where total is smaller)."""
    return sorted({round(i * (total - 1) / (_CHECK_SAMPLES - 1))
                   for i in range(_CHECK_SAMPLES)})


def _values_cross_check(plan: _CountPlan, idx: np.ndarray):
    """Sample counted forms: the value tables the brute plan combines from
    the digit tables must equal each form's own, built from its
    coefficients by QuadForm.value_labels."""
    sample = idx[_spread(len(idx))]
    for index, values in zip(sample.tolist(), plan.values(sample)):
        if not np.array_equal(values, plan.space.form_at(index).value_labels()):
            raise ConsistencyError(
                f"combined value table differs from the form's own at {index}")


def brute_distribution(spec: CodeSpec, budget: int = DEFAULT_BUDGET,
                       workers: int = 1, progress=None) -> WeightDistribution:
    """Exact weight distribution by enumerating every parameter tuple."""
    hist = _enumerate("brute", spec, budget, workers, progress)
    counts = {int(w): int(c) for w, c in enumerate(hist) if c}
    dist = WeightDistribution(spec.q, spec.m, spec.family, spec.n, spec.k, counts,
                              work_count=brute_work(spec.q, spec.m, spec.family))
    expected_total = spec.q**spec.k
    if dist.total() != expected_total:
        raise ConsistencyError(
            f"enumerated {dist.total()} codewords, expected {expected_total}")
    return dist


def measure_rank_counts(spec: CodeSpec, budget: int = DEFAULT_BUDGET,
                        workers: int = 1, progress=None) -> list[int]:
    """Rank-2j multiplicities measured by radical elimination per form."""
    return _enumerate("rank_sweep", spec, budget, workers, progress).tolist()


def _epsilon_cross_check(spec: CodeSpec):
    """Sample forms: the sweep's rank must be the radical rank, and the plain
    character sum must agree with it in magnitude and in the sign
    (-1)^(rank/2) that the sweep relies on."""
    space = FormSpace(spec.ctx)
    plan = _plan("rank_sweep", spec)
    sample = _spread(space.num_forms)
    for index, r_sweep in zip(sample, plan.ranks(np.array(sample, dtype=np.int64))):
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
    kind = choose_oracle(q, m, family, tier, budget)
    run = brute_distribution if kind == "brute" else rank_sweep
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

