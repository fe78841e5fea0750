"""The independent oracles: exhaustive codeword counting and the rank sweep.

brute_distribution counts codewords a block of forms (the quadratic part
of the parameters) at a time, by literal match counting.  It never
materializes codewords.  A block's value tables (the n-vector of F_q
labels of Q(pi^i) in coordinate order, per form) come from the one
implementation of form values, quadforms.form_values, on the forms'
coefficients, FormSpace.coefficients; the tests check both against
literal references (Q(x) through pow and trace, and the coefficients
built digit by digit).  Each table is matched against every
linear-trace row by quadforms.coordinate_matches, over bit planes: a
codeword b + Tr(beta x) + Q(x) vanishes where Tr(beta x) equals
-b - Q(x), and every coordinate is compared, 64 to a machine word.
Family E uses one bin per constant shift; family C has no beta and
counts the zeros of Q alone.

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
value of every lower slot, the lower slots are free: it emits one run of
contiguous form indices of weight |G|/|H|, the orbit size of each of its
forms; at slot 0 each value is a run of one form.  H is held as a dict
from each (f, a) it holds to the translations k allowed with it, a
coset of one subgroup d Z_n, so no temporary grows with |G|.  H has at
most e s (q-1) entries, so its tests and updates run on Python ints;
only a slot's residues and values are numpy arrays.  A visit solves its
slot's values in one call, at the representative logs only, through
the inverse of the slot's map (FormSpace.local_values), so no map grows
with n.  The runs come back as int64 arrays (start, length, weight) in
start order, and must cover all q^(m^2) forms with their weights, summed
exactly, before anything is counted; they are then expanded into one
index array, which _enumerate cuts into contiguous slices, with one
weight per form.  Only which forms are counted changes, never how a form
is counted, and every merge is a plain int64 sum of weight x histogram
(brute) or weight x rank count (sweep), so results are bitwise identical
for every worker count and chunking.

rank_sweep instead measures the radical rank of each form and converts
the measured rank multiplicities into the weight distribution through
the exponential-sum value classes.  The Gram matrix of the polarized
bilinear form B is F_p-linear in the form index, so a chunk's Grams are
combined from per-digit Grams, which quadforms.gram_labels reads off the
digit forms' values at the Gram points only, and eliminated at once over
F_p: as bit-packed GF(2) rows at every even q, mod p otherwise.  The
trace form of F_q/F_p is nondegenerate, so Tr_{q/p}(B) has F_p-rank e
times the F_q-rank of B.  The rank plan, built once per field, serves
every family and the epsilon check.  The sweep trusts the form values,
which the tests check against the literal Q(x), but not the closed-form
rank frequencies, which it measures.  On a sample of forms the epsilon
check compares its ranks with QuadForm.rank, which eliminates each
form's own Gram over F_q (fields.label_matrix_rank, forward elimination
through F_q's own multiplication and subtraction tables, built from the
field's mul and sub and shared with no kernel here): two eliminations
over two fields must agree.  It also checks the sign convention against
the plain character sum T, tallied for all sampled forms of a block at
once.
Neither side evaluates Q through pow and trace at run time.

Both oracles run through one function, _enumerate.  It admits or refuses
the run, builds the oracle's plan (or reuses it: the epsilon check reads
the sweep's), takes the orbit batch from the plan's FormSpace and sums
the plan's counts over its slices.  With fewer than _POOL_MIN_FORMS
forms the slices run in-process, whatever the worker count; else a pool
runs them, and its workers receive the plan once, as they start (forked
workers inherit it, spawned ones unpickle it).

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

from .admission import (TIER_BUDGETS, _refusal, brute_work, choose_oracle,
                        rank_sweep_work, split_prime_power)
from .codes import CodeSpec, ConsistencyError, build_code
from .fields import FieldCtx, make_field
from .quadforms import (MATCH_WORDS, FormSpace, coordinate_matches, form_values,
                        gram_labels, gram_points, linear_trace_planes, match_block,
                        trace_residues)
from .spectra import WeightDistribution, assemble_distribution, predict

DEFAULT_BUDGET = 2**36
# forms sampled by the epsilon check
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

    The counted forms' value tables come from quadforms.form_values on
    their coefficients (FormSpace.coefficients), a batch of about
    MATCH_WORDS // n forms a call.  Each match block of a batch is then
    matched against the linear-trace rows by coordinate_matches; it holds
    as many forms as keep the match's temporaries under MATCH_WORDS
    words (quadforms.match_block, which sizes a form block's beta-table
    calls too), so a chunk of 2^16 forms of 4,095 labels is never held at
    once.  A batch is a whole number of match blocks: one form_values
    call per match block, 3 forms at D(2,5), made the brute pass there
    30-90 % slower (0.57-0.60 s against 0.76-1.13 s in one process on a
    2-vCPU VM).
    """

    def __init__(self, spec: CodeSpec):
        ctx = spec.ctx
        ctx.require_tables()
        self.spec = spec
        self.ctx = ctx
        self.space = FormSpace(ctx)
        per_batch = max(1, MATCH_WORDS // ctx.n)
        self.block = per_batch
        if spec.family != "C":
            self.block = match_block(ctx, ctx.q if spec.family == "E" else 1, MATCH_WORDS)
            # built now, so that a field over the table bound is refused
            # before the orbit layer and forked workers inherit the planes
            linear_trace_planes(ctx)
        self.batch = max(1, per_batch // self.block) * self.block

    def counts(self, idx: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Weighted histogram of codeword weights over the forms at the
        indices idx, summed in int64."""
        ctx, family = self.ctx, self.spec.family
        q, n = ctx.q, ctx.n
        hist = np.zeros(n + 1, dtype=np.int64)
        for lo in range(0, len(idx), self.batch):
            tables = form_values(ctx, self.space.coefficients(idx[lo:lo + self.batch]))
            for at in range(0, len(tables), self.block):
                values = tables[at:at + self.block]
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
                hist += weights[lo + at:lo + at + forms] @ per_form
        return hist


class _RankPlan:
    """Gram matrices of the forms at a batch of form indices, and their ranks.

    The Gram matrix of the polarized form B on the basis pi^0..pi^(s-1) is
    F_p-linear in the form index's base-p digits: a combination of
    per-digit Grams, digit d's read by quadforms.gram_labels off the values
    of the form at index p^d at the Gram points, as QuadForm.rank reads a
    single form's.  The ranks are measured over F_p: on the F_p-basis
    g^i pi^a (g generating F_q, i < e) the Gram of Tr_{q/p}(B) holds the
    e x e block Tr_{q/p}(g^(i+j) L) for each F_q label L of B's, and as the
    trace form of F_q/F_p is nondegenerate, its F_p-rank is e times B's
    F_q-rank.  At p = 2 a batch's Grams are XORs of bit-packed rows,
    eliminated over GF(2); at odd p they are one matmul of the index digits
    with the per-digit Grams, reduced mod p and eliminated all at once.
    """

    def __init__(self, ctx: FieldCtx):
        ctx.require_tables()
        self.ctx = ctx
        p, e = ctx.p, ctx.e
        self.es = e * ctx.s
        self.space = FormSpace(ctx)
        self.p_digits = e * self.space.digit_count
        digit_coeffs = self.space.coefficients([p**d for d in range(self.p_digits)])
        # grams[d, a, b] = B_d(pi^a, pi^b) as an F_q label
        self.grams = gram_labels(ctx, form_values(ctx, digit_coeffs, gram_points(ctx)))
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


def _form_orbits(space: FormSpace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Runs of form indices as three int64 arrays (start, length, weight),
    in ascending start order: the forms counted for each orbit of the
    symmetry group, with the orbit size as weight (see the module
    docstring).

    A stabilizer H is a pair (K, d): K maps each (f, a) for which H holds
    elements (f, k, a) to a k, and those elements are the k = K[f, a]
    mod d.  So |H| = len(K) n / d."""
    ctx = space.ctx
    p, q, n, degree = ctx.p, ctx.q, ctx.n, ctx.degree
    order = degree * (q - 1) * n
    p_pow = [pow(p, f, n) for f in range(degree)]
    scalar = [a * (n // (q - 1)) for a in range(q - 1)]
    us = [u % n for u in space.exponents]
    widths = [len(b) for b in space.slot_bases]
    # slot j's coefficient logs are the multiples of steps[j]; digits
    # below ends[j] belong to slots 0..j-1
    steps = [n // (q**w - 1) for w in widths]
    ends = [sum(widths[:j]) for j in range(len(widths) + 1)]
    free = []  # (start, length, weight) of each run whose lower slots are free
    single_starts, single_weights = [], []  # each slot-0 visit's runs of length 1

    def fixes_slot(K, d, i):
        u, step = us[i], steps[i]
        return d * u % n == 0 and all(
            (k * u + scalar[a]) % n == 0 and (p_pow[f] - 1) * step % n == 0
            for (f, a), k in K.items())

    def stabilizer(K, d, j, log):
        """(K, d) of the elements of H that fix log in slot j: each (f, a)
        solves k u_j = log - p^f log - a n/(q-1) over k = K[f, a] + d y."""
        u = us[j]
        g = math.gcd(d * u, n)
        m = n // g
        inv = pow(d * u // g, -1, m)
        fixed = {}
        for (f, a), k in K.items():
            rhs = (log - p_pow[f] * log - scalar[a] - k * u) % n
            if rhs % g == 0:
                fixed[f, a] = (k + d * (rhs // g * inv % m)) % (d * m)
        return fixed, d * m

    def orbits(K, d, j):
        """One log per H-orbit of slot j's nonzero coefficients, and the
        orbit's size.  The f = 0 elements of H translate logs by the
        multiples of g, and the smallest positive f in H permutes the
        residues mod g in cycles whose lengths divide degree / f."""
        u = us[j]
        g = math.gcd(n, d * u % n, *((k * u + scalar[a]) % n for (f, a), k in K.items()
                                     if f == 0))
        residues = np.arange(0, g, steps[j], dtype=np.int64)
        # powers of that element: how many, and how many fix each residue
        smallest, fixing, powers = residues, np.ones_like(residues), 1
        frobs = sorted({f for f, _ in K})
        if len(frobs) > 1:
            f = frobs[1]
            a = min(a for h, a in K if h == f)
            shift = (K[f, a] * u + scalar[a]) % g
            image, smallest, powers = residues.copy(), residues.copy(), degree // f
            for _ in range(powers - 1):  # in place: at (7,4) a slot holds n residues
                image *= p_pow[f]
                image += shift
                image %= g
                np.minimum(smallest, image, out=smallest)
                fixing += image == residues
        first = smallest == residues
        return residues[first], powers // fixing[first] * (n // g)

    def visit(j, base, K, d):
        weight = order // (len(K) * (n // d))
        if all(fixes_slot(K, d, i) for i in range(j + 1)):
            free.append((base, q ** ends[j + 1], weight))
            return
        logs, sizes = orbits(K, d, j)
        values = space.local_values(j, logs)
        if j == 0:
            # no slot is left below: each value's form is one orbit, of
            # |G|/|H| times the value's H-orbit size; the zero value first
            single_starts.append(base + np.concatenate(([0], values)))
            single_weights.append(weight * np.concatenate(([1], sizes)))
            return
        visit(j - 1, base, K, d)  # the zero coefficient keeps H
        for log, v in zip(logs.tolist(), values.tolist()):
            visit(j - 1, base + v * q ** ends[j], *stabilizer(K, d, j, log))

    visit(len(widths) - 1, 0, dict.fromkeys(np.ndindex(degree, q - 1), 0), 1)
    visit = None  # it refers to itself: the cycle kept the runs until a gc pass
    free = np.array(free, dtype=np.int64).reshape(-1, 3)
    starts = np.concatenate([free[:, 0], *single_starts])
    weights = np.concatenate([free[:, 2], *single_weights])
    lengths = np.concatenate([free[:, 1], np.ones(len(starts) - len(free), dtype=np.int64)])
    ascending = np.argsort(starts)
    return starts[ascending], lengths[ascending], weights[ascending]


def _orbit_batch(space: FormSpace) -> tuple[np.ndarray, np.ndarray]:
    """The index of every counted form and its weight, in ascending index
    order, after checking that the weighted runs cover every form.  The
    check sums Python ints, as q^(m^2) may exceed 2^63."""
    starts, lengths, weights = _form_orbits(space)
    covered = sum(w * size for w, size in zip(weights.tolist(), lengths.tolist()))
    if covered != space.num_forms:
        raise ConsistencyError(
            f"orbit runs cover {covered} forms, expected {space.num_forms}")
    offsets = np.cumsum(lengths) - lengths
    idx = np.arange(int(lengths.sum()), dtype=np.int64) + np.repeat(starts - offsets, lengths)
    return idx, np.repeat(weights, lengths)


# ---------------------------------------------------------------------------
# the oracles


@functools.lru_cache(maxsize=4)
def _plan(kind: str, key):
    """The plan an oracle counts with, cached per key: the brute plan's is
    the CodeSpec, the rank plan's the FieldCtx it alone reads."""
    return _CountPlan(key) if kind == "brute" else _RankPlan(key)


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
    plan = _plan(kind, spec if kind == "brute" else spec.ctx)
    idx, weights = _orbit_batch(plan.space)
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


def brute_distribution(spec: CodeSpec, budget: int = DEFAULT_BUDGET,
                       workers: int = 1, progress=None) -> WeightDistribution:
    """Exact weight distribution by enumerating every parameter tuple."""
    hist = _enumerate("brute", spec, budget, workers, progress)
    weights = np.flatnonzero(hist)
    counts = dict(zip(weights.tolist(), hist[weights].tolist()))
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


def _epsilon_cross_check(ctx: FieldCtx):
    """Sample forms: the sweep's rank must be the radical rank, and the plain
    character sum must agree with it in magnitude and in the sign
    (-1)^(rank/2) that the sweep relies on."""
    plan = _plan("rank_sweep", ctx)
    sample = _spread(plan.space.num_forms)
    ranks = plan.ranks(np.array(sample, dtype=np.int64))
    for index, form, r_sweep in zip(sample, plan.space.forms(sample), ranks):
        if form.rank != r_sweep:
            raise ConsistencyError(
                f"sweep rank {r_sweep} != radical rank {form.rank} at {index}")
        form.epsilon  # raises unless |T| and the sign of T agree with form.rank


def rank_sweep(spec: CodeSpec, budget: int = DEFAULT_BUDGET,
               workers: int = 1, progress=None) -> WeightDistribution:
    """Semi-analytic oracle: measured rank multiplicities pushed through the
    exponential-sum value classes."""
    counts = measure_rank_counts(spec, budget, workers, progress)
    _epsilon_cross_check(spec.ctx)
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

