"""Quadratic forms behind the code families, with exact exponential sums.

Even m:  Q(x) = sum_{j=1}^{t} Tr_{q^s/q}(c_j x^(q^(2j-1)+1))
Odd m:   Q(x) = Tr_{q^m/q}(c_0 x^(q^m+1)) + the same sum,

with coefficients running over F_{q^s}^t (even) or F_{q^m} x F_{q^s}^t
(odd), q^(m^2) forms either way.  FormSpace fixes the canonical
enumeration: an index's base-q digits are F_q labels of the coefficient
coordinates with respect to the power bases, least-significant digit
first; the engine relies on this exact order for partitioning.
FormSpace.coefficients maps indices to coefficients, one F_p-linear
map per slot, checked by the tests against a digit-by-digit build, and
FormSpace.local_values maps a slot's coefficients back to its digits,
through the inverse of the same map.

Everything here works on the coordinates x = pi^i, i = 0..n-1, the
nonzero elements in the order of a codeword's positions; sums over all
of F_{q^s} add the x = 0 term (where Q and every Tr(beta x) vanish)
explicitly.  Every value table comes from form_values (Q(pi^l) as F_q
labels, for a batch of forms, at every coordinate or at given logs),
which the tests check against the literal Q(x) through pow and trace:
a form's own table, the brute oracle's counted tables and the rank
sweep's per-digit Grams all come from it.

The rank of a form is the codimension of the radical of its polarized
bilinear form B(x,y) = Q(x+y) - Q(x) - Q(y), computed as s minus the
nullity of the Gram matrix over F_q; for even q the symplectic radical
is used as-is, with no quadratic refinement.  gram_labels reads the
Gram on the basis pi^0..pi^(s-1) off the values at the Gram points (the
basis and its pairwise sums), for a form's own rank and the engine's
per-digit Grams alike.  All character sums are kept exact: values of Tr
down to F_p are tallied per residue and the tally is contracted against
p-th roots of unity symbolically, so a non-integral sum raises instead
of rounding.

A shared table, also read by the engine's brute oracle, does the
counting: linear_trace_planes gives Tr(beta x) for every beta as bit
planes.  Row pi^k is the one sequence trace_labels(size) read
cyclically from k, so each plane of that sequence is packed once and a
row's words are cut from it by funnel shifts; the size x n byte table
is never built (tests/conftest.py keeps it as the reference).
coordinate_matches, the one match kernel, counts per beta and target
the coordinates where Tr(beta x) + Q(x) hits the target: the wanted
labels target - Q(x) become bit planes too, and a row's mismatches are
the popcount of the OR over planes of row XOR wanted, so every
coordinate is still compared.

A block of FormSpace.forms (_FormBlock) owns the tables of its forms:
their value tables and Grams, built with the block, and their beta
tables (every target's match counts) and plain sums T (big_T), each
filled for the whole block on the first request for any one form.  The
beta tables take one coordinate_matches call per match_block of forms,
the rule the brute oracle sizes its match blocks by, and the T sums one
blocked bincount of the block's labels with a per-form offset.  A
standalone QuadForm(ctx, coeffs) is a block of one.  S(beta) and
R_b(beta) are one bincount of row 0 and of row label(-b) of the form's
beta table, the x = 0 term folded into the keys.  A form caches its
rank, its own elimination of its Gram, and its sign epsilon.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .admission import LINEAR_TRACE_BOUND, FieldSizeError
from .codes import ConsistencyError, form_exponents
from .fields import FieldCtx, coordinate_inverse, label_matrix_rank

# The most XOR words one group of coordinate_matches holds; the brute
# oracle and FormSpace.forms size their blocks of forms by it too, and
# form_values and big_T their blocks of coordinates.
MATCH_WORDS = 1 << 16


def match_block(ctx: FieldCtx, targets: int, words: int) -> int:
    """Forms per coordinate_matches call over the given number of targets:
    as many as keep one target's XOR words, W = ceil(n / 64) per packed
    beta, and every target's match counts within words.  The brute
    oracle's match blocks and a form block's beta tables take this size."""
    return max(1, words // ((-(-ctx.n // 64) + targets) * ctx.size))


def integral_character_sum(residue_counts, p: int) -> int:
    """Contract sum_k counts[k] * w^k (w a primitive p-th root of unity)
    to a rational integer; raises if the sum is not one."""
    counts = list(residue_counts)
    if len(counts) != p:
        raise ValueError("need one count per residue class mod p")
    if p > 2 and any(c != counts[1] for c in counts[2:]):
        raise ConsistencyError(f"character sum not a rational integer: {counts}")
    return counts[0] - counts[1]


class QuadForm:
    """Handle for one form of a block of forms (_FormBlock): its
    coefficients, its tables read off the block's, and its rank and sign,
    cached once read.  QuadForm(ctx, coeffs) builds a block of one."""

    def __init__(self, ctx: FieldCtx, coeffs):
        coeffs = tuple(coeffs)
        expected = len(form_exponents(ctx.q, ctx.m))
        if len(coeffs) != expected:
            raise ValueError(f"expected {expected} coefficients, got {len(coeffs)}")
        if ctx.m % 2 and ctx.pow(coeffs[0], ctx.q**ctx.m) != coeffs[0]:
            raise ValueError("leading coefficient is not in the embedded F_{q^m}")
        self._join(_FormBlock(ctx, [coeffs]), 0, coeffs)

    def _join(self, block: _FormBlock, at: int, coeffs: tuple[int, ...]):
        """Make this the form at row at of the block."""
        self.ctx, self.coeffs = block.ctx, coeffs
        self._block, self._at = block, at
        self._rank: int | None = None
        self._epsilon: int | None = None

    @property
    def exponents(self) -> tuple[int, ...]:
        """The exponent u_j of each slot's term Tr(c_j x^(u_j))."""
        return form_exponents(self.ctx.q, self.ctx.m)

    @property
    def rank(self) -> int:
        """s minus the F_q-dimension of the radical of B, from the Gram
        that gram_labels read off the value table at the Gram points."""
        if self._rank is None:
            ctx = self.ctx
            r = label_matrix_rank(ctx.subfield(ctx.q), self._block.grams[self._at].tolist())
            if r % 2:
                raise ConsistencyError(f"odd radical rank {r} for {self.coeffs}")
            self._rank = r
        return self._rank

    @property
    def epsilon(self) -> int:
        """Sign of the plain character sum T; +1 for the zero form, and
        always (-1)^(rank/2) for these families (asserted, with |T| checked
        against q^(s - rank/2))."""
        if self._epsilon is None:
            t, r = big_T(self), self.rank
            if t == 0:
                raise ConsistencyError("T = 0 cannot happen for these forms")
            eps = 1 if t > 0 else -1
            if abs(t) != self.ctx.q ** (self.ctx.s - r // 2):
                raise ConsistencyError(f"|T| = {abs(t)} inconsistent with rank {r}")
            if eps != (-1) ** (r // 2):
                raise ConsistencyError(f"sign of T inconsistent with rank {r}")
            self._epsilon = eps
        return self._epsilon

    def value_labels(self) -> np.ndarray:
        """F_q labels of Q(pi^i) at every coordinate i = 0..n-1, as uint8."""
        return self._block.values[self._at]

    def beta_table(self) -> np.ndarray:
        """coordinate_matches for every target t = 0..q-1, (q, size)."""
        return self._block.beta_tables()[:, self._at]


class _FormBlock:
    """The tables of a block of forms, one row per form, which the block's
    QuadForms read: value tables and Grams, built at once, and the beta
    tables and plain sums T, each filled for every form of the block on
    the first request for any one of them."""

    def __init__(self, ctx: FieldCtx, coeffs):
        self.ctx = ctx
        self.values = form_values(ctx, coeffs)
        self.grams = gram_labels(ctx, self.values[:, gram_points(ctx)])
        self._beta_tables: np.ndarray | None = None
        self._big_ts: list[int] | None = None

    def beta_tables(self) -> np.ndarray:
        """(q, forms, size) uint16: coordinate_matches of every form for
        every target, from one call per match_block of forms."""
        if self._beta_tables is None:
            ctx, forms = self.ctx, len(self.values)
            tables = np.empty((ctx.q, forms, ctx.size), dtype=np.uint16)
            step = match_block(ctx, ctx.q, MATCH_WORDS)
            for lo in range(0, forms, step):
                tables[:, lo:lo + step] = coordinate_matches(
                    ctx, self.values[lo:lo + step], range(ctx.q))
            self._beta_tables = tables
        return self._beta_tables

    def big_ts(self) -> list[int]:
        """Every form's plain sum T.  The block's labels are tallied in one
        bincount, each form's keys offset by q times its row, a block of
        MATCH_WORDS labels at a time, as bincount copies its input to intp;
        each form's q label counts are then summed per residue and
        contracted."""
        if self._big_ts is None:
            ctx, (forms, n) = self.ctx, self.values.shape
            labels = self.values.reshape(-1)
            label_counts = np.zeros(forms * ctx.q, dtype=np.int64)
            for lo in range(0, len(labels), MATCH_WORDS):
                keys = np.arange(lo, min(lo + MATCH_WORDS, len(labels)), dtype=np.int64)
                keys //= n
                keys *= ctx.q
                keys += labels[lo:lo + MATCH_WORDS]
                label_counts += np.bincount(keys, minlength=len(label_counts))
            per_residue = trace_residues(ctx)[:, None] == np.arange(ctx.p)
            counts = label_counts.reshape(forms, ctx.q) @ per_residue.astype(np.int64)
            counts[:, 0] += 1  # x = 0, where Q vanishes
            self._big_ts = [integral_character_sum(c, ctx.p) for c in counts.tolist()]
        return self._big_ts


class FormSpace:
    """Canonical enumeration of the whole coefficient space at one (q, m)."""

    def __init__(self, ctx: FieldCtx):
        self.ctx = ctx
        q, m, s = ctx.q, ctx.m, ctx.s
        self.exponents = form_exponents(q, m)
        zeta = ctx.pow(ctx.pi, q**m + 1)
        self.slot_bases: list[tuple[int, ...]] = []
        for u in self.exponents:
            if m % 2 and u == q**m + 1:
                self.slot_bases.append(tuple(ctx.pow(zeta, i) for i in range(m)))
            else:
                self.slot_bases.append(tuple(ctx.pow(ctx.pi, i) for i in range(s)))
        self.digit_count = sum(len(basis) for basis in self.slot_bases)
        self.num_forms = q**self.digit_count
        if self.digit_count != m * m:
            raise ConsistencyError("parameter space dimension is not m^2")
        # slot j's local index is F_p-linear in its base-p digits: digit
        # e * d + i scales the F_q label p^i (the F_q basis element g^i)
        # times basis element d.  The digit rows of those products, padded
        # to D rows, map local indices forward to coefficients; their
        # inverse (fields.coordinate_inverse) maps coefficients back
        p, e, sub = ctx.p, ctx.e, ctx.subfield(q)
        self._forward, self._inverse = [], []
        for basis in self.slot_bases:
            rows = [ctx.digits(ctx.mul(sub.from_label(p**i), b)) for b in basis for i in range(e)]
            forward = np.zeros((ctx.degree, ctx.degree))
            forward[:len(rows)] = rows
            self._forward.append(forward)
            self._inverse.append(coordinate_inverse(rows, p).astype(np.float64))

    def coefficients(self, indices) -> np.ndarray:
        """(len(indices), slots) int64: the packed coefficients of the forms
        at the indices.  Slot j's local index, the index's base-q digits
        that belong to the slot, maps to its coefficient through one
        FieldCtx.linear_image of the slot's forward rows."""
        ctx = self.ctx
        rest = np.asarray(indices, dtype=np.int64)
        coeffs = np.empty((len(rest), len(self._forward)), dtype=np.int64)
        for j, forward in enumerate(self._forward):
            rest, local = np.divmod(rest, ctx.q ** len(self.slot_bases[j]))
            ctx.linear_image(local, forward, out=coeffs[:, j])
        return coeffs

    def local_values(self, j: int, logs: np.ndarray) -> np.ndarray:
        """Slot j's local index of the nonzero coefficient pi^l at each log
        l of the int64 array logs: coefficients inverted, one
        FieldCtx.linear_image of pi^l through the slot's inverse rows."""
        ctx = self.ctx
        return ctx.linear_image(ctx.exp_table()[logs], self._inverse[j])

    def forms(self, indices):
        """The forms at the sequence of indices, in order, in blocks
        (_FormBlock) of max(1, MATCH_WORDS // n) forms: a block's tables
        come from one form_values call and its Grams from one gram_labels
        call."""
        ctx = self.ctx
        step = max(1, MATCH_WORDS // ctx.n)
        for lo in range(0, len(indices), step):
            coeffs = self.coefficients(indices[lo:lo + step])
            block = _FormBlock(ctx, coeffs)
            for at, c in enumerate(coeffs.tolist()):
                form = QuadForm.__new__(QuadForm)
                form._join(block, at, tuple(c))
                yield form


def all_forms(ctx: FieldCtx):
    """Every form at (q, m), in canonical index order."""
    space = FormSpace(ctx)
    yield from space.forms(range(space.num_forms))


def form_values(ctx: FieldCtx, coeff_rows, logs=None) -> np.ndarray:
    """uint8 F_q labels of Q(pi^l), one row per coefficient tuple, at every
    coordinate l = 0..n-1 or at the given logs only.  Slot j's term is
    Tr(c_j pi^(u_j l)), entry (log c_j + u_j l) mod n of the trace labels
    from F_{q^m} (slot 0 at odd m, where c_0 lies) or from F_{q^s}: one
    gather per slot for the whole batch, which FormSpace.forms and the
    brute oracle keep to about MATCH_WORDS // n forms at full length.  At
    every coordinate the term has period n / gcd(u_j, n) in l, at most
    n / (q + 1) as q + 1 divides u_j and n, so one period is gathered and
    repeated.  The logs and the repeats go in blocks of MATCH_WORDS, so
    no temporary grows with n beyond that batch.  A block's multiples
    u_j l are reduced mod n once; plus log c_j they stay below 2n, which
    the gather's wrap mode reduces.  The index stays int64, as numpy
    converts a narrower index to intp for the gather, a hidden int64
    copy."""
    q, m, n = ctx.q, ctx.m, ctx.n
    count = n if logs is None else len(logs)
    exponents = form_exponents(q, m)
    coeffs = np.array(coeff_rows, dtype=np.int64).reshape(-1, 1, len(exponents))
    out = np.zeros((len(coeffs), count), dtype=np.uint8)
    for j, u in enumerate(exponents):
        trace = ctx.trace_labels(q**m if m % 2 and j == 0 else ctx.size)
        live = np.flatnonzero(coeffs[:, 0, j])  # a zero coefficient adds nothing
        at_coeff = ctx.log_table()[coeffs[live, :, j]]
        width = n // math.gcd(u, n) if logs is None else count
        periods = out.reshape(len(coeffs), count // width, width)
        for lo in range(0, width, MATCH_WORDS):
            hi = min(lo + MATCH_WORDS, width)
            at = np.arange(lo, hi) if logs is None else np.asarray(logs[lo:hi], dtype=np.int64)
            at = at * (u % n) % n
            term = trace.take(at + at_coeff, mode="wrap")[:, None]
            step = max(1, MATCH_WORDS // (hi - lo))  # repeats added at once
            for r in range(0, count // width, step):
                part = periods[:, r:r + step, lo:hi]
                part[live] = ctx.subfield(q).add_labels(part[live], term)
    return out


@lru_cache(maxsize=8)
def linear_trace_planes(ctx: FieldCtx) -> np.ndarray:
    """Tr(beta x) for every packed beta as bit planes, (planes, W, size)
    uint64 with planes = bit_length(q - 1) and W = ceil(n / 64): bit i of
    word [j, w, b] is bit j of the label of Tr(b * pi^(64 w + i)), and the
    padding bits are zero.  Words run along the packed b, so one word of
    a target's planes meets every row at once.  Verification-scale only:
    a field over LINEAR_TRACE_BOUND raises FieldSizeError.

    Row pi^k is the sequence Tr(pi^t) = trace_labels(size)[t] read
    cyclically from t = k, so each plane of the sequence, twice over, is
    packed once, and row k's word w is cut from it by a funnel shift: the
    words at k // 64 + w and the next, shifted by k % 64.  With k = 64 c + r
    the words of every row form a (W, W, 64) array over (w, c, r), columns
    in log order, placed at the packed b through the log table; row 0
    stays zero."""
    if ctx.size > LINEAR_TRACE_BOUND:
        raise FieldSizeError(
            f"linear-trace table refused above {LINEAR_TRACE_BOUND} field elements")
    seq, n = ctx.trace_labels(ctx.size), ctx.n
    count, width = (ctx.q - 1).bit_length(), -(-n // 64)
    shifts = np.arange(64, dtype=np.uint64)
    columns = ctx.log_table()[1:]
    planes = np.zeros((count, width, ctx.size), dtype=np.uint64)
    for j in range(count):  # a plane at a time keeps the words in cache
        bits = np.zeros(128 * width, dtype=np.uint8)
        bits[:n] = bits[n:2 * n] = seq >> j & 1
        windows = _packed(bits)[np.add.outer(np.arange(width + 1), np.arange(width))]
        low, high = windows[:width, :, None], windows[1:, :, None]
        words = (low >> shifts) | ((high << np.uint64(1)) << (np.uint64(63) - shifts))
        words = words.reshape(width, -1)[:, :n]
        if n % 64:
            words[-1] &= np.uint64((1 << n % 64) - 1)
        planes[j, :, 1:] = words[:, columns]
    planes.flags.writeable = False  # one cached table serves every caller
    return planes


@lru_cache(maxsize=8)
def _wanted_bits(ctx: FieldCtx) -> np.ndarray:
    """(planes, q, q) uint8: entry [j, t, v] is bit j of the label of t - v."""
    planes = np.arange((ctx.q - 1).bit_length(), dtype=np.uint8)
    bits = (ctx.subfield(ctx.q).sub_table()[None] >> planes[:, None, None]) & 1
    bits.flags.writeable = False  # one cached table serves every caller
    return bits


def _packed(bits: np.ndarray) -> np.ndarray:
    """Bytes of shape (..., 64 W) as uint64 words of shape (..., W): bit
    i % 64 of word i // 64 is set where byte i is nonzero."""
    return np.packbits(bits, axis=-1, bitorder="little").view(np.uint64)


@lru_cache(maxsize=8)
def gram_points(ctx: FieldCtx) -> np.ndarray:
    """The s + s^2 logs at which gram_labels reads a form's values: those of
    the basis pi^a, then of the sums pi^a + pi^b row by row.  A zero sum
    (only a = b at p = 2, as a - b = n/2 is impossible with a, b < s) has
    the log -1: its value is read and its entry masked to 0."""
    basis = [ctx.pow(ctx.pi, i) for i in range(ctx.s)]
    sums = [ctx.add(a, b) for a in basis for b in basis]
    points = np.array(list(range(ctx.s)) + [ctx.log(t) if t else -1 for t in sums],
                      dtype=np.int64)
    points.flags.writeable = False  # one cached table serves every caller
    return points


def gram_labels(ctx: FieldCtx, values: np.ndarray) -> np.ndarray:
    """Gram matrices of polarized forms on the basis pi^0..pi^(s-1), read
    off their values at the Gram points: values of shape (..., s + s^2)
    give F_q labels of shape (..., s, s), entry [a, b] being
    B(pi^a, pi^b) = Q(pi^a + pi^b) - Q(pi^a) - Q(pi^b), and 0 where the
    sum is zero, as B(x, x) = -2 Q(x) = 0 at p = 2."""
    s, sub_t = ctx.s, ctx.subfield(ctx.q).sub_table()
    at_basis = values[..., :s]
    at_sums = values[..., s:].reshape(values.shape[:-1] + (s, s))
    gram = sub_t[sub_t[at_sums, at_basis[..., :, None]], at_basis[..., None, :]]
    return gram * (gram_points(ctx)[s:] >= 0).reshape(s, s)


@lru_cache(maxsize=1)
def _match_work(shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """coordinate_matches's work arrays for groups of the given shape, kept
    between calls.  A call writes every element it reads and returns
    none of them, and the package runs no threads, so one set serves
    every call.  Arrays this large are mapped afresh by the allocator and
    page-faulted on each call otherwise, which doubled the brute oracle's
    time at D(2,5), where a call holds a group of 3 pairs.  The shape
    depends on the field alone, and only the latest field's set is kept:
    a form block's beta-table calls touch up to a whole set, about 1 MB,
    and a process that goes through several fields (the set-up
    benchmark's exponential sums) would keep an earlier field's set too."""
    return (np.empty(shape, dtype=np.uint64), np.empty(shape, dtype=np.uint64),
            np.empty(shape, dtype=np.uint8))


def coordinate_matches(ctx: FieldCtx, values: np.ndarray, targets) -> np.ndarray:
    """For each F_q label t in the sequence targets and every packed beta,
    |{i : Tr(beta * pi^i) + values[..., i] = t}|, with values as F_q
    labels: values of shape (..., n) give uint16 counts of shape
    (len(targets), ..., size).  Every coordinate is compared: the wanted
    labels t - values become bit planes, and a row's mismatches are
    popcount(OR_j (row plane j XOR wanted plane j)).  The (target, form)
    pairs are matched in groups of at most MATCH_WORDS XOR words, or one
    pair at a time where a pair's words exceed that, in the work arrays
    of _match_work."""
    rows, wanted_bits, n = linear_trace_planes(ctx), _wanted_bits(ctx), ctx.n
    bits = np.zeros((len(rows), len(targets)) + values.shape[:-1] + (64 * rows.shape[1],),
                    dtype=np.uint8)
    wanted_bits.take(targets, axis=1).take(values, axis=-1, out=bits[..., :n], mode="clip")
    wanted = _packed(bits)
    pairs = wanted.reshape(len(rows), -1, rows.shape[1], 1)
    step = max(1, MATCH_WORDS // rows[0].size)
    miss, xor, ones = _match_work((step,) + rows[0].shape)
    misses = []
    for lo in range(0, pairs.shape[1], step):
        part = pairs[:, lo:lo + step]
        g = part.shape[1]
        np.bitwise_xor(rows[0], part[0], out=miss[:g])
        for j in range(1, len(rows)):
            np.bitwise_xor(rows[j], part[j], out=xor[:g])
            np.bitwise_or(miss[:g], xor[:g], out=miss[:g])
        # a row holds at most n < 2^16 mismatches, which uint16 sums exactly
        counts = np.bitwise_count(miss[:g], out=ones[:g])
        misses.append(counts.sum(axis=-2, dtype=np.uint16))
    mismatches = misses[0] if len(misses) == 1 else np.concatenate(misses)
    return (n - mismatches).reshape(wanted.shape[1:-1] + (ctx.size,))


@lru_cache(maxsize=8)
def trace_residues(ctx: FieldCtx) -> np.ndarray:
    """Tr_{q/p} of the F_q element of every label, as int64 residues."""
    residues = np.array([ctx.trace_q_to_p(a) for a in ctx.subfield(ctx.q).elements_by_label],
                        dtype=np.int64)
    residues.flags.writeable = False  # one cached table serves every caller
    return residues


def big_T(form: QuadForm) -> int:
    """The plain character sum over all of F_{q^s}: the exact integer
    sum of w_p^(Tr_{q/p}(Q(x))), tallied for the form's whole block on
    the first call for any of its forms (_FormBlock.big_ts)."""
    return form._block.big_ts()[form._at]


def _beta_histogram(form: QuadForm, target: int) -> dict[int, int]:
    """Value distribution over beta of q*N_beta - q^s, where N_beta counts
    the x in F_{q^s} with Q(x) + Tr(beta x) equal to the target label.
    One bincount over the target's row of the form's beta table gives the
    distribution; x = 0 (a solution iff the target is 0) shifts every key
    by the same q*(target == 0), so it is folded into the keys."""
    ctx = form.ctx
    freqs = np.bincount(form.beta_table()[target])
    shift = ctx.q * (target == 0) - ctx.size
    return {ctx.q * c + shift: f for c, f in enumerate(freqs.tolist()) if f}


def s_histogram(form: QuadForm) -> dict[int, int]:
    """Value distribution over beta of the shifted sum S(beta), computed
    through the exact identity S(beta) = q*N_beta(0) - q^s."""
    return _beta_histogram(form, 0)


def r_histogram(form: QuadForm, b: int) -> dict[int, int]:
    """Value distribution over beta of the constant-shifted sum R_b(beta)
    for b != 0 in F_q, via R_b(beta) = q*N_beta(-b) - q^s."""
    ctx = form.ctx
    if b == 0:
        raise ValueError("b must be nonzero; use s_histogram for b = 0")
    sub = ctx.subfield(ctx.q)
    if not sub.contains(b):
        raise ValueError("b is not in the embedded F_q")
    return _beta_histogram(form, sub.label_of(ctx.neg(b)))
