"""Quadratic forms behind the code families, with exact exponential sums.

Even m:  Q(x) = sum_{j=1}^{t} Tr_{q^s/q}(c_j x^(q^(2j-1)+1))
Odd m:   Q(x) = Tr_{q^m/q}(c_0 x^(q^m+1)) + the same sum,

with coefficients running over F_{q^s}^t (even) or F_{q^m} x F_{q^s}^t
(odd), q^(m^2) forms either way.  FormSpace fixes the canonical
enumeration: an index's base-q digits are F_q labels of the coefficient
coordinates with respect to the power bases, least-significant digit
first; the engine relies on this exact order for partitioning.

Everything here works on the coordinates x = pi^i, i = 0..n-1, the
nonzero elements in the order of a codeword's positions; sums over all
of F_{q^s} add the x = 0 term (where Q and every Tr(beta x) vanish)
explicitly.  A form's values are read only through its value table,
value_labels (Q(pi^i) as F_q labels), which the tests check against the
literal Q(x) evaluated through pow and trace.

The rank of a form is the codimension of the radical of its polarized
bilinear form B(x,y) = Q(x+y) - Q(x) - Q(y), computed as s minus the
nullity of the Gram matrix over F_q; for even q the symplectic radical
is used as-is, with no quadratic refinement.  gram_labels reads the
Gram on the basis pi^0..pi^(s-1) off a value table, and the engine's
rank sweep reads its per-digit Grams through the same function.  All
character sums are kept exact: values of Tr down to F_p are tallied per
residue and the tally is contracted against p-th roots of unity
symbolically, so a non-integral sum raises instead of rounding.

Three shared tables, also read by the engine's brute oracle, do the
counting: coordinate_values gives one trace term Tr(c x^u) at every
coordinate, linear_trace_rows gives Tr(beta x) for every beta, and
coordinate_matches counts, per beta, the coordinates where
Tr(beta x) + Q(x) hits a target by comparing each row with the one
n-vector target - Q(x).  The S(beta) and R_b(beta) histograms are one
bincount of those match counts, the x = 0 term folded into the keys.
A QuadForm caches its rank, its sign epsilon and T (big_T), so the
epsilon check and a later big_T tally the residues once.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .admission import LINEAR_TRACE_BOUND, FieldSizeError
from .codes import ConsistencyError, form_exponents
from .fields import FieldCtx, label_matrix_rank


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
    """Handle for one form: coefficients plus lazily cached rank, sign and
    plain character sum T."""

    def __init__(self, ctx: FieldCtx, coeffs):
        coeffs = tuple(coeffs)
        self.ctx = ctx
        self.exponents = form_exponents(ctx.q, ctx.m)
        if len(coeffs) != len(self.exponents):
            raise ValueError(
                f"expected {len(self.exponents)} coefficients, got {len(coeffs)}")
        odd = ctx.m % 2 == 1
        self.selectors = (("qm",) if odd else ()) + ("q",) * (ctx.m // 2)
        if odd and ctx.pow(coeffs[0], ctx.q**ctx.m) != coeffs[0]:
            raise ValueError("leading coefficient is not in the embedded F_{q^m}")
        self.coeffs = coeffs
        self._rank: int | None = None
        self._epsilon: int | None = None
        self._big_t: int | None = None  # filled by big_T
        self._value_labels: np.ndarray | None = None

    @property
    def rank(self) -> int:
        """s minus the F_q-dimension of the radical of B, from the Gram
        that gram_labels reads off the value table."""
        if self._rank is None:
            ctx = self.ctx
            gram = gram_labels(ctx, self.value_labels())
            r = label_matrix_rank(ctx.subfield(ctx.q), gram.tolist())
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
        if self._value_labels is None:
            ctx = self.ctx
            sub = ctx.subfield(ctx.q)
            out = np.zeros(ctx.n, dtype=np.uint8)
            for c, u, sel in zip(self.coeffs, self.exponents, self.selectors):
                if c:
                    upper = ctx.q**ctx.m if sel == "qm" else ctx.size
                    out = sub.add_labels(out, coordinate_values(ctx, c, u, upper))
            self._value_labels = out
        return self._value_labels


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
        # digit d lives in slot slot_of[d] scaling basis element basis_of[d]
        self.slot_of: list[int] = []
        self.basis_of: list[int] = []
        for si, basis in enumerate(self.slot_bases):
            for b in basis:
                self.slot_of.append(si)
                self.basis_of.append(b)
        self.digit_count = len(self.slot_of)
        self.num_forms = q**self.digit_count
        if self.digit_count != m * m:
            raise ConsistencyError("parameter space dimension is not m^2")

    def digits_at(self, index: int) -> list[int]:
        q, out = self.ctx.q, []
        for _ in range(self.digit_count):
            out.append(index % q)
            index //= q
        return out

    def coeffs_at(self, index: int) -> tuple[int, ...]:
        ctx = self.ctx
        sub = ctx.subfield(ctx.q)
        coeffs = [0] * len(self.exponents)
        for d, lbl in enumerate(self.digits_at(index)):
            if lbl:
                si = self.slot_of[d]
                coeffs[si] = ctx.add(coeffs[si],
                                     ctx.mul(sub.from_label(lbl), self.basis_of[d]))
        return tuple(coeffs)

    def form_at(self, index: int) -> QuadForm:
        return QuadForm(self.ctx, self.coeffs_at(index))


def all_forms(ctx: FieldCtx):
    """Every form at (q, m), in canonical index order."""
    space = FormSpace(ctx)
    for i in range(space.num_forms):
        yield space.form_at(i)


def coordinate_values(ctx: FieldCtx, coeff: int, u: int, upper: int) -> np.ndarray:
    """uint8 n-vector: entry i is the F_q label of Tr(coeff * x^u) at the
    coordinate x = pi^i, the trace taken from the subfield of order upper
    (which must contain coeff) down to F_q."""
    idx = np.arange(ctx.n, dtype=np.int64)
    tr = ctx.trace_label_table(upper, ctx.q)
    return tr[ctx.exp_table()[(ctx.log(coeff) + u * idx) % ctx.n]]


@lru_cache(maxsize=8)
def linear_trace_rows(ctx: FieldCtx) -> np.ndarray:
    """(size, n) uint8 table: entry [b, i] is the F_q label of
    Tr_{q^s/q}(b * pi^i), one row per packed b.  Row pi^j is the sequence
    Tr(pi^k) read from k = j on, so the rows are the cyclic shifts of one
    n-vector.  Verification-scale only."""
    if ctx.size > LINEAR_TRACE_BOUND:
        raise FieldSizeError(
            f"linear-trace table refused above {LINEAR_TRACE_BOUND} field elements")
    seq = coordinate_values(ctx, 1, 1, ctx.size)
    rows = np.zeros((ctx.size, ctx.n), dtype=np.uint8)
    rows[ctx.exp_table()] = np.lib.stride_tricks.sliding_window_view(
        np.concatenate([seq, seq[:-1]]), ctx.n)
    rows.flags.writeable = False  # one cached table serves every caller
    return rows


@lru_cache(maxsize=8)
def _basis_sum_logs(ctx: FieldCtx) -> np.ndarray:
    """(s, s) int64 table: entry [a, b] is the log of pi^a + pi^b, or n
    where the sum is zero (only at a = b when p = 2: a - b = n/2 is
    impossible with a, b < s)."""
    basis = [ctx.pow(ctx.pi, i) for i in range(ctx.s)]
    sums = [[ctx.add(a, b) for b in basis] for a in basis]
    logs = np.array([[ctx.log(t) if t else ctx.n for t in row] for row in sums],
                    dtype=np.int64)
    logs.flags.writeable = False  # one cached table serves every caller
    return logs


def gram_labels(ctx: FieldCtx, values: np.ndarray) -> np.ndarray:
    """Gram matrices of polarized forms on the basis pi^0..pi^(s-1), read
    off value tables: values of shape (..., n) give F_q labels of shape
    (..., s, s), entry [a, b] being
    B(pi^a, pi^b) = Q(pi^a + pi^b) - Q(pi^a) - Q(pi^b)."""
    sum_log = _basis_sum_logs(ctx)
    # column n holds Q(0) = 0
    padded = np.zeros(values.shape[:-1] + (ctx.n + 1,), dtype=np.uint8)
    padded[..., :ctx.n] = values
    sub_t = ctx.subfield(ctx.q).sub_table()
    at_basis = values[..., :ctx.s]
    return sub_t[sub_t[padded[..., sum_log], at_basis[..., :, None]],
                 at_basis[..., None, :]]


def coordinate_matches(ctx: FieldCtx, values: np.ndarray, target: int) -> np.ndarray:
    """For every packed beta, |{i : Tr(beta * pi^i) + values[i] = target}|,
    with values and target as F_q labels.  Each linear-trace row is compared
    with the single n-vector target - values."""
    wanted = ctx.subfield(ctx.q).sub_table()[target, values]
    return (linear_trace_rows(ctx) == wanted).sum(axis=1, dtype=np.int32)


@lru_cache(maxsize=8)
def trace_residues(ctx: FieldCtx) -> np.ndarray:
    """Tr_{q/p} of the F_q element of every label, as int64 residues."""
    residues = np.array([ctx.trace_q_to_p(a) for a in ctx.subfield(ctx.q).elements_by_label],
                        dtype=np.int64)
    residues.flags.writeable = False  # one cached table serves every caller
    return residues


def big_T(form: QuadForm) -> int:
    """The plain character sum over all of F_{q^s}: the exact integer
    sum of w_p^(Tr_{q/p}(Q(x))), tallied once per form and cached on it."""
    if form._big_t is None:
        ctx = form.ctx
        counts = np.bincount(trace_residues(ctx)[form.value_labels()], minlength=ctx.p)
        counts[0] += 1  # x = 0, where Q vanishes
        form._big_t = integral_character_sum(counts.tolist(), ctx.p)
    return form._big_t


def _beta_histogram(form: QuadForm, target: int) -> dict[int, int]:
    """Value distribution over beta of q*N_beta - q^s, where N_beta counts
    the x in F_{q^s} with Q(x) + Tr(beta x) equal to the target label.
    One bincount over the coordinate match counts gives the distribution;
    x = 0 (a solution iff the target is 0) shifts every key by the same
    q*(target == 0), so it is folded into the keys."""
    ctx = form.ctx
    freqs = np.bincount(coordinate_matches(ctx, form.value_labels(), target))
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
