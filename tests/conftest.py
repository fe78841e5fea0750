"""Shared test-side oracles.

Everything here recomputes results through the most literal route
available (schoolbook polynomial arithmetic, stepping through powers,
double loops over field elements) so the library's table-driven fast
paths are checked against something that cannot share their bugs.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from traceweight.admission import LINEAR_TRACE_BOUND, FieldSizeError, factorize
from traceweight.codes import form_exponents
from traceweight.fields import Poly
from traceweight.quadforms import (_packed, coordinate_matches, form_values,
                                   integral_character_sum, trace_residues)


def naive_mul(ctx, a, b):
    """Schoolbook product in F_p[x]/(modulus) on digit lists; avoids the
    library's log tables and reduction shortcuts."""
    p, D = ctx.p, ctx.degree
    da = [(a // p**i) % p for i in range(D)]
    db = [(b // p**i) % p for i in range(D)]
    prod = [0] * (2 * D)
    for i, ai in enumerate(da):
        for j, bj in enumerate(db):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    mod = list(ctx.modulus)
    for k in range(2 * D - 1, D - 1, -1):
        c = prod[k]
        if c:
            prod[k] = 0
            for i in range(D):
                prod[k - D + i] = (prod[k - D + i] - c * mod[i]) % p
    return sum(d * p**i for i, d in enumerate(prod[:D]))


def naive_pow(ctx, a, k):
    out = 1
    for _ in range(k):
        out = naive_mul(ctx, a, out)
    return out


def square_multiply_pow(ctx, a, k):
    """a^k by left-to-right square and multiply on naive_mul, for exponents
    too large to step through."""
    out = 1
    for bit in bin(k)[2:]:
        out = naive_mul(ctx, out, out)
        if bit == "1":
            out = naive_mul(ctx, out, a)
    return out


def element_order(ctx, a):
    """Multiplicative order of a nonzero element: n with every prime
    factor divided out while the power stays 1."""
    if a == 0:
        raise ValueError("order of 0 undefined")
    order = ctx.n
    for r in factorize(ctx.n):
        while order % r == 0 and ctx.pow(a, order // r) == 1:
            order //= r
    return order


def coset_size(u, n, q):
    """Smallest l >= 1 with q^l * u = u (mod n): the q-cyclotomic coset size
    of u modulo n, which is the degree of the minimal polynomial of an
    element of discrete log -u (or u) in the order-n group."""
    if n <= 0:
        raise ValueError("modulus must be positive")
    u %= n
    v = u * q % n
    size = 1
    while v != u:
        v = v * q % n
        size += 1
        if size > n:
            raise ArithmeticError("coset iteration failed to close")
    return size


def poly_divmod(f, g):
    """Quotient and remainder of the polynomial f by g, by long division."""
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    ctx = f.ctx
    rem = list(f.coeffs)
    dq = len(rem) - len(g.coeffs)
    if dq < 0:
        return Poly(ctx, ()), f
    quot = [0] * (dq + 1)
    linv = ctx.pow(g.coeffs[-1], -1)
    for shift in range(dq, -1, -1):
        top = rem[shift + g.degree]
        if top:
            c = ctx.mul(top, linv)
            quot[shift] = c
            for i, b in enumerate(g.coeffs):
                rem[shift + i] = ctx.sub(rem[shift + i], ctx.mul(c, b))
    while rem and rem[-1] == 0:
        rem.pop()
    return Poly(ctx, tuple(quot)), Poly(ctx, tuple(rem))


def poly_divides(f, g):
    """Whether the polynomial f divides g: the remainder of g by f is zero."""
    return poly_divmod(g, f)[1].is_zero()


def trace(ctx, a, lower="q"):
    """Relative trace of a into a subfield, the sum of its conjugates.

    lower="q":  Tr from F_{q^s} to F_q, the sum of a^(q^i), 0 <= i < s.
    lower="p":  absolute trace into F_p.
    lower="qm": Tr from F_{q^m} to F_q (odd m only; a must lie in the
                embedded F_{q^m}).
    """
    if lower == "q":
        base, steps = ctx.q, ctx.s
    elif lower == "p":
        base, steps = ctx.p, ctx.degree
    elif lower == "qm":
        if ctx.m % 2 == 0:
            raise ValueError("F_{q^m} trace requires odd m")
        if ctx.pow(a, ctx.q**ctx.m) != a:
            raise ValueError("element not in the embedded F_{q^m}")
        base, steps = ctx.q, ctx.m
    else:
        raise ValueError(f"unknown trace selector {lower!r}")
    acc, z = a, a
    for _ in range(steps - 1):
        z = ctx.pow(z, base)
        acc = ctx.add(acc, z)
    return acc


def literal_linear_image(ctx, values, matrix):
    """Images of packed elements under the F_p-linear map whose row i holds
    the base-p digits of the image of x^i, digit by digit."""
    p, out = ctx.p, []
    for v in values:
        digits = [int(v) // p**i % p for i in range(ctx.degree)]
        image = [sum(d * int(row[k]) for d, row in zip(digits, matrix)) % p
                 for k in range(len(matrix[0]))]
        out.append(sum(c * p**k for k, c in enumerate(image)))
    return out


def x_power_minus_one(ctx, n):
    """The polynomial x^n - 1 over the field of ctx."""
    return Poly(ctx, (ctx.neg(1),) + (0,) * (n - 1) + (1,))


# ---------------------------------------------------------------------------
# literal codewords: the trace representation evaluated coordinate by
# coordinate, and the parity check applied as a recurrence


@dataclass(frozen=True)
class Codeword:
    spec: object
    params: tuple
    values: tuple


def parameter_slots(spec):
    """A code's parameter names in canonical order,
    (beta, [delta0,] lambda_1..lambda_t [, b]): beta for D and E, delta0
    for odd m, b for E."""
    slots = ("beta",) if spec.family in ("D", "E") else ()
    if spec.m % 2:
        slots += ("delta0",)
    slots += tuple(f"lambda{j}" for j in range(1, spec.m // 2 + 1))
    if spec.family == "E":
        slots += ("b",)
    return slots


def zero_params(spec):
    return (0,) * len(parameter_slots(spec))


def check_params(spec, params):
    params = tuple(params)
    slots = parameter_slots(spec)
    if len(params) != len(slots):
        raise ValueError(
            f"{spec.family} expects parameters {slots}, got {len(params)} values")
    ctx = spec.ctx
    for name, value in zip(slots, params):
        if not 0 <= value < ctx.size:
            raise ValueError(f"{name} out of field range")
        if name == "delta0" and ctx.pow(value, ctx.q**ctx.m) != value:
            raise ValueError("delta0 is not in the embedded F_{q^m}")
        if name == "b" and ctx.frobenius_q(value) != value:
            raise ValueError("b is not in the embedded F_q")
    return params


def codeword(spec, params):
    """Evaluate the trace representation over the coordinate range.

    Coordinate i is Tr(beta pi^i) + Tr_{q^m/q}(delta0 pi^((q^m+1)i)) +
    sum_j Tr(lambda_j pi^((q^(2j-1)+1)i)), plus b for family E.
    """
    params = check_params(spec, params)
    ctx = spec.ctx
    values = dict(zip(parameter_slots(spec), params))
    b = values.get("b", 0)
    exps = form_exponents(ctx.q, ctx.m)
    terms = []  # (coefficient, step multiplier, trace selector)
    if values.get("beta"):
        terms.append((values["beta"], ctx.pi, "q"))
    names = (("delta0",) if spec.m % 2 else ()) + tuple(
        f"lambda{j}" for j in range(1, spec.m // 2 + 1))
    for name, u in zip(names, exps):
        if values[name]:
            selector = "qm" if name == "delta0" else "q"
            terms.append((values[name], ctx.pow(ctx.pi, u), selector))
    out = []
    points = [1] * len(terms)
    for _ in range(spec.n):
        acc = b
        for idx, (coeff, step, selector) in enumerate(terms):
            acc = ctx.add(acc, trace(ctx, ctx.mul(coeff, points[idx]), selector))
            points[idx] = ctx.mul(points[idx], step)
        out.append(acc)
    return Codeword(spec, params, tuple(out))


def weight(word):
    """Number of nonzero coordinates."""
    return sum(1 for v in word.values if v)


def annihilated_by(check, seq):
    """Whether the cyclic sequence satisfies the recurrence induced by the
    check polynomial: sum_j h_j c_(w-j mod n) = 0 for every w, which is
    c(x) h(x) = 0 mod (x^n - 1)."""
    ctx = check.ctx
    seq = list(seq)
    n = len(seq)
    for w in range(n):
        acc = 0
        for j, h_j in enumerate(check.coeffs):
            if h_j:
                acc = ctx.add(acc, ctx.mul(h_j, seq[(w - j) % n]))
        if acc != 0:
            return False
    return True


# ---------------------------------------------------------------------------
# quadratic forms


def linear_trace_rows(ctx):
    """(size, n) uint8 table: entry [b, i] is the F_q label of
    Tr_{q^s/q}(b * pi^i), one row per packed b.  Row pi^j is the sequence
    Tr(pi^k) read from k = j on, so the rows are the cyclic shifts of one
    n-vector."""
    if ctx.size > LINEAR_TRACE_BOUND:
        raise FieldSizeError(
            f"linear-trace table refused above {LINEAR_TRACE_BOUND} field elements")
    seq = ctx.trace_labels(ctx.size)
    rows = np.zeros((ctx.size, ctx.n), dtype=np.uint8)
    rows[ctx.exp_table()] = np.lib.stride_tricks.sliding_window_view(
        np.concatenate([seq, seq[:-1]]), ctx.n)
    return rows


# the references count every beta of a field, often many times over
_trace_rows = lru_cache(maxsize=8)(linear_trace_rows)


def packed_trace_rows(ctx):
    """linear_trace_rows packed row by row into bit planes, the layout of
    quadforms.linear_trace_planes: bit i of word [j, w, b] is bit j of
    row b's label at coordinate 64 w + i, padding bits zero."""
    rows, n = _trace_rows(ctx), ctx.n
    count, width = (ctx.q - 1).bit_length(), -(-n // 64)
    planes = np.empty((count, width, ctx.size), dtype=np.uint64)
    for j in range(count):
        bits = np.zeros((ctx.size, 64 * width), dtype=np.uint8)
        bits[:, :n] = rows >> j & 1
        planes[j] = _packed(bits).T
    return planes


def count_solutions(form, beta, zeta):
    """|{x : Q(x) + Tr(beta x) = zeta}| by direct counting; beta a packed
    element of F_{q^s}, zeta in F_q."""
    ctx = form.ctx
    sub = ctx.subfield(ctx.q)
    if not 0 <= beta < ctx.size:
        raise ValueError(f"beta = {beta} is not a packed element of F_{ctx.size}")
    if not sub.contains(zeta):
        raise ValueError("zeta is not in the embedded F_q")
    wanted = sub.sub_table()[sub.label_of(zeta), form.value_labels()]
    return int(np.count_nonzero(_trace_rows(ctx)[beta] == wanted)) + (zeta == 0)


def solution_counts(form, zeta):
    """count_solutions at every packed beta at once: each linear-trace row
    compared with zeta - Q(x) byte by byte, coordinate by coordinate."""
    ctx = form.ctx
    sub = ctx.subfield(ctx.q)
    if not sub.contains(zeta):
        raise ValueError("zeta is not in the embedded F_q")
    wanted = sub.sub_table()[sub.label_of(zeta), form.value_labels()]
    return np.count_nonzero(_trace_rows(ctx) == wanted, axis=1) + (zeta == 0)


def per_form_tables(form):
    """The form's value table, beta table and plain sum T by the per-form
    path, from its coefficients alone: one form_values call, one
    coordinate_matches call for every target, and the labels' trace
    residues tallied and contracted.  The reference for the tables that
    a block of forms fills for all its forms at once."""
    ctx = form.ctx
    values = form_values(ctx, [form.coeffs])[0]
    table = coordinate_matches(ctx, values, range(ctx.q))
    counts = np.bincount(trace_residues(ctx)[values], minlength=ctx.p)
    counts[0] += 1  # x = 0, where Q vanishes
    return values, table, integral_character_sum(counts.tolist(), ctx.p)


def per_form_histogram(ctx, table, target):
    """The distribution over beta of q * N_beta - q^s, N_beta the solutions
    of Q(x) + Tr(beta x) = target, from the target's row of a per-form
    beta table, with x = 0 counted where the target is 0."""
    counts = Counter(table[target].tolist())
    return {ctx.q * (c + (target == 0)) - ctx.size: f for c, f in counts.items()}


def literal_coefficients(space, index):
    """The coefficients of the form at index, digit by digit, the reference
    for FormSpace.coefficients: the index's base-q digits, least first,
    are the F_q labels that scale the slot bases' elements in turn."""
    ctx = space.ctx
    sub = ctx.subfield(ctx.q)
    coeffs = [0] * len(space.slot_bases)
    for j, basis in enumerate(space.slot_bases):
        for b in basis:
            index, lbl = divmod(index, ctx.q)
            if lbl:
                coeffs[j] = ctx.add(coeffs[j], ctx.mul(sub.from_label(lbl), b))
    return tuple(coeffs)


def form_at(space, index):
    """The form at one index, through FormSpace.forms."""
    return next(space.forms([index]))


@lru_cache(maxsize=8)
def _full_slot_map(space, j):
    """Every nonzero value v of slot j, keyed by the log of its coefficient
    as literal_coefficients builds it."""
    ctx = space.ctx
    below = sum(len(basis) for basis in space.slot_bases[:j])
    return {ctx.log(literal_coefficients(space, v * ctx.q**below)[j]): v
            for v in range(1, ctx.q ** len(space.slot_bases[j]))}


def full_map_local_values(space, j, logs):
    """The orbit layer's slot values through a full map, the reference for
    FormSpace.local_values, with its signature."""
    value_at = _full_slot_map(space, j)
    return np.array([value_at[int(log)] for log in logs], dtype=np.int64)


def literal_value(form, x):
    """Q(x) through pow and trace chains, term by term, with no table."""
    ctx, acc = form.ctx, 0
    for j, (c, u) in enumerate(zip(form.coeffs, form.exponents)):
        if c:
            acc = ctx.add(acc, trace(ctx, ctx.mul(c, ctx.pow(x, u)), slot_trace(ctx, j)))
    return acc


def slot_trace(ctx, j):
    """The trace selector of slot j: the delta0 slot of odd m traces from
    F_{q^m}, every other slot from F_{q^s}."""
    return "qm" if ctx.m % 2 and j == 0 else "q"


def literal_bilinear(form, x, y):
    """Polarization B(x,y) = Q(x+y) - Q(x) - Q(y), an element of F_q."""
    ctx = form.ctx
    return ctx.sub(ctx.sub(literal_value(form, ctx.add(x, y)),
                           literal_value(form, x)), literal_value(form, y))


def literal_gram(form):
    """F_q labels of B(pi^a, pi^b), a, b = 0..s-1, through literal_bilinear."""
    ctx = form.ctx
    sub = ctx.subfield(ctx.q)
    basis = [ctx.pow(ctx.pi, i) for i in range(ctx.s)]
    return [[sub.label_of(literal_bilinear(form, a, b)) for b in basis] for a in basis]


def literal_subfield_element(sub, lbl):
    """The element of a subfield label, digit by digit, the reference for
    SubfieldView.elements_by_label: the label's base-p digits, least
    first, scale the powers g^0, g^1, .. of the subfield's generator."""
    ctx, v = sub.ctx, 0
    for i in range(sub.ext_deg):
        lbl, c = divmod(lbl, ctx.p)
        if c:  # the prime-field element c packs to the digit c
            v = ctx.add(v, ctx.mul(c, ctx.pow(sub.gen, i)))
    return v


def literal_label_rank(sub, rows):
    """Rank over F_Q of a matrix of subfield labels by Gauss-Jordan
    elimination with one ctx.mul / ctx.sub per entry: every pivot row is
    scaled to 1 and its column cleared above and below, through the
    elements themselves and no label table."""
    ctx = sub.ctx
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = sub.label_of(ctx.pow(sub.from_label(rows[rank][col]), -1))
        if inv != 1:
            rows[rank] = [sub.label_of(ctx.mul(sub.from_label(v), sub.from_label(inv)))
                          for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                celem = sub.from_label(rows[r][col])
                rows[r] = [sub.label_of(ctx.sub(sub.from_label(a),
                                                ctx.mul(celem, sub.from_label(b))))
                           for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def naive_add(ctx, a, b):
    p, D = ctx.p, ctx.degree
    return sum(((a // p**i) % p + (b // p**i) % p) % p * p**i for i in range(D))


def frobenius_sum(ctx, a, base, steps):
    """Trace as the literal sum of iterated base-th powers."""
    acc, z = a, a
    for _ in range(steps - 1):
        z = naive_pow(ctx, z, base)
        acc = naive_add(ctx, acc, z)
    return acc


def step_order_of_x(p, coeffs):
    """Multiplicative order of x in F_p[x]/(f) by stepping through all
    powers; returns 0 when a power collapses to 0.  f is primitive exactly
    when the order is p^deg - 1."""
    D = len(coeffs) - 1
    size = p**D
    digits = [0] * D
    digits[0] = 1
    for k in range(1, size + 1):
        carry = digits[-1]
        digits = [0] + digits[:-1]
        if carry:
            digits = [(d - carry * c) % p for d, c in zip(digits, coeffs)]
        if not any(digits):
            return 0
        if digits[0] == 1 and not any(digits[1:]):
            return k
    return 0


def lex_primitive_moduli(p, degree, count):
    """Independent search for the first count lex-smallest primitive
    polynomials (fewer when the degree has fewer): order-of-x stepping
    decides primitivity outright."""
    found = []
    for packed in range(p**degree):
        coeffs = [(packed // p**i) % p for i in range(degree)] + [1]
        if step_order_of_x(p, coeffs) == p**degree - 1:
            found.append(tuple(coeffs))
            if len(found) == count:
                break
    return found


def lex_primitive_modulus(p, degree, rank=0):
    found = lex_primitive_moduli(p, degree, rank + 1)
    if len(found) <= rank:
        raise AssertionError("no primitive polynomial found")
    return found[rank]


def nu(q, zeta_is_zero):
    return q - 1 if zeta_is_zero else -1


def shift_sum_rows(q, s, r, eps):
    """Value -> count of the linear-shift sum over beta for an even-rank-r
    form of type sign eps (three-row distribution)."""
    rows = {}

    def put(value, count):
        if count:
            rows[value] = rows.get(value, 0) + count

    half = r // 2
    put(0, q**s - q**r)
    put(eps * (q - 1) * q ** (s - half),
        int(Fraction(q**r, q) + eps * (q - 1) * Fraction(q**half, q)))
    put(-eps * q ** (s - half),
        int((Fraction(q**r, q) - eps * Fraction(q**half, q)) * (q - 1)))
    return rows


def offset_sum_rows(q, s, r, eps):
    """Value -> count of the constant-shifted sum over beta, b nonzero."""
    rows = {}

    def put(value, count):
        if count:
            rows[value] = rows.get(value, 0) + count

    half = r // 2
    put(0, q**s - q**r)
    put(eps * (q - 1) * q ** (s - half),
        int(Fraction(q**r, q) - eps * Fraction(q**half, q)))
    put(-eps * q ** (s - half),
        int(q**r - Fraction(q**r, q) + eps * Fraction(q**half, q)))
    return rows


def solution_count_multiset(q, s, r, eps, zeta):
    """Multiset (as value -> count) of solution counts over beta for a
    prime q: q^s - q^r betas give the balanced count, and for each c in
    F_q a batch of betas shifts it by eps*nu(zeta+c)*q^(s-r/2-1)."""
    half = r // 2
    rows = {}

    def put(value, count):
        if count:
            rows[value] = rows.get(value, 0) + count

    put(q ** (s - 1), q**s - q**r)
    for c in range(q):
        count = int(Fraction(q**r, q) + eps * nu(q, c == 0) * Fraction(q**half, q))
        value = q ** (s - 1) + eps * nu(q, (zeta + c) % q == 0) * q ** (s - half - 1)
        put(value, count)
    return rows


def prime_powers_up_to(bound):
    out = []
    sieve = [True] * (bound + 1)
    for p in range(2, bound + 1):
        if sieve[p]:
            for multiple in range(2 * p, bound + 1, p):
                sieve[multiple] = False
            v = p
            while v <= bound:
                out.append(v)
                v *= p
    return sorted(out)


def _digit_limit(limit: int):
    """Sets the interpreter's int-to-str digit limit for one test, and
    restores the one it found."""
    if not hasattr(sys, "set_int_max_str_digits"):  # no limit to apply
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


@pytest.fixture
def default_digit_limit():
    """The interpreter's default int-to-str digit limit, 4300, which a
    caller that has not lifted it runs under."""
    yield from _digit_limit(4300)


@pytest.fixture
def no_digit_limit():
    """No int-to-str digit limit, for a test's own int() and str() of
    counts of over 4,300 digits."""
    yield from _digit_limit(0)
