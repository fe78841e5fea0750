"""Arithmetic in a tower F_p < F_q < F_{q^s} inside one packed representation.

A field context describes F_{q^s} with q = p^e and s = 2m, built as
F_p[x]/(modulus) where the modulus is the lexicographically smallest
primitive polynomial of degree e*s over F_p (coefficients compared
low-to-high as base-p digits).  The search for it scans one candidate at
a time in index order, past the binomials x^d + c, which are never
primitive, so the modulus is the same as that of a scan from the first
candidate.  It tests primitivity by Lidl and Niederreiter's Thm 3.18.
Cheap filters come first: f(1) and f(-1) are nonzero, and (-1)^d f(0)
generates F_p^* (a pow test per residue, cached per search).  Only the
survivors get x^r, r = (p^d - 1)/(p - 1), and then the cofactors
x^(r/l), by square and multiply on packed ints with the same product
helpers as a context's table-free mul.  The cost: at odd p a high rank
scans many candidates, each one on its own.  Elements are plain Python ints:
the polynomial a_0 + a_1 x + a_2 x^2 + ... packs to the integer
a_0 + a_1 p + a_2 p^2 + ...  The residue class of x is a multiplicative
generator by construction, exposed as ctx.pi.

Subfields are not separate towers: F_q is the fixed set of y -> y^q,
F_{q^2} of y -> y^{q^2}, and (odd m) F_{q^m} of y -> y^{q^m}.  A
SubfieldView attaches dense label tables (labels 0..Q-1, F_p-linear
labelling) so inner loops can work on small numpy arrays instead of
packed values; trace_labels holds the traces to F_q by log, likewise.

F_p-linear maps on packed elements (the exp table's doubling steps, the
subfield labels, the trace labels, the form coefficients and the orbit
layer's slot values) go through linear_image.
At p = 2 an input of a few hundred values or more is mapped through two
tables, the images of every pattern of the low ceil(D/2) bits and of
the high ones, so an image is two lookups and an XOR.  Shorter inputs,
and every input at odd p, go through one float64 matmul of the digits.

Every field has at most 2^26 elements, admission's one field-size
rule, so its exp/log tables fit; they are built lazily.  Until then a
product is taken on the packed ints: at p = 2 a carry-less product,
reduced by XOR-ing in shifted copies of the modulus bits; at odd p one
integer product of the digits spread into slots gives every coefficient
of the polynomial product (Kronecker substitution), and Barrett's
reduction on polynomials takes it mod the modulus in two more, each slot
reduced mod p at once.  The Frobenius a -> a^q is F_p-linear, so
without tables it is a sum of the images (x^i)^q, computed once per
context, weighted by the digits of a: an XOR of rows at p = 2, a sum of
slot rows at odd p.

Everything on a context is a pure function of its inputs; contexts are
immutable after construction apart from idempotent lazy caches, so they
are safe to share across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .admission import (MAX_LABEL_Q, FieldSizeError, check_modulus_rank, field_size_refusal,
                        is_prime, split_prime_power)  # noqa: F401 - split_prime_power re-exported


# ---------------------------------------------------------------------------
# products on packed ints, shared by the modulus search and FieldCtx
#
# At p = 2 a residue mod f is an int whose bit i is the coefficient of x^i,
# and a product is carry-less.  At odd p it is in Kronecker slots: digit i
# in slot i of w bits.  One integer product of two residues with digits
# below p holds every coefficient of the polynomial product, one per slot,
# as a sum of at most D products below p^2, so no slot carries.


def _clmul(a: int, b: int) -> int:
    """The carry-less product of a and b: a copy of a shifted to each set
    bit of b, XOR-ed.  A square spreads the bits, bit i to bit 2i, which is
    what reading a's binary digits in base 4 does."""
    if a == b:
        return int(f"{a:b}", 4)
    prod = 0
    while b:
        low = b & -b
        prod ^= a * low
        b ^= low
    return prod


def _clreduce(prod: int, f: int, D: int) -> int:
    """prod mod f at p = 2, f the modulus bits (degree D): XOR in a copy of
    f under the top bit until the degree is below D."""
    while (shift := prod.bit_length() - 1 - D) >= 0:
        prod ^= f << shift
    return prod


class _Slots(NamedTuple):
    """Residues mod a degree-D modulus at odd p in slots of w bits: room for
    the n bits of a coefficient, 2^n > 2 D (p-1)^2, and for a Barrett
    quotient, so that one pass takes every slot below 2^n mod p at once:
    v * M >> k is v // p for v < 2^n, as M p - 2^k < p <= 2^(k - n), and
    keep holds bits k .. w-1 of each of 2D slots."""
    p: int
    w: int
    D: int
    M: int
    k: int
    keep: int

    @staticmethod
    def make(p: int, D: int) -> _Slots:
        n = (2 * D * (p - 1) ** 2).bit_length()
        k = n + p.bit_length()
        M = -(-(1 << k) // p)
        w = n + M.bit_length()
        return _Slots(p, w, D, M, k, sum((1 << w) - (1 << k) << w * i for i in range(2 * D)))


def _modulus_slots(coeffs, p: int, w: int) -> tuple[int, int]:
    """(g, mu) in slots for f monic with the given D non-leading
    coefficients: g = -f mod x^D and mu = x^(2D) // f, by long division
    from the top, where c x^(D+t) - c f x^t leaves c g x^t."""
    D, mask = len(coeffs), (1 << w) - 1
    g = sum(-c % p << w * i for i, c in enumerate(coeffs))
    rem, mu = 1 << w * 2 * D, 0
    for t in range(D, -1, -1):
        if c := (rem >> w * (D + t) & mask) % p:
            mu |= c << w * t
            rem += c * g << w * t
    return g, mu


def _mod_slots(prod: int, g: int, mu: int, slots: _Slots) -> int:
    """prod mod f in slots, each reduced mod p, for a product of degree
    below 2D at odd p, by Barrett's reduction on polynomials, which is exact
    there: with prod = a x^D + b, the quotient is (a mu) // x^D and the rest
    is b + (quotient * g mod x^D).  Every slot stays below 2^n."""
    p, w, D, M, k, keep = slots
    wD, low = w * D, (1 << w * D) - 1
    prod -= p * ((prod * M & keep) >> k)
    quotient = (prod >> wD) * mu
    quotient = (quotient - p * ((quotient * M & keep) >> k)) >> wD
    rest = (prod & low) + (quotient * g & low)
    return rest - p * ((rest * M & keep) >> k)


def _generates(c: int, p: int, primes) -> bool:
    """Whether the residue c generates F_p^*: it is nonzero and no l-th
    power for any of the primes l of p - 1."""
    return c % p != 0 and all(pow(c, (p - 1) // ell, p) != 1 for ell in primes)


def find_primitive_modulus(p: int, degree: int, rank: int = 0) -> tuple[int, ...]:
    """The (rank+1)-th lexicographically smallest primitive polynomial of the
    given degree over F_p, monic, coefficients low-to-high.  Lex order treats
    the non-leading coefficients as base-p digits, constant term least
    significant.  Deterministic; rank 0 is the canonical modulus.

    With r = (p^d - 1)/(p - 1), f is primitive iff (-1)^d f(0) generates
    F_p^* and r is the least t with x^t in F_p mod f (Lidl and
    Niederreiter, Finite Fields, Thm 3.18).  The packed indices below p
    are the binomials x^d + c, and none of them is primitive: x^d = -c
    gives x^(d(p-1)) = 1 with d(p-1) < p^d - 1.  So the scan starts at
    index p, which leaves the answer unchanged, and tests one candidate at
    a time in index order.  Two filters come before any power: f(1) and
    f(-1) are nonzero, as a root is a linear factor and d >= 2 (at p = 2
    an even number of terms is a root at 1), and (-1)^d f(0) generates
    F_p^*.  The rest get x^r and then the cofactors x^(r/l) for the primes
    l | r.  A field over the size bound (p^d > 2^26) raises FieldSizeError
    before any factorization.  There are phi(p^d - 1)/d primitive
    polynomials of degree d; a rank not below that count raises
    ModulusRankError before the scan, and the factorization of p^d - 1
    behind that count gives the primes of r and of p - 1."""
    if degree < 2:
        raise ValueError(f"modulus degree {degree} is below 2")
    if rank < 0:
        raise ValueError(f"modulus rank {rank} is negative")
    if refusal := field_size_refusal(p**degree, f"F_{p}^{degree}"):
        raise refusal
    primes = check_modulus_rank(p, degree, rank)
    # no x^t in F_p for 0 < t < r puts 1, x, .., x^(r-1) on r distinct lines
    # through 0, all the lines of F_p^d: every nonzero residue is then c x^t,
    # a unit, so F_p[x]/(f) is a field, x^r is the norm (-1)^d f(0) of x, and
    # x has order r (p - 1) when that norm generates F_p^*
    r = (p**degree - 1) // (p - 1)
    # x^(r/2), the cofactor of l = 2 when r is even, is x^r's last step but one
    cofactors = [r // ell for ell in primes if r % ell == 0 and ell != 2]
    fp_primes = [ell for ell in primes if (p - 1) % ell == 0]
    sign, found, generates = (-1) ** degree, 0, {}
    if p > 2:
        slots = _Slots.make(p, degree)
    w = 1 if p == 2 else slots.w  # x is 1 << w, and F_p the residues below it

    def x_power(t: int, f) -> tuple[int, int]:
        """x^(t >> 1) and x^t mod f, by left-to-right square and multiply,
        a multiplication by x shifted into the square before it is reduced:
        f is the modulus bits at p = 2 and (g, mu) at odd p, where residues
        are in slots, each reduced mod p."""
        last, acc = 1, 1 << w
        for bit in bin(t)[3:]:
            last = acc
            if p == 2:
                acc = _clreduce(_clmul(acc, acc) << (bit == "1"), f, degree)
            else:
                acc = _mod_slots(acc * acc << w * (bit == "1"), *f, slots)
        return last, acc

    for upper in range(1, p ** (degree - 1)):
        digits = [upper // p**i % p for i in range(degree - 1)]
        at_one = 1 + sum(digits)  # f(1) and f(-1) less the constant term c0
        at_minus_one = sign + sum(c if i % 2 else -c for i, c in enumerate(digits))
        for c0 in range(p):
            if (at_one + c0) % p == 0 or (at_minus_one + c0) % p == 0:
                continue
            norm = sign * c0 % p
            if norm not in generates:
                generates[norm] = _generates(norm, p, fp_primes)
            if not generates[norm]:
                continue
            coeffs = (c0, *digits)
            if p == 2:
                f = sum(c << i for i, c in enumerate(coeffs)) | 1 << degree
            else:
                f = _modulus_slots(coeffs, p, w)
            half, full = x_power(r, f)
            if r % 2 == 0 and half >> w == 0 or full >> w or \
                    any(x_power(t, f)[1] >> w == 0 for t in cofactors):
                continue
            if found == rank:
                return coeffs + (1,)
            found += 1
    raise ArithmeticError(
        f"found {found} primitive polynomials of degree {degree} over F_{p}, too few")


# ---------------------------------------------------------------------------
# the field context

# FieldCtx.linear_image maps blocks of _LINEAR_BLOCK values; at p = 2 an
# input of _HALF_TABLES_FROM values or more goes through the half tables,
# which are faster from there on at every degree (measured at D = 2 to 24)
_LINEAR_BLOCK = 1 << 14
_HALF_TABLES_FROM = 1 << 8


def _xor_table(rows: np.ndarray) -> np.ndarray:
    """Entry b is the XOR of the rows that the bits of b select, for every
    b below 2^len(rows)."""
    table = np.zeros(1, dtype=np.int64)
    for row in rows:
        table = np.concatenate([table, table ^ row])
    return table


class FieldCtx:
    """Immutable description of F_p < F_q < F_{q^s}, s = 2m, with pi = x.

    Elements are ints packing base-p coefficient vectors of length
    e*s.  All arithmetic methods are pure; lazy table construction is
    idempotent.
    """

    def __init__(self, p: int, e: int, s: int, modulus: tuple[int, ...],
                 modulus_rank: int = 0):
        if refusal := field_size_refusal(p ** (e * s), f"F_{p}^{e * s}"):
            raise refusal
        self.p = p
        self.e = e
        self.s = s
        self.modulus_rank = modulus_rank
        self.m = s // 2
        self.q = p**e
        self.degree = e * s
        self.size = p**self.degree
        self.n = self.size - 1
        self.modulus = modulus
        self.pi = p  # residue class of x (degree is always >= 2)
        self._ppow = [p**i for i in range(self.degree + 1)]
        if p == 2:
            self._modulus_bits = sum(c << i for i, c in enumerate(modulus))
        else:
            self._slots = _Slots.make(p, self.degree)
            self._slot_bits = self._slots.w
            self._g_mu = _modulus_slots(modulus[:-1], p, self._slot_bits)
        self._exp: np.ndarray | None = None
        self._log: np.ndarray | None = None
        self._frob_rows: list[int] | None = None
        self._subfields: dict[int, SubfieldView] = {}
        self._trace_labels: dict[int, np.ndarray] = {}
        self._minimal_polys: dict[int, Poly] = {}
        self._gamma_roots: dict[int, int] | None = None  # codes.gamma_roots

    def __repr__(self):
        return f"FieldCtx(p={self.p}, e={self.e}, s={self.s}, size={self.size})"

    # -- digit packing ------------------------------------------------------

    def digits(self, a: int) -> list[int]:
        p, out = self.p, []
        for _ in range(self.degree):
            out.append(a % p)
            a //= p
        return out

    # -- ring operations ----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        p, v = self.p, 0
        for pw in self._ppow[: self.degree]:
            da, db = a // pw % p, b // pw % p
            v += (da + db) % p * pw
        return v

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        p, v = self.p, 0
        for pw in self._ppow[: self.degree]:
            v += (-(a // pw % p)) % p * pw
        return v

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        p = self.p
        if a < p or b < p:
            # an F_p scalar c: 1 and a product of two scalars are read off
            # at once, tables or not
            c, x = (a, b) if a < p else (b, a)
            if c == 1:
                return x
            if x < p:
                return c * x % p
            if self._log is None:
                # c scales each digit of x; c (p - 1) fits a slot, as it
                # stays below p^2.  With tables the exp/log read is faster
                # (about 0.5 against 1.5-3.8 us at D = 4-12)
                return self._from_slots(c * self._spread(x))
        if self._log is not None:
            return int(self._exp[(int(self._log[a]) + int(self._log[b])) % self.n])
        return self._mul_poly(a, b)

    def _mul_poly(self, a: int, b: int) -> int:
        """a * b mod the modulus on packed ints, without tables, by the
        modulus search's products: _clmul and _clreduce at p = 2, at odd p
        a Kronecker product of the digit-spread operands and _mod_slots."""
        if self.p == 2:
            return _clreduce(_clmul(a, b), self._modulus_bits, self.degree)
        spread_a = self._spread(a)
        prod = spread_a * (spread_a if b == a else self._spread(b))
        return self._from_slots(
            _mod_slots(prod, *self._g_mu, self._slots))

    def _spread(self, a: int) -> int:
        """The base-p digits of a, one per slot of _slot_bits bits."""
        p, w = self.p, self._slot_bits
        out = shift = 0
        while a:
            a, d = divmod(a, p)
            out |= d << shift
            shift += w
        return out

    def _from_slots(self, slots: int) -> int:
        """The packed element whose digit i is slot i of slots, read mod p."""
        p, w = self.p, self._slot_bits
        mask, v = (1 << w) - 1, 0
        for shift in range(w * (self.degree - 1), -1, -w):
            v = v * p + (slots >> shift & mask) % p
        return v

    def pow(self, a: int, k: int) -> int:
        if a == 0:
            if k == 0:
                return 1
            if k < 0:
                raise ZeroDivisionError("0 has no negative powers")
            return 0
        k %= self.n
        if self._log is not None:
            return int(self._exp[int(self._log[a]) * k % self.n])
        result, base = 1, a
        while k:
            if k & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            k >>= 1
        return result

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 is not invertible")
        return self.pow(a, self.n - 1)

    def frobenius_q(self, a: int) -> int:
        """The relative Frobenius a -> a^q whose fixed set is the embedded F_q.

        Without tables it is applied as the F_p-linear map it is: a^q is
        the sum of a_i (x^i)^q over the digits a_i of a."""
        if self._log is not None:
            return self.pow(a, self.q)
        rows = self._frobenius_rows()
        if self.p == 2:
            out = 0
            while a:
                low = a & -a
                out ^= rows[low.bit_length() - 1]
                a ^= low
            return out
        # digit-weighted sums of spread rows: a slot sums at most D products
        # below p^2, which the slot width holds without carrying
        p, acc, i = self.p, 0, 0
        while a:
            a, d = divmod(a, p)
            if d:
                acc += d * rows[i]
            i += 1
        return self._from_slots(acc)

    def _frobenius_rows(self) -> list[int]:
        """(x^i)^q for i < D, built once as powers of x^q; spread into
        slots at odd p."""
        if self._frob_rows is None:
            xq, rows = self.pow(self.pi, self.q), [1]
            while len(rows) < self.degree:
                rows.append(self.mul(rows[-1], xq))
            self._frob_rows = rows if self.p == 2 else [self._spread(r) for r in rows]
        return self._frob_rows

    # -- traces -------------------------------------------------------------

    def _trace_chain(self, a: int, base: int, steps: int) -> int:
        acc, z = a, a
        for _ in range(steps - 1):
            z = self.pow(z, base)
            acc = self.add(acc, z)
        return acc

    def trace_q_to_p(self, a: int) -> int:
        """Absolute trace of an element of the embedded F_q down to F_p,
        returned as the residue 0..p-1 (prime-field elements pack to
        single digits)."""
        return self._trace_chain(a, self.p, self.e)

    # -- exp/log tables -----------------------------------------------------

    def require_tables(self):
        if self._log is not None:
            return
        p, D, n = self.p, self.degree, self.n
        # x^i = p^i for i < D; after that, step is multiplication by
        # x^filled as a matrix on coordinate rows: row i holds the digits of
        # x^(i + filled), starting from x^D, x^(D+1), .. and squared as
        # filled doubles
        exp = np.empty(n, dtype=np.int64)
        exp[:D] = self._ppow[:D]
        top, rows = self._mul_poly(self._ppow[D - 1], self.pi), []
        for _ in range(D):
            rows.append(self.digits(top))
            top = self._mul_poly(top, self.pi)
        step = np.array(rows, dtype=np.float64)
        filled = D
        while filled < n:
            take = min(filled, n - filled)
            self.linear_image(exp[:take], step, out=exp[filled:filled + take])
            filled += take
            step = step @ step
            step -= p * np.floor(step / p)
        log = np.zeros(self.size, dtype=np.int64)
        log[exp] = np.arange(n)
        if int(exp[1]) != self.pi:
            raise AssertionError("exp table inconsistent with pi")
        self._exp = exp
        self._log = log

    def linear_image(self, values: np.ndarray, matrix, out=None) -> np.ndarray:
        """Packed images of packed elements under an F_p-linear map.  Row i
        of matrix holds the base-p digits of the image of x^i (D rows); its
        c columns are the digits of an image, which packs to c digits.
        Written to out (int64 if not given) in blocks of _LINEAR_BLOCK.

        At p = 2 an input of _HALF_TABLES_FROM values or more goes through
        two tables, the images of every pattern of the low h = ceil(D/2)
        bits and of the high D - h bits: an image is two lookups and an
        XOR.  Otherwise the digits go through a float64 matmul:
        coordinates, products and their sums (below D * p^2) are integers
        that float64 holds exactly, and so is x - p * floor(x / p)."""
        p, D = self.p, self.degree
        matrix = np.asarray(matrix, dtype=np.float64)
        weights = p ** np.arange(matrix.shape[1], dtype=np.float64)
        if out is None:
            out = np.empty(len(values), dtype=np.int64)
        blocks = range(0, len(values), _LINEAR_BLOCK)
        if p == 2 and len(values) >= _HALF_TABLES_FROM:
            h = (D + 1) // 2
            rows = (matrix @ weights).astype(np.int64)
            low, high = _xor_table(rows[:h]), _xor_table(rows[h:])
            for lo in blocks:
                v = values[lo:lo + _LINEAR_BLOCK]
                out[lo:lo + _LINEAR_BLOCK] = low[v & (2**h - 1)] ^ high[v >> h]
            return out
        digit_weights = np.array(self._ppow[:D], dtype=np.float64)
        for lo in blocks:
            coords = np.floor(values[lo:lo + _LINEAR_BLOCK, None] / digit_weights)
            coords -= p * np.floor(coords / p)
            image = coords @ matrix
            image -= p * np.floor(image / p)
            out[lo:lo + _LINEAR_BLOCK] = image @ weights
        return out

    def log(self, a: int) -> int:
        if a == 0:
            raise ValueError("log(0) undefined")
        self.require_tables()
        return int(self._log[a])

    def exp_table(self) -> np.ndarray:
        self.require_tables()
        return self._exp

    def log_table(self) -> np.ndarray:
        """log of every packed nonzero element (entry 0 is unused)."""
        self.require_tables()
        return self._log

    # -- subfields and traces as label tables -------------------------------

    def subfield(self, order: int) -> SubfieldView:
        if order not in self._subfields:
            self._subfields[order] = SubfieldView(self, order)
        return self._subfields[order]

    def trace_labels(self, upper: int) -> np.ndarray:
        """uint8 n-vector: entry k is the F_q label of Tr_{upper/q}(pi^k)
        where pi^k lies in the subfield of order upper (k a multiple of
        n/(upper - 1)), and 0xFF elsewhere.  Built once per subfield.

        The label is F_p-linear in pi^k: the F_p-basis g^i = pi^(step i),
        i < log_p(upper), of F_upper has traces that are checked to lie in
        F_q, pi^k's coordinates in that basis are its digits times
        coordinate_inverse's matrix, and the labels of all of exp[::step]
        are one linear_image."""
        if upper not in self._trace_labels:
            if self.q > MAX_LABEL_Q:
                raise FieldSizeError(f"labels of F_{self.q} do not fit the uint8 table")
            self.require_tables()
            steps = round(math.log(upper, self.q))
            if self.q**steps != upper:
                raise ValueError("incompatible trace levels")
            p, sub = self.p, self.subfield(self.q)
            step = self.n // (upper - 1)
            basis = [int(self._exp[step * i]) for i in range(self.e * steps)]
            traces = [self._trace_chain(g, self.q, steps) for g in basis]
            if not all(sub.contains(t) for t in traces):
                raise AssertionError("trace escaped F_q")
            labels = [[sub.label_of(t) // p**i % p for i in range(self.e)] for t in traces]
            matrix = coordinate_inverse([self.digits(g) for g in basis], p) @ labels % p
            table = np.full(self.n, 0xFF, dtype=np.uint8)
            self.linear_image(self._exp[::step], matrix, out=table[::step])
            self._trace_labels[upper] = table
        return self._trace_labels[upper]


def coordinate_inverse(rows, p: int) -> np.ndarray:
    """The D x r matrix E that recovers coordinates over F_p: for the
    base-p digit rows (lists of ints) of r elements, of rank r,
    x = c @ rows mod p gives c = x @ E mod p.  Gauss-Jordan elimination
    of [rows | I], on lists of Python ints (at most 26 x 52), leaves the
    identity in the pivot columns P and the inverse of rows[:, P] beside
    it; E holds that inverse in its rows P and zeros elsewhere."""
    r, D = len(rows), len(rows[0])
    aug = [[x % p for x in row] + [int(i == k) for i in range(r)]
           for k, row in enumerate(rows)]
    pivots = []
    for col in range(D):
        k = len(pivots)
        if k == r:
            break
        pivot = next((i for i in range(k, r) if aug[i][col]), None)
        if pivot is None:
            continue
        aug[k], aug[pivot] = aug[pivot], aug[k]
        if (lead := aug[k][col]) != 1:
            aug[k] = [x * pow(lead, -1, p) % p for x in aug[k]]
        top = aug[k]
        for i in range(r):
            if i != k and (f := aug[i][col]):
                aug[i] = [(a - f * b) % p for a, b in zip(aug[i], top)]
        pivots.append(col)
    if len(pivots) < r:
        raise ValueError("rows are linearly dependent over F_p")
    matrix = np.zeros((D, r), dtype=np.int64)
    matrix[pivots] = [row[D:] for row in aug]
    return matrix


class SubfieldView:
    """Dense tables for one embedded subfield F_Q of a FieldCtx.

    Labels 0..Q-1 are packed F_p coordinates with respect to the basis
    {g^0, .., g^(k-1)} where g = pi^((q^s-1)/(Q-1)), so label addition is
    digitwise base-p (plain XOR when p = 2).  Label 0 is the zero element
    and label 1 is the one element.  The uint8 op tables (add_table,
    mul_table, sub_table) hold labels below 256 only and refuse a larger
    Q with FieldSizeError; label_tables, nested lists, has no such bound.
    """

    def __init__(self, ctx: FieldCtx, order: int):
        if (ctx.size - 1) % (order - 1) != 0:
            raise ValueError(f"F_{order} is not a subfield of F_{ctx.size}")
        k = round(math.log(order, ctx.p))
        if ctx.p**k != order:
            raise ValueError(f"{order} is not a power of p={ctx.p}")
        if order > MAX_LABEL_Q**2:
            raise FieldSizeError("subfield label tables capped at 2^16 elements")
        self.ctx = ctx
        self.order = order
        self.ext_deg = k
        self.gen = ctx.pow(ctx.pi, ctx.n // (order - 1))
        # a label's base-p digits are its coordinates on the basis g^i, so
        # every label's element is one linear_image through the basis's
        # digit rows
        rows = np.zeros((ctx.degree, ctx.degree))
        rows[:k] = [ctx.digits(ctx.pow(self.gen, i)) for i in range(k)]
        elems = ctx.linear_image(np.arange(order), rows).tolist()
        self.elements_by_label = tuple(elems)
        self._label_of = {v: i for i, v in enumerate(elems)}
        if len(self._label_of) != order:
            raise AssertionError("subfield labelling not injective")
        self._inv_labels: dict[int, int] = {}
        self._rows: dict[str, list[list[int]]] = {}

    def contains(self, a: int) -> bool:
        return a in self._label_of

    def label_of(self, a: int) -> int:
        return self._label_of[a]

    def from_label(self, lbl: int) -> int:
        return self.elements_by_label[lbl]

    def _op_rows(self, name, fn) -> list[list[int]]:
        """Labels of fn on every pair of labels as rows of Python ints,
        built once from the field's own fn: label_tables hands them to the
        row elimination and _op_table copies them into a uint8 table."""
        if name not in self._rows:
            elems, label_of = self.elements_by_label, self._label_of
            self._rows[name] = [[label_of[fn(a, b)] for b in elems] for a in elems]
        return self._rows[name]

    def _op_table(self, name, fn):
        """_op_rows as a Q x Q uint8 table, built once.  A label above 255
        does not fit a byte, so an order above MAX_LABEL_Q raises
        FieldSizeError before any entry is computed."""
        attr = f"_tab_{name}"
        if not hasattr(self, attr):
            if self.order > MAX_LABEL_Q:
                raise FieldSizeError(f"labels of F_{self.order} do not fit the uint8 table")
            setattr(self, attr, np.array(self._op_rows(name, fn), dtype=np.uint8))
        return getattr(self, attr)

    def add_table(self) -> np.ndarray:
        return self._op_table("add", self.ctx.add)

    def mul_table(self) -> np.ndarray:
        return self._op_table("mul", self.ctx.mul)

    def sub_table(self) -> np.ndarray:
        return self._op_table("sub", self.ctx.sub)

    def label_tables(self) -> tuple[list[list[int]], list[list[int]]]:
        """The multiplication and subtraction tables as nested lists of
        Python ints, for a row operation that reads them entry by entry
        (a numpy scalar per read would cost more than the arithmetic).
        Not bounded by the uint8 tables' MAX_LABEL_Q."""
        return self._op_rows("mul", self.ctx.mul), self._op_rows("sub", self.ctx.sub)

    def inv_label(self, lbl: int) -> int:
        """The inverse's label, computed once per label."""
        if lbl not in self._inv_labels:
            self._inv_labels[lbl] = self.label_of(self.ctx.inv(self.from_label(lbl)))
        return self._inv_labels[lbl]

    def add_labels(self, a, b):
        """Label addition, vectorized: digitwise base-p on label ints.  The
        prime-field sum is taken in int16, so p up to 251 cannot wrap."""
        if self.ctx.p == 2:
            return a ^ b
        if self.ext_deg == 1:
            return ((np.asarray(a, dtype=np.int16) + b) % self.ctx.p).astype(np.uint8)
        return self.add_table()[a, b]


def label_matrix_rank(sub: SubfieldView, rows: list[list[int]]) -> int:
    """Rank over F_Q of a matrix given as rows of subfield labels.

    Forward elimination to echelon form only, one leading column at a
    time: a row with a nonzero entry there is the pivot and leaves the
    matrix unscaled, every other row with a nonzero entry c there becomes
    row - (c / pivot) * pivot, and the column goes.  The update reads
    sub_t[a][mul_t[c * inv][b]] from the nested-list label tables
    (SubfieldView.label_tables, built from ctx.mul and ctx.sub), fetched
    only once a row update happens: a matrix that needs none, such as a
    1 x 1 one, builds no table.  The rows passed in are not modified."""
    rows = list(rows)
    rank = 0
    while rows and rows[0]:
        for pivot, row in enumerate(rows):
            if row[0]:
                break
        else:
            rows = [row[1:] for row in rows]
            continue
        top = rows.pop(pivot)
        tail, by_inv = top[1:], None  # by_inv: the row of mul_t for 1 / pivot
        rank += 1
        rest = []
        for row in rows:
            if c := row[0]:
                if by_inv is None:
                    mul_t, sub_t = sub.label_tables()
                    by_inv = mul_t[sub.inv_label(top[0])]
                scaled = mul_t[by_inv[c]]
                rest.append([sub_t[a][scaled[b]] for a, b in zip(row[1:], tail)])
            else:
                rest.append(row[1:])
        rows = rest
    return rank


# ---------------------------------------------------------------------------
# polynomials over the big field


@dataclass(frozen=True)
class Poly:
    """Dense polynomial with coefficients in a FieldCtx, ascending order,
    leading coefficient nonzero (empty tuple = zero polynomial)."""

    ctx: FieldCtx
    coeffs: tuple[int, ...]

    @staticmethod
    def make(ctx: FieldCtx, coeffs) -> Poly:
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        return Poly(ctx, tuple(c))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def __mul__(self, other: Poly) -> Poly:
        if self.is_zero() or other.is_zero():
            return Poly(self.ctx, ())
        ctx = self.ctx
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] = ctx.add(out[i + j], ctx.mul(a, b))
        return Poly.make(ctx, out)

    def __call__(self, point: int) -> int:
        ctx, acc = self.ctx, 0
        for c in reversed(self.coeffs):
            acc = ctx.add(ctx.mul(acc, point), c)
        return acc


def minimal_polynomial(ctx: FieldCtx, a: int) -> Poly:
    """Monic minimal polynomial of a over the embedded F_q: the product of
    (X - c) over the distinct Frobenius conjugates c of a.  Coefficients are
    verified to lie in F_q.  Computed once per element and context, so the
    code families built on one context share their factors."""
    if a in ctx._minimal_polys:
        return ctx._minimal_polys[a]
    conjugates, c = [], a
    while c not in conjugates:
        conjugates.append(c)
        c = ctx.frobenius_q(c)
    poly = [1]
    for root in conjugates:
        nroot = ctx.neg(root)
        nxt = [0] * (len(poly) + 1)
        for i, coef in enumerate(poly):
            nxt[i] = ctx.add(nxt[i], ctx.mul(coef, nroot))
            nxt[i + 1] = ctx.add(nxt[i + 1], coef)
        poly = nxt
    for coef in poly:
        if ctx.frobenius_q(coef) != coef:
            raise AssertionError("minimal polynomial coefficient escaped F_q")
    ctx._minimal_polys[a] = Poly(ctx, tuple(poly))
    return ctx._minimal_polys[a]


# ---------------------------------------------------------------------------
# context construction


_CTX_CACHE: dict[tuple, FieldCtx] = {}


def make_field(p: int, e: int, s: int, modulus_rank: int = 0) -> FieldCtx:
    """Build the canonical context for F_{(p^e)^s} over F_p.

    Deterministic: the modulus is the (modulus_rank+1)-th lexicographically
    smallest primitive polynomial of degree e*s over F_p and pi is the
    residue class of x.  Requires p prime, e >= 1, s >= 2 even, and at
    most 2^26 elements, which the modulus search checks.
    """
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if e < 1:
        raise ValueError("extension degree e must be >= 1")
    if s < 2 or s % 2:
        raise ValueError("s must be even and >= 2")
    key = (p, e, s, modulus_rank)
    if key not in _CTX_CACHE:
        modulus = find_primitive_modulus(p, e * s, modulus_rank)
        _CTX_CACHE[key] = FieldCtx(p, e, s, modulus, modulus_rank)
    return _CTX_CACHE[key]
