"""Arithmetic in a tower F_p < F_q < F_{q^s} inside one packed representation.

A field context describes F_{q^s} with q = p^e and s = 2m, built as
F_p[x]/(modulus) where the modulus is the lexicographically smallest
primitive polynomial of degree e*s over F_p (coefficients compared
low-to-high as base-p digits).  The search for it skips the binomials
x^d + c, which are never primitive, so the modulus is the same as that
of a scan from the first candidate.  Elements are plain Python ints: the
polynomial a_0 + a_1 x + a_2 x^2 + ... packs to the integer
a_0 + a_1 p + a_2 p^2 + ...  The residue class of x is a multiplicative
generator by construction, exposed as ctx.pi.

Subfields are not separate towers: F_q is the fixed set of y -> y^q,
F_{q^2} of y -> y^{q^2}, and (odd m) F_{q^m} of y -> y^{q^m}.  A
SubfieldView attaches dense label tables (labels 0..Q-1, F_p-linear
labelling) so inner loops can work on small numpy arrays instead of
packed values.

Exp/log tables are built lazily and only for fields up to
DEFAULT_TABLE_BOUND = 2**26 elements; operations that need them on a
larger field raise FieldSizeError.  Without tables, multiplication
works on the packed ints themselves.  At p = 2 it is a carry-less
shift-and-XOR product, reduced by XOR-ing in shifted copies of the
modulus bits.  At odd p the operands' digits are spread into slots wide
enough never to carry, one integer product gives every coefficient of
the polynomial product (Kronecker substitution), and the high slots
fold back through x^(D+t) mod the modulus, precomputed per context.
The Frobenius a -> a^q is F_p-linear, so without tables it is a sum of
the images (x^i)^q, computed once per context, weighted by the digits
of a: an XOR of rows at p = 2, a sum of slot-spread rows at odd p.

Everything on a context is a pure function of its inputs; contexts are
immutable after construction apart from idempotent lazy caches, so they
are safe to share across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .admission import (DEFAULT_TABLE_BOUND, MAX_LABEL_Q,  # noqa: F401 - re-exported
                        BudgetExceeded, FieldSizeError, ModulusRankError, is_prime,
                        split_prime_power)

MAX_DEGREE = 64


# ---------------------------------------------------------------------------
# integer helpers


def _pollard_rho(n: int) -> int:
    if n % 2 == 0:
        return 2
    for c in range(1, 64):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"rho failed on {n}")


def factorize(n: int) -> dict[int, int]:
    """Prime factorization as {prime: exponent}.  Fields here are desk scale,
    so trial division does nearly all the work; rho covers stray big factors."""
    factors: dict[int, int] = {}
    for sp in range(2, 1 << 16):
        if sp * sp > n:
            break
        while n % sp == 0:
            factors[sp] = factors.get(sp, 0) + 1
            n //= sp
    stack = [n] if n > 1 else []
    while stack:
        v = stack.pop()
        if v == 1:
            continue
        if is_prime(v):
            factors[v] = factors.get(v, 0) + 1
            continue
        d = _pollard_rho(v)
        stack += [d, v // d]
    return factors


# ---------------------------------------------------------------------------
# F_p[x] modulo a block of candidate moduli (used only to find the modulus)
#
# A block holds B monic candidates f of degree d, one per column: a residue
# mod each f is a (d, B) int64 array with the constant coefficients in row
# 0, and the reduction rows, a (d-1, d, B) array, hold x^(d+t) mod f in row
# t.  Coefficients are reduced to 0..p-1 after every step, so every sum
# taken below stays under d * p^2; int64 holds that while d * p^2 <= 2^63.

_BLOCK_ELEMENTS = 1 << 14  # cap on B * d^2: the block temporaries stay < 1 MB


def _block_coefficients(start: int, count: int, p: int, d: int) -> np.ndarray:
    """Non-leading coefficients of the candidates with packed indices start
    .. start+count-1, one per column, constant term in row 0.  The digits of
    start come from the Python int and those of the offsets are added with
    carries, so indices beyond int64 (p^d > 2^63) decode exactly."""
    coeffs = np.empty((d, count), dtype=np.int64)
    offsets = np.arange(count, dtype=np.int64)
    carry = 0
    for i in range(d):
        digit = start % p + offsets % p + carry
        coeffs[i] = digit % p
        carry = digit // p
        start //= p
        offsets //= p
    return coeffs


def _times_x(acc: np.ndarray, rows: np.ndarray, p: int) -> np.ndarray:
    """acc * x mod f: shift up one place and fold the top coefficient back
    through x^d mod f."""
    out = acc[-1] * rows[0]
    out[1:] += acc[:-1]
    return out % p


def _square(acc: np.ndarray, rows: np.ndarray, p: int) -> np.ndarray:
    """acc^2 mod f.  The products acc_i * acc_j fill d rows of width 2d;
    re-cut into rows of width 2d-1, row i starts i places further right, so
    the column sums are the coefficients of x^(i+j).  The top d-1 of them
    are folded back through the reduction rows."""
    d, B = acc.shape
    skew = np.zeros((d, 2 * d, B), dtype=np.int64)
    np.multiply(acc[:, None], acc[None], out=skew[:, :d])
    prod = skew.reshape(-1)[:d * (2 * d - 1) * B].reshape(d, 2 * d - 1, B).sum(axis=0) % p
    return (prod[:d] + (prod[d:, None] * rows[:d - 1]).sum(axis=0)) % p


def _x_power_is_one(rows: np.ndarray, k: int, p: int) -> np.ndarray:
    """Which candidates have x^k = 1 mod f, by left-to-right square and
    multiply."""
    d, B = rows.shape[1:]
    acc = np.zeros((d, B), dtype=np.int64)
    acc[0] = 1
    for bit in bin(k)[2:]:
        acc = _square(acc, rows, p)
        if bit == "1":
            acc = _times_x(acc, rows, p)
    return (acc[0] == 1) & ~acc[1:].any(axis=0)


def find_primitive_modulus(p: int, degree: int, rank: int = 0) -> tuple[int, ...]:
    """The (rank+1)-th lexicographically smallest primitive polynomial of the
    given degree over F_p, monic, coefficients low-to-high.  Lex order treats
    the non-leading coefficients as base-p digits, constant term least
    significant.  Deterministic; rank 0 is the canonical modulus.

    f is primitive iff x^(p^d - 1) = 1 and x^((p^d - 1)/r) != 1 mod f for
    every prime r dividing p^d - 1.  The packed indices below p are the
    binomials x^d + c, and none of them is primitive for d >= 2: x^d = -c
    gives x^(d(p-1)) = 1 with d(p-1) < p^d - 1.  So the scan starts at
    index p (at 0 for d = 1), which leaves the answer unchanged.
    Candidates are tested a block at a time in index order (64 first,
    doubling up to the temporaries' cap): every candidate with f(0) != 0
    gets x^(p^d - 1), and only those where it is 1 get the cofactor
    powers.  The arithmetic is exact in int64 for degree * p^2 <= 2^63;
    above that FieldSizeError is raised.  There are
    phi(p^d - 1)/d primitive polynomials of degree d; a rank not below that
    count raises ModulusRankError before the scan."""
    if rank < 0:
        raise ValueError(f"modulus rank {rank} is negative")
    if degree * p * p > 1 << 63:
        raise FieldSizeError(
            f"degree {degree} over F_{p}: sums up to degree * p^2 overflow int64")
    # x of order p^degree - 1 makes every nonzero residue a power of x, so
    # F_p[x]/(f) is then a field and f is irreducible as well as primitive
    size = p**degree
    order = size - 1
    factors = factorize(order)
    primitive = math.prod((r - 1) * r ** (k - 1) for r, k in factors.items()) // degree
    if rank >= primitive:
        raise ModulusRankError(
            f"modulus rank {rank} is out of range: there are {primitive} primitive "
            f"polynomials of degree {degree} over F_{p}")
    cofactors = [order // r for r in factors]
    cap = max(1, _BLOCK_ELEMENTS // degree**2)
    found, start, block = 0, p if degree >= 2 else 0, 64
    while start < size:
        count = min(block, cap, size - start)
        coeffs = _block_coefficients(start, count, p, degree)
        keep = np.flatnonzero(coeffs[0])  # f(0) = 0 makes x a zero divisor
        rows = np.empty((max(degree - 1, 1), degree, len(keep)), dtype=np.int64)
        rows[0] = -coeffs[:, keep] % p
        for t in range(1, degree - 1):
            rows[t] = _times_x(rows[t - 1], rows, p)
        passed = _x_power_is_one(rows, order, p)
        keep, rows = keep[passed], rows[:, :, passed]
        for k in cofactors:
            passed = ~_x_power_is_one(rows, k, p)
            keep, rows = keep[passed], rows[:, :, passed]
        if found + len(keep) > rank:
            return tuple(int(c) for c in coeffs[:, keep[rank - found]]) + (1,)
        found += len(keep)
        start += count
        block *= 2
    raise ArithmeticError(
        f"found {found} primitive polynomials of degree {degree} over F_{p}, not {primitive}")


# ---------------------------------------------------------------------------
# the field context


class FieldCtx:
    """Immutable description of F_p < F_q < F_{q^s}, s = 2m, with pi = x.

    Elements are ints packing base-p coefficient vectors of length
    e*s.  All arithmetic methods are pure; lazy table construction is
    idempotent.
    """

    def __init__(self, p: int, e: int, s: int, modulus: tuple[int, ...],
                 modulus_rank: int = 0):
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
        # x^degree = -(low part of modulus), precomputed as digits
        self._top_reduction = [(-c) % p for c in modulus[:-1]]
        if p == 2:
            self._modulus_bits = sum(c << i for i, c in enumerate(modulus))
        else:
            D = self.degree
            # a product slot sums at most D digit products and the folds add
            # D - 1 more, so slots of w bits with 2^w > 2 D (p-1)^2 never carry
            w = self._slot_bits = (2 * D * (p - 1) ** 2).bit_length()
            self._low_slots = (1 << w * D) - 1
            # slot ints of x^(D+t) mod f, t = 0 .. D-2
            self._folds = []
            r = self._top_reduction
            for _ in range(D - 1):
                self._folds.append(sum(c << w * i for i, c in enumerate(r)))
                r = [(low + r[-1] * top) % p
                     for low, top in zip([0] + r[:-1], self._top_reduction)]
        self._exp: np.ndarray | None = None
        self._log: np.ndarray | None = None
        self._frob_rows: list[int] | None = None
        self._subfields: dict[int, SubfieldView] = {}
        self._trace_tables: dict[tuple[int, int], np.ndarray] = {}

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
        if self._log is not None:
            return int(self._exp[(int(self._log[a]) + int(self._log[b])) % self.n])
        return self._mul_poly(a, b)

    def _mul_poly(self, a: int, b: int) -> int:
        """a * b mod the modulus on packed ints, without tables."""
        D = self.degree
        if self.p == 2:
            # carry-less product: XOR a copy of a shifted to each set bit of
            # b (low is that bit alone, so a * low is a shift)
            prod = 0
            while b:
                low = b & -b
                prod ^= a * low
                b ^= low
            f = self._modulus_bits
            while (shift := prod.bit_length() - 1 - D) >= 0:
                prod ^= f << shift
            return prod
        # Kronecker substitution: one integer product of the digit-spread
        # operands holds every coefficient of the polynomial product
        p, w = self.p, self._slot_bits
        slot = (1 << w) - 1
        spread_a = self._spread(a)
        prod = spread_a * (spread_a if b == a else self._spread(b))
        low, high = prod & self._low_slots, prod >> w * D
        for fold in self._folds:
            if not high:
                break
            if c := (high & slot) % p:
                low += c * fold
            high >>= w
        return self._from_slots(low)

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

    def trace(self, a: int, lower: str = "q") -> int:
        """Relative trace of a into a subfield.

        lower="q":  Tr from F_{q^s} to F_q, the sum of a^(q^i), 0 <= i < s.
        lower="p":  absolute trace into F_p.
        lower="qm": Tr from F_{q^m} to F_q (odd m only; a must lie in the
                    embedded F_{q^m}).
        """
        if lower == "q":
            return self._trace_chain(a, self.q, self.s)
        if lower == "p":
            return self._trace_chain(a, self.p, self.degree)
        if lower == "qm":
            if self.m % 2 == 0:
                raise ValueError("F_{q^m} trace requires odd m")
            if self.pow(a, self.q**self.m) != a:
                raise ValueError("element not in the embedded F_{q^m}")
            return self._trace_chain(a, self.q, self.m)
        raise ValueError(f"unknown trace selector {lower!r}")

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

    def tables_available(self) -> bool:
        return self.size <= DEFAULT_TABLE_BOUND

    def require_tables(self):
        if self._log is not None:
            return
        if not self.tables_available():
            raise FieldSizeError(
                f"field of size {self.size} exceeds the log-table bound "
                f"{DEFAULT_TABLE_BOUND}; discrete-log operations refused")
        p, D, n = self.p, self.degree, self.n
        # step = multiplication by x^filled as a matrix on coordinate rows:
        # row i holds the coordinates of x^(i + filled); it starts as the
        # companion matrix of the modulus and is squared as filled doubles
        step = np.zeros((D, D))
        step[np.arange(D - 1), np.arange(1, D)] = 1
        step[D - 1] = self._top_reduction
        exp = np.empty(n, dtype=np.int64)
        exp[0] = 1
        filled = 1
        while filled < n:
            take = min(filled, n - filled)
            exp[filled:filled + take] = self.linear_image(exp[:take], step)
            filled += take
            step = step @ step
            step -= p * np.floor(step / p)
        log = np.zeros(self.size, dtype=np.int64)
        log[exp] = np.arange(n)
        if int(exp[1]) != self.pi:
            raise AssertionError("exp table inconsistent with pi")
        self._exp = exp
        self._log = log

    def linear_image(self, values: np.ndarray, matrix: np.ndarray) -> np.ndarray:
        """Packed images of packed elements under an F_p-linear map, given
        as a float64 matrix whose row i holds the coordinates of the image
        of x^i.  Coordinates, products and their sums (below D * p^2) are
        integers that float64 holds exactly, and so is x - p * floor(x / p).
        Blocks of 2^14 elements keep the temporaries small."""
        p, block = self.p, 1 << 14
        weights = np.array(self._ppow[:self.degree], dtype=np.float64)
        out = np.empty(len(values), dtype=np.int64)
        for lo in range(0, len(values), block):
            coords = np.floor(values[lo:lo + block, None] / weights)
            coords -= p * np.floor(coords / p)
            image = coords @ matrix
            image -= p * np.floor(image / p)
            out[lo:lo + block] = image @ weights
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

    def trace_label_table(self, upper: int, lower: int) -> np.ndarray:
        """uint8 array over all packed values: label in subfield(lower) of the
        trace from subfield(upper) down to subfield(lower).  Entries for
        values outside subfield(upper) are 0xFF."""
        key = (upper, lower)
        if key not in self._trace_tables:
            if lower > 256:
                raise FieldSizeError(f"labels of F_{lower} do not fit the uint8 table")
            self.require_tables()
            sub_lo = self.subfield(lower)
            steps = round(math.log(upper, lower))
            if lower**steps != upper:
                raise ValueError("incompatible trace levels")
            # the Frobenius-chain sum a + a^lower + ... is F_p-linear: its
            # matrix holds the sums of the basis elements x^i
            chain = np.array([self.digits(self._trace_chain(self._ppow[i], lower, steps))
                              for i in range(self.degree)], dtype=np.float64)
            members = np.concatenate([[0], self._exp[::self.n // (upper - 1)]])
            label_of = np.full(self.size, -1, dtype=np.int16)
            label_of[list(sub_lo.elements_by_label)] = np.arange(lower)
            labels = label_of[self.linear_image(members, chain)]
            if np.any(labels < 0):
                raise AssertionError("trace escaped the lower subfield")
            table = np.full(self.size, 0xFF, dtype=np.uint8)
            table[members] = labels
            self._trace_tables[key] = table
        return self._trace_tables[key]


class SubfieldView:
    """Dense tables for one embedded subfield F_Q of a FieldCtx.

    Labels 0..Q-1 are packed F_p coordinates with respect to the basis
    {g^0, .., g^(k-1)} where g = pi^((q^s-1)/(Q-1)), so label addition is
    digitwise base-p (plain XOR when p = 2).  Label 0 is the zero element
    and label 1 is the one element.
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
        basis = [ctx.pow(self.gen, i) for i in range(k)]
        elems = [0] * order
        p = ctx.p
        for lbl in range(order):
            v, rem = 0, lbl
            for b in basis:
                c = rem % p
                rem //= p
                if c:  # the prime-field element c packs to the digit c
                    v = ctx.add(v, ctx.mul(c, b))
            elems[lbl] = v
        self.elements_by_label = tuple(elems)
        self._label_of = {v: i for i, v in enumerate(elems)}
        if len(self._label_of) != order:
            raise AssertionError("subfield labelling not injective")
        self._inv_labels: dict[int, int] = {}

    def contains(self, a: int) -> bool:
        return a in self._label_of

    def label_of(self, a: int) -> int:
        return self._label_of[a]

    def from_label(self, lbl: int) -> int:
        return self.elements_by_label[lbl]

    def _op_table(self, name, fn):
        attr = f"_tab_{name}"
        if not hasattr(self, attr):
            Q = self.order
            t = np.empty((Q, Q), dtype=np.uint8)
            for i in range(Q):
                for j in range(Q):
                    t[i, j] = self.label_of(fn(self.from_label(i), self.from_label(j)))
            setattr(self, attr, t)
        return getattr(self, attr)

    def add_table(self) -> np.ndarray:
        return self._op_table("add", self.ctx.add)

    def mul_table(self) -> np.ndarray:
        return self._op_table("mul", self.ctx.mul)

    def sub_table(self) -> np.ndarray:
        return self._op_table("sub", self.ctx.sub)

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
    Plain Gaussian elimination; destroys nothing (rows are copied)."""
    ctx = sub.ctx
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = sub.inv_label(rows[rank][col])
        if inv != 1:
            rows[rank] = [sub.label_of(ctx.mul(sub.from_label(v), sub.from_label(inv)))
                          for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                c = rows[r][col]
                celem = sub.from_label(c)
                rows[r] = [sub.label_of(ctx.sub(sub.from_label(a),
                                                ctx.mul(celem, sub.from_label(b))))
                           for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
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

    def divmod(self, other: Poly) -> tuple[Poly, Poly]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        ctx = self.ctx
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly(ctx, ()), self
        quot = [0] * (dq + 1)
        linv = ctx.inv(other.coeffs[-1])
        for shift in range(dq, -1, -1):
            top = rem[shift + other.degree]
            if top:
                c = ctx.mul(top, linv)
                quot[shift] = c
                for i, b in enumerate(other.coeffs):
                    rem[shift + i] = ctx.sub(rem[shift + i], ctx.mul(c, b))
        while rem and rem[-1] == 0:
            rem.pop()
        return Poly(ctx, tuple(quot)), Poly(ctx, tuple(rem))

    def __call__(self, point: int) -> int:
        ctx, acc = self.ctx, 0
        for c in reversed(self.coeffs):
            acc = ctx.add(ctx.mul(acc, point), c)
        return acc


def minimal_polynomial(ctx: FieldCtx, a: int) -> Poly:
    """Monic minimal polynomial of a over the embedded F_q: the product of
    (X - c) over the distinct Frobenius conjugates c of a.  Coefficients are
    verified to lie in F_q."""
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
    return Poly(ctx, tuple(poly))


# ---------------------------------------------------------------------------
# context construction


_CTX_CACHE: dict[tuple, FieldCtx] = {}


def make_field(p: int, e: int, s: int, modulus_rank: int = 0) -> FieldCtx:
    """Build the canonical context for F_{(p^e)^s} over F_p.

    Deterministic: the modulus is the (modulus_rank+1)-th lexicographically
    smallest primitive polynomial of degree e*s over F_p and pi is the
    residue class of x.  Requires p prime, e >= 1, s >= 2 even.
    """
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if e < 1:
        raise ValueError("extension degree e must be >= 1")
    if s < 2 or s % 2:
        raise ValueError("s must be even and >= 2")
    if e * s > MAX_DEGREE:
        raise FieldSizeError(f"degree {e * s} exceeds the word budget {MAX_DEGREE}")
    key = (p, e, s, modulus_rank)
    if key not in _CTX_CACHE:
        modulus = find_primitive_modulus(p, e * s, modulus_rank)
        _CTX_CACHE[key] = FieldCtx(p, e, s, modulus, modulus_rank)
    return _CTX_CACHE[key]
