"""Admission: which oracle may run at (q, m, family), or why none may.

Every budget and size refusal is decided here from (q, m, family) alone,
before any field, code or plan is built, and decided exactly: a work
model is compared with the budget by log2 first, and formed as an exact
int only where the bit lengths tie or it has at most about 1,000
decimal digits, so a refusal at large m costs no exact q^(m^2).
The module imports only the standard library, so the command line can
refuse a request, or reject its usage, without loading numpy or the
rest of the package.

Work is accounted in elementary operations: coordinate matches for the
brute oracle (forms x betas x n, or forms x n for family C, over all
q^(m^2) forms, which the orbit weights cover exactly) and s^3 per form
for the rank sweep.  One rule, _refusal, decides whether an oracle may
run: its estimate within the budget, brute D and E within the
linear-trace table's size bound, q at most MAX_LABEL_Q, as F_q labels
are bytes, and the field within the one field-size rule, which the
witness and every field constructor apply too: field_size_refusal, at
most DEFAULT_TABLE_BOUND = 2^26 elements, which the exp/log tables fit.
choose_oracle takes the first oracle the rule admits, brute before the
sweep, or refuses with the smaller estimate attached; engine.verify, the
command line and both oracles all ask this module.  The Hermitian
witness has its own work model, check_witness_budget.
"""

from __future__ import annotations

import functools
import math
import os

TIER_BUDGETS = {"quick": 2**24, "standard": 2**32, "extended": 2**38}
DEFAULT_TABLE_BOUND = 2**26
# F_q labels are uint8, and an F_{q^2} label table holds at most 2^16 elements
MAX_LABEL_Q = 256
LINEAR_TRACE_BOUND = 4096  # the linear-trace planes hold size * n bits a plane
DEFAULT_WITNESS_BOUND = 2**20


class BudgetExceeded(RuntimeError):
    """An operation would exceed its work or size budget.  Carries the
    a-priori estimate so callers can report how far over budget it was."""

    def __init__(self, message: str, estimate: int | None = None,
                 budget: int | None = None):
        super().__init__(message)
        self.estimate = estimate
        self.budget = budget


class FieldSizeError(BudgetExceeded):
    """Raised when an operation would exceed the configured size budget."""


class ModulusRankError(ValueError):
    """The requested primitive modulus rank is not below the number of
    primitive polynomials of that degree."""


# ---------------------------------------------------------------------------
# integer helpers


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond any field size used here."""
    if n < 2:
        return False
    for sp in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % sp == 0:
            return n == sp
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _integer_root(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1, by Newton's method on exact integers."""
    x = 1 << -(-n.bit_length() // k)  # 2^ceil(bits/k) > n^(1/k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def factorize(n: int) -> dict[int, int]:
    """Prime factorization as {prime: exponent}, by trial division: at most
    2^13 steps for the p^d - 1 < 2^26 of every admitted field."""
    factors, f = {}, 2
    while f * f <= n:
        while n % f == 0:
            factors[f] = factors.get(f, 0) + 1
            n //= f
        f += 1
    if n > 1:  # a prime above every factor found
        factors[n] = 1
    return factors


def check_modulus_rank(p: int, degree: int, rank: int) -> dict[int, int]:
    """ModulusRankError unless rank is below phi(p^degree - 1)/degree, the
    number of primitive polynomials of the degree over F_p; else the
    factorization of p^degree - 1, which the modulus search reuses."""
    factors = factorize(p**degree - 1)
    count = math.prod((r - 1) * r ** (k - 1) for r, k in factors.items()) // degree
    if rank >= count:
        raise ModulusRankError(
            f"modulus rank {rank} is out of range: there are {count} primitive "
            f"polynomials of degree {degree} over F_{p}")
    return factors


def split_prime_power(q: int) -> tuple[int, int]:
    """q = p^e with p prime, or ValueError.  Tries each exponent e up to
    log2 q through an exact integer e-th root, so no factor search runs."""
    if q >= 2 and is_prime(q):
        return q, 1
    for e in range(2, q.bit_length() if q > 1 else 0):
        p = _integer_root(q, e)
        if p**e == q and is_prime(p):
            return p, e
    raise ValueError(f"{q} is not a prime power")


# ---------------------------------------------------------------------------
# the field-size rule, the work models and the admission rule


def field_size_refusal(size: int, what: str, estimate: int | None = None,
                       budget: int | None = None) -> FieldSizeError | None:
    """The one field-size rule: the FieldSizeError refusing what needs more than
    DEFAULT_TABLE_BOUND field elements, the exp/log tables' bound, else None."""
    if size <= DEFAULT_TABLE_BOUND:
        return None
    return FieldSizeError(f"{what} needs the exp/log tables, refused above "
                          f"{DEFAULT_TABLE_BOUND} field elements",
                          estimate=estimate, budget=budget)


def brute_work(q: int, m: int, family: str) -> int:
    forms, size = q ** (m * m), q ** (2 * m)
    if family == "C":
        return forms * (size - 1)
    return forms * size * (size - 1)


def rank_sweep_work(q: int, m: int) -> int:
    return q ** (m * m) * (2 * m) ** 3


# An estimate is formed as an exact int up to about 1,000 decimal digits
# (log2 at most ESTIMATE_LOG2_BOUND).  Above that it is known by its log2
# alone, as forming q^(m^2) and printing it take time that grows faster
# than m^2: the refusal's message shows ~2^x and its estimate is None.
ESTIMATE_LOG2_BOUND = 1000 * math.log2(10)


def _estimate(log2: float, exact) -> int | None:
    """exact(), the int of about 2^log2, where it has at most about 1,000
    decimal digits, else None."""
    return exact() if log2 <= ESTIMATE_LOG2_BOUND else None


def _exceeds(log2: float, estimate: int | None, exact, budget: int) -> bool:
    """Whether the work exceeds the budget.  log2 is the work's own log2 or
    at most a bit above it, and estimate the exact work where formed.
    Unformed work is compared by bit lengths, and formed by exact() only
    where they lie within two bits of each other."""
    if estimate is None and abs(log2 - budget.bit_length()) > 2:
        return log2 > budget.bit_length()
    return (exact() if estimate is None else estimate) > budget


def _shown(value: int | None, log2: float | None = None) -> str:
    """The value in decimal, or ~2^log2 where it was not formed or has
    more than about 1,000 digits (a budget may)."""
    if value is not None and value.bit_length() <= ESTIMATE_LOG2_BOUND:
        return str(value)
    return f"~2^{math.log2(value) if log2 is None else log2:.1f}"


def _field_size(q: int, m: int) -> int:
    """q^(2m), or a stand-in over DEFAULT_TABLE_BOUND where 2m exceeds its
    bit length: the field, at least 2^(2m), then exceeds every size bound,
    and no q^(2m) of a large m is formed."""
    return q ** min(2 * m, DEFAULT_TABLE_BOUND.bit_length())


def _refusal(kind: str, q: int, m: int, family: str,
             budget: int) -> BudgetExceeded | None:
    """Why the oracle kind ("brute" or "rank_sweep") may not run at
    (q, m, family) under budget, or None when it may: q over the byte-label
    cap, the work model over the budget, brute D and E over the
    linear-trace table bound, or either oracle over the exp/log-table bound.
    The work is compared by its log2 first (_exceeds), so no exact power
    of a large m is formed."""
    brute = kind == "brute"
    name = "brute enumeration" if brute else "rank sweep"
    if brute:
        # forms x (size - 1), times size for D and E
        log2 = (m * m + 2 * m * (1 if family == "C" else 2)) * math.log2(q)
        exact = functools.partial(brute_work, q, m, family)
    else:
        log2 = m * m * math.log2(q) + 3 * math.log2(2 * m)
        exact = functools.partial(rank_sweep_work, q, m)
    work = _estimate(log2, exact)

    def refuse(error, needs):
        return error(f"{name} needs {needs}", estimate=work, budget=budget)
    if q > MAX_LABEL_Q:
        return refuse(FieldSizeError, f"F_q labels that fit a byte; q = {q} exceeds {MAX_LABEL_Q}")
    if _exceeds(log2, work, exact, budget):
        return refuse(BudgetExceeded,
                      f"{_shown(work, log2)} elementary operations "
                      f"(budget {_shown(budget)})")
    size = _field_size(q, m)
    if brute and family != "C" and size > LINEAR_TRACE_BOUND:
        return refuse(FieldSizeError, f"the linear-trace table, refused above "
                                      f"{LINEAR_TRACE_BOUND} field elements")
    return field_size_refusal(size, name, work, budget)


def choose_oracle(q: int, m: int, family: str, tier: str, budget: int) -> str:
    """The strongest oracle the budget affords at (q, m, family): "brute"
    if the rule admits it, else "rank_sweep".  When neither is admitted,
    raises FieldSizeError if both refusals are size refusals, else
    BudgetExceeded, with the smaller estimate attached (None where
    neither was formed)."""
    refusals = {kind: _refusal(kind, q, m, family, budget)
                for kind in ("brute", "rank_sweep")}
    kind = next((k for k, refusal in refusals.items() if refusal is None), None)
    if kind is None:
        size_only = all(isinstance(r, FieldSizeError) for r in refusals.values())
        formed = [r.estimate for r in refusals.values() if r.estimate is not None]
        raise (FieldSizeError if size_only else BudgetExceeded)(
            f"no oracle fits tier {tier!r}: " + "; ".join(map(str, refusals.values())),
            estimate=min(formed, default=None), budget=budget)
    return kind


def check_witness_budget(q: int, m: int, budget: int):
    """Refuse when the witness work exceeds the budget: the spectrum pairs
    each of the q^(m^2) characters, one per Hermitian matrix of order m,
    with each of the (q^(2m)-1)/(q+1) rank-1 matrices.  q above MAX_LABEL_Q
    is refused first, as the F_{q^2} label tables would not fit, a field
    over the size bound last.  Needs (q, m) alone, so callers check first;
    the work is compared by its log2 first, as _refusal compares it."""
    matrices_log2 = m * m * math.log2(q)
    rank1_log2 = 2 * m * math.log2(q) - math.log2(q + 1)
    log2 = matrices_log2 + rank1_log2

    def exact():
        return q ** (m * m) * ((q ** (2 * m) - 1) // (q + 1))
    work = _estimate(log2, exact)
    if q > MAX_LABEL_Q:
        raise FieldSizeError(
            f"F_{{q^2}} label tables are capped at {MAX_LABEL_Q**2} elements; "
            f"q = {q} exceeds {MAX_LABEL_Q}", estimate=work, budget=budget)
    if _exceeds(log2, work, exact, budget):
        matrices = _estimate(matrices_log2, lambda: q ** (m * m))
        rank1 = _estimate(rank1_log2, lambda: (q ** (2 * m) - 1) // (q + 1))
        raise BudgetExceeded(
            f"{_shown(matrices, matrices_log2)} Hermitian matrices x "
            f"{_shown(rank1, rank1_log2)} rank-1 matrices exceed the witness "
            f"budget {_shown(budget)}", estimate=work, budget=budget)
    if refusal := field_size_refusal(_field_size(q, m), "the witness", work, budget):
        raise refusal


def default_workers() -> int:
    """Worker processes when none are asked for: the CPUs this process may
    run on, which can be fewer than the machine has."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
