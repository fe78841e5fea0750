"""Admission: which oracle may run at (q, m, family), or why none may.

Every budget and size refusal is decided here from (q, m, family) alone,
by exact integer arithmetic, before any field, code or plan is built.
The module imports only the standard library, so the command line can
refuse a request, or reject its usage, without loading numpy or the
rest of the package.

Work is accounted in elementary operations: coordinate matches for the
brute oracle (forms x betas x n, or forms x n for family C, over all
q^(m^2) forms, which the orbit weights cover exactly) and s^3 per form
for the rank sweep.  One rule, _refusal, decides whether an oracle may
run: its estimate within the budget, brute D and E within the
linear-trace table's size bound, both oracles within the exp/log
tables', and q at most MAX_LABEL_Q, as F_q labels are bytes.
choose_oracle takes the first oracle the rule admits, brute before the
sweep, or refuses with the smaller estimate attached; engine.verify, the
command line and both oracles all ask this module.  The Hermitian
witness has its own work model, check_witness_budget.
"""

from __future__ import annotations

import os

TIER_BUDGETS = {"quick": 2**24, "standard": 2**32, "extended": 2**38}
DEFAULT_TABLE_BOUND = 2**26
# F_q labels are uint8, and an F_{q^2} label table holds at most 2^16 elements
MAX_LABEL_Q = 256
LINEAR_TRACE_BOUND = 4096  # linear_trace_rows holds size * n bytes
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
# work models and the admission rule


def brute_work(q: int, m: int, family: str) -> int:
    forms, size = q ** (m * m), q ** (2 * m)
    if family == "C":
        return forms * (size - 1)
    return forms * size * (size - 1)


def rank_sweep_work(q: int, m: int) -> int:
    return q ** (m * m) * (2 * m) ** 3


def _refusal(kind: str, q: int, m: int, family: str,
             budget: int) -> BudgetExceeded | None:
    """Why the oracle kind ("brute" or "rank_sweep") may not run at
    (q, m, family) under budget, or None when it may: q over the byte-label
    cap, the work model over the budget, brute D and E over the
    linear-trace table bound, or either oracle over the exp/log-table bound."""
    brute = kind == "brute"
    work = brute_work(q, m, family) if brute else rank_sweep_work(q, m)

    def refuse(error, needs):
        name = "brute enumeration" if brute else "rank sweep"
        return error(f"{name} needs {needs}", estimate=work, budget=budget)
    if q > MAX_LABEL_Q:
        return refuse(FieldSizeError, f"F_q labels that fit a byte; q = {q} exceeds {MAX_LABEL_Q}")
    if work > budget:
        return refuse(BudgetExceeded, f"~{work} elementary operations (budget {budget})")
    if brute and family != "C" and q ** (2 * m) > LINEAR_TRACE_BOUND:
        return refuse(FieldSizeError, f"the linear-trace table, refused above "
                                      f"{LINEAR_TRACE_BOUND} field elements")
    if q ** (2 * m) > DEFAULT_TABLE_BOUND:  # both plans read the exp/log tables
        return refuse(FieldSizeError, f"the exp/log tables, refused above "
                                      f"{DEFAULT_TABLE_BOUND} field elements")
    return None


def choose_oracle(q: int, m: int, family: str, tier: str, budget: int) -> str:
    """The strongest oracle the budget affords at (q, m, family): "brute"
    if the rule admits it, else "rank_sweep".  When neither is admitted,
    raises FieldSizeError if both refusals are size refusals, else
    BudgetExceeded, with the smaller estimate attached."""
    refusals = {kind: _refusal(kind, q, m, family, budget)
                for kind in ("brute", "rank_sweep")}
    kind = next((k for k, refusal in refusals.items() if refusal is None), None)
    if kind is None:
        size_only = all(isinstance(r, FieldSizeError) for r in refusals.values())
        raise (FieldSizeError if size_only else BudgetExceeded)(
            f"no oracle fits tier {tier!r}: " + "; ".join(map(str, refusals.values())),
            estimate=min(r.estimate for r in refusals.values()), budget=budget)
    return kind


def check_witness_budget(q: int, m: int, budget: int):
    """Refuse when the witness work exceeds the budget: the spectrum pairs
    each of the q^(m^2) characters, one per Hermitian matrix of order m,
    with each of the (q^(2m)-1)/(q+1) rank-1 matrices.  q above MAX_LABEL_Q
    is refused first, since the F_{q^2} label tables would not fit.  Needs
    (q, m) alone, so callers check before building a field."""
    matrices, rank1 = q ** (m * m), (q ** (2 * m) - 1) // (q + 1)
    if q > MAX_LABEL_Q:
        raise FieldSizeError(
            f"F_{{q^2}} label tables are capped at {MAX_LABEL_Q**2} elements; "
            f"q = {q} exceeds {MAX_LABEL_Q}", estimate=matrices * rank1, budget=budget)
    if matrices * rank1 > budget:
        raise BudgetExceeded(
            f"{matrices} Hermitian matrices x {rank1} rank-1 matrices exceed "
            f"the witness budget {budget}",
            estimate=matrices * rank1, budget=budget)


def default_workers() -> int:
    """Worker processes when none are asked for: the CPUs this process may
    run on, which can be fewer than the machine has."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
