"""Workload definitions, input generation from the seed, and output checks.

Every workload is a fixed list of cases; the seed only shuffles their
order and picks the primitive modulus of each field that has enough of
them, so the work done is the same for every seed and every output must
be identical across seeds (weight distributions do not depend on the
modulus).  golden.json holds the expected distributions and witness
spectra, as traceweight's closed form gives them at the canonical modulus.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

WORKERS = 2
MODULUS_RANKS = 4          # the seed picks rank seed % 4 where a field has that many
EXPSUM_SIZES = ((2, 1, 2), (3, 1, 2), (2, 1, 3))   # (p, e, m) of criterion 3
# The grid and the exponential sums run as several processes spread through
# the pass: on a shared machine whose speed swings from second to second,
# samples taken at different times average out better than one contiguous
# sample.
GRID_CHUNKS = 4
EXPSUM_PROCESSES = 5
EXPSUM_FORMS = sum((p**e) ** (m * m) for p, e, m in EXPSUM_SIZES)
CONFIGS = Path(__file__).resolve().parent / "configs"
GOLDEN = json.loads((Path(__file__).resolve().parent / "golden.json").read_text())


@dataclass(frozen=True)
class Case:
    name: str
    kind: str                    # verify | refusal | witness | grid | expsum
    argv: tuple[str, ...] = ()   # traceweight CLI arguments, or probe arguments
    q: int = 0
    m: int = 0
    family: str = ""
    oracle: str = ""             # expected oracle_kind of a verify case
    nkd: tuple[int, int, int] = (0, 0, 0)

    @property
    def forms(self) -> int:
        return self.q ** (self.m * self.m)


# (family, q, m, tier, oracle_kind, (n, k, d), config file or None)
BRUTE = (
    ("D", 3, 2, "standard", "brute", (80, 8, 45), None),
    ("E", 4, 2, "standard", "brute", (255, 9, 175), None),
    ("C", 2, 4, "standard", "brute", (255, 16, 96), None),
    ("D", 2, 4, "standard", "brute", (255, 24, 64), None),
    ("E", 2, 4, "standard", "brute", (255, 25, 63), None),
    ("C", 4, 3, "standard", "brute", (4095, 9, 2880), None),
    ("E", 3, 3, "extended", "brute", (728, 16, 404), None),
)
SWEEP = (
    ("D", 3, 3, "quick", "rank_sweep", (728, 15, 405), None),
    ("D", 2, 4, "quick", "rank_sweep", (255, 24, 64), "d24-sweep.cfg"),
    ("D", 4, 2, "quick", "rank_sweep", (255, 8, 176), "d42-sweep.cfg"),
)
# (family, q, m, tier, repeats): requests no oracle fits, so verify exits 3.
# brute and sweep repeat one cheap request, spread through the pass, so that
# refusal_s averages over enough of the pass to be steady.
REFUSALS = {
    "brute": (("D", 2, 5, "standard", 8),),
    "sweep": (("D", 3, 4, "quick", 8),),
    "setup": (("C", 2, 12, "quick", 1), ("D", 2, 16, "quick", 1),
              ("C", 2, 20, "quick", 1)),
}
WITNESSES = ((2, 3), (4, 2))
# The 1-worker baseline behind engine.speedup_2w, one case per engine path.
SPEEDUP_CASE = {"brute": ("D", 2, 4), "sweep": ("D", 2, 4)}


def split_prime_power(q: int) -> tuple[int, int] | None:
    """(p, e) with q = p^e, or None when q is not a prime power."""
    p = next(d for d in range(2, q + 1) if q % d == 0)
    e = 0
    while q % p == 0:
        q //= p
        e += 1
    return (p, e) if q == 1 else None


def primitive_modulus_count(p: int, d: int) -> int:
    """phi(p^d - 1) / d, the number of primitive polynomials of degree d."""
    n = phi = p**d - 1
    f = 2
    while f * f <= n:
        if n % f == 0:
            phi -= phi // f
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        phi -= phi // n
    return phi // d


def modulus_rank_for(seed: int, p: int, degree: int) -> int:
    rank = seed % MODULUS_RANKS
    return rank if primitive_modulus_count(p, degree) > rank else 0


def prime_powers_up_to(bound: int) -> list[int]:
    return [q for q in range(2, bound + 1) if split_prime_power(q)]


def grid_pairs() -> list[tuple[int, int]]:
    """Criterion 5: every (q, m) with q a prime power and q^(2m) <= 2^20."""
    return [(q, m) for m in range(1, 11) for q in prime_powers_up_to(1 << 10)
            if q ** (2 * m) <= 1 << 20]


def grid_chunk(index: int) -> list[tuple[int, int]]:
    """One of GRID_CHUNKS parts of the grid, dealt out largest field first
    so that the parts cost about the same."""
    pairs = sorted(grid_pairs(), key=lambda qm: qm[0] ** (2 * qm[1]), reverse=True)
    return pairs[index::GRID_CHUNKS]


def _verify_case(family, q, m, tier, oracle, nkd, config, seed, workers=WORKERS):
    p, e = split_prime_power(q)
    rank = modulus_rank_for(seed, p, 2 * e * m)
    argv = ["verify", "--family", family, "--q", str(q), "--m", str(m),
            "--tier", tier, "--workers", str(workers), "--modulus-rank", str(rank)]
    if config:
        argv += ["--config", str(CONFIGS / config)]
    return Case(f"verify {family}({q},{m}) {oracle} w{workers}", "verify", tuple(argv),
                q, m, family, oracle, nkd)


def cases_for(workload: str, seed: int) -> list[Case]:
    """The cases of one pass, in the order the seed gives them."""
    cases = []
    if workload in ("brute", "sweep"):
        rows = BRUTE if workload == "brute" else SWEEP
        cases += [_verify_case(*row, seed) for row in rows]
    else:
        cases += [Case(f"grid part {i} make_field+build_code+predict", "grid",
                       ("grid", str(seed), str(i))) for i in range(GRID_CHUNKS)]
        cases += [Case("expsum criterion 3", "expsum", ("expsum", str(seed)))
                  for _ in range(EXPSUM_PROCESSES)]
        cases += [Case(f"witness ({q},{m})", "witness",
                       ("witness", "--q", str(q), "--m", str(m)), q, m)
                  for q, m in WITNESSES]
    for family, q, m, tier, repeats in REFUSALS[workload]:
        argv = ("verify", "--family", family, "--q", str(q), "--m", str(m),
                "--tier", tier, "--workers", str(WORKERS))
        cases += [Case(f"refusal {family}({q},{m}) {tier}", "refusal", argv, q, m, family)
                  for _ in range(repeats)]
    random.Random(seed).shuffle(cases)
    return cases


def speedup_cases(workload: str, seed: int) -> list[Case]:
    """The same case at 1 and at 2 workers; empty where the engine is idle."""
    if workload not in SPEEDUP_CASE:
        return []
    rows = BRUTE if workload == "brute" else SWEEP
    row = next(r for r in rows if (r[0], r[1], r[2]) == SPEEDUP_CASE[workload])
    return [_verify_case(*row, seed, workers=w) for w in (1, WORKERS)]


# ---------------------------------------------------------------------------
# output checks: each returns None when the output is right, else a reason


def check_verify(case: Case, rc: int, doc: dict) -> str | None:
    if rc != 0:
        return f"exit {rc}, expected 0"
    if doc.get("equal") is not True:
        return f"oracle disagrees with prediction at weight {doc.get('first_diff')}"
    if doc.get("oracle_kind") != case.oracle:
        return f"oracle {doc.get('oracle_kind')!r}, expected {case.oracle!r}"
    oracle = doc["oracle"]
    if (oracle["n"], oracle["k"], oracle["d"]) != case.nkd:
        return f"(n, k, d) = {(oracle['n'], oracle['k'], oracle['d'])}, expected {case.nkd}"
    key = f"{case.family}({case.q},{case.m})"
    if oracle["distribution"] != GOLDEN["verify"][key]:
        return f"distribution differs from the golden {key}"
    if not isinstance(doc.get("runtime_seconds"), (int, float)):
        return "no runtime_seconds in the report"
    return None


def check_refusal(case: Case, rc: int, doc: dict) -> str | None:
    if rc != 3:
        return f"exit {rc}, expected 3"
    if doc.get("refused") is not True or not isinstance(doc.get("work_estimate"), int):
        return "refusal report lacks refused/work_estimate"
    return None


def check_witness(case: Case, rc: int, doc: dict) -> str | None:
    q, m = case.q, case.m
    if rc != 0:
        return f"exit {rc}, expected 0"
    if doc.get("isomorphism_ok") is not True:
        return "isomorphism check failed"
    if doc.get("hermitian_count") != q ** (m * m):
        return f"hermitian_count {doc.get('hermitian_count')}"
    if doc.get("rank1_count") != (q ** (2 * m) - 1) // (q + 1):
        return f"rank1_count {doc.get('rank1_count')}"
    expected = sorted(map(tuple, GOLDEN["witness"][f"({q},{m})"]))
    if sorted(map(tuple, doc.get("spectrum", []))) != expected:
        return "spectrum differs from eigenvalues/frequencies"
    return None


def check_probe(case: Case, rc: int, doc: dict) -> str | None:
    if rc != 0:
        return f"exit {rc}, expected 0"
    errors = doc.get("errors")
    if errors:
        return "; ".join(errors[:3])
    if case.kind == "grid" and doc.get("pairs") != len(grid_chunk(int(case.argv[2]))):
        return f"grid part has {doc.get('pairs')} pairs"
    if case.kind == "expsum" and doc.get("forms") != EXPSUM_FORMS:
        return f"{doc.get('forms')} forms evaluated"
    return None


CHECKS = {"verify": check_verify, "refusal": check_refusal,
          "witness": check_witness, "grid": check_probe, "expsum": check_probe}


# ---------------------------------------------------------------------------
# the rank-driven rows of criterion 3 (the paper's three-valued sums)


def _rows(entries) -> dict[int, int]:
    rows: dict[int, int] = {}
    for value, count in entries:
        if count:
            rows[value] = rows.get(value, 0) + count
    return rows


def shift_sum_rows(q: int, s: int, r: int, eps: int) -> dict[int, int]:
    """Value -> count over beta of S(beta) for a rank-r form of sign eps."""
    h = r // 2
    return _rows([
        (0, q**s - q**r),
        (eps * (q - 1) * q ** (s - h), int(Fraction(q**r, q) + eps * (q - 1) * Fraction(q**h, q))),
        (-eps * q ** (s - h), int((Fraction(q**r, q) - eps * Fraction(q**h, q)) * (q - 1))),
    ])


def offset_sum_rows(q: int, s: int, r: int, eps: int) -> dict[int, int]:
    """Value -> count over beta of R_b(beta), b nonzero."""
    h = r // 2
    return _rows([
        (0, q**s - q**r),
        (eps * (q - 1) * q ** (s - h), int(Fraction(q**r, q) - eps * Fraction(q**h, q))),
        (-eps * q ** (s - h), int(q**r - Fraction(q**r, q) + eps * Fraction(q**h, q))),
    ])
