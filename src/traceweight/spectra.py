"""Closed-form side: eigenvalues, rank frequencies, and weight predictions.

The additive Cayley graph on rank-1 Hermitian matrices of order m over
F_{q^2} has eigenvalues xi_0 = (q^(2m)-1)/(q+1) and
xi_j = ((-q)^(2m-j)-1)/(q+1) with frequencies f_0 = 1 and

    f_j = gbinom(m, j; -q) * prod_{l=0}^{j-1} ((-1)^(m+1) q^m + (-1)^(l+1) q^l),

and f_j is also the number of quadratic-form parameter tuples of rank 2j.
The full weight distribution of each family follows by pushing the f_j
through the three exponential-sum value classes per rank; that assembly
lives in assemble_distribution so the closed-form predictor and the
measured rank sweep share one code path.

All arithmetic is exact: Fractions internally, arbitrary-precision ints
out.  The j = 0 row degenerates correctly through the Fractions (its
fractional intermediate counts cancel to 1 and 0).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .codes import ConsistencyError, expected_dimension


def gaussian_binomial(m: int, j: int, basis: int) -> int:
    """Gaussian binomial coefficient with the given basis (any integer
    except 1), exact and asserted integral."""
    if basis == 1:
        raise ValueError("Gaussian binomial undefined at basis 1")
    if not 0 <= j <= m:
        raise ValueError("need 0 <= j <= m")
    value = Fraction(1)
    for i in range(j):
        value *= Fraction(basis**m - basis**i, basis**j - basis**i)
    if value.denominator != 1:
        raise ConsistencyError(f"gbinom({m},{j};{basis}) not integral: {value}")
    return value.numerator


def frequencies(q: int, m: int) -> list[int]:
    """Rank frequencies f_0..f_m; checked to be positive with sum q^(m^2)."""
    out = [1]
    for j in range(1, m + 1):
        f = gaussian_binomial(m, j, -q)
        for l in range(j):
            f *= (-1) ** (m + 1) * q**m + (-1) ** (l + 1) * q**l
        out.append(f)
    if any(f <= 0 for f in out):
        raise ConsistencyError(f"nonpositive frequency in {out}")
    if sum(out) != q ** (m * m):
        raise ConsistencyError(f"frequencies sum {sum(out)} != q^(m^2)")
    return out


def eigenvalues(q: int, m: int) -> list[int]:
    """Spectrum values xi_0..xi_m of the rank-1 Cayley graph, exact."""
    out = []
    for j in range(m + 1):
        num = (q ** (2 * m) if j == 0 else (-q) ** (2 * m - j)) - 1
        if num % (q + 1):
            raise ConsistencyError(f"xi_{j} not integral")
        out.append(num // (q + 1))
    return out


@dataclass(frozen=True)
class WeightDistribution:
    """Exact weight -> count map with the code parameters attached."""

    q: int
    m: int
    family: str
    n: int
    k: int
    counts: dict[int, int] = field(compare=True)
    work_count: int | None = field(default=None, compare=False, repr=False)

    @property
    def d(self) -> int:
        """Minimum positive weight."""
        return min(w for w in self.counts if w > 0)

    def total(self) -> int:
        return sum(self.counts.values())

    def pairs(self) -> list[tuple[int, int]]:
        return sorted(self.counts.items())

    def __repr__(self):
        head = ", ".join(f"{w}:{c}" for w, c in self.pairs()[:4])
        more = "" if len(self.counts) <= 4 else ", ..."
        return (f"WeightDistribution({self.family}_({self.q},{self.m}) "
                f"[{self.n},{self.k},{self.d}] {{{head}{more}}})")


def minimum_distance(q: int, m: int, family: str) -> int:
    """Closed-form minimum distance of one family."""
    if family == "C":
        if m == 1:
            # the stated closed form is the j = 2 row, which only exists for
            # m >= 2; at m = 1 the single row sits at full weight
            return q * q - 1
        return q ** (2 * m - 3) * (q - 1) * (q * q - 1)
    if family == "D":
        return q ** (2 * m - 2) * (q * q - q - 1)
    if family == "E":
        return q ** (2 * m - 2) * (q * q - q - 1) - 1
    raise ValueError(f"unknown family {family!r}")


def _accumulate(counts: dict[int, Fraction], weight: int, count: Fraction):
    if count < 0:
        raise ConsistencyError(f"negative row count {count} at weight {weight}")
    if count:
        counts[weight] = counts.get(weight, Fraction(0)) + count


def assemble_distribution(q: int, m: int, family: str,
                          rank_counts: list[int]) -> WeightDistribution:
    """Turn a rank-2j multiplicity vector (index j = 0..m) into the full
    weight distribution of one family.

    Per rank-2j form the linear-shift sum S takes the values 0,
    eps(q-1)q^(s-j) and -eps q^(s-j) with known multiplicities in beta,
    where eps = (-1)^j; family C sees only beta = 0, and family E adds the
    same accounting at each nonzero constant shift.  Weights follow from
    w = q^s - q^(s-1) - S/q (minus a further 1 for shifted E codewords).
    """
    if len(rank_counts) != m + 1:
        raise ValueError("rank_counts must have one entry per j = 0..m")
    if family == "E" and (q, m) == (2, 1):
        raise ValueError("family E is undefined at (q, m) = (2, 1)")
    s = 2 * m
    N = q**s
    base = N - N // q
    counts: dict[int, Fraction] = {}
    for j, f_j in enumerate(rank_counts):
        if not f_j:
            continue
        f_j = Fraction(f_j)
        eps = (-1) ** j
        shift = eps * q ** (s - j - 1)
        if family == "C":
            _accumulate(counts, base - (q - 1) * shift, f_j)
            continue
        # family D rows (also the b = 0 half of family E)
        _accumulate(counts, base, f_j * (N - q ** (2 * j)))
        _accumulate(counts, base - (q - 1) * shift,
                    f_j * (Fraction(q ** (2 * j), q) + eps * (q - 1) * Fraction(q**j, q)))
        _accumulate(counts, base + shift,
                    f_j * (Fraction(q ** (2 * j), q) - eps * Fraction(q**j, q)) * (q - 1))
        if family == "E":
            # the q-1 nonzero shifts, each with the R-sum multiplicities
            _accumulate(counts, base - 1, f_j * (N - q ** (2 * j)) * (q - 1))
            _accumulate(counts, base - 1 - (q - 1) * shift,
                        f_j * (Fraction(q ** (2 * j), q) - eps * Fraction(q**j, q)) * (q - 1))
            _accumulate(counts, base - 1 + shift,
                        f_j * (q ** (2 * j) - Fraction(q ** (2 * j), q)
                               + eps * Fraction(q**j, q)) * (q - 1))
    final: dict[int, int] = {}
    for w, c in counts.items():
        if c.denominator != 1:
            raise ConsistencyError(f"non-integral count {c} at weight {w}")
        final[w] = c.numerator
    k = expected_dimension(family, m)
    dist = WeightDistribution(q, m, family, N - 1, k, final)
    if dist.total() != q**k:
        raise ConsistencyError(
            f"distribution total {dist.total()} != q^k = {q**k}")
    if final.get(0) != 1:
        raise ConsistencyError("weight-0 count is not exactly 1")
    if dist.d != minimum_distance(q, m, family):
        raise ConsistencyError(
            f"minimum weight {dist.d} != stated d {minimum_distance(q, m, family)}")
    return dist


def predict(q: int, m: int, family: str) -> WeightDistribution:
    """Closed-form weight distribution of one family, both parities of m."""
    return assemble_distribution(q, m, family, frequencies(q, m))
