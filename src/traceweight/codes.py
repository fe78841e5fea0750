"""The three cyclic code families C, D, E of length q^(2m) - 1 over F_q.

Family D has parity-check polynomial h(x), the product of the minimal
polynomials of pi^(-u) over F_q for u in the exponent set Gamma; family
E appends the factor (x - 1); family C drops the u = 1 factor.  Their
dimensions are m^2 + 2m, m^2 + 2m + 1 and m^2.

Codewords have a trace representation: coordinate i is a sum of
relative traces of parameters times pi^(u*i), plus (family E) a
constant.  The parameters are (beta, [delta0,] lambda_1..lambda_t [, b])
where beta is absent for C, delta0 is present only for odd m (and must
lie in the embedded F_{q^m}), and the constant b (in F_q) is present
only for E.  The oracles never build a codeword; the tests' literal
generator evaluates this representation coordinate by coordinate.

Coordinate order is i = 0..n-1 under the canonical pi.  Weight
distributions are invariant under that choice; raw coordinate values
are not, so tests compare distributions across field constructions,
never coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import FieldCtx, Poly, minimal_polynomial

FAMILIES = ("C", "D", "E")


class ConsistencyError(AssertionError):
    """An internal cross-check failed (wrong dimension, sum, or sign)."""


def build_gamma(q: int, m: int) -> set[int]:
    """Exponent set: {1} u {q^(2i-1)+1 : 1 <= i <= floor(m/2)}, plus q^m + 1
    when m is odd."""
    if m < 1:
        raise ValueError("m must be >= 1")
    t = m // 2
    gamma = {1} | {q ** (2 * i - 1) + 1 for i in range(1, t + 1)}
    if m % 2:
        gamma.add(q**m + 1)
    return gamma


def form_exponents(q: int, m: int) -> tuple[int, ...]:
    """Exponents of the quadratic-form parameter slots, delta0 slot first
    for odd m: the Gamma set minus the linear exponent 1."""
    t = m // 2
    head = (q**m + 1,) if m % 2 else ()
    return head + tuple(q ** (2 * i - 1) + 1 for i in range(1, t + 1))


@dataclass(frozen=True)
class CodeSpec:
    """One concrete code: family, parameters, parity check, parameter layout."""

    family: str
    ctx: FieldCtx
    n: int
    k: int
    gamma: tuple[int, ...]
    parity_check: Poly

    @property
    def q(self) -> int:
        return self.ctx.q

    @property
    def m(self) -> int:
        return self.ctx.m

    def __repr__(self):
        return (f"CodeSpec({self.family}_({self.q},{self.m}), "
                f"[{self.n},{self.k}])")


def expected_dimension(family: str, m: int) -> int:
    if family == "C":
        return m * m
    if family == "D":
        return m * m + 2 * m
    if family == "E":
        return m * m + 2 * m + 1
    raise ValueError(f"unknown family {family!r}")


def build_code(ctx: FieldCtx, family: str) -> CodeSpec:
    """Assemble the parity-check polynomial for one family over ctx and
    validate the dimension against the closed form."""
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")
    q, m, n = ctx.q, ctx.m, ctx.n
    gamma = sorted(build_gamma(q, m))
    if family == "E" and (q**m + 1) % n == 0:
        # q^m + 1 = 0 mod n happens only at (q, m) = (2, 1), where the
        # u = q^m + 1 factor of h is already (x - 1) and appending another
        # (x - 1) would leave x^n - 1.  The family is undefined there.
        raise ValueError(
            f"family E is undefined at (q, m) = ({q}, {m}): "
            "(x - 1) already divides the family-D parity check")
    factors = []
    minimal_polys = {}
    roots = {}  # pi^(-u), a root of h_u and so of h
    for u in gamma:
        if family == "C" and u == 1:
            continue
        roots[u] = ctx.pow(ctx.pi, (-u) % n)
        h_u = minimal_polynomial(ctx, roots[u])
        minimal_polys[u] = h_u
        factors.append(h_u)
    for u, h_u in minimal_polys.items():
        for v, h_v in minimal_polys.items():
            if u < v and h_u == h_v:
                raise ConsistencyError(f"h_{u} and h_{v} coincide")
    h = Poly(ctx, (1,))
    for f in factors:
        h = h * f
    if family == "E":
        h = h * Poly(ctx, (ctx.neg(1), 1))
    k = expected_dimension(family, m)
    if h.degree != k:
        raise ConsistencyError(
            f"parity-check degree {h.degree} != closed-form dimension {k}")
    for u, root in roots.items():
        if h(root) != 0:
            raise ConsistencyError(f"parity check does not vanish at pi^(-{u})")
    return CodeSpec(family, ctx, n, k, tuple(gamma), h)
