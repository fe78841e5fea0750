"""The three cyclic code families C, D, E of length q^(2m) - 1 over F_q.

Family D has parity-check polynomial h(x), the product of the minimal
polynomials of pi^(-u) over F_q for u in the exponent set Gamma; family
E appends the factor (x - 1); family C drops the u = 1 factor.  Their
dimensions are m^2 + 2m, m^2 + 2m + 1 and m^2.  The roots take no pow:
pi^(-1) is read off the modulus, and every other u in Gamma is q^j + 1,
so pi^(-u) is pi^(-1) times its j-th Frobenius conjugate, an F_p-linear
map applied j times.

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
    """One concrete code: family, length n, dimension k and parity check."""

    family: str
    ctx: FieldCtx
    n: int
    k: int
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


def gamma_roots(ctx: FieldCtx) -> dict[int, int]:
    """pi^(-u) for every u in Gamma, in increasing u, without pow.  pi^(-1)
    is read off the modulus f: x (f_1 + f_2 x + ... + x^(D-1)) = -f_0.
    Every other u is q^j + 1, so pi^(-u) = pi^(-1) (pi^(-1))^(q^j), where
    the second factor is j applications of the F_p-linear Frobenius.
    Computed once per context and kept there, as the minimal polynomials
    are, so C, D and E share them; each call returns its own copy."""
    if ctx._gamma_roots is None:
        p, q, f = ctx.p, ctx.q, ctx.modulus
        scale = -pow(f[0], -1, p)
        inv_pi = sum(scale * c % p * p**i for i, c in enumerate(f[1:]))
        roots, conjugate, j = {1: inv_pi}, inv_pi, 0
        for u in sorted(build_gamma(q, ctx.m))[1:]:
            while q**j + 1 < u:
                conjugate, j = ctx.frobenius_q(conjugate), j + 1
            roots[u] = ctx.mul(inv_pi, conjugate)
        ctx._gamma_roots = roots
    return dict(ctx._gamma_roots)


def build_code(ctx: FieldCtx, family: str) -> CodeSpec:
    """Assemble the parity-check polynomial for one family over ctx and
    validate the dimension against the closed form.  The roots and the
    minimal polynomials come from the context's caches (gamma_roots,
    fields.minimal_polynomial), so the families built on one context share
    them; the coincidence, degree and vanishing checks run on every build."""
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")
    q, m, n = ctx.q, ctx.m, ctx.n
    if family == "E" and (q**m + 1) % n == 0:
        # q^m + 1 = 0 mod n happens only at (q, m) = (2, 1), where the
        # u = q^m + 1 factor of h is already (x - 1) and appending another
        # (x - 1) would leave x^n - 1.  The family is undefined there.
        raise ValueError(
            f"family E is undefined at (q, m) = ({q}, {m}): "
            "(x - 1) already divides the family-D parity check")
    minimal_polys = {}
    roots = gamma_roots(ctx)  # pi^(-u), a root of h_u and so of h
    if family == "C":
        del roots[1]
    for u, root in roots.items():
        minimal_polys[u] = minimal_polynomial(ctx, root)
    for u, h_u in minimal_polys.items():
        for v, h_v in minimal_polys.items():
            if u < v and h_u == h_v:
                raise ConsistencyError(f"h_{u} and h_{v} coincide")
    h, *rest = minimal_polys.values()  # C, D and E have one factor at least
    for h_u in rest:
        h = h * h_u
    if family == "E":
        h = h * Poly(ctx, (ctx.neg(1), 1))
    k = expected_dimension(family, m)
    if h.degree != k:
        raise ConsistencyError(
            f"parity-check degree {h.degree} != closed-form dimension {k}")
    for u, root in roots.items():
        if h(root) != 0:
            raise ConsistencyError(f"parity check does not vanish at pi^(-{u})")
    return CodeSpec(family, ctx, n, k, h)
