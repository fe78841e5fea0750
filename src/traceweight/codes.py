"""The three cyclic code families C, D, E of length q^(2m) - 1 over F_q.

Family D has parity-check polynomial h(x), the product of the minimal
polynomials of pi^(-u) over F_q for u in the exponent set Gamma; family
E appends the factor (x - 1); family C drops the u = 1 factor.  Their
dimensions are m^2 + 2m, m^2 + 2m + 1 and m^2.

Codewords are generated from the trace representation: coordinate i is
a sum of relative traces of parameters times pi^(u*i), plus (family E)
a constant.  The parameter tuple layout is canonical and fixed per
family: (beta, [delta0,] lambda_1..lambda_t [, b]) where beta is absent
for C, delta0 is present only for odd m (and must lie in the embedded
F_{q^m}), and the constant b (in F_q) is present only for E.

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

    @property
    def t(self) -> int:
        return self.m // 2

    @property
    def has_beta(self) -> bool:
        return self.family in ("D", "E")

    @property
    def has_delta0(self) -> bool:
        return self.m % 2 == 1

    @property
    def has_b(self) -> bool:
        return self.family == "E"

    @property
    def parameter_slots(self) -> tuple[str, ...]:
        slots: tuple[str, ...] = ("beta",) if self.has_beta else ()
        if self.has_delta0:
            slots += ("delta0",)
        slots += tuple(f"lambda{j}" for j in range(1, self.t + 1))
        if self.has_b:
            slots += ("b",)
        return slots

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


@dataclass(frozen=True)
class Codeword:
    spec: CodeSpec
    params: tuple[int, ...]
    values: tuple[int, ...]


def check_params(spec: CodeSpec, params) -> tuple[int, ...]:
    params = tuple(params)
    if len(params) != len(spec.parameter_slots):
        raise ValueError(
            f"{spec.family} expects parameters {spec.parameter_slots}, "
            f"got {len(params)} values")
    ctx = spec.ctx
    for name, value in zip(spec.parameter_slots, params):
        if not 0 <= value < ctx.size:
            raise ValueError(f"{name} out of field range")
        if name == "delta0" and ctx.pow(value, ctx.q**ctx.m) != value:
            raise ValueError("delta0 is not in the embedded F_{q^m}")
        if name == "b" and ctx.frobenius_q(value) != value:
            raise ValueError("b is not in the embedded F_q")
    return params


def codeword(spec: CodeSpec, params) -> Codeword:
    """Evaluate the trace representation over the coordinate range.

    Coordinate i is Tr(beta pi^i) + Tr_{q^m/q}(delta0 pi^((q^m+1)i)) +
    sum_j Tr(lambda_j pi^((q^(2j-1)+1)i)), plus b for family E.
    """
    params = check_params(spec, params)
    ctx = spec.ctx
    n = spec.n
    slots = spec.parameter_slots
    values = dict(zip(slots, params))
    b = values.get("b", 0)
    exps = form_exponents(ctx.q, ctx.m)
    terms = []  # (coefficient, step multiplier, trace selector)
    if spec.has_beta and values["beta"]:
        terms.append((values["beta"], ctx.pi, "q"))
    names = (("delta0",) if spec.has_delta0 else ()) + tuple(
        f"lambda{j}" for j in range(1, spec.t + 1))
    for name, u in zip(names, exps):
        if values[name]:
            selector = "qm" if name == "delta0" else "q"
            terms.append((values[name], ctx.pow(ctx.pi, u), selector))
    out = []
    points = [1] * len(terms)
    for _ in range(n):
        acc = b
        for idx, (coeff, step, selector) in enumerate(terms):
            acc = ctx.add(acc, ctx.trace(ctx.mul(coeff, points[idx]), selector))
            points[idx] = ctx.mul(points[idx], step)
        out.append(acc)
    return Codeword(spec, params, tuple(out))


def weight(word: Codeword) -> int:
    """Number of nonzero coordinates."""
    return sum(1 for v in word.values if v)


def zero_params(spec: CodeSpec) -> tuple[int, ...]:
    return (0,) * len(spec.parameter_slots)


def annihilated_by(check: Poly, seq) -> bool:
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
