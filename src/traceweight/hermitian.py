"""Independent desk-scale witness: Hermitian matrices and their Cayley graph.

Hermitian means H equal to its conjugate transpose under the conjugation
x -> x^q of F_{q^2}, forcing diagonal entries into F_q; there are
q^(m^2) such matrices of order m and (q^(2m)-1)/(q+1) of rank 1.  The
Cayley graph on the additive group with the rank-1 matrices as
connection set has the spectrum predicted in spectra.py, and its
connection set maps onto the power tuples {(x^(q^(2i-1)+1))_i} under an
explicit additive bijection.  Everything here is enumerated outright
and checked exactly, which is the point: none of it trusts the
closed-form side.

Enumeration order is fixed: a matrix index's digits select first the m
diagonal labels (base q), then the upper-triangle labels (base q^2) in
row-major (i, j) order with i < j; label order is the subfields' own.
Characters of the additive group are indexed by the same enumeration
through the pairing chi_A(H) = w_p^(Tr_{q/p}(trace(A H))); the matrix
trace of a product of two Hermitian matrices always lies in F_q, and
tracing from there keeps the pairing nondegenerate for even q too
(checked explicitly by character_table_rows_distinct).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .codes import ConsistencyError
from .fields import (MAX_LABEL_Q, BudgetExceeded, FieldCtx, FieldSizeError,
                     label_matrix_rank)
from .quadforms import integral_character_sum

DEFAULT_WITNESS_BOUND = 2**20

Matrix = tuple[tuple[int, ...], ...]


def check_witness_budget(q: int, m: int, budget: int):
    """Refuse when the witness work exceeds the budget: the spectrum pairs
    each of the q^(m^2) Hermitian matrices of order m with each of the
    (q^(2m)-1)/(q+1) rank-1 ones.  q above MAX_LABEL_Q is refused first,
    since the F_{q^2} label tables would not fit.  Needs (q, m) alone, so
    callers check before building a field."""
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


def hermitian_at(ctx: FieldCtx, index: int) -> Matrix:
    """The index-th Hermitian matrix of order m in the canonical order."""
    m, q = ctx.m, ctx.q
    fq, fq2 = ctx.subfield(q), ctx.subfield(q * q)
    rows = [[0] * m for _ in range(m)]
    for i in range(m):
        rows[i][i] = fq.from_label(index % q)
        index //= q
    for i in range(m):
        for j in range(i + 1, m):
            entry = fq2.from_label(index % (q * q))
            index //= q * q
            rows[i][j] = entry
            rows[j][i] = ctx.frobenius_q(entry)
    return tuple(tuple(r) for r in rows)


def enumerate_hermitian(ctx: FieldCtx, budget: int = DEFAULT_WITNESS_BOUND):
    """All q^(m^2) Hermitian matrices, in deterministic index order."""
    check_witness_budget(ctx.q, ctx.m, budget)
    for index in range(ctx.q ** (ctx.m * ctx.m)):
        yield hermitian_at(ctx, index)


def matrix_rank(ctx: FieldCtx, h: Matrix) -> int:
    fq2 = ctx.subfield(ctx.q * ctx.q)
    return label_matrix_rank(fq2, [[fq2.label_of(v) for v in row] for row in h])


def rank1_matrices(ctx: FieldCtx, budget: int = DEFAULT_WITNESS_BOUND) -> list[Matrix]:
    return [h for h in enumerate_hermitian(ctx, budget) if matrix_rank(ctx, h) == 1]


def rank1_count(ctx: FieldCtx, budget: int = DEFAULT_WITNESS_BOUND) -> int:
    """Number of rank-1 Hermitian matrices; checked against the closed
    form (q^(2m)-1)/(q+1)."""
    count = len(rank1_matrices(ctx, budget))
    expected = (ctx.q ** (2 * ctx.m) - 1) // (ctx.q + 1)
    if count != expected:
        raise ConsistencyError(f"rank-1 count {count} != {expected}")
    return count


def _matrix_trace_residue(ctx: FieldCtx, a: Matrix, h: Matrix) -> int:
    """Absolute-trace residue of the matrix trace of A*H.

    For Hermitian A and H the matrix trace lands in F_q, so the pairing
    traces from F_q down to F_p.  (Tracing from F_{q^2} instead would
    factor through y + y^q = 2y on F_q and die for even q.)
    """
    m = ctx.m
    acc = 0
    for i in range(m):
        for k in range(m):
            acc = ctx.add(acc, ctx.mul(a[i][k], h[k][i]))
    return ctx.trace_q_to_p(acc)


def cayley_spectrum(ctx: FieldCtx, budget: int = DEFAULT_WITNESS_BOUND) -> dict[int, int]:
    """Exact eigenvalue -> multiplicity multiset of the rank-1 Cayley graph,
    one character sum per dual Hermitian matrix."""
    check_witness_budget(ctx.q, ctx.m, budget)
    kset = rank1_matrices(ctx, budget)
    spectrum: dict[int, int] = {}
    for index in range(ctx.q ** (ctx.m * ctx.m)):
        a = hermitian_at(ctx, index)
        counts = [0] * ctx.p
        for h in kset:
            counts[_matrix_trace_residue(ctx, a, h)] += 1
        eig = integral_character_sum(counts, ctx.p)
        spectrum[eig] = spectrum.get(eig, 0) + 1
    return spectrum


def character_table_rows_distinct(ctx: FieldCtx, budget: int = DEFAULT_WITNESS_BOUND) -> bool:
    """Nondegeneracy of the chosen pairing: all character rows differ."""
    check_witness_budget(ctx.q, ctx.m, budget)
    count = ctx.q ** (ctx.m * ctx.m)
    rows = set()
    for index in range(count):
        a = hermitian_at(ctx, index)
        rows.add(tuple(_matrix_trace_residue(ctx, a, hermitian_at(ctx, j))
                       for j in range(count)))
    return len(rows) == count


@dataclass
class IsomorphismReport:
    additive_ok: bool
    injective_ok: bool
    image_matches_connection_set: bool
    connection_set_size: int
    expected_size: int
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (self.additive_ok and self.injective_ok
                and self.image_matches_connection_set
                and self.connection_set_size == self.expected_size)


def _embedding_image(ctx: FieldCtx, alpha: list[int], powers: list[int],
                     h: Matrix) -> tuple[int, ...]:
    m = ctx.m
    out = []
    for c in powers:
        alpha_c = [ctx.pow(a, c) for a in alpha]
        acc = 0
        for j in range(m):
            if all(v == 0 for v in h[j]):
                continue
            for k in range(m):
                if h[j][k]:
                    acc = ctx.add(acc, ctx.mul(ctx.mul(alpha_c[j], h[j][k]), alpha[k]))
        out.append(acc)
    return tuple(out)


def verify_isomorphism(ctx: FieldCtx, budget: int = DEFAULT_WITNESS_BOUND) -> IsomorphismReport:
    """Check the explicit additive embedding of the Hermitian matrices onto
    the power-tuple group, coordinate per exponent q^(2i-1) (odd m: with a
    leading q^m coordinate landing in F_{q^m}).

    (a) additivity, proven by expanding every matrix over an F_p-basis,
    (b) the rank-1 matrices map exactly onto the connection set
        {(x^(q^m+1),) x^(q+1), x^(q^3+1), ...},
    (c) that set has (q^(2m)-1)/(q+1) elements.
    """
    check_witness_budget(ctx.q, ctx.m, budget)
    q, m, t = ctx.q, ctx.m, ctx.m // 2
    notes: list[str] = []
    alpha = [ctx.pow(ctx.pi, i) for i in range(m)]  # basis of F_{q^s} over F_{q^2}
    powers = ([q**m] if m % 2 else []) + [q ** (2 * i - 1) for i in range(1, t + 1)]
    f = lambda h: _embedding_image(ctx, alpha, powers, h)

    count = q ** (m * m)
    fq, fq2 = ctx.subfield(q), ctx.subfield(q * q)
    # F_p-basis of the Hermitian group, mirroring the enumeration layout
    basis_matrices: list[Matrix] = []
    for i in range(m):
        for be in fq.basis:
            rows = [[0] * m for _ in range(m)]
            rows[i][i] = be
            basis_matrices.append(tuple(tuple(r) for r in rows))
    for i in range(m):
        for j in range(i + 1, m):
            for be in fq2.basis:
                rows = [[0] * m for _ in range(m)]
                rows[i][j] = be
                rows[j][i] = ctx.frobenius_q(be)
                basis_matrices.append(tuple(tuple(r) for r in rows))
    basis_images = [f(bm) for bm in basis_matrices]

    additive_ok = True
    images = []
    for index in range(count):
        h = hermitian_at(ctx, index)
        img = f(h)
        images.append(img)
        # additivity, completely: the index digits are the F_p coordinates
        # of h, so f(h) must equal the same combination of the basis images
        acc = tuple([0] * len(powers))
        for c, bimg in zip(_fp_coordinates(ctx, index), basis_images):
            for _ in range(c):
                acc = tuple(ctx.add(x, y) for x, y in zip(acc, bimg))
        if acc != img:
            additive_ok = False
            notes.append(f"additivity fails at index {index}")
            break
    if m % 2:
        qm = ctx.q**ctx.m
        if any(ctx.pow(img[0], qm) != img[0] for img in images):
            additive_ok = False
            notes.append("leading image coordinate escapes F_{q^m}")

    injective_ok = len(set(images)) == count
    if not injective_ok:
        notes.append("image tuples collide")

    exponents = [c + 1 for c in powers]
    connection = set()
    x = 1
    for _ in range(ctx.n):
        connection.add(tuple(ctx.pow(x, u) for u in exponents))
        x = ctx.mul(x, ctx.pi)
    expected_size = (q ** (2 * m) - 1) // (q + 1)
    image_of_rank1 = {f(h) for h in rank1_matrices(ctx, budget)}
    matches = image_of_rank1 == connection
    if not matches:
        notes.append(f"image of rank-1 set differs from connection set "
                     f"({len(image_of_rank1)} vs {len(connection)} tuples)")
    return IsomorphismReport(additive_ok, injective_ok, matches,
                             len(connection), expected_size, notes)


def _fp_coordinates(ctx: FieldCtx, index: int) -> list[int]:
    """F_p digits of a matrix index, matching the basis-matrix order."""
    q, m, p = ctx.q, ctx.m, ctx.p
    coords: list[int] = []
    for _ in range(m):
        lbl = index % q
        index //= q
        for _ in range(ctx.e):
            coords.append(lbl % p)
            lbl //= p
    for _ in range(m * (m - 1) // 2):
        lbl = index % (q * q)
        index //= q * q
        for _ in range(2 * ctx.e):
            coords.append(lbl % p)
            lbl //= p
    return coords
