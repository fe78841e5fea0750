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
Every label is F_p-linear, so the base-p digits of an index are its
matrix's F_p coordinates over the basis matrices at the indices p^i, and
indices are the additive group F_p^N, N = e*m^2.  The characters are
those of F_p^N, y -> w_p^(y.x), indexed by the same digits: a Cayley
graph's spectrum is the multiset of its connection set's character sums,
however the characters are named.

Each matrix is built once per field; that one enumeration,
enumerate_hermitian, is also where the witness's budget is checked, by
admission.check_witness_budget, which needs (q, m) alone.  The matrices
are ranked once, as one stack of F_{q^2} labels in one
fields.label_ranks call.  The embedding is checked as one F_p-linear
map, each image's base-p digits against its coordinates times the basis
images' digits; for odd m, the leading coordinate's membership in
F_{q^m} (an F_p-subspace) on the basis.  The connection set is read
off the exp table, one gather per exponent.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .admission import DEFAULT_WITNESS_BOUND, check_witness_budget
from .codes import ConsistencyError
from .fields import FieldCtx, label_ranks
from .quadforms import integral_character_sum

Matrix = tuple[tuple[int, ...], ...]


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


@functools.lru_cache(maxsize=8)
def enumerate_hermitian(ctx: FieldCtx, budget: int = DEFAULT_WITNESS_BOUND
                        ) -> tuple[Matrix, ...]:
    """All q^(m^2) Hermitian matrices, in deterministic index order, once
    the budget admits them; cached, so the witness builds each matrix once
    and checks its budget once."""
    check_witness_budget(ctx.q, ctx.m, budget)
    return tuple(hermitian_at(ctx, index) for index in range(ctx.q ** (ctx.m * ctx.m)))


@functools.lru_cache(maxsize=8)
def rank1_indices(ctx: FieldCtx, budget: int = DEFAULT_WITNESS_BOUND) -> tuple[int, ...]:
    """Indices of the rank-1 matrices, cached so the witness ranks once:
    every matrix's F_{q^2} labels in one label_ranks call."""
    fq2 = ctx.subfield(ctx.q * ctx.q)
    labels = [[[fq2.label_of(v) for v in row] for row in h]
              for h in enumerate_hermitian(ctx, budget)]
    return tuple(np.flatnonzero(label_ranks(fq2, labels) == 1).tolist())


def rank1_count(ctx: FieldCtx, budget: int = DEFAULT_WITNESS_BOUND) -> int:
    """Number of rank-1 Hermitian matrices; checked against the closed
    form (q^(2m)-1)/(q+1)."""
    count = len(rank1_indices(ctx, budget))
    expected = (ctx.q ** (2 * ctx.m) - 1) // (ctx.q + 1)
    if count != expected:
        raise ConsistencyError(f"rank-1 count {count} != {expected}")
    return count


def _coordinates(ctx: FieldCtx, indices: np.ndarray) -> np.ndarray:
    """F_p coordinates of the indexed matrices over the basis matrices at
    the indices p^i: the base-p digits of each index, one row per index."""
    return indices[:, None] // ctx.p ** np.arange(ctx.e * ctx.m * ctx.m) % ctx.p


# residue comparisons (characters x rank-1 set x p) per block of
# characters, bounding the temporaries
CHARACTER_BLOCK = 2**20


def cayley_spectrum(ctx: FieldCtx, budget: int = DEFAULT_WITNESS_BOUND) -> dict[int, int]:
    """Exact eigenvalue -> multiplicity multiset of the rank-1 Cayley graph,
    one character sum per y in F_p^N: sum over the rank-1 set K of
    w_p^(y.x), the residues y.x being coords(y) @ coords(K)^T mod p."""
    p = ctx.p
    kset = _coordinates(ctx, np.array(rank1_indices(ctx, budget))).T
    count, step = ctx.q ** (ctx.m * ctx.m), max(1, CHARACTER_BLOCK // (kset.shape[1] * p))
    spectrum: dict[int, int] = {}
    for lo in range(0, count, step):
        residues = _coordinates(ctx, np.arange(lo, min(lo + step, count))) @ kset % p
        tally = (residues[..., None] == np.arange(p)).sum(axis=1)
        for counts in tally.tolist():
            eig = integral_character_sum(counts, p)
            spectrum[eig] = spectrum.get(eig, 0) + 1
    return spectrum


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


def _embedding_image(ctx: FieldCtx, alpha: list[int], alpha_rows: list[list[int]],
                     h: Matrix) -> tuple[int, ...]:
    """sum_{j,k} alpha_j^c h[j][k] alpha_k, one per row alpha_rows = (alpha_j^c)_j."""
    out = []
    for alpha_c in alpha_rows:
        acc = 0
        for j, row in enumerate(h):
            for k, entry in enumerate(row):
                if entry:
                    acc = ctx.add(acc, ctx.mul(ctx.mul(alpha_c[j], entry), alpha[k]))
        out.append(acc)
    return tuple(out)


def verify_isomorphism(ctx: FieldCtx, budget: int = DEFAULT_WITNESS_BOUND) -> IsomorphismReport:
    """Check the explicit additive embedding of the Hermitian matrices onto
    the power-tuple group, coordinate per exponent q^(2i-1) (odd m: with a
    leading q^m coordinate landing in F_{q^m}).

    (a) additivity, as one F_p-linear map on the images' base-p digits,
    (b) the rank-1 matrices map exactly onto the connection set
        {(x^(q^m+1),) x^(q+1), x^(q^3+1), ...},
    (c) that set has (q^(2m)-1)/(q+1) elements.
    """
    p, q, m, t = ctx.p, ctx.q, ctx.m, ctx.m // 2
    notes: list[str] = []
    alpha = [ctx.pow(ctx.pi, i) for i in range(m)]  # basis of F_{q^s} over F_{q^2}
    powers = ([q**m] if m % 2 else []) + [q ** (2 * i - 1) for i in range(1, t + 1)]
    alpha_rows = [[ctx.pow(a, c) for a in alpha] for c in powers]

    count = q ** (m * m)
    images = [_embedding_image(ctx, alpha, alpha_rows, h)
              for h in enumerate_hermitian(ctx, budget)]
    digits = np.array([[d for x in img for d in ctx.digits(x)] for img in images])
    basis = [p**i for i in range(ctx.e * m * m)]
    # additivity, completely: digits = F_p coordinates @ the basis images' digits
    wrong = (_coordinates(ctx, np.arange(count)) @ digits[basis] % p != digits).any(axis=1)
    additive_ok = not wrong.any()
    if not additive_ok:
        notes.append(f"additivity fails at index {wrong.argmax()}")
    if m % 2 and any(ctx.pow(images[b][0], q**m) != images[b][0] for b in basis):
        additive_ok = False
        notes.append("leading image coordinate escapes F_{q^m}")

    injective_ok = len(set(images)) == count
    if not injective_ok:
        notes.append("image tuples collide")

    # (pi^i)^(c+1) = pi^(i (c+1) mod n), one exp-table gather per exponent
    n, at = ctx.n, np.arange(ctx.n, dtype=np.int64)
    connection = set(zip(*(ctx.exp_table()[at * ((c + 1) % n) % n].tolist() for c in powers)))
    image_of_rank1 = {images[i] for i in rank1_indices(ctx, budget)}
    matches = image_of_rank1 == connection
    if not matches:
        notes.append(f"image of rank-1 set differs from connection set "
                     f"({len(image_of_rank1)} vs {len(connection)} tuples)")
    return IsomorphismReport(additive_ok, injective_ok, matches,
                             len(connection), (q ** (2 * m) - 1) // (q + 1), notes)
