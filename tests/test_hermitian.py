"""Hermitian-matrix witness: counts, spectrum, explicit embedding."""

import pytest

from traceweight import cli, fields, hermitian
from traceweight.admission import BudgetExceeded
from traceweight.fields import FieldCtx, make_field
from traceweight.hermitian import (cayley_spectrum, enumerate_hermitian, hermitian_at,
                                   rank1_count, rank1_indices, verify_isomorphism)
from traceweight.spectra import eigenvalues, frequencies

CASES = [(2, 1, 1), (2, 1, 2), (3, 1, 2), (2, 1, 3), (2, 2, 1), (2, 2, 2), (3, 2, 1)]


def expected_spectrum(q, m):
    out = {}
    for xi, fj in zip(eigenvalues(q, m), frequencies(q, m)):
        out[xi] = out.get(xi, 0) + fj
    return out


def test_hermitian_1x1_over_f4():
    ctx = make_field(2, 1, 2)
    mats = list(enumerate_hermitian(ctx))
    assert mats == [((0,),), ((1,),)]


@pytest.mark.parametrize("p,e,m", CASES)
def test_hermitian_count_and_structure(p, e, m):
    ctx = make_field(p, e, 2 * m)
    q = p**e
    fq = ctx.subfield(q)
    count = 0
    for h in enumerate_hermitian(ctx):
        count += 1
        if count % 37 == 1:  # structural spot checks
            for i in range(m):
                assert fq.contains(h[i][i])
                for j in range(m):
                    assert h[j][i] == ctx.frobenius_q(h[i][j])
    assert count == q ** (m * m)


@pytest.mark.parametrize("p,e,m,expected", [
    (2, 1, 1, 1), (2, 1, 2, 5), (3, 1, 2, 20), (2, 1, 3, 21), (2, 2, 1, 3), (2, 2, 2, 51)])
def test_rank1_counts(p, e, m, expected):
    ctx = make_field(p, e, 2 * m)
    assert rank1_count(ctx) == expected
    assert expected == ((p**e) ** (2 * m) - 1) // (p**e + 1)


@pytest.mark.parametrize("p,e,m", CASES)
def test_spectrum_matches_closed_form(p, e, m):
    ctx = make_field(p, e, 2 * m)
    q = p**e
    spectrum = cayley_spectrum(ctx)
    assert spectrum == expected_spectrum(q, m)
    # sanity identities on the measured multiset alone
    kset_size = (q ** (2 * m) - 1) // (q + 1)
    assert sum(spectrum.values()) == q ** (m * m)
    assert sum(e_ * c for e_, c in spectrum.items()) == 0
    assert sum(e_ * e_ * c for e_, c in spectrum.items()) == q ** (m * m) * kset_size


def test_trivial_character_gives_kset_size():
    ctx = make_field(3, 1, 4)
    spectrum = cayley_spectrum(ctx)
    assert spectrum[20] >= 1  # |K| = 20 appears (the trivial character)


@pytest.mark.parametrize("p,e,m", CASES)
def test_isomorphism_checks(p, e, m):
    ctx = make_field(p, e, 2 * m)
    q = p**e
    report = verify_isomorphism(ctx)
    assert report.ok, report.notes
    assert report.connection_set_size == (q ** (2 * m) - 1) // (q + 1)


def test_zero_matrix_maps_to_zero():
    ctx = make_field(2, 1, 4)
    from traceweight.hermitian import _embedding_image
    zero = hermitian_at(ctx, 0)
    assert _embedding_image(ctx, [1, ctx.pi], [[1, ctx.pow(ctx.pi, 2)]], zero) == (0,)


@pytest.fixture
def fresh_rank1_cache():
    hermitian.enumerate_hermitian.cache_clear()
    hermitian.rank1_indices.cache_clear()
    yield
    hermitian.enumerate_hermitian.cache_clear()
    hermitian.rank1_indices.cache_clear()


def test_witness_ranks_each_matrix_once(monkeypatch, capsys, fresh_rank1_cache):
    built, ranked = [], []
    real_at, real_rank = hermitian.hermitian_at, hermitian.label_matrix_rank
    monkeypatch.setattr(hermitian, "hermitian_at",
                        lambda ctx, i: built.append(i) or real_at(ctx, i))
    monkeypatch.setattr(hermitian, "label_matrix_rank",
                        lambda sub, rows: ranked.append(rows) or real_rank(sub, rows))
    assert cli.main(["witness", "--q", "2", "--m", "2"]) == 0
    assert built == list(range(2 ** (2 * 2)))
    assert len(ranked) == 2 ** (2 * 2)


@pytest.mark.parametrize("q,m", [(2, 3), (4, 2), (7, 2)])
def test_witness_inverts_each_label_once(monkeypatch, capsys, fresh_rank1_cache, q, m):
    inverted = []
    real = FieldCtx.inv
    monkeypatch.setattr(fields, "_CTX_CACHE", {})  # a new field, its subfields uncached
    monkeypatch.setattr(FieldCtx, "inv", lambda ctx, a: inverted.append(a) or real(ctx, a))
    assert cli.main(["witness", "--q", str(q), "--m", str(m)]) == 0
    assert inverted and len(set(inverted)) == len(inverted)


def test_broken_additivity_is_reported(monkeypatch, fresh_rank1_cache):
    ctx = make_field(2, 1, 4)
    real, bad = hermitian._embedding_image, hermitian_at(ctx, 3)  # 3 = 1 + 2, not a basis index

    def image(ctx, alpha, alpha_rows, h):
        img = real(ctx, alpha, alpha_rows, h)
        return (ctx.add(img[0], 1),) + img[1:] if h == bad else img
    monkeypatch.setattr(hermitian, "_embedding_image", image)
    report = verify_isomorphism(ctx)
    assert not report.additive_ok
    assert "additivity fails at index 3" in report.notes
    assert not report.ok


def test_constant_embedding_is_reported(monkeypatch, fresh_rank1_cache):
    monkeypatch.setattr(hermitian, "_embedding_image",
                        lambda ctx, alpha, alpha_rows, h: (0,) * len(alpha_rows))
    report = verify_isomorphism(make_field(2, 1, 4))
    assert not report.injective_ok
    assert not report.image_matches_connection_set
    assert not report.ok


def test_matrix_rank_basics(fresh_rank1_cache):
    ctx = make_field(2, 1, 4)
    # index 1 is diag(1, 0), index 3 the identity: the diagonal digits come first
    assert hermitian_at(ctx, 3) == ((1, 0), (0, 1))
    ranks1 = rank1_indices(ctx)
    assert 0 not in ranks1 and 1 in ranks1 and 3 not in ranks1


def test_budget_refusal():
    ctx = make_field(2, 1, 10)  # q^(m^2) = 2^25 matrices
    with pytest.raises(BudgetExceeded) as err:
        list(enumerate_hermitian(ctx))
    assert err.value.estimate == 2**25 * 341  # matrices x rank-1 set
