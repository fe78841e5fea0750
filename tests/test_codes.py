"""Code families: exponent sets, dimensions, codeword generation, nesting."""

import random

import pytest
from conftest import (annihilated_by, codeword, literal_value, parameter_slots,
                      poly_divides, weight, x_power_minus_one, zero_params)

from traceweight.codes import FAMILIES, build_code, build_gamma
from traceweight.fields import make_field
from traceweight.quadforms import QuadForm


def test_gamma_examples():
    assert build_gamma(2, 2) == {1, 3}
    assert build_gamma(2, 3) == {1, 9, 3}
    assert build_gamma(3, 4) == {1, 4, 28}
    assert build_gamma(5, 1) == {1, 6}


@pytest.mark.parametrize("p,e,m", [(2, 1, 2), (3, 1, 2), (2, 1, 3), (2, 2, 2)])
def test_dimensions_match_closed_forms(p, e, m):
    ctx = make_field(p, e, 2 * m)
    dims = {"C": m * m, "D": m * m + 2 * m, "E": m * m + 2 * m + 1}
    for family in FAMILIES:
        spec = build_code(ctx, family)
        assert spec.k == dims[family]
        assert spec.parity_check.degree == spec.k
        assert spec.n == (p**e) ** (2 * m) - 1


def test_named_code_parameters():
    assert (build_code(make_field(2, 1, 4), "D").n,
            build_code(make_field(2, 1, 4), "D").k) == (15, 8)
    assert (build_code(make_field(3, 1, 4), "C").n,
            build_code(make_field(3, 1, 4), "C").k) == (80, 4)
    assert (build_code(make_field(2, 1, 6), "E").n,
            build_code(make_field(2, 1, 6), "E").k) == (63, 16)


@pytest.mark.parametrize("p,e,m", [(2, 1, 2), (3, 1, 2), (2, 1, 3)])
def test_parity_check_divides_xn_minus_one(p, e, m):
    ctx = make_field(p, e, 2 * m)
    xn1 = x_power_minus_one(ctx, ctx.n)
    for family in FAMILIES:
        assert poly_divides(build_code(ctx, family).parity_check, xn1)


def test_family_e_undefined_at_q2_m1():
    ctx = make_field(2, 1, 2)
    with pytest.raises(ValueError, match="undefined"):
        build_code(ctx, "E")
    assert build_code(ctx, "D").k == 3
    assert build_code(ctx, "C").k == 1


def test_zero_params_give_zero_codeword():
    for family in FAMILIES:
        spec = build_code(make_field(3, 1, 4), family)
        assert weight(codeword(spec, zero_params(spec))) == 0


def test_constant_codeword_has_full_weight():
    spec = build_code(make_field(3, 1, 4), "E")
    for b in (1, 2):
        w = codeword(spec, (0, 0, b))
        assert weight(w) == spec.n
        assert set(w.values) == {b}


def test_d22_single_form_weights():
    spec = build_code(make_field(2, 1, 4), "D")
    observed = {weight(codeword(spec, (0, lam))) for lam in range(16)}
    assert observed == {0, 6, 12}
    assert weight(codeword(spec, (0, 1))) in {6, 12}


def test_codeword_linearity():
    spec = build_code(make_field(3, 1, 4), "D")
    ctx = spec.ctx
    rng = random.Random(7)
    for _ in range(5):
        p1 = tuple(rng.randrange(ctx.size) for _ in parameter_slots(spec))
        p2 = tuple(rng.randrange(ctx.size) for _ in parameter_slots(spec))
        combined = tuple(ctx.add(a, b) for a, b in zip(p1, p2))
        w1, w2, w12 = (codeword(spec, t) for t in (p1, p2, combined))
        assert tuple(ctx.add(a, b) for a, b in zip(w1.values, w2.values)) == w12.values


@pytest.mark.parametrize("p,e,m", [(2, 1, 2), (3, 1, 2), (2, 1, 3)])
def test_codewords_satisfy_parity_check(p, e, m):
    ctx = make_field(p, e, 2 * m)
    rng = random.Random(13)
    for family in FAMILIES:
        spec = build_code(ctx, family)
        for _ in range(4):
            params = []
            for name in parameter_slots(spec):
                if name == "b":
                    params.append(ctx.subfield(ctx.q).from_label(rng.randrange(ctx.q)))
                elif name == "delta0":
                    qm = ctx.q**ctx.m
                    params.append(ctx.pow(ctx.pow(ctx.pi, ctx.n // (qm - 1)),
                                          rng.randrange(qm - 1)))
                else:
                    params.append(rng.randrange(ctx.size))
            w = codeword(spec, params)
            assert annihilated_by(spec.parity_check, w.values)
            shifted = (w.values[-1],) + w.values[:-1]
            assert annihilated_by(spec.parity_check, shifted)


def test_nesting_c_in_d_in_e():
    ctx = make_field(3, 1, 4)
    c_spec, d_spec, e_spec = (build_code(ctx, f) for f in FAMILIES)
    rng = random.Random(5)
    for _ in range(4):
        lam = rng.randrange(ctx.size)
        from_c = codeword(c_spec, (lam,))
        from_d = codeword(d_spec, (0, lam))
        assert from_c.values == from_d.values
        beta = rng.randrange(ctx.size)
        from_d2 = codeword(d_spec, (beta, lam))
        from_e = codeword(e_spec, (beta, lam, 0))
        assert from_d2.values == from_e.values
        # membership up the chain through the parity checks
        assert annihilated_by(d_spec.parity_check, from_c.values)
        assert annihilated_by(e_spec.parity_check, from_d2.values)


def test_weight_identity_against_form_zero_count():
    # the coordinate zero count of a D codeword is the affine solution
    # count of its quadratic form on the nonzero field elements
    ctx = make_field(2, 1, 4)
    spec = build_code(ctx, "D")
    for beta, lam in [(0, 1), (3, 7), (9, 14), (5, 0)]:
        w = weight(codeword(spec, (beta, lam)))
        form = QuadForm(ctx, (lam,))
        zeros = sum(
            1 for i in range(ctx.n)
            if ctx.add(literal_value(form, ctx.pow(ctx.pi, i)),
                       ctx.trace(ctx.mul(beta, ctx.pow(ctx.pi, i)), "q")) == 0)
        assert spec.n - w == zeros


def test_parameter_validation():
    ctx = make_field(2, 1, 6)  # odd m = 3
    spec = build_code(ctx, "E")
    with pytest.raises(ValueError, match="expects parameters"):
        codeword(spec, (0, 0))
    with pytest.raises(ValueError, match="delta0"):
        codeword(spec, (0, ctx.pi, 0, 0))  # pi not in F_8
    ctx4 = make_field(2, 2, 4)
    spec4 = build_code(ctx4, "E")
    with pytest.raises(ValueError, match="b is not"):
        codeword(spec4, (0, 0, ctx4.pi))


def test_d32_sampled_weights_in_predicted_support():
    spec = build_code(make_field(3, 1, 4), "D")
    rng = random.Random(11)
    support = {0, 45, 48, 54, 57, 72}
    for _ in range(40):
        params = tuple(rng.randrange(81) for _ in parameter_slots(spec))
        assert weight(codeword(spec, params)) in support
