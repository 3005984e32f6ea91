"""Polynomial ring, prescribed monomial order, linear substitution."""

import random
from math import comb

import pytest

from modcoh.errors import BadDegree, MixedContexts, ShapeMismatch
from modcoh.gf import field_new
from modcoh.grp import additive_family
from modcoh.linalg import Matrix
from modcoh.poly import (
    Monomial,
    Polynomial,
    det3_identity,
    monomial_basis,
    substitute_linear,
)

F2 = field_new(2)
F3 = field_new(3)
F4 = field_new(2, 2)


def dict_mul_oracle(ctx, f, g):
    """Independent dict-convolution product, for cross-checking."""
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = ctx.add_i(out.get(m, 0), ctx.mul_i(c1, c2))
    return {m: c for m, c in out.items() if c}


def as_dict(poly):
    return {tuple(m): v for m, v in poly.terms.items()}


def test_basis_n2_d2_p2():
    assert monomial_basis(2, 2, 2) == [Monomial((2, 0)), Monomial((0, 2)), Monomial((1, 1))]


def test_basis_n2_d3_p3():
    assert monomial_basis(2, 3, 3) == [
        Monomial((3, 0)),
        Monomial((0, 3)),
        Monomial((2, 1)),
        Monomial((1, 2)),
    ]


def test_basis_n3_d2_p2():
    basis = monomial_basis(3, 2, 2)
    assert len(basis) == comb(4, 2) == 6
    assert basis[:4] == [
        Monomial((2, 0, 0)),
        Monomial((0, 2, 0)),
        Monomial((0, 0, 2)),
        Monomial((1, 1, 0)),
    ]


@pytest.mark.parametrize("n,d,p", [(2, 2, 2), (2, 3, 3), (3, 2, 2), (3, 3, 3), (2, 5, 5), (4, 3, 3)])
def test_basis_complete_no_duplicates(n, d, p):
    basis = monomial_basis(n, d, p)
    assert len(basis) == comb(n + d - 1, d)
    assert len(set(basis)) == len(basis)
    assert all(m.degree == d for m in basis)


def test_basis_bad_degree():
    with pytest.raises(BadDegree):
        monomial_basis(1, 2, 2)
    with pytest.raises(BadDegree):
        monomial_basis(2, 0, 2)


def test_substitute_x1x2_by_involution_pattern():
    # x1*x2 under [[a, a+1], [a+1, a]]: (a^2+a)(x1^2 + x2^2) + x1*x2
    t = F4.gen()
    one = F4.one()
    for a in F4.elements():
        m = Matrix.from_rows(F4, [[a, a + one], [a + one, a]])
        f = Polynomial.from_monomial(F4, Monomial((1, 1)), one)
        img = substitute_linear(f, m)
        c = a * a + a
        assert img.coefficient(Monomial((2, 0))) == c
        assert img.coefficient(Monomial((0, 2))) == c
        assert img.coefficient(Monomial((1, 1))) == one


def test_substitute_shear_char3():
    # x1^2 x2 under [[1, -1], [0, 1]]: -x1^3 + x1^2 x2
    m = Matrix.from_rows(F3, [[1, -1], [0, 1]])
    f = Polynomial.from_monomial(F3, Monomial((2, 1)), F3.one())
    img = substitute_linear(f, m)
    assert as_dict(img) == {(3, 0): 2, (2, 1): 1}


def test_substitute_identity_fixes():
    f = (
        Polynomial.from_monomial(F3, Monomial((2, 1)), F3.from_int(2))
        + Polynomial.variable(F3, 2, 0)
    )
    assert substitute_linear(f, Matrix.identity(F3, 2)) == f


def test_substitute_shape_and_context_errors():
    f = Polynomial.variable(F3, 2, 0)
    with pytest.raises(ShapeMismatch):
        substitute_linear(f, Matrix.identity(F3, 3))
    with pytest.raises(MixedContexts):
        substitute_linear(f, Matrix.identity(F2, 2))


def test_substitute_is_multiplicative():
    rng = random.Random(3)
    x1 = Polynomial.variable(F3, 2, 0)
    x2 = Polynomial.variable(F3, 2, 1)
    f = x1 + x2 * x2
    g = x2 + x1 * x1
    for _ in range(10):
        m = Matrix(F3, 2, 2, [rng.randrange(3) for _ in range(4)])
        assert substitute_linear(f * g, m) == substitute_linear(f, m) * substitute_linear(g, m)


def test_substitution_is_left_action_exhaustive_small_groups():
    # substitute(f, a@b) == substitute(substitute(f, b), a) over whole groups
    for ctx, degree in ((F4, 2), (field_new(2, 3), 2), (F3, 3)):
        group = additive_family(ctx)
        assert group.order <= 8
        f = Polynomial.from_monomial(ctx, Monomial((1, degree - 1)), ctx.one())
        elements = [group.matrix(i) for i in range(group.order)]
        for a in elements:
            for b in elements:
                assert substitute_linear(f, a @ b) == substitute_linear(
                    substitute_linear(f, b), a
                )


def test_add_mul_ring_axioms():
    f = Polynomial.variable(F3, 2, 0) + Polynomial.constant(F3, 2, F3.from_int(2))
    assert (f + -f).is_zero
    g = Polynomial.variable(F3, 2, 1)
    assert f * g == g * f
    assert (f + g) * (f + g) == f * f + f * g + f * g + g * g


def test_freshman_dream_squares_char2():
    x1 = Polynomial.variable(F2, 2, 0)
    x2 = Polynomial.variable(F2, 2, 1)
    assert (x1 + x2) ** 2 == x1 * x1 + x2 * x2


def test_cube_char3_against_binomial_oracle():
    x1 = Polynomial.variable(F3, 2, 0)
    x2 = Polynomial.variable(F3, 2, 1)
    cube = (x1 + x2) ** 3
    expected = {}
    for i in range(4):
        c = comb(3, i) % 3
        if c:
            expected[(3 - i, i)] = c
    assert as_dict(cube) == expected
    assert cube == x1**3 + x2**3


def test_mul_against_dict_oracle_random():
    rng = random.Random(19)
    for _ in range(25):
        terms_f = {
            Monomial((rng.randrange(3), rng.randrange(3))): rng.randrange(1, 3)
            for _ in range(3)
        }
        terms_g = {
            Monomial((rng.randrange(3), rng.randrange(3))): rng.randrange(1, 3)
            for _ in range(3)
        }
        f = Polynomial(F3, 2, dict(terms_f))
        g = Polynomial(F3, 2, dict(terms_g))
        assert as_dict(f * g) == dict_mul_oracle(F3, as_dict(f), as_dict(g))


def random_poly(rng, ctx, n=3, max_terms=4):
    out = Polynomial.zero(ctx, n)
    for _ in range(rng.randrange(1, max_terms + 1)):
        mono = Monomial(tuple(rng.randrange(3) for _ in range(n)))
        out = out + Polynomial.from_monomial(ctx, mono, ctx.el(rng.randrange(ctx.q)))
    return out


def test_det3_repeated_row_cases():
    xs = [Polynomial.variable(F3, 3, i) for i in range(3)]
    rolled = [xs[1], xs[2], xs[0]]
    assert det3_identity(xs, rolled).is_zero
    assert det3_identity(xs, xs).is_zero
    ones = [Polynomial.constant(F3, 3, F3.one())] * 3
    assert det3_identity(xs, ones).is_zero


@pytest.mark.parametrize("ctx", [F2, F3, F4])
def test_det3_random_always_zero(ctx):
    rng = random.Random(101)
    for _ in range(100):
        a = [random_poly(rng, ctx) for _ in range(3)]
        b = [random_poly(rng, ctx) for _ in range(3)]
        assert det3_identity(a, b).is_zero


def test_det3_matches_independent_expansion():
    # recompute u23*a1 - u13*a2 + u12*a3 with the dict oracle
    rng = random.Random(7)
    for _ in range(20):
        a = [random_poly(rng, F3) for _ in range(3)]
        b = [random_poly(rng, F3) for _ in range(3)]
        ad = [as_dict(f) for f in a]
        bd = [as_dict(f) for f in b]

        def sub(d1, d2):
            out = dict(d1)
            for m, c in d2.items():
                out[m] = F3.sub_i(out.get(m, 0), c)
            return {m: c for m, c in out.items() if c}

        def add(d1, d2):
            out = dict(d1)
            for m, c in d2.items():
                out[m] = F3.add_i(out.get(m, 0), c)
            return {m: c for m, c in out.items() if c}

        mul = lambda d1, d2: dict_mul_oracle(F3, d1, d2)
        u23 = sub(mul(ad[1], bd[2]), mul(ad[2], bd[1]))
        u13 = sub(mul(ad[0], bd[2]), mul(ad[2], bd[0]))
        u12 = sub(mul(ad[0], bd[1]), mul(ad[1], bd[0]))
        total = add(sub(mul(u23, ad[0]), mul(u13, ad[1])), mul(u12, ad[2]))
        assert total == {}
        assert det3_identity(a, b).is_zero


def test_canonical_term_order_serialization():
    f = (
        Polynomial.variable(F3, 2, 1)
        + Polynomial.from_monomial(F3, Monomial((2, 0)), F3.one())
        + Polynomial.constant(F3, 2, F3.from_int(2))
    )
    exps = [d["exponents"] for d in f.to_json()]
    assert exps == [[2, 0], [0, 1], [0, 0]]
