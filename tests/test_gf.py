"""Field arithmetic: construction, canonical forms, Frobenius."""

import random

import pytest

from modcoh import gf
from modcoh.errors import (
    DivisionByZero,
    MixedContexts,
    ModcohError,
    NoBuiltinModulus,
    NotPrime,
    ReducibleModulus,
)
from modcoh.gf import (
    element_from_json,
    element_to_json,
    field_from_json,
    field_new,
    field_to_json,
    frobenius,
)

ALL_BUILTIN = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (2, 4), (3, 2), (5, 2), (7, 2)]


def poly_mod_oracle(num, mod, p):
    """Naive long division remainder, independent of the package."""
    num = list(num)
    while len(num) >= len(mod):
        lead = num[-1]
        if lead:
            shift = len(num) - len(mod)
            for i, c in enumerate(mod):
                num[shift + i] = (num[shift + i] - lead * c) % p
        num.pop()
    return num + [0] * (len(mod) - 1 - len(num))


def test_prime_field_needs_no_modulus():
    F2 = field_new(2)
    assert F2.q == 2
    assert (F2.one() + F2.one()).is_zero


def test_builtin_gf4_modulus():
    F4 = field_new(2, 2)
    assert F4.modulus == (1, 1, 1)
    t = F4.gen()
    assert t * t == t + F4.one()


def test_reducible_modulus_rejected():
    # t^2 + 1 = (t+1)^2 over GF(2)
    with pytest.raises(ReducibleModulus):
        field_new(2, 2, [1, 0, 1])


def test_context_interning():
    assert field_new(2, 2) is field_new(2, 2)
    assert field_new(3) is field_new(3, 1)
    assert field_new(2, 2) is not field_new(2, 3)


def test_known_modulus_is_not_retested(monkeypatch):
    # x^2 - 2 is irreducible over GF(13) (2 is not a square mod 13) and
    # x^2 - 1 = (x - 1)(x + 1) is not
    tested = []
    irreducible = gf._is_irreducible
    monkeypatch.setattr(gf, "_is_irreducible", lambda m, p: tested.append(m) or irreducible(m, p))
    monkeypatch.delitem(gf._CTX_CACHE, (13, 2, (11, 0, 1)), raising=False)
    first = field_new(13, 2, [11, 0, 1])
    assert len(tested) == 1
    assert field_new(13, 2, [11, 0, 1]) is first and field_new(13, 2, [-2, 13, 1]) is first
    assert len(tested) == 1
    for _ in range(2):
        with pytest.raises(ReducibleModulus):
            field_new(13, 2, [12, 0, 1])
    assert len(tested) == 3
    assert (13, 2, (12, 0, 1)) not in gf._CTX_CACHE


def test_construction_errors():
    with pytest.raises(NotPrime):
        field_new(4)
    with pytest.raises(NotPrime):
        field_new(1)
    with pytest.raises(NoBuiltinModulus):
        field_new(11, 2)
    with pytest.raises(ModcohError):
        field_new(2, 2, [1, 1])  # wrong degree
    with pytest.raises(ModcohError):
        field_new(2, 9)  # beyond the supported extension degrees


def test_gf3_inverse_of_two():
    F3 = field_new(3)
    two = F3.from_int(2)
    assert two.inv() == two  # 2*2 = 4 = 1


def test_mixed_contexts_rejected():
    a = field_new(2, 2).one()
    b = field_new(2, 3).one()
    with pytest.raises(MixedContexts):
        a + b


def test_division_by_zero():
    F5 = field_new(5)
    with pytest.raises(DivisionByZero):
        F5.zero().inv()
    with pytest.raises(DivisionByZero):
        F5.one() / F5.zero()


def test_frobenius_gf4():
    F4 = field_new(2, 2)
    t = F4.gen()
    assert frobenius(t) == t + F4.one()
    assert frobenius(F4.one()) == F4.one()


def test_frobenius_gf9_against_division_oracle():
    # cube t and reduce by t^2 + 1 with an independent long division
    F9 = field_new(3, 2)
    t = F9.gen()
    want = poly_mod_oracle([0, 0, 0, 1], list(F9.modulus), 3)
    assert list(frobenius(t).coeffs) == want
    assert frobenius(t) == -t


@pytest.mark.parametrize("p,k", ALL_BUILTIN)
def test_field_axioms_exhaustive_small(p, k):
    ctx = field_new(p, k)
    if ctx.q > 81:
        pytest.skip("exhaustive check only for q <= 81")
    elems = list(ctx.elements())
    one = ctx.one()
    for x in elems:
        if not x.is_zero:
            assert x * x.inv() == one
        # frobenius iterated k times is the identity
        y = x
        for _ in range(k):
            y = y.frobenius()
        assert y == x
    for x in elems:
        for y in elems:
            assert (x + y) ** p == x**p + y**p  # freshman's dream
            assert x + y == y + x
            assert x * y == y * x


@pytest.mark.parametrize("p,k", [(2, 4), (5, 2), (7, 2)])
def test_field_axioms_randomized_larger(p, k):
    ctx = field_new(p, k)
    rng = random.Random(7)
    elems = [ctx.el(rng.randrange(ctx.q)) for _ in range(60)]
    for x, y in zip(elems, reversed(elems)):
        assert (x + y) ** p == x**p + y**p
        assert (x * y) ** p == x**p * y**p
        z = x * y
        if not y.is_zero:
            assert z / y == x


def test_distributivity_gf8():
    ctx = field_new(2, 3)
    elems = list(ctx.elements())
    for x in elems:
        for y in elems:
            for z in elems[:4]:
                assert x * (y + z) == x * y + x * z


def test_frobenius_is_additive_and_multiplicative():
    for p, k in [(2, 2), (3, 2), (2, 3)]:
        ctx = field_new(p, k)
        for x in ctx.elements():
            for y in ctx.elements():
                assert frobenius(x + y) == frobenius(x) + frobenius(y)
                assert frobenius(x * y) == frobenius(x) * frobenius(y)


def test_field_spec_serialization_round_trip():
    for p, k in ALL_BUILTIN:
        ctx = field_new(p, k)
        spec = field_to_json(ctx)
        assert field_from_json(spec) is ctx
    assert field_to_json(field_new(2, 2)) == {"p": 2, "k": 2, "modulus": [1, 1, 1]}


def test_element_serialization_strict():
    F4 = field_new(2, 2)
    t = F4.gen()
    assert element_to_json(t) == [0, 1]
    assert element_from_json(F4, [0, 1]) == t
    with pytest.raises(ModcohError):
        element_from_json(F4, [0, 2])  # coefficient out of range
    with pytest.raises(ModcohError):
        element_from_json(F4, [1])  # wrong length
    with pytest.raises(ModcohError):
        element_from_json(F4, [True, 0])  # a JSON true equals 1 but is no coefficient


def test_from_coeffs_reduces():
    F3 = field_new(3)
    assert F3.from_coeffs([5]) == F3.from_int(2)
    F9 = field_new(3, 2)
    assert F9.from_coeffs([4, 3]) == F9.from_coeffs([1, 0])
