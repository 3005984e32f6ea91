"""The fast field layer: the kinds of field and their row kernels.

Builder and verifier both rest on `gf`, so a wrong table entry would corrupt
both sides alike.  `field_new` picks one kind of field per context; the
digit-loop kind, `FieldCtx` itself, is correct for every field, so it is
built directly on the same field as the reference.  The element operations
of the prime, table and characteristic-2 kinds are checked exhaustively
against it, their row kernels on random rows, and elimination over them
against elimination over it.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modcoh.errors import ModcohError, ReducibleModulus
from modcoh.gf import (
    BUILTIN_MODULI,
    _TABLE_LIMIT,
    Char2Ctx,
    FieldCtx,
    OddTableCtx,
    PrimeCtx,
    element_from_json,
    field_new,
)
from modcoh.linalg import (
    Matrix,
    inverse,
    kernel_basis,
    matrix_from_json,
    matrix_to_json,
    rank,
    rref,
    solve,
)

FIELDS = sorted(BUILTIN_MODULI) + [(3, 1), (5, 1), (7, 1)]


def digit_kind(ctx):
    """The same field as the digit-loop kind, built directly, not interned."""
    return FieldCtx(ctx.p, ctx.k, ctx.modulus)


def mul_oracle(ctx, a, b):
    """Schoolbook product of digit vectors reduced by long division."""
    p, k = ctx.p, ctx.k
    da, db = FieldCtx.decode(ctx, a), FieldCtx.decode(ctx, b)
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] = (prod[i + j] + x * y) % p
    mod = ctx.modulus
    for top in range(len(prod) - 1, k - 1, -1):
        lead = prod[top]
        if lead:
            for i, c in enumerate(mod):
                prod[top - k + i] = (prod[top - k + i] - lead * c) % p
    return ctx.encode(prod[:k])


@pytest.mark.parametrize("p,k", FIELDS, ids=[f"q{p**k}" for p, k in FIELDS])
def test_fast_ops_match_digit_loops_on_all_pairs(p, k):
    ctx = field_new(p, k)
    assert type(ctx) is (PrimeCtx if k == 1 else Char2Ctx if p == 2 else OddTableCtx)
    ref = digit_kind(ctx)
    for a in range(ctx.q):
        assert ctx.neg_i(a) == ref.neg_i(a)
        assert ctx.decode(a) == ref.decode(a)
        assert ctx.el(a).coeffs == ref.decode(a)
        assert ctx.frob_i(a) == ref.frob_i(a)
        if a:
            assert mul_oracle(ctx, a, ctx.inv_i(a)) == 1
            assert ctx.inv_i(a) == ref.inv_i(a)
        for b in range(ctx.q):
            assert ctx.add_i(a, b) == ref.add_i(a, b)
            assert ctx.sub_i(a, b) == ref.sub_i(a, b)
            assert ctx.mul_i(a, b) == ref.mul_i(a, b) == mul_oracle(ctx, a, b)


def _field_beyond_tables():
    """GF(3^6): odd characteristic with q > _TABLE_LIMIT, found by search."""
    for c0 in range(1, 3):
        for c1 in range(3):
            try:
                return field_new(3, 6, [c0, c1, 0, 0, 0, 0, 1])
            except ReducibleModulus:
                continue
    raise AssertionError("no irreducible x^6 + c1 x + c0 over GF(3)")


def test_large_odd_field_keeps_the_digit_loops():
    ctx = _field_beyond_tables()
    assert ctx.q > _TABLE_LIMIT
    assert type(ctx) is FieldCtx
    for a in range(0, ctx.q, 7):
        b = (a * 31 + 5) % ctx.q
        assert ctx.add_i(a, ctx.neg_i(a)) == 0
        assert ctx.sub_i(ctx.add_i(a, b), b) == a
        assert ctx.mul_i(a, b) == mul_oracle(ctx, a, b)
        if a:
            assert ctx.mul_i(a, ctx.inv_i(a)) == 1


# ---------------------------------------------------------------------------
# field axioms
# ---------------------------------------------------------------------------

AXIOM_FIELDS = st.sampled_from(FIELDS).map(lambda pk: field_new(*pk))


@st.composite
def field_triples(draw):
    ctx = draw(AXIOM_FIELDS)
    x, y, z = (draw(st.integers(0, ctx.q - 1)) for _ in range(3))
    return ctx, x, y, z


@settings(max_examples=300, deadline=None)
@given(field_triples())
def test_field_axioms(case):
    ctx, x, y, z = case
    add, sub, mul, neg = ctx.add_i, ctx.sub_i, ctx.mul_i, ctx.neg_i
    assert add(x, y) == add(y, x)
    assert add(add(x, y), z) == add(x, add(y, z))
    assert add(x, 0) == x and add(x, neg(x)) == 0
    assert sub(x, y) == add(x, neg(y))
    assert mul(x, y) == mul(y, x)
    assert mul(mul(x, y), z) == mul(x, mul(y, z))
    assert mul(x, 1) == x
    assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))
    if x:
        assert mul(x, ctx.inv_i(x)) == 1


# ---------------------------------------------------------------------------
# row kernels and elimination against the digit-loop kind
# ---------------------------------------------------------------------------

# prime, characteristic-2 and odd-table kinds, with the digit-loop kind of
# each field built beside them
KERNEL_FIELDS = [(3, 1), (7, 1), (2, 2), (3, 2), (2, 4)]


@st.composite
def kernel_cases(draw):
    ctx = field_new(*draw(st.sampled_from(KERNEL_FIELDS)))
    # zeros drawn often, so the zero skips are taken; inner dimensions of
    # 9 or more take the compress scan in matmul
    cell = st.one_of(st.just(0), st.integers(0, ctx.q - 1))
    length = draw(st.integers(0, 12))
    x, y = (draw(st.lists(cell, min_size=length, max_size=length)) for _ in range(2))
    n, k, m = draw(st.integers(1, 4)), draw(st.integers(1, 12)), draw(st.integers(1, 4))
    a = draw(st.lists(cell, min_size=n * k, max_size=n * k))
    b = draw(st.lists(cell, min_size=k * m, max_size=k * m))
    return ctx, x, y, draw(cell), (a, b, n, k, m)


@settings(max_examples=300, deadline=None)
@given(kernel_cases())
def test_row_kernels_match_the_digit_kind(case):
    ctx, x, y, f, product = case
    ref = digit_kind(ctx)
    assert ctx.add_rows(x, y) == ref.add_rows(x, y)
    assert ctx.sub_rows(x, y) == ref.sub_rows(x, y)
    assert ctx.scale_row(x, f) == ref.scale_row(x, f)
    assert ctx.axpy(x, y, f) == ref.axpy(x, y, f)
    assert ctx.matmul(*product) == ref.matmul(*product)
    # solve writes into the negated factors, so each kernel returns a new list
    neg = ctx.neg_row(x)
    assert neg == ref.neg_row(x) and neg is not x


@st.composite
def matrices(draw):
    ctx = field_new(*draw(st.sampled_from(KERNEL_FIELDS)))
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    # a small alphabet makes rank deficiency and zero columns common
    alphabet = draw(st.sampled_from([2, 3, ctx.q]))
    data = draw(st.lists(st.integers(0, alphabet - 1), min_size=rows * cols,
                         max_size=rows * cols))
    return Matrix(ctx, rows, cols, data)


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_specialised_elimination_matches_generic(m):
    # the same cells over the digit-loop kind: every elimination runs the
    # forward pass and the back-reduction on its per-cell kernels
    g = Matrix(digit_kind(m.ctx), m.rows, m.cols, list(m._d))
    reduced, cols, r = rref(m)
    g_reduced, g_cols, g_r = rref(g)
    assert g_reduced._d == reduced._d
    assert (g_cols, g_r) == (cols, r) and rank(g) == r
    got = [v._d for v in kernel_basis(m)]
    assert [v._d for v in kernel_basis(g)] == got
    for v in kernel_basis(m):
        assert (m @ v).is_zero
    # a solve that stops at a certificate row or reads a solution, and an
    # inverse when m is square and of full rank
    e_last = [0] * (m.rows - 1) + [1]
    res = solve(m, Matrix(m.ctx, m.rows, 1, e_last))
    g_res = solve(g, Matrix(g.ctx, m.rows, 1, e_last))
    assert g_res.consistent == res.consistent
    want = res.solution if res.consistent else res.certificate
    assert (g_res.solution if g_res.consistent else g_res.certificate)._d == want._d
    if m.is_square and r == m.rows:
        assert inverse(g)._d == inverse(m)._d


# ---------------------------------------------------------------------------
# bulk JSON decoding against the per-cell parse it replaces
# ---------------------------------------------------------------------------

def element_from_json_reference(ctx, coeffs):
    """The per-cell parse, with the exact-int rule (no bool)."""
    if len(coeffs) != ctx.k or any(type(c) is not int or c < 0 or c >= ctx.p for c in coeffs):
        raise ModcohError(f"non-canonical element encoding {coeffs!r}")
    return ctx.encode(coeffs)


@st.composite
def field_matrices(draw):
    pk = draw(st.sampled_from(FIELDS + [None]))  # None: odd p beyond the tables
    ctx = field_new(*pk) if pk else _field_beyond_tables()
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    data = draw(st.lists(st.integers(0, ctx.q - 1), min_size=rows * cols,
                         max_size=rows * cols))
    return Matrix(ctx, rows, cols, data)


@settings(max_examples=200, deadline=None)
@given(field_matrices())
def test_matrix_json_round_trip_matches_per_cell_parse(m):
    obj = json.loads(json.dumps(matrix_to_json(m)))
    got = matrix_from_json(m.ctx, obj)
    assert got == m
    want = [element_from_json_reference(m.ctx, c) for row in obj["entries"] for c in row]
    assert [got.raw(i, j) for i in range(m.rows) for j in range(m.cols)] == want
    for row in obj["entries"]:
        for c in row:
            assert element_from_json(m.ctx, c).val == element_from_json_reference(m.ctx, c)


def _set_cell(value):
    def mutate(obj):
        obj["entries"][1][0] = value
    return mutate


def _set_digit(value):
    def mutate(obj):
        obj["entries"][1][0][0] = value
    return mutate


MALFORMED = {
    "float": _set_digit(1.0),
    "bool": _set_digit(True),
    "str": _set_digit("1"),
    "none": _set_digit(None),
    "negative": _set_digit(-1),
    "out_of_range": _set_digit(7),
    "short_cell": lambda obj: obj["entries"][1][0].pop(),
    "long_cell": lambda obj: obj["entries"][1][0].append(0),
    "cell_not_list": _set_cell(1),
    "cell_is_str": _set_cell("01"),
    "ragged_row": lambda obj: obj["entries"][1].pop(),
    "row_not_list": lambda obj: obj["entries"].__setitem__(1, "ab"),
    "rows_mismatch": lambda obj: obj.update(rows=3),
    "cols_mismatch": lambda obj: obj.update(cols=3),
    "rows_bool": lambda obj: obj.update(rows=True, entries=obj["entries"][:1]),
    "entries_not_list": lambda obj: obj.update(entries="ab"),
    "missing_key": lambda obj: obj.pop("cols"),
}


@pytest.mark.parametrize("pk", [(7, 1), (2, 2), (3, 2), None], ids=["q7", "q4", "q9", "q729"])
@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_matrix_rejected(name, pk):
    ctx = field_new(*pk) if pk else _field_beyond_tables()
    obj = matrix_to_json(Matrix(ctx, 2, 2, [1, 0, 0, 1]))
    MALFORMED[name](obj)
    with pytest.raises(ModcohError):
        matrix_from_json(ctx, obj)


# ---------------------------------------------------------------------------
# one-pass subtraction against a + (-b)
# ---------------------------------------------------------------------------

BENCHMARK_FIELDS = [(3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4)]


@st.composite
def matrix_pairs(draw):
    pk = draw(st.sampled_from(BENCHMARK_FIELDS + [None]))  # None: GF(3^6)
    ctx = field_new(*pk) if pk else _field_beyond_tables()
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    a, b = (
        draw(st.lists(st.integers(0, ctx.q - 1), min_size=rows * cols, max_size=rows * cols))
        for _ in range(2)
    )
    return Matrix(ctx, rows, cols, a), Matrix(ctx, rows, cols, b)


@settings(max_examples=300, deadline=None)
@given(matrix_pairs())
def test_sub_matches_add_of_negation(pair):
    a, b = pair
    assert a - b == a + (-b)
    assert (a - b) + b == a
    assert (a - a).is_zero
