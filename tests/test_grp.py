"""Group closure, named families, and the lookup of the certificate's subgroup H."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modcoh.grp as grp
import modcoh.linalg
import modcoh.verify as verify
from modcoh.build import build_nonsplit_sequence
from modcoh.errors import (
    BadCharacteristic,
    HypothesisNotSatisfied,
    MixedContexts,
    ModcohError,
    NotAdditivelyClosed,
    OrderCapExceeded,
    SingularGenerator,
)
from modcoh.gf import field_new, field_to_json
from modcoh.grp import (
    MatrixGroup,
    additive_family,
    closure,
    family_matrix,
    group_spec_from_json,
    group_to_json,
    paired_shear_family,
)
from modcoh.jsonutil import digest_of
from modcoh.linalg import Matrix, inverse, is_invertible, matrix_to_json

F2 = field_new(2)
F3 = field_new(3)
F4 = field_new(2, 2)
F9 = field_new(3, 2)


def row_major(m):
    """A Matrix as the row-major tuple of encodings that a group holds."""
    return tuple(m.raw(i, j) for i in range(m.rows) for j in range(m.cols))


def matrices(group):
    """Every element of the group as a Matrix, in id order."""
    return [group.matrix(i) for i in range(group.order)]


def restriction_row(group):
    """H, as each element's id mapped to its inverse's, and y's terms, by
    the lookup of `verify._restriction_row` in the group's own index."""
    return verify._restriction_row(group.ctx, group.n, group.index)


def brute_closure_oracle(generators, identity):
    """Repeated set products until stable, independent of the BFS path."""
    elems = set(generators) | {identity}
    while True:
        new = {a @ b for a in elems for b in elems}
        if new <= elems:
            return elems
        elems |= new


def reference_closure(ctx, n, generators):
    """Elements, index, inverse ids, S' and the search tree of the group
    generated, by the rule `closure` documents, with every product formed
    from the matrices and one Gauss-Jordan inverse per element.

    One breadth-first search from the identity by left multiplication with
    the kept generators: a generator is kept when the search has not
    reached it, and is then applied to every element found so far; each
    later element, in discovery order, takes every kept generator in turn.
    """
    identity = Matrix.identity(ctx, n)
    elements, index = [identity], {identity: 0}
    kept, via = [], []

    def visit(b, h):
        prod = kept[b] @ elements[h]
        if prod not in index:
            index[prod] = len(elements)
            elements.append(prod)
            via.append((b, h))

    for g in generators:
        if g in index:
            continue
        kept.append(g)
        done = len(elements)
        for h in range(done):
            visit(len(kept) - 1, h)
        while done < len(elements):
            for b in range(len(kept)):
                visit(b, done)
            done += 1
    spanning = [index[g] for g in kept]
    parents = [None] + [(spanning[b], h) for b, h in via]
    inv = [index[inverse(m)] for m in elements]
    return elements, index, inv, spanning, parents


@st.composite
def generator_lists(draw):
    """Invertible matrices over GL_2(F_3), GL_2(F_4) or GL_3(F_2), with
    repeats, the identity and products of earlier ones mixed in."""
    ctx, n = draw(st.sampled_from([(F3, 2), (F4, 2), (F2, 3)]))
    matrix = st.lists(st.integers(0, ctx.q - 1), min_size=n * n, max_size=n * n).map(
        lambda d: Matrix(ctx, n, n, d)
    ).filter(is_invertible)
    gens = draw(st.lists(matrix, min_size=1, max_size=3))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["repeat", "identity", "product"]))
        if kind == "repeat":
            extra = draw(st.sampled_from(gens))
        elif kind == "identity":
            extra = Matrix.identity(ctx, n)
        else:
            extra = draw(st.sampled_from(gens)) @ draw(st.sampled_from(gens))
        gens.insert(draw(st.integers(0, len(gens))), extra)
    return ctx, n, gens


@settings(max_examples=60, deadline=None)
@given(generator_lists())
def test_closure_matches_the_reference_closure(case):
    ctx, n, gens = case
    g = closure(ctx, n, gens)
    elements, index, inv, spanning, parents = reference_closure(ctx, n, gens)
    assert g.elements == list(map(row_major, elements))
    assert g.index == {row_major(m): i for m, i in index.items()}
    assert matrices(g) == elements
    assert g.generators == gens
    assert g.inv == inv
    # the S' rows come filled from closure, before any product is asked for,
    # and the other rows, tabulated on tuples, are the Matrix products
    assert [i for i in range(g.order) if g._rows[i] is not None] == sorted(spanning)
    for s in spanning:
        assert g._rows[s] == [index[elements[s] @ h] for h in elements]
    for i in range(g.order):
        assert [g.mul(i, j) for j in range(g.order)] == [index[elements[i] @ h] for h in elements]
    assert g.spanning_ids == spanning
    assert g.tree_parents == parents


def count_left_products(monkeypatch, ctx):
    """The left factors `ctx.left_mul` prepares, and one entry per product
    the prepared maps make, filled as the closure runs."""
    prepared, products = [], []
    left_mul = type(ctx).left_mul

    def preparing(ctx, a, n):
        prepared.append(a)
        left = left_mul(ctx, a, n)

        def counting(x):
            products.append(1)
            return left(x)

        return counting

    monkeypatch.setattr(type(ctx), "left_mul", preparing)
    return prepared, products


def test_closure_makes_s_prime_products_and_no_inverse(monkeypatch):
    # family-a over GF(16): 15 published generators, |S'| = 4, |G| = 16
    ctx = field_new(2, 4)
    gens = [family_matrix(ctx, ctx.el(v)) for v in range(1, 16)]
    prepared, products = count_left_products(monkeypatch, ctx)
    passes = []
    forward = modcoh.linalg._forward

    def counting_forward(*args):
        passes.append(1)
        return forward(*args)

    monkeypatch.setattr(modcoh.linalg, "_forward", counting_forward)
    g = closure(ctx, 2, gens)
    assert len(g.spanning_ids) == 4 and g.order == 16
    # one prepared product per element of S', each applied at most |G| times
    assert len(prepared) == 4 and len(products) <= 4 * 16
    # rank and inverse both run the forward pass: one is_invertible per
    # generator, and no inverse per element
    assert len(passes) == len(gens)


def test_closure_makes_one_product_per_s_prime_and_non_identity_element(monkeypatch):
    # SL_2(F_5): |G| = 120 and S' = both shears, so |S'|(|G| - 1) = 238
    # products, s @ I being taken as s, each by the left product that
    # ctx.left_mul prepared once for its element of S'; no Matrix product
    F5 = field_new(5)
    gens = [Matrix.from_rows(F5, [[1, 1], [0, 1]]), Matrix.from_rows(F5, [[1, 0], [1, 1]])]
    prepared, products = count_left_products(monkeypatch, F5)
    matrix_products = []
    matmul = Matrix.__matmul__

    def counting_matmul(a, b):
        matrix_products.append(1)
        return matmul(a, b)

    monkeypatch.setattr(Matrix, "__matmul__", counting_matmul)
    g = closure(F5, 2, gens)
    assert g.order == 120 and len(g.spanning_ids) == 2
    assert prepared == [(1, 1, 0, 1), (1, 0, 1, 1)]
    assert len(products) == 2 * (120 - 1) and matrix_products == []


def matrix_search(ctx, n, gens):
    """The reference for both closures: `_search` over Matrix products, as
    closure ran it before its products were prepared tuple kernels."""
    found, _, spanning, rows, parents, inv = grp._search(
        Matrix.identity(ctx, n), gens, lambda g: g.__matmul__, 10_000
    )
    return found, spanning, rows, parents, inv


def _rows(ctx, gens):
    return [[[ctx.el(v) for v in row] for row in g] for g in gens]


# SL_2(F_3), GL_2(F_7), SL_3(F_3), SL_2(F_9) over an odd table field, and
# the published generators of two families, over GF(8) n=3 and zpxzp p=3
SL3_SHEARS = [[[1, 1, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 1], [0, 0, 1]],
              [[1, 0, 0], [0, 1, 0], [1, 0, 1]]]
REFERENCE_GROUPS = {
    "SL_2(F_3)": lambda: (F3, _rows(F3, [[[1, 1], [0, 1]], [[1, 0], [1, 1]]])),
    "GL_2(F_7)": lambda: (field_new(7), _rows(field_new(7), [[[1, 1], [0, 1]], [[1, 0], [1, 1]],
                                                             [[3, 0], [0, 1]]])),
    "SL_3(F_3)": lambda: (F3, _rows(F3, SL3_SHEARS)),
    "SL_2(F_9)": lambda: (F9, _rows(F9, [[[1, 1], [0, 1]], [[1, 3], [0, 1]],
                                         [[1, 0], [1, 1]], [[1, 0], [3, 1]]])),
    "family-a GF(8) n=3": lambda: additive_family(field_new(2, 3), n=3),
    "zpxzp p=3": lambda: paired_shear_family(F3),
}


@pytest.mark.parametrize("label", list(REFERENCE_GROUPS))
def test_both_closures_equal_the_matrix_search(label):
    made = REFERENCE_GROUPS[label]()
    if isinstance(made, MatrixGroup):
        ctx, n, gens = made.ctx, made.n, made.generators
    else:
        ctx, rows = made
        n, gens = len(rows[0]), [Matrix.from_rows(ctx, r) for r in rows]
    found, spanning, s_rows, parents, inv = matrix_search(ctx, n, gens)
    assert len(found) > len(spanning) > 0

    g = closure(ctx, n, gens)
    tuples = list(map(row_major, found))
    assert g.elements == tuples and g.index == {t: i for i, t in enumerate(tuples)}
    assert g.spanning_ids == spanning and g.tree_parents == parents and g.inv == inv
    assert [g._rows[s] for s in spanning] == s_rows

    elements, v_spanning, v_inverse, v_index = verify._generated(
        ctx, n, list(map(row_major, gens)), len(found)
    )
    assert elements == tuples and v_index == {t: i for i, t in enumerate(tuples)}
    assert v_spanning == spanning
    assert v_inverse == {**{inv[s]: s for s in spanning}, **{s: inv[s] for s in spanning}}


def test_closure_trivial():
    g = closure(F3, 2, [Matrix.identity(F3, 2)])
    assert g.order == 1
    assert g.matrix(0) == Matrix.identity(F3, 2)


def test_closure_empty_generators():
    g = closure(F3, 2, [])
    assert g.order == 1 and g.generators == [] and g.spanning_ids == []


def test_closure_shear_order_three():
    g = closure(F3, 2, [Matrix.from_rows(F3, [[1, 1], [0, 1]])])
    assert g.order == 3


def test_closure_two_involutions_gf4():
    t = F4.gen()
    gens = [family_matrix(F4, t), family_matrix(F4, F4.one())]
    g = closure(F4, 2, gens)
    assert g.order == 4
    oracle = brute_closure_oracle(gens, Matrix.identity(F4, 2))
    assert set(matrices(g)) == oracle


def test_closure_idempotent():
    g = closure(F3, 2, [Matrix.from_rows(F3, [[1, 1], [0, 1]])])
    again = closure(F3, 2, matrices(g))
    assert set(again.elements) == set(g.elements)


def test_inverse_table():
    g = additive_family(F4)
    ident = Matrix.identity(F4, 2)
    for i in range(g.order):
        assert g.matrix(i) @ g.matrix(g.inv[i]) == ident


def test_mul_index_table():
    g = additive_family(F4)
    for i in range(g.order):
        for j in range(g.order):
            assert g.matrix(g.mul(i, j)) == g.matrix(i) @ g.matrix(j)


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (2, 4)])
def test_spanning_ids_of_the_additive_family(p, k):
    ctx = field_new(p, k)
    g = additive_family(ctx)
    s = g.spanning_ids
    # the published generators are S', a basis over F_p of k elements
    assert len(s) == k
    assert [g.index[row_major(m)] for m in g.generators] == s
    # the closure over every nonzero parameter in encoding order keeps the
    # same S', element ids and search tree
    every = closure(ctx, 2, [family_matrix(ctx, ctx.el(v)) for v in range(1, ctx.q)])
    assert every.spanning_ids == s
    assert every.elements == g.elements
    assert every.tree_parents == g.tree_parents


def assert_same_group(group, reference):
    """Every field of two MatrixGroups agrees, the filled S' rows too."""
    for name in ("ctx", "n", "generators", "elements", "index", "inv",
                 "spanning_ids", "tree_parents", "_rows"):
        assert getattr(group, name) == getattr(reference, name), name


# the fields of the benchmark ladder, GF(5^2), and GF(128) by the modulus
# the CI step gives
FAMILY_FIELDS = [(2, 1, None), (3, 1, None), (2, 2, None), (5, 1, None), (7, 1, None),
                 (2, 3, None), (3, 2, None), (2, 4, None), (5, 2, None),
                 (2, 7, [1, 1, 0, 0, 0, 0, 0, 1])]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("p,k,modulus", FAMILY_FIELDS,
                         ids=[f"GF({p}^{k})" for p, k, _ in FAMILY_FIELDS])
def test_additive_family_is_the_closure_of_its_generators(p, k, modulus, n):
    # the search on the parameters finds what the search on the matrices
    # finds, field by field
    ctx = field_new(p, k, modulus)
    group = additive_family(ctx, n=n)
    assert_same_group(group, closure(ctx, n, group.generators))


@pytest.mark.parametrize("ctx,basis", [
    (F4, []), (F4, [1]), (F9, [1]), (F9, [3]), (field_new(2, 4), [2, 9]),
    (field_new(2, 4), [5, 6, 12]), (field_new(5, 2), [7]),
])
def test_additive_subgroup_is_the_closure_of_its_generators(ctx, basis):
    # a subgroup passed as params, listed in no particular order
    span = {0}
    for v in basis:
        multiples = [0]
        for _ in range(ctx.p - 1):
            multiples.append(ctx.add_i(multiples[-1], v))
        span = {ctx.add_i(a, m) for a in span for m in multiples}
    params = [ctx.el(v) for v in sorted(span, reverse=True)]
    group = additive_family(ctx, params=params, n=3)
    assert group.order == len(span)
    assert len(group.spanning_ids) == len(basis)
    assert_same_group(group, closure(ctx, 3, group.generators))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_paired_shear_family_is_the_closure_of_its_generators(p):
    ctx = field_new(p)
    group = paired_shear_family(ctx)
    shears = [Matrix.from_rows(ctx, [[1, a, 0, 0], [0, 1, 0, 0], [0, 0, 1, b], [0, 0, 0, 1]])
              for a, b in ((1, 0), (0, 1))]
    assert group.generators == shears
    assert_same_group(group, closure(ctx, 4, shears))


@pytest.mark.parametrize("cap", range(0, 11))
def test_families_exceed_the_order_cap_where_closure_does(cap):
    def outcome(build):
        try:
            return build().order
        except OrderCapExceeded:
            return "cap"

    ctx = field_new(3, 2)
    gens = additive_family(ctx).generators
    assert outcome(lambda: additive_family(ctx, order_cap=cap)) == outcome(
        lambda: closure(ctx, 2, gens, order_cap=cap))
    shears = paired_shear_family(F3).generators
    assert outcome(lambda: paired_shear_family(F3, order_cap=cap)) == outcome(
        lambda: closure(F3, 4, shears, order_cap=cap))


def test_families_make_no_matrix_product(monkeypatch):
    # the families search their parameters; a matrix product while they
    # enumerate would mean they searched the matrices
    products = []
    matmul = Matrix.__matmul__

    def counting_matmul(a, b):
        products.append(1)
        return matmul(a, b)

    monkeypatch.setattr(Matrix, "__matmul__", counting_matmul)
    additive_family(field_new(2, 4))
    additive_family(F9, n=3)
    additive_family(F4, params=[F4.zero(), F4.one()])
    paired_shear_family(field_new(5))
    assert products == []


def test_spanning_ids_drop_redundant_generators():
    x = Matrix.from_rows(F3, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    y = Matrix.from_rows(F3, [[1, 0, 0], [0, 1, 1], [0, 0, 1]])
    ident = Matrix.identity(F3, 3)
    g = closure(F3, 3, [x, ident, y, x @ y, x])  # non-abelian, order 27
    assert g.order == 27
    assert g.spanning_ids == [g.index[row_major(x)], g.index[row_major(y)]]
    assert g.generators == [x, ident, y, x @ y, x]
    zpxzp = paired_shear_family(F3)
    assert zpxzp.spanning_ids == [zpxzp.index[row_major(m)] for m in zpxzp.generators]
    assert closure(F3, 2, []).spanning_ids == []


def test_mul_tabulates_only_the_rows_it_is_asked_for():
    g = additive_family(field_new(2, 3))
    s = g.spanning_ids
    assert [i for i in range(g.order) if g._rows[i] is not None] == sorted(s)
    assert g.mul(5, 3) == g.index[row_major(g.matrix(5) @ g.matrix(3))]
    assert [i for i in range(g.order) if g._rows[i] is not None] == sorted(set(s) | {5})


def test_closure_errors():
    with pytest.raises(SingularGenerator):
        closure(F2, 2, [Matrix.from_rows(F2, [[1, 1], [1, 1]])])
    with pytest.raises(OrderCapExceeded):
        closure(F3, 2, [Matrix.from_rows(F3, [[1, 1], [0, 1]])], order_cap=2)
    with pytest.raises(MixedContexts):
        closure(F3, 2, [Matrix.identity(F2, 2)])


@pytest.mark.parametrize(
    "ctx", [F4, F3, F9], ids=["GF(4)", "GF(3)", "GF(9)"]
)
def test_family_law_exhaustive(ctx):
    # A(a) @ A(b) = A(a+b) over the whole parameter set
    for a in ctx.elements():
        for b in ctx.elements():
            assert family_matrix(ctx, a) @ family_matrix(ctx, b) == family_matrix(ctx, a + b)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([field_new(2, 3), field_new(2, 4), F9, field_new(7)]),
    st.sampled_from([2, 3]),
    st.data(),
)
def test_family_law_property(ctx, n, data):
    # A(a) @ A(b) = A(a+b) and A(a)^-1 = A(-a), in GL_2 and embedded in GL_3
    a, b = (ctx.el(data.draw(st.integers(0, ctx.q - 1))) for _ in range(2))
    assert family_matrix(ctx, a, n) @ family_matrix(ctx, b, n) == family_matrix(ctx, a + b, n)
    assert inverse(family_matrix(ctx, a, n)) == family_matrix(ctx, -a, n)


@pytest.mark.parametrize("ctx,expected", [(F4, 4), (F3, 3), (F9, 9)])
def test_family_orders(ctx, expected):
    assert additive_family(ctx).order == expected


def test_family_trivial_subset():
    g = additive_family(F4, params=[F4.zero()])
    assert g.order == 1


def test_family_subgroup_prime_subfield():
    g = additive_family(F4, params=[F4.zero(), F4.one()])
    assert g.order == 2


def test_family_rejects_non_closed_subset():
    t = F9.gen()
    with pytest.raises(NotAdditivelyClosed):
        additive_family(F9, params=[F9.zero(), F9.one(), t])


def test_family_embedded_in_bigger_n():
    g = additive_family(F4, n=3)
    assert g.order == 4 and g.n == 3
    assert len(restriction_row(g)[0]) == 2


@pytest.mark.parametrize("p,expected", [(3, 9), (5, 25)])
def test_paired_shear_orders(p, expected):
    assert paired_shear_family(field_new(p)).order == expected


def test_paired_shear_needs_odd_characteristic():
    with pytest.raises(BadCharacteristic):
        paired_shear_family(F2)


def test_hypothesis_char2():
    # the certificate is the hypothesis: GF(4) has the three pattern
    # involutions A(b), b != 0, GF(2) only A(1), one short of the two H needs
    for ctx, involutions in ((F4, 3), (F2, 1)):
        g = additive_family(ctx)
        found = [a for a in map(_matches_involution_pattern, matrices(g)) if a is not None]
        assert len(found) == involutions + 1  # and the identity, a = 1
        assert (restriction_row(g) == ({}, [])) == (involutions < 2)


def pattern_by_field_elements(m):
    """The FieldElement form of the involution-pattern match: a for
    [[a, a+1], [a+1, a]] + identity elsewhere, or None."""
    ctx = m.ctx
    a = m[0, 0]
    a1 = a + ctx.one()
    if m[0, 1] != a1 or m[1, 0] != a1 or m[1, 1] != a:
        return None
    for i in range(m.rows):
        for j in range(m.cols):
            if (i >= 2 or j >= 2) and m[i, j] != (ctx.one() if i == j else ctx.zero()):
                return None
    return a


def _matches_involution_pattern(m):
    """The encoding of a for [[a, a+1], [a+1, a]] + identity elsewhere, or
    None; compared on raw encodings, where one is 1.  The element-by-element
    form of the lookup that `verify._restriction_row` makes."""
    a = m.raw(0, 0)
    a1 = m.ctx.add_i(a, 1)
    if m.raw(0, 1) != a1 or m.raw(1, 0) != a1 or m.raw(1, 1) != a:
        return None
    n = m.rows
    if any(m.raw(i, j) != (i == j) for i in range(n) for j in range(n) if i >= 2 or j >= 2):
        return None
    return a


def sl2_f4():
    gen = F4.gen()
    return closure(F4, 2, [Matrix.from_rows(F4, r) for r in (
        [[1, 1], [0, 1]], [[1, gen], [0, 1]], [[1, 0], [1, 1]], [[1, 0], [gen, 1]],
    )])


@pytest.mark.parametrize("label", [
    "GF(4) n=2", "GF(8) n=2", "GF(16) n=2", "GF(4) n=3", "GF(8) n=3", "SL2(F4)",
])
def test_pattern_match_on_encodings_equals_the_field_element_form(label):
    # the scan compares raw encodings and makes a FieldElement only for a
    # match; on every element it finds what the FieldElement form finds,
    # and H is the pair of the two least b = a + 1 != 0 it finds, which the
    # lookup of b = 1, 2, ... stops at
    if label == "SL2(F4)":
        g = sl2_f4()
        assert g.order == 60
    else:
        k, n = {"GF(4) n=2": (2, 2), "GF(8) n=2": (3, 2), "GF(16) n=2": (4, 2),
                "GF(4) n=3": (2, 3), "GF(8) n=3": (3, 3)}[label]
        g = additive_family(field_new(2, k), n=n)
    found = []
    for i, m in enumerate(matrices(g)):
        want = pattern_by_field_elements(m)
        assert _matches_involution_pattern(m) == (None if want is None else want.val), i
        if want is not None:
            found.append((want.val, want, i))
    bs = sorted((g.ctx.add_i(a, 1), i) for a, _, i in found if a != 1)
    assert tuple(restriction_row(g)[0]) == tuple(i for _, i in bs[:2])


@pytest.mark.parametrize("ctx", [F4, F3], ids=["p=2", "p=3"])
def test_hypothesis_fails_for_n_below_2(ctx):
    # neither pattern fits in a 1 x 1 group: there is no certificate, and
    # the message says why, with no entry (0, 1) to read and no family
    # matrix to form
    group = closure(ctx, 1, [Matrix.from_rows(ctx, [[ctx.p - 1]])])
    assert restriction_row(group) == ({}, [])
    with pytest.raises(HypothesisNotSatisfied, match="n >= 2"):
        build_nonsplit_sequence(group)


def test_hypothesis_char3():
    good = closure(F3, 2, [Matrix.from_rows(F3, [[1, 1], [0, 1]])])
    assert tuple(restriction_row(good)[0]) == (1,)
    diag = closure(F3, 2, [Matrix.from_rows(F3, [[2, 0], [0, 1]])])
    assert restriction_row(diag) == ({}, [])
    with pytest.raises(HypothesisNotSatisfied, match="shear"):
        build_nonsplit_sequence(diag)
    assert restriction_row(paired_shear_family(F3))[1]


def scanned_certificate(group):
    """H and y's terms from testing every element, or None when the group
    has no H: for p >= 3 the element equal to the shear x12(1); for p = 2
    the pattern involutions that `_matches_involution_pattern` finds, the
    two least nonzero b = a + 1 taken after a sort, with y's coefficient
    (b2/b1)^2 in FieldElements."""
    ctx, n, p = group.ctx, group.n, group.ctx.p
    if n < 2:
        return None
    pad = (0,) * (n - 2)
    if p > 2:
        shear = [h for h, m in enumerate(group.elements) if all(
            m[i * n + j] == int(i == j or (i, j) == (0, 1)) for i in range(n) for j in range(n)
        )]
        if not shear:
            return None
        (u,) = shear
        return (u,), ((u, 0, (p - 1, 1) + pad, ctx.from_int(2).val), (u, 1, (p - 2, 2) + pad, 1))
    found = []
    for h, m in enumerate(matrices(group)):
        a = _matches_involution_pattern(m)
        if a is not None and a != 1:
            found.append((ctx.add_i(a, 1), h))
    if len(found) < 2:
        return None
    (b1, h1), (b2, h2) = sorted(found)[:2]
    c = (ctx.el(b2) / ctx.el(b1)) ** 2
    m = (1, 1) + pad
    return (h1, h2), ((h1, 0, m, c.val), (h2, 0, m, 1))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    st.sampled_from([field_new(2, 2), field_new(2, 3), field_new(2, 4), F9, field_new(5, 2)]),
    st.sampled_from([2, 3]),
    st.data(),
)
def test_certificate_lookup_equals_the_scan_on_additive_subgroups(ctx, n, data):
    # on the family of a random additive subgroup U of the field, the
    # lookup in the group's index finds the H and y that testing every
    # element finds; none exactly when the scan finds no shear (p >= 3) or
    # fewer than two involutions
    spanning = data.draw(st.lists(st.integers(0, ctx.q - 1), max_size=3), label="spanning")
    span = {0}
    for v in spanning:
        for x in list(span):
            for _ in range(ctx.p - 1):
                x = ctx.add_i(x, v)
                span.add(x)
    group = additive_family(ctx, params=[ctx.el(a) for a in span], n=n)
    want = scanned_certificate(group)
    h_inverse, terms = restriction_row(group)
    assert (None if not terms else (tuple(h_inverse), tuple(terms))) == want
    assert all(group.inv[h] == back for h, back in h_inverse.items())
    if ctx.p > 2:
        assert (want is None) == (1 not in span)


def test_group_digest_and_spec_round_trip():
    # the record is a group spec: read back, it closes to the same elements
    g = additive_family(F4)
    spec = group_to_json(g)
    assert digest_of(spec) == digest_of(group_to_json(additive_family(F4)))
    rebuilt = group_spec_from_json(spec)
    assert rebuilt.order == spec["order"] == g.order
    assert rebuilt.elements == g.elements


@pytest.mark.parametrize("group", [additive_family(F4), additive_family(F9),
                                   paired_shear_family(F3)])
def test_group_record_is_the_generators_and_order(group):
    # no element list, inverse table or element digest: a verifier closes
    # the generators itself
    assert group_to_json(group) == {
        "field": field_to_json(group.ctx),
        "n": group.n,
        "generators": [matrix_to_json(m) for m in group.generators],
        "order": group.order,
    }


def test_bfs_element_order_deterministic():
    g1 = additive_family(F9)
    g2 = additive_family(F9)
    assert g1.elements == g2.elements
    assert g1.matrix(0) == Matrix.identity(F9, 2)
