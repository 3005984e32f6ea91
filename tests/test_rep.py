"""Module constructions: symmetric powers, duals, Hom, intertwiners."""

from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from modcoh import verify
from modcoh.build import build_nonsplit_sequence
from modcoh.coh import cocycle_from_extension
from modcoh.errors import GroupMismatch
from modcoh.gf import field_new, frobenius
from modcoh.grp import additive_family, closure
from modcoh.linalg import Matrix, hstack, inverse, is_invertible, solve
from modcoh.poly import Polynomial, monomial_basis, substitute_linear
from modcoh.rep import (
    GModule,
    _substitution_matrix,
    action_is_homomorphism,
    direct_sum_mod,
    dual,
    find_intertwiner,
    frobenius_twist,
    hom,
    monomial_code,
    natural_module,
    sym_power,
    tensor,
    trivial_module,
)

F2 = field_new(2)
F3 = field_new(3)
F4 = field_new(2, 2)

G4 = additive_family(F4)
G3 = closure(F3, 2, [Matrix.from_rows(F3, [[1, 1], [0, 1]])])


def in_span(vectors, v):
    if not vectors:
        return v.is_zero
    stacked = vectors[0]
    for w in vectors[1:]:
        stacked = hstack(stacked, w)
    return solve(stacked, v).consistent


def test_sym_power_identity_and_dims():
    sym, basis = sym_power(G4, 2)
    assert sym.dim == 3 and len(basis) == 3
    assert sym.action(0) == Matrix.identity(F4, 3)


def test_sym_power_column_char2():
    # column n+1 of A_{s^-1} is (a^2+a, a^2+a, 1)^T for the pattern value a
    sym, _ = sym_power(G4, 2)
    one = F4.one()
    for i in range(G4.order):
        a = G4.matrix(i)[0, 0]  # pattern [[a, a+1], [a+1, a]] after a -> a (involution)
        col = sym.action(G4.inv[i]).column_vector(2)
        c = a * a + a
        assert col == Matrix.column(F4, [c, c, one])


def test_sym_power_columns_char3():
    sym, _ = sym_power(G3, 3)
    assert sym.dim == 4
    # element with matrix [[1, -1], [0, 1]] is the inverse of the generator
    a_inv = sym.action(G3.inv[G3.spanning_ids[0]])
    assert a_inv.column_vector(2) == Matrix.column(F3, [-1, 0, 1, 0])
    assert a_inv.column_vector(3) == Matrix.column(F3, [1, 0, -2, 1])


def test_sym_power_columns_embedded_n3():
    # with n = 3 the same column displays gain an identity-padding zero
    g4 = additive_family(F4, n=3)
    sym, basis = sym_power(g4, 2)
    assert sym.dim == 6
    for i in range(g4.order):
        a = g4.matrix(i)[0, 0]
        c = a * a + a
        col = sym.action(g4.inv[i]).column_vector(3)  # image of x1*x2
        assert col == Matrix.column(F4, [c, c, F4.zero(), F4.one(), F4.zero(), F4.zero()])
    g3 = closure(F3, 3, [Matrix.from_rows(F3, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])])
    sym3, _ = sym_power(g3, 3)
    assert sym3.dim == 10
    a_inv = sym3.action(g3.inv[g3.spanning_ids[0]])
    want = [0] * 10
    want[0], want[3] = -1, 1  # -x1^3 + x1^2 x2
    assert a_inv.column_vector(3) == Matrix.column(F3, want)
    want = [0] * 10
    want[0], want[3], want[4] = 1, -2, 1  # x1^3 - 2 x1^2 x2 + x1 x2^2
    assert a_inv.column_vector(4) == Matrix.column(F3, want)


@pytest.mark.parametrize("group,d", [(G4, 2), (G3, 3), (G4, 3), (G3, 2), (G3, 4)])
def test_sym_power_is_representation(group, d):
    # degrees above and below the characteristic included
    sym, basis = sym_power(group, d)
    assert sym.dim == len(basis)
    assert action_is_homomorphism(sym)


# one field of each kind: PrimeCtx, Char2Ctx, OddTableCtx and the digit
# loops of FieldCtx (GF(17^2) by a custom modulus, x^2 - 3)
KERNEL_FIELDS = [(3, 1, None), (5, 1, None), (2, 2, None), (3, 2, None), (17, 2, (14, 0, 1))]
KERNEL_MAX_DIM = 120


@st.composite
def substitutions(draw):
    """A random n x n matrix, singular ones included, and a degree d from 1
    to p + 2 with at most KERNEL_MAX_DIM monomials, d = p among them."""
    ctx = field_new(*draw(st.sampled_from(KERNEL_FIELDS)))
    n = draw(st.integers(2, 4))
    top = max(d for d in range(1, ctx.p + 3) if comb(n + d - 1, d) <= KERNEL_MAX_DIM)
    d = draw(st.one_of(st.just(min(ctx.p, top)), st.integers(1, top)))
    cells = draw(st.lists(st.integers(0, ctx.q - 1), min_size=n * n, max_size=n * n))
    r = draw(st.integers(0, n - 1))
    zeroed = draw(st.sampled_from(["none", "row", "column"]))
    if zeroed == "row":
        cells[n * r : n * r + n] = [0] * n
    elif zeroed == "column":
        cells[r::n] = [0] * n  # the linear form l_r is 0
    return Matrix(ctx, n, n, cells), d


@settings(max_examples=120, deadline=None, derandomize=True)
@given(substitutions())
def test_power_table_columns_equal_substitution(case):
    # every column of the builder's power-table action is the substituted
    # basis monomial; the monomial images the certificate check reads are
    # its columns (test_monomial_images_are_the_columns_of_the_dense_action)
    sigma, d = case
    ctx, n = sigma.ctx, sigma.rows
    basis = monomial_basis(n, d, ctx.p)
    pos = {m: i for i, m in enumerate(basis)}
    built = _substitution_matrix(sigma, basis, {monomial_code(m, d): i for m, i in pos.items()})
    for j, mono in enumerate(basis):
        image = substitute_linear(Polynomial.from_monomial(ctx, mono, ctx.one()), sigma)
        want = [0] * len(basis)
        for m, c in image.terms.items():
            want[pos[m]] = c
        assert built.column_vector(j) == Matrix(ctx, len(basis), 1, want), (sigma, d, mono)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(substitutions(), st.data())
def test_monomial_images_are_the_columns_of_the_dense_action(case, data):
    # on an invertible sigma over each kind of field, the image of a
    # monomial under verify._image, the one image helper, which the builder
    # and the verifier check the certificate with, is that monomial's
    # column of _substitution_matrix, the dense action that h1 and the
    # module recipes keep
    sigma, d = case
    assume(is_invertible(sigma))
    ctx, n = sigma.ctx, sigma.rows
    basis = monomial_basis(n, d, ctx.p)
    code_pos = {monomial_code(m, d): i for i, m in enumerate(basis)}
    dense = _substitution_matrix(sigma, basis, code_pos)
    cells = tuple(sigma.raw(i, j) for i in range(n) for j in range(n))
    j = data.draw(st.integers(0, len(basis) - 1))
    column = {i: dense.raw(i, j) for i in range(len(basis)) if dense.raw(i, j)}
    image = verify._image(ctx, cells, n, tuple(basis[j]))
    assert all(c in code_pos for c in image)
    assert {code_pos[c]: v for c, v in image.items()} == column


def test_block_structure_degree_p():
    for group, p in ((G4, 2), (G3, 3)):
        sym, _ = sym_power(group, p)
        twist = frobenius_twist(group)
        n, N = group.n, sym.dim
        for i in range(group.order):
            a = sym.action(i)
            assert a.submatrix(0, n, 0, n) == twist.action(i)
            assert a.submatrix(n, N, 0, n).is_zero


def test_frobenius_twist_entries():
    twist = frobenius_twist(G4)
    for i in range(G4.order):
        m = G4.matrix(i)
        for r in range(2):
            for c in range(2):
                assert twist.action(i)[r, c] == frobenius(m[r, c])
    # over the prime field the twist is the natural module
    twist3, natural3 = frobenius_twist(G3), natural_module(G3)
    for i in range(G3.order):
        assert twist3.action(i) == natural3.action(i) == G3.matrix(i)


def test_dual_of_trivial_and_involution():
    triv = trivial_module(G4, 2)
    assert dual(triv).actions() == triv.actions()
    for mod in (natural_module(G4), sym_power(G4, 2)[0], frobenius_twist(G3)):
        dd = dual(dual(mod))
        assert dd.actions() == mod.actions()


def test_dual_matches_transpose_inverse():
    mod = sym_power(G3, 3)[0]
    d = dual(mod)
    for i in range(G3.order):
        assert d.action(i) == inverse(mod.action(i)).transpose()


def determinant_oracle(m):
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def test_determinant_module_is_trivial():
    # the families lie in SL_2, so the 1x1 determinant action is trivial
    for group in (G4, G3):
        dets = [Matrix.from_rows(group.ctx, [[determinant_oracle(group.matrix(i))]])
                for i in range(group.order)]
        det_mod = GModule(group, 1, dets.__getitem__, "det")
        assert det_mod.actions() == trivial_module(group, 1).actions()
        assert dual(det_mod).actions() == det_mod.actions()


def test_tensor_dims_and_homomorphism():
    seq = build_nonsplit_sequence(G4)
    t = tensor(seq.extension.total, seq.u_module)
    assert t.dim == 3 * 2
    assert action_is_homomorphism(t)


def test_hom_with_trivial_is_dual():
    for mod in (natural_module(G4), sym_power(G3, 3)[0]):
        h = hom(mod, trivial_module(mod.group, 1))
        assert h.actions() == dual(mod).actions()


def test_hom_action_matches_matrix_conjugation():
    # Hom(V, W) acts by F -> twist(s) @ F @ A_{s^-1}; row-major flattening
    sym, _ = sym_power(G4, 2)
    twist = frobenius_twist(G4)
    h = hom(sym, twist)
    n, N = 2, 3
    for i in range(G4.order):
        act = h.action(i)
        a_inv = sym.action(G4.inv[i])
        f = Matrix.from_rows(F4, [[1, 0, 1], [0, 0, 1]])
        expected = twist.action(i) @ f @ a_inv
        assert act @ f.flatten() == expected.flatten()


def test_u_embeds_in_hom_module():
    # the u coordinates are the last columns of the n x N matrices in Hom(V, W)
    seq = build_nonsplit_sequence(G4)
    sym, twist = seq.sym_module, seq.twist
    h = hom(sym, twist)
    n, N = 2, 3

    def embed(u_vec):
        z = u_vec.reshape(n, N - n)
        full = hstack(Matrix.zeros(F4, n, n), z)
        return full.flatten()

    for i in range(G4.order):
        for b in range(seq.u_module.dim):
            e = Matrix.basis_column(F4, seq.u_module.dim, b)
            assert h.action(i) @ embed(e) == embed(seq.u_module.action(i) @ e)


def test_direct_sum_mod_dims():
    s = direct_sum_mod([natural_module(G4), trivial_module(G4, 1), natural_module(G4)])
    assert s.dim == 5
    assert action_is_homomorphism(s)


def test_intertwiner_self_contains_identity():
    mod = natural_module(G4)
    res = find_intertwiner(mod, mod)
    assert res.space_dim >= 1
    assert res.matrix is not None
    ident_vec = Matrix.identity(F4, 2).flatten()
    assert in_span([b.flatten() for b in res.basis], ident_vec)
    for gid in G4.spanning_ids:
        assert mod.action(gid) @ res.matrix == res.matrix @ mod.action(gid)


def test_intertwiner_double_dual():
    mod = sym_power(G3, 3)[0]
    res = find_intertwiner(mod, dual(dual(mod)))
    assert res.matrix is not None


def test_intertwiner_toy_vs_main():
    # the toy module <x^2, y^2> read off S^2 by pi = (0, 0, 1) is U itself:
    # the search finds an intertwiner, and the identity is one
    seq = build_nonsplit_sequence(G4)
    pi, v0 = Matrix.from_rows(F4, [[0, 0, 1]]), Matrix.basis_column(F4, 3, 2)
    _, toy_module, _ = cocycle_from_extension(seq.sym_module, pi, v0)
    res = find_intertwiner(toy_module, seq.u_module)
    assert res.matrix is not None
    assert in_span([b.flatten() for b in res.basis], Matrix.identity(F4, 2).flatten())
    for i in range(G4.order):
        assert seq.u_module.action(i) @ res.matrix == res.matrix @ toy_module.action(i)


def test_intertwiner_endomorphisms_of_u():
    # solution space for M = N = u is End_G(u); it reports its dimension
    # and contains the identity
    seq = build_nonsplit_sequence(G4)
    res = find_intertwiner(seq.u_module, seq.u_module)
    assert res.space_dim >= 1
    assert in_span(
        [b.flatten() for b in res.basis], Matrix.identity(F4, seq.u_module.dim).flatten()
    )
    assert res.matrix is not None


def test_intertwiner_none_between_different_dims():
    res = find_intertwiner(natural_module(G4), trivial_module(G4, 1))
    assert res.matrix is None


def test_group_mismatch():
    with pytest.raises(GroupMismatch):
        tensor(natural_module(G4), natural_module(additive_family(F4, params=[F4.zero()])))
