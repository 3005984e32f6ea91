"""Cohomology engine: Z1, B1, classes, extensions, split certificates."""

import functools
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modcoh.build import build_nonsplit_sequence, resolve_module
from modcoh.coh import (
    Cocycle,
    b1_dim,
    b1_space,
    cocycle_from_extension,
    extension_from_cocycle,
    h1_class,
    h1_dim,
    is_split,
    push_class,
    split_system,
    tensor_with_invariant,
    z1_dim,
    z1_space,
)
from modcoh.errors import BadProjection, ModcohError, NotACocycle, NotEquivariant, NotFixed
from modcoh.gf import field_new
from modcoh.grp import additive_family, closure
from modcoh.linalg import Matrix, hstack, kernel_basis, rref, solve, vstack
from modcoh.rep import dual, natural_module, sym_power, trivial_module

F2 = field_new(2)
F3 = field_new(3)
F4 = field_new(2, 2)

G4 = additive_family(F4)  # order 4, p = 2
G3 = closure(F3, 2, [Matrix.from_rows(F3, [[1, 1], [0, 1]])])  # order 3, p = 3
# order-3 diagonal subgroup over GF(4): |G| coprime to p = 2
T3 = closure(F4, 2, [Matrix.from_rows(F4, [[F4.gen(), F4.zero()], [F4.zero(), F4.gen() ** 2]])])


def in_span(vectors, v):
    if not vectors:
        return v.is_zero
    stacked = vectors[0]
    for w in vectors[1:]:
        stacked = hstack(stacked, w)
    return solve(stacked, v).consistent


def class_is_zero(g):
    return all(c.is_zero for c in h1_class(g))


def test_trivial_group_has_no_cohomology():
    triv_group = closure(F3, 2, [])
    mod = natural_module(triv_group)
    assert z1_space(mod) == [] and b1_space(mod) == [] and h1_dim(mod) == 0


@pytest.mark.parametrize("group,p", [(additive_family(F2), 2), (G3, 3)])
def test_z1_trivial_module_vs_brute_force(group, p):
    # additive maps Z_p -> GF(p): enumerate all p^p maps directly
    mod = trivial_module(group, 1)
    ctx = group.ctx
    count = 0
    m = group.order
    for values in product(range(p), repeat=m):
        ok = all(
            values[group.mul(i, j)] == (values[j] + values[i]) % p
            for i in range(m)
            for j in range(m)
        )
        if ok:
            count += 1
    basis = z1_space(mod)
    assert count == p ** len(basis)
    assert len(basis) == 1


def brute_force_z1_count(mod):
    """Count all maps G -> M satisfying the pair identity; equals q^dim Z1."""
    group = mod.group
    ctx = group.ctx
    m, d = group.order, mod.dim
    count = 0
    for assignment in product(range(ctx.q), repeat=(m - 1) * d):
        values = [Matrix.zeros(ctx, d, 1)] + [
            Matrix(ctx, d, 1, list(assignment[t * d : (t + 1) * d])) for t in range(m - 1)
        ]
        ok = all(
            values[group.mul(i, j)] == mod.action(i) @ values[j] + values[i]
            for i in range(m)
            for j in range(m)
        )
        if ok:
            count += 1
    return count


@pytest.mark.parametrize(
    "mod",
    [natural_module(G3), trivial_module(G3, 2), natural_module(additive_family(F2))],
)
def test_z1_dimension_vs_full_enumeration(mod):
    q = mod.group.ctx.q
    assert brute_force_z1_count(mod) == q ** len(z1_space(mod))


def test_b1_vs_full_enumeration():
    mod = natural_module(G3)
    distinct = set()
    for vals in product(range(3), repeat=2):
        v = Matrix(F3, 2, 1, list(vals))
        cb = Cocycle.coboundary(mod, v).vectorize()
        distinct.add(tuple(cb.raw(i, 0) for i in range(cb.rows)))
    assert len(distinct) == 3 ** len(b1_space(mod))


def test_split_verdict_vs_brute_force_witness_search():
    # third, fully exhaustive code path: try every candidate u
    mod = natural_module(G3)
    ident = Matrix.identity(F3, 2)
    for g in z1_space(mod):
        exists = any(
            all(
                (mod.action(i) - ident) @ Matrix(F3, 2, 1, list(vals)) == g.values[i]
                for i in range(G3.order)
            )
            for vals in product(range(3), repeat=2)
        )
        assert exists == is_split(g).split


def test_z1_contains_the_construction_cocycle():
    seq = build_nonsplit_sequence(G4)
    basis = z1_space(seq.u_module)
    assert in_span([c.vectorize() for c in basis], seq.cocycle.vectorize())
    for c in basis:
        c.validate()


def test_b1_trivial_and_fully_fixed_modules():
    assert b1_space(trivial_module(G4, 3)) == []
    # a module equal to its fixed space has no coboundaries
    mod = trivial_module(G3, 2)
    assert b1_space(mod) == []


@pytest.mark.parametrize(
    "mod",
    [
        natural_module(G4),
        sym_power(G4, 2)[0],
        natural_module(G3),
        sym_power(G3, 3)[0],
        natural_module(T3),
    ],
)
def test_b1_dimension_rank_nullity(mod):
    # the invariants M^G are the kernel of the stacked s - 1 over S'
    ident = Matrix.identity(mod.group.ctx, mod.dim)
    fixed = kernel_basis(vstack([mod.action(i) - ident for i in mod.group.spanning_ids]))
    assert len(b1_space(mod)) == mod.dim - len(fixed)


@pytest.mark.parametrize(
    "mod",
    [
        natural_module(G4),
        sym_power(G4, 2)[0],
        natural_module(G3),
        sym_power(G3, 3)[0],
    ],
)
def test_b1_inside_z1(mod):
    zb = [c.vectorize() for c in z1_space(mod)]
    for b in b1_space(mod):
        b.validate()
        assert in_span(zb, b.vectorize())
    assert h1_dim(mod) >= 0


def test_coboundaries_are_cocycles_and_split():
    mod = sym_power(G3, 3)[0]
    v = Matrix.column(F3, [1, 2, 0, 1])
    g = Cocycle.coboundary(mod, v)
    g.validate()
    res = is_split(g)
    assert res.split
    assert class_is_zero(g)


def test_h1_class_zero_cocycle():
    assert class_is_zero(Cocycle.zero(natural_module(G4)))


def test_h1_class_rejects_invalid_values():
    mod = natural_module(G4)
    values = [Matrix.zeros(F4, 2, 1) for _ in range(G4.order)]
    values[1] = Matrix.column(F4, [1, 0])  # not a cocycle
    bad = Cocycle(mod, values)
    with pytest.raises(NotACocycle):
        h1_class(bad)


def test_bad_cocycle_still_rejected_after_a_good_one_on_the_same_module():
    seq = build_nonsplit_sequence(G4)
    good = seq.cocycle
    h1_class(good)  # validates good and fills the module's Z1/B1 cache
    extension_from_cocycle(good)
    values = list(good.values)
    values[1] = values[1] + Matrix.basis_column(F4, seq.u_module.dim, 0)
    for _ in range(2):  # a failure is not recorded as a pass
        with pytest.raises(NotACocycle):
            h1_class(Cocycle(seq.u_module, values))
        with pytest.raises(NotACocycle):
            extension_from_cocycle(Cocycle(seq.u_module, values))
    bad = Cocycle(seq.u_module, values)
    for _ in range(2):
        with pytest.raises(NotACocycle):
            bad.validate()


def test_z1_b1_computed_once_per_module(monkeypatch):
    import modcoh.coh as coh

    built = []
    original = coh._z1_system

    def counting(module):
        built.append(module)
        return original(module)

    monkeypatch.setattr(coh, "_z1_system", counting)
    mod = natural_module(additive_family(F4))
    first = z1_space(mod)
    assert z1_space(mod) == first and b1_space(mod) == b1_space(mod)
    assert h1_dim(mod) == len(first) - len(b1_space(mod))
    assert (z1_dim(mod), b1_dim(mod)) == (len(first), len(b1_space(mod)))
    assert built == [mod]
    # a fresh module with the same action computes its own
    again = natural_module(mod.group)
    z1_space(again)
    assert built == [mod, again]


def greedy_complement_reference(bb, zb):
    """The one-rref-per-candidate loop: keep z if it raises the rank."""
    picked, rows = [], [b.transpose() for b in bb]
    current = rref(vstack(rows))[2] if rows else 0
    for z in zb:
        r = rref(vstack(rows + [z.transpose()]))[2]
        if r > current:
            picked.append(z)
            rows.append(z.transpose())
            current = r
    return picked


@st.composite
def column_families(draw):
    ctx = field_new(*draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2)])))
    dim = draw(st.integers(1, 6))
    # a small alphabet makes dependent and zero columns common
    entry = st.integers(0, draw(st.sampled_from([1, ctx.q - 1])))
    column = st.lists(entry, min_size=dim, max_size=dim).map(
        lambda d: Matrix(ctx, dim, 1, d)
    )
    return draw(st.lists(column, max_size=4)), draw(st.lists(column, max_size=6))


@settings(max_examples=200, deadline=None)
@given(column_families())
def test_complement_in_one_elimination_matches_greedy_loop(case):
    import modcoh.coh as coh

    bb, zb = case
    assert coh._complement_basis(bb, zb) == greedy_complement_reference(bb, zb)


# the fields of the benchmark workloads
BENCH_FIELDS = [(3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4)]


@functools.cache
def bench_module(field, recipe):
    return resolve_module(additive_family(field_new(*field)), recipe)


@st.composite
def cocycles_with_shift(draw):
    """A random element g of Z1 on u, dual(u) or hom(u,u) over a benchmark
    field, with a random vector v and scalar c."""
    module = bench_module(
        draw(st.sampled_from(BENCH_FIELDS)), draw(st.sampled_from(["u", "dual(u)", "hom(u,u)"]))
    )
    ctx = module.group.ctx
    elem = st.integers(0, ctx.q - 1)
    g = Cocycle.zero(module)
    for z in z1_space(module):
        g = g + z.scale(ctx.el(draw(elem)))
    v = Matrix(ctx, module.dim, 1, draw(st.lists(elem, min_size=module.dim, max_size=module.dim)))
    return g, v, ctx.el(draw(elem))


@settings(max_examples=60, deadline=None)
@given(cocycles_with_shift())
def test_h1_class_ignores_coboundaries(case):
    g, v, _ = case
    assert h1_class(g + Cocycle.coboundary(g.module, v)) == h1_class(g)


@settings(max_examples=60, deadline=None)
@given(cocycles_with_shift())
def test_h1_class_is_linear_in_scalars(case):
    g, _, c = case
    assert h1_class(g.scale(c)) == [c * x for x in h1_class(g)]


def test_nonsplit_class_is_nonzero_and_split_test_agrees():
    for group in (G4, G3):
        seq = build_nonsplit_sequence(group)
        assert not is_split(seq.cocycle).split
        assert not class_is_zero(seq.cocycle)


def test_class_independent_of_preimage_choice():
    seq = build_nonsplit_sequence(G4)
    total = seq.extension.total
    pi = Matrix.from_rows(F4, [[0, 0, 1]])
    v0_a = Matrix.column(F4, [0, 0, 1])
    v0_b = Matrix.column(F4, [1, F4.gen(), 1])
    g_a, mod_a, _ = cocycle_from_extension(total, pi, v0_a)
    g_b, mod_b, _ = cocycle_from_extension(total, pi, v0_b)
    diff = Cocycle(mod_a, [x - y for x, y in zip(g_a.values, g_b.values)])
    assert is_split(diff).split
    assert h1_class(g_a) == h1_class(g_b)


def test_extension_roundtrip_exact():
    seq = build_nonsplit_sequence(G3)
    ext = seq.extension
    d = seq.u_module.dim
    pi = Matrix.from_rows(F3, [[0] * d + [1]])
    v0 = Matrix.basis_column(F3, d + 1, d)
    g2, mod2, basis = cocycle_from_extension(ext.total, pi, v0)
    assert [b for b in basis] == [Matrix.basis_column(F3, d + 1, i) for i in range(d)]
    assert g2.values == seq.cocycle.values
    assert mod2.actions() == seq.u_module.actions()


def test_extension_block_shape_and_invariant_projection():
    seq = build_nonsplit_sequence(G4)
    total = seq.extension.total
    d = seq.u_module.dim
    pi = Matrix.from_rows(F4, [[0] * d + [1]])
    for i in range(G4.order):
        a = total.action(i)
        assert a.submatrix(0, d, 0, d) == seq.u_module.action(i)
        assert a.column_vector(d).submatrix(0, d, 0, 1) == seq.cocycle.values[i]
        assert pi @ a == pi


def test_zero_cocycle_extension_is_direct_sum():
    mod = natural_module(G4)
    ext = extension_from_cocycle(Cocycle.zero(mod))
    for i in range(G4.order):
        a = ext.total.action(i)
        assert a.column_vector(mod.dim).submatrix(0, mod.dim, 0, 1).is_zero
    res = is_split(ext)
    assert res.split and res.witness.is_zero


def test_split_extension_with_invariant_preimage_gives_zero_cocycle():
    mod = natural_module(G4)
    ext = extension_from_cocycle(Cocycle.zero(mod))
    pi = Matrix.from_rows(F4, [[0, 0, 1]])
    v0 = Matrix.basis_column(F4, 3, 2)  # invariant preimage of 1
    g, _, _ = cocycle_from_extension(ext.total, pi, v0)
    assert all(v.is_zero for v in g.values)


def test_z1_spanning_rows_above_pairwise_limit():
    # cyclic group of order 81: S' is its one generator, so 80 blocks of
    # rows; the order is coprime to p = 163, so H1 must vanish
    p = 163
    g = next(
        x for x in range(2, p) if pow(x, 81, p) == 1 and pow(x, 27, p) != 1
    )
    ctx = field_new(p)
    group = closure(ctx, 2, [Matrix.from_rows(ctx, [[g, 0], [0, 1]])], order_cap=200)
    assert group.order == 81
    mod = natural_module(group)
    zb = z1_space(mod)
    for c in zb:
        c.validate()
    assert len(zb) == len(b1_space(mod))  # H1 = 0


def test_cocycle_from_extension_rejects_bad_projection():
    seq = build_nonsplit_sequence(G4)
    total = seq.extension.total
    with pytest.raises(BadProjection):
        cocycle_from_extension(total, Matrix.from_rows(F4, [[1, 0, 0]]), Matrix.column(F4, [1, 0, 0]))
    pi = Matrix.from_rows(F4, [[0, 0, 1]])
    with pytest.raises(BadProjection):
        cocycle_from_extension(total, pi, Matrix.column(F4, [0, 0, 0]))


def test_split_certificates_reverify_independently():
    for group in (G4, G3):
        # the solver's certificate for the main cocycle, which construct no
        # longer asks for: re-check y @ A = 0 and y @ b != 0 entry by entry
        cert = is_split(build_nonsplit_sequence(group).cocycle).certificate
        y, A, b = cert.row, cert.system, cert.rhs
        ctx = group.ctx
        for j in range(A.cols):
            acc = 0
            for i in range(A.rows):
                acc = ctx.add_i(acc, ctx.mul_i(y.raw(0, i), A.raw(i, j)))
            assert acc == 0
        acc = 0
        for i in range(A.rows):
            acc = ctx.add_i(acc, ctx.mul_i(y.raw(0, i), b.raw(i, 0)))
        assert acc != 0


def test_split_system_block_layout():
    seq = build_nonsplit_sequence(G3)
    A, b, gen_ids = split_system(seq.cocycle)
    d = seq.u_module.dim
    assert A.rows == len(gen_ids) * d and b.rows == A.rows
    ident = Matrix.identity(F3, d)
    for t, gid in enumerate(gen_ids):
        assert A.submatrix(t * d, (t + 1) * d, 0, d) == seq.u_module.action(gid) - ident
        assert b.submatrix(t * d, (t + 1) * d, 0, 1) == seq.cocycle.values[gid]


def test_push_class_identity_and_errors():
    seq = build_nonsplit_sequence(G4)
    same = push_class(seq.cocycle, Matrix.identity(F4, 2), seq.u_module)
    assert same.values == seq.cocycle.values
    with pytest.raises(NotEquivariant):
        push_class(seq.cocycle, Matrix.from_rows(F4, [[1, 1], [0, 1]]), seq.u_module)


def test_tensor_with_invariant_zero_and_coboundary():
    seq = build_nonsplit_sequence(G4)
    w_module = dual(seq.extension.total)
    w = Matrix.basis_column(F4, 3, 2)
    zero_w = Matrix.zeros(F4, 3, 1)
    tg = tensor_with_invariant(w_module, zero_w, seq.cocycle)
    assert all(v.is_zero for v in tg.values)
    with pytest.raises(NotFixed):
        tensor_with_invariant(w_module, Matrix.basis_column(F4, 3, 0), seq.cocycle)
    # coboundaries stay coboundaries after tensoring
    cb = Cocycle.coboundary(seq.u_module, Matrix.column(F4, [1, F4.gen()]))
    pushed = tensor_with_invariant(w_module, w, cb)
    pushed.validate()
    assert is_split(pushed).split


def test_tensor_class_depends_only_on_class():
    seq = build_nonsplit_sequence(G4)
    w_module = dual(seq.extension.total)
    w = Matrix.basis_column(F4, 3, 2)
    base = tensor_with_invariant(w_module, w, seq.cocycle)
    shifted_cocycle = seq.cocycle + Cocycle.coboundary(seq.u_module, Matrix.column(F4, [F4.gen(), 1]))
    shifted = tensor_with_invariant(w_module, w, shifted_cocycle)
    assert h1_class(base) == h1_class(shifted)


def test_coprime_order_vanishing_with_averaging_witness():
    # |T3| = 3 is invertible in characteristic 2
    assert T3.order == 3
    for mod in (natural_module(T3), sym_power(T3, 2)[0]):
        assert h1_dim(mod) == 0
        inv_order = mod.group.ctx.from_int(T3.order).inv()
        for g in z1_space(mod):
            avg = Matrix.zeros(F4, mod.dim, 1)
            for v in g.values:
                avg = avg + v
            v_avg = avg.scale(inv_order)
            ident = Matrix.identity(F4, mod.dim)
            for i in range(T3.order):
                assert (mod.action(i) - ident) @ v_avg == -g.values[i]
            assert is_split(g).split


def test_is_split_verdict_matches_class_on_sample():
    for group, mod in ((G4, natural_module(G4)), (G3, sym_power(G3, 3)[0])):
        for g in z1_space(mod):
            assert is_split(g).split == class_is_zero(g)


def test_h1_class_refuses_z1_before_b1(monkeypatch):
    # GF(16), |S'| = 4, dim 320: 4 power and 6 commutator relators make a
    # 3,200 x 1,280 Z1 system, over the cap; the refusal comes before any
    # B1 elimination, for h1_class and h1_dim alike
    import modcoh.coh as coh

    calls = []
    for name in ("_b1_basis", "_b1_columns"):
        original = getattr(coh, name)

        def counting(module, original=original):
            calls.append(module)
            return original(module)

        monkeypatch.setattr(coh, name, counting)
    module = trivial_module(additive_family(field_new(2, 4)), 320)
    with pytest.raises(ModcohError, match="desk scale"):
        h1_class(Cocycle.zero(module))
    with pytest.raises(ModcohError, match="desk scale"):
        h1_dim(module)
    assert calls == []


def test_h1_class_on_the_former_guard_input():
    # dim 150 gives a 1,500 x 600 relator system, under the cap: every class
    # of Z1 = Hom(F_2^4, F_2^150) is its own coordinates, 600 of them
    module = trivial_module(additive_family(field_new(2, 4)), 150)
    assert (z1_dim(module), b1_dim(module)) == (600, 0)
    assert h1_class(Cocycle.zero(module)) == [module.group.ctx.zero()] * 600
