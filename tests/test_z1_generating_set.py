"""The Schreier-graph Z1 engine against systems over group elements.

`coh._z1_columns` finds Z1 from the values on the generating subset S' and
expands it to the stacked non-identity coordinates; `Cocycle.validate`
checks g_{st} = s(g_t) + g_s for s in S' and every t.  The references here
are the S' x G system in all stacked coordinates, whose kernel_basis is the
Z1 basis the engine must return, and the system over every ordered pair.
"""

import functools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from modcoh.build import resolve_module
import modcoh.coh as coh
from modcoh.coh import Cocycle, b1_space, h1_class, z1_space
from modcoh.errors import NotACocycle
from modcoh.gf import field_new, field_to_json
from modcoh.grp import additive_family, group_spec_from_json, paired_shear_family
from modcoh.linalg import Matrix, kernel_basis, matrix_to_json, rref, solve, vstack

FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4)]
RECIPES = [
    "trivial(2)",
    "natural",
    "sym(2)",
    "sym(3)",
    "u",
    "dual(u)",
    "dual(sym(2))",
    "tensor(natural,natural)",
    "tensor(u,natural)",
    "hom(natural,sym(2))",
    "hom(u,u)",
]
# largest all-pairs reference system built per example, in entries
REFERENCE_ENTRY_LIMIT = 150_000


@functools.cache
def family(p, k):
    return additive_family(field_new(p, k))


@functools.cache
def module_for(group, recipe):
    return resolve_module(group, recipe)


@functools.cache
def heisenberg_with_redundant_generator():
    """Upper unitriangular 3x3 over GF(3) read from a group spec whose third
    generator is the product of the first two."""
    ctx = field_new(3)
    x = Matrix.from_rows(ctx, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    y = Matrix.from_rows(ctx, [[1, 0, 0], [0, 1, 1], [0, 0, 1]])
    spec = {
        "field": field_to_json(ctx),
        "n": 3,
        "generators": [matrix_to_json(m) for m in (x, y, x @ y)],
    }
    return group_spec_from_json(spec)


def identity_system(module, firsts):
    """One d-row block g_{st} - s(g_t) - g_s = 0 per s in firsts and
    non-identity t, in the stacked non-identity coordinates."""
    g = module.group
    ctx = g.ctx
    m, d = g.order, module.dim
    ncols = (m - 1) * d
    data = []
    for i in firsts:
        act = module.action(i)
        for j in range(1, m):
            block = [[0] * ncols for _ in range(d)]
            k = g.mul(i, j)
            for r in range(d):
                if k:
                    block[r][(k - 1) * d + r] = 1
                for c in range(d):
                    col = (j - 1) * d + c
                    block[r][col] = ctx.sub_i(block[r][col], act.raw(r, c))
                col = (i - 1) * d + r
                block[r][col] = ctx.sub_i(block[r][col], 1)
            for row in block:
                data.extend(row)
    return Matrix(ctx, len(firsts) * (m - 1) * d, ncols, data)


def spanning_z1_system(module):
    """The S' x G reference: s in S' and every non-identity t."""
    return identity_system(module, module.group.spanning_ids)


def pairwise_z1_system(module):
    """The all-pairs reference: every ordered pair of non-identity elements."""
    return identity_system(module, range(1, module.group.order))


def nonzero_rref(system):
    reduced, _, rank = rref(system)
    return reduced.submatrix(0, rank, 0, system.cols)


def assert_same_z1(module):
    spanning, pairwise = spanning_z1_system(module), pairwise_z1_system(module)
    # same row space, so the same reduced form and the same kernel_basis
    assert nonzero_rref(spanning) == nonzero_rref(pairwise)
    g, d = module.group, module.dim
    system, _ = coh._schreier_system(module)
    n = len(g.spanning_ids)
    assert (system.rows, system.cols) == ((n * g.order - (g.order - 1)) * d, n * d)
    # the engine returns the reference basis itself: same vectors, same order
    assert [c.vectorize() for c in z1_space(module)] == kernel_basis(spanning)


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(FIELDS), st.sampled_from(RECIPES))
def test_z1_system_matches_all_pairs_on_family_a(field, recipe):
    group = family(*field)
    module = module_for(group, recipe)
    m = group.order - 1
    assume(m * m * module.dim * m * module.dim <= REFERENCE_ENTRY_LIMIT)
    assert_same_z1(module)


@pytest.mark.parametrize("recipe", ["natural", "sym(2)", "u"])
def test_z1_system_matches_all_pairs_on_zpxzp_p3(recipe):
    assert_same_z1(resolve_module(paired_shear_family(field_new(3)), recipe))


@pytest.mark.parametrize("recipe", ["trivial(2)", "natural", "dual(natural)"])
def test_z1_system_matches_all_pairs_with_a_redundant_generator(recipe):
    group = heisenberg_with_redundant_generator()
    assert len(group.generator_ids) == 3 and len(group.spanning_ids) == 2
    assert_same_z1(resolve_module(group, recipe))


@functools.cache
def full_coordinate_classes(module):
    """[B1 | complement of B1 in the reference Z1 basis] on every stacked
    coordinate, the complement picked greedily by rank, with the B1 count."""
    cols = [c.vectorize() for c in b1_space(module)]
    nb = len(cols)
    zb = kernel_basis(spanning_z1_system(module))
    for z in zb:
        if rank_of(cols + [z]) > len(cols):
            cols.append(z)
    return zb, vstack([c.transpose() for c in cols]).transpose(), nb


def rank_of(columns):
    return rref(vstack([c.transpose() for c in columns]))[2]


CLASS_CASES = [
    (field, recipe)
    for field in [(2, 2), (3, 1), (5, 1), (2, 3), (3, 2)]
    for recipe in ["natural", "sym(2)", "u", "dual(u)", "hom(natural,sym(2))"]
] + [("zpxzp", "natural"), ("zpxzp", "u"), ("heisenberg", "natural"), ("heisenberg", "dual(natural)")]


@functools.cache
def zpxzp_p3():
    return paired_shear_family(field_new(3))


def class_case_module(case):
    where, recipe = case
    if where == "zpxzp":
        group = zpxzp_p3()
    elif where == "heisenberg":
        group = heisenberg_with_redundant_generator()
    else:
        group = family(*where)
    return module_for(group, recipe)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CLASS_CASES), st.data())
def test_h1_class_matches_full_coordinate_reference(case, data):
    module = class_case_module(case)
    ctx = module.group.ctx
    zb, stacked, nb = full_coordinate_classes(module)
    vec = Matrix.zeros(ctx, (module.group.order - 1) * module.dim, 1)
    for z in zb:
        vec = vec + z.scale(ctx.el(data.draw(st.integers(0, ctx.q - 1))))
    reference = solve(stacked, vec)
    assert reference.consistent
    expected = [reference.solution[nb + i, 0] for i in range(stacked.cols - nb)]
    assert h1_class(Cocycle.from_vector(module, vec)) == expected


def is_cocycle_on_all_pairs(c):
    g = c.module.group
    return all(
        c.values[g.mul(i, j)] == c.module.action(i) @ c.values[j] + c.values[i]
        for i in range(g.order)
        for j in range(g.order)
    )


@st.composite
def perturbed_cocycles(draw):
    """A random map satisfying the identity for the first r elements of S',
    0 <= r <= |S'| (r = |S'|: a random element of Z1), with values changed
    at non-S' elements."""
    if draw(st.booleans()):
        group = family(*draw(st.sampled_from([(3, 1), (2, 2), (5, 1), (2, 3), (3, 2)])))
        recipe = draw(st.sampled_from(["natural", "sym(2)", "u", "tensor(natural,natural)"]))
    else:
        group = heisenberg_with_redundant_generator()
        recipe = draw(st.sampled_from(["natural", "dual(natural)"]))
    module = module_for(group, recipe)
    ctx, d = group.ctx, module.dim
    r = draw(st.integers(0, len(group.spanning_ids)))
    vec = Matrix.zeros(ctx, (group.order - 1) * d, 1)
    for z in kernel_basis(identity_system(module, group.spanning_ids[:r])):
        vec = vec + z.scale(ctx.el(draw(st.integers(0, ctx.q - 1))))
    values = list(Cocycle.from_vector(module, vec).values)
    vector = st.lists(st.integers(0, ctx.q - 1), min_size=d, max_size=d).map(
        lambda v: Matrix(ctx, d, 1, v)
    )
    outside = [i for i in range(1, group.order) if i not in group.spanning_ids]
    for i in draw(st.lists(st.sampled_from(outside), max_size=3, unique=True)):
        values[i] = values[i] + draw(vector)
    return Cocycle(module, values)


@settings(max_examples=60, deadline=None)
@given(perturbed_cocycles())
def test_validate_on_spanning_pairs_agrees_with_all_pairs(c):
    if is_cocycle_on_all_pairs(c):
        c.validate()
    else:
        with pytest.raises(NotACocycle):
            c.validate()


@pytest.mark.parametrize(
    "make",
    [lambda: family(2, 3), lambda: family(3, 2), heisenberg_with_redundant_generator],
    ids=["GF(8)", "GF(9)", "heisenberg"],
)
def test_validate_rejects_a_change_at_each_non_generator_element(make):
    # includes elements that are no product of two elements of S'
    group = make()
    module = module_for(group, "natural")
    ctx = group.ctx
    vec = Matrix.zeros(ctx, (group.order - 1) * module.dim, 1)
    for z in kernel_basis(spanning_z1_system(module)):
        vec = vec + z
    base = Cocycle.from_vector(module, vec)
    assert is_cocycle_on_all_pairs(base)
    base.validate()
    for x in range(1, group.order):
        if x in group.spanning_ids:
            continue
        values = list(base.values)
        values[x] = values[x] + Matrix.basis_column(ctx, module.dim, 0)
        bad = Cocycle(module, values)
        assert not is_cocycle_on_all_pairs(bad)
        with pytest.raises(NotACocycle):
            bad.validate()
