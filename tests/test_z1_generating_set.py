"""The Z1 engines on S' against each other and against systems over group
elements.

`coh._z1_basis` finds Z1 on the generating subset S' from the relator
system (elementary abelian groups) or the Schreier-graph system (every
other group); `coh._z1_columns` expands it to the stacked non-identity
coordinates; `Cocycle.validate` evaluates the relators at the values on
S', or checks the pair identity on S' x G along the tree, and checks a
full value list against its expansion from S'.  The
references here are the S' x G system in all stacked coordinates, whose
kernel_basis is the Z1 basis z1_space must return, and the system over
every ordered pair.
"""

import functools
import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from modcoh.build import resolve_module
from modcoh.cli import JobSpec, build_group
import modcoh.coh as coh
from modcoh.coh import Cocycle, b1_space, h1_class, z1_space
from modcoh.errors import NotACocycle
from modcoh.gf import field_new, field_to_json
from modcoh.grp import additive_family, closure, group_spec_from_json, paired_shear_family
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
def family(p, k, n=2):
    return additive_family(field_new(p, k), n=n)


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
    system = coh._z1_system(module)
    n = len(g.spanning_ids)
    if coh._relators_present(g):
        shape = ((n + n * (n - 1) // 2) * d, n * d)
    else:
        shape = ((n * g.order - (g.order - 1)) * d, n * d)
    assert (system.rows, system.cols) == shape
    # z1_space returns the reference basis itself: same vectors, same order
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
    assert len(group.generators) == 3 and len(group.spanning_ids) == 2
    assert_same_z1(resolve_module(group, recipe))


RELATOR_GROUPS = {
    "zpxzp p=3": lambda: paired_shear_family(field_new(3)),
    "GF(4)": lambda: family(2, 2),
    "GF(9)": lambda: family(3, 2),
    "GF(3) n=3": lambda: family(3, 1, n=3),
}
RELATOR_RECIPES = [
    "sym(2)",
    "sym(3)",
    "twist",
    "u",
    "dual(u)",
    "dual(sym(3))",
    "tensor(natural,sym(2))",
    "tensor(twist,dual(natural))",
]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(RELATOR_GROUPS)), st.sampled_from(RELATOR_RECIPES))
def test_relator_z1_matches_schreier_z1(where, recipe):
    module = module_for(RELATOR_GROUPS[where](), recipe)
    assert coh._relators_present(module.group)
    relator = kernel_basis(coh._relator_system(module))
    # same kernel, so the same reduced row space and the same kernel_basis
    assert relator == kernel_basis(coh._schreier_system(module))
    assert list(coh._z1_basis(module)) == relator


@functools.cache
def cyclic_of_order_4():
    """Z/4 over GF(2), generated by the 3x3 unipotent Jordan block."""
    ctx = field_new(2)
    return closure(ctx, 3, [Matrix.from_rows(ctx, [[1, 1, 0], [0, 1, 1], [0, 0, 1]])])


def sl2_f3_from_file(tmp_path):
    """SL_2(F_3) through the `file:` group recipe."""
    ctx = field_new(3)
    gens = [[[1, 1], [0, 1]], [[1, 0], [1, 1]]]
    path = tmp_path / "sl2_f3.json"
    path.write_text(json.dumps({
        "field": field_to_json(ctx),
        "n": 2,
        "generators": [matrix_to_json(Matrix.from_rows(ctx, g)) for g in gens],
    }))
    return build_group(JobSpec(p=3, group=f"file:{path}"))


@pytest.mark.parametrize(
    "where,recipe",
    [("Z/4", "natural"), ("Z/4", "dual(natural)"), ("Z/4", "sym(2)"),
     ("SL2(F3)", "natural"), ("SL2(F3)", "sym(2)"), ("SL2(F3)", "trivial(2)")],
)
def test_relators_declined_off_elementary_abelian_groups(monkeypatch, tmp_path, where, recipe):
    group = cyclic_of_order_4() if where == "Z/4" else sl2_f3_from_file(tmp_path)
    assert group.order == (4 if where == "Z/4" else 24)
    assert not coh._relators_present(group)

    def refused(module):
        raise AssertionError("relator system built for a group it does not present")

    monkeypatch.setattr(coh, "_relator_system", refused)
    assert_same_z1(resolve_module(group, recipe))


def on_spanning(module, vectors):
    """The S' blocks of stacked non-identity columns, in S' order."""
    d = module.dim
    return [
        vstack([v.submatrix((s - 1) * d, s * d, 0, 1) for s in module.group.spanning_ids])
        for v in vectors
    ]


def last_pivot_basis(vectors):
    """The reduced basis of span(vectors) whose pivot is each vector's last
    nonzero coordinate, in increasing pivot order: the form kernel_basis
    gives for a kernel, whatever system has that kernel."""
    ctx, n = vectors[0].ctx, vectors[0].rows
    flipped = [x for v in vectors for x in reversed(v.transpose().row_list(0))]
    reduced, _, r = rref(Matrix(ctx, len(vectors), n, flipped))
    return [Matrix(ctx, n, 1, reduced.row_list(i)[::-1]) for i in reversed(range(r))]


@functools.cache
def spanning_coordinate_classes(module):
    """The S' convention from the references: Z1 is the reference system's
    kernel restricted to the S' blocks, in kernel_basis form, B1 the
    restricted b1_space, and the complement of B1 is picked greedily by
    rank.  Returns the stacked Z1 basis and [B1 | complement] on S' with
    the B1 count."""
    zb = kernel_basis(spanning_z1_system(module))
    b1 = on_spanning(module, [c.vectorize() for c in b1_space(module)])
    cols = last_pivot_basis(b1) if b1 else []
    nb = len(cols)
    for z in last_pivot_basis(on_spanning(module, zb)):
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
def test_h1_class_matches_spanning_coordinate_reference(case, data):
    module = class_case_module(case)
    ctx = module.group.ctx
    zb, stacked, nb = spanning_coordinate_classes(module)
    vec = Matrix.zeros(ctx, (module.group.order - 1) * module.dim, 1)
    for z in zb:
        vec = vec + z.scale(ctx.el(data.draw(st.integers(0, ctx.q - 1))))
    reference = solve(stacked, on_spanning(module, [vec])[0])
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


@functools.cache
def sl2(p):
    """SL_2(F_p) from the two elementary shears."""
    ctx = field_new(p)
    return closure(ctx, 2, [Matrix.from_rows(ctx, [[1, 1], [0, 1]]),
                            Matrix.from_rows(ctx, [[1, 0], [1, 1]])])


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([3, 5]), st.sampled_from(["natural", "sym(2)", "dual(sym(2))", "u"]),
       st.data())
def test_validate_agrees_with_the_schreier_system_on_sl2(p, recipe, data):
    # off elementary abelian groups validate checks the pair identity along
    # the tree; it accepts x exactly when the Schreier Z1 system kills x.
    # x is random, or an element of Z1 changed by a random vector at one s
    group = sl2(p)
    assert not coh._relators_present(group)
    module = module_for(group, recipe)
    ctx, d, k = group.ctx, module.dim, len(group.spanning_ids)
    system = coh._schreier_system(module)
    vector = st.lists(st.integers(0, ctx.q - 1), min_size=d, max_size=d).map(
        lambda v: Matrix(ctx, d, 1, v)
    )
    if data.draw(st.booleans(), label="random x"):
        x = [data.draw(vector) for _ in range(k)]
    else:
        z = Matrix.zeros(ctx, k * d, 1)
        for basis_vector in kernel_basis(system):
            z = z + basis_vector.scale(ctx.el(data.draw(st.integers(0, ctx.q - 1))))
        x = [z.submatrix(b * d, (b + 1) * d, 0, 1) for b in range(k)]
        b = data.draw(st.integers(0, k - 1), label="perturbed s")
        x[b] = x[b] + data.draw(vector)
    try:
        Cocycle.on_spanning(module, x).validate()
        accepted = True
    except NotACocycle:
        accepted = False
    assert accepted == (system @ vstack(x)).is_zero
