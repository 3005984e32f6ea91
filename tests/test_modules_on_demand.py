"""Modules and cocycles by their generators.

A GModule builds each action matrix on first use, and a Cocycle is fixed by
its values on S' and expanded along the breadth-first tree.  The references
here are the eager builds they replace: every module by its formula on
every element (substitution through `poly.substitute_linear`, Frobenius,
kron(s^[p], S(s^-1)^T), the block extension, transpose-inverse, kron and
direct sum, with g = (s-1)iota by its formula everywhere), and the S' x G
loop `Cocycle.validate` ran before it checked the Z1 system.
"""

import functools
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modcoh.build import build_nonsplit_sequence, resolve_module
from modcoh.cli import JobSpec, build_group
from modcoh.coh import Cocycle, b1_space, z1_space
from modcoh.errors import NotACocycle
from modcoh.gf import field_new, field_to_json
from modcoh.grp import additive_family, paired_shear_family
from modcoh.linalg import Matrix, direct_sum, hstack, kron, matrix_to_json, rref, vstack
from modcoh.poly import Polynomial, monomial_basis, substitute_linear
from modcoh.report import run_pipeline

GROUPS = ["GF(4)", "GF(9)", "GF(3) n=3", "zpxzp p=3", "SL2(F3)"]


@functools.cache
def group(label):
    if label == "zpxzp p=3":
        return paired_shear_family(field_new(3))
    if label == "SL2(F3)":
        # [[1,1],[0,1]], -I and [[1,0],[1,1]], read through a `file:` recipe
        F3 = field_new(3)
        gens = [[[1, 1], [0, 1]], [[2, 0], [0, 2]], [[1, 0], [1, 1]]]
        path = Path(tempfile.mkdtemp()) / "sl2_f3.json"
        path.write_text(json.dumps({
            "field": field_to_json(F3),
            "n": 2,
            "generators": [matrix_to_json(Matrix.from_rows(F3, g)) for g in gens],
        }))
        built = build_group(JobSpec(p=3, group=f"file:{path}"))
        path.unlink()
        path.parent.rmdir()
        return built
    p, k, n = {"GF(4)": (2, 2, 2), "GF(9)": (3, 2, 2), "GF(3) n=3": (3, 1, 3)}[label]
    return additive_family(field_new(p, k), n=n)


# ---------------------------------------------------------------------------
# eager references: one matrix per element, each by its formula
# ---------------------------------------------------------------------------


@functools.cache
def eager_sym(label):
    g = group(label)
    ctx, n = g.ctx, g.n
    basis = monomial_basis(n, ctx.p, ctx.p)
    pos = {m: i for i, m in enumerate(basis)}
    N = len(basis)
    out = []
    for sigma in map(g.matrix, range(g.order)):
        data = [0] * (N * N)
        for col, mono in enumerate(basis):
            image = substitute_linear(Polynomial.from_monomial(ctx, mono, ctx.one()), sigma)
            for m, c in image.terms.items():
                data[pos[m] * N + col] = c
        out.append(Matrix(ctx, N, N, data))
    return out


@functools.cache
def eager_twist(label):
    return [
        Matrix.from_rows(m.ctx, [[m[i, j].frobenius() for j in range(m.cols)]
                                 for i in range(m.rows)])
        for m in map(group(label).matrix, range(group(label).order))
    ]


@functools.cache
def eager_u_and_g(label):
    g = group(label)
    ctx, n = g.ctx, g.n
    sym, twist = eager_sym(label), eager_twist(label)
    N = sym[0].rows
    iota = hstack(Matrix.identity(ctx, n), Matrix.zeros(ctx, n, N - n))
    u, values = [], []
    for i in range(g.order):
        a_inv = sym[g.inv[i]]
        u.append(kron(twist[i], a_inv.submatrix(n, N, n, N).transpose()))
        values.append((twist[i] @ iota @ a_inv - iota).submatrix(0, n, n, N).flatten())
    return u, values


def eager_ext(label):
    u, values = eager_u_and_g(label)
    d = u[0].rows
    ctx = u[0].ctx
    return [
        Matrix.from_rows(ctx, [
            [u_s[r, c] for c in range(d)] + [g_s[r, 0]] for r in range(d)
        ] + [[0] * d + [1]])
        for u_s, g_s in zip(u, values)
    ]


def eager_dual(label, mats):
    return [mats[j].transpose() for j in group(label).inv]


@functools.cache
def eager(label, recipe):
    p = group(label).ctx.p
    sym, twist = eager_sym(label), eager_twist(label)
    u = eager_u_and_g(label)[0]
    return {
        f"sym({p})": lambda: sym,
        "twist": lambda: twist,
        "u": lambda: u,
        "uext": lambda: eager_ext(label),
        "dual(u)": lambda: eager_dual(label, u),
        f"tensor(twist,sym({p}))": lambda: [kron(a, b) for a, b in zip(twist, sym)],
        f"hom(sym({p}),twist)": lambda: [
            kron(a, b) for a, b in zip(twist, eager_dual(label, sym))
        ],
        "sum(twist,u)": lambda: [direct_sum(a, b) for a, b in zip(twist, u)],
    }[recipe]()


RECIPES = ["sym(P)", "twist", "u", "uext", "dual(u)", "tensor(twist,sym(P))",
           "hom(sym(P),twist)", "sum(twist,u)"]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(GROUPS), st.sampled_from(RECIPES), st.data())
def test_on_demand_module_equals_the_eager_build(label, recipe, data):
    # each module is built fresh and read in a drawn order, so an action is
    # right whichever elements were built before it
    g = group(label)
    recipe = recipe.replace("P", str(g.ctx.p))
    module = resolve_module(g, recipe)
    order = data.draw(st.permutations(range(g.order)))
    want = eager(label, recipe)
    for i in order:
        assert module.action(i) == want[i], (recipe, i)
    assert module.actions() == want


@pytest.mark.parametrize("label", GROUPS)
def test_main_cocycle_expands_to_the_formula(label):
    # g is given on S' only; its expansion along the BFS tree is (s-1)iota
    # on every element
    seq = build_nonsplit_sequence(group(label), require_hypothesis=False)
    assert list(seq.cocycle.values) == eager_u_and_g(label)[1]


# ---------------------------------------------------------------------------
# the pipeline reads actions on S' and its inverses only
# ---------------------------------------------------------------------------

# the ext-n2 and prime benchmark instances (p, k, n)
EXT_N2 = [(2, 2, 2), (2, 3, 2), (2, 4, 2), (3, 2, 2)]
PRIME = [(3, 1, 2), (5, 1, 2), (7, 1, 2), (3, 1, 3)]


def built_ids(module):
    return {i for i, act in enumerate(module._act) if act is not None}


@pytest.mark.parametrize("p,k,n", EXT_N2 + PRIME)
def test_pipeline_builds_actions_on_s_prime_and_inverses_only(p, k, n):
    # the report path builds no module: the certificate reads monomial
    # images, and the dims are formulas.  The sequence makes V, U and U~ on
    # first read, for h1 and the module recipes; g on S' then reads A on S'
    # and its inverses only (the block checks read S', and g_s is made from
    # A(s^-1)), and U and U~ on no element
    g = additive_family(field_new(p, k), n=n)
    params = {"p": p, "k": k, "n": n, "order_cap": 10_000, "seed": 0}
    result = run_pipeline(g, params)
    seq = result.sequence
    assert (result.report["payload"]["toy"] is not None) == (p == n == 2)
    assert not {"twist", "sym_module", "u_module", "cocycle", "extension"} & set(vars(seq))
    seq.cocycle
    read = set(g.spanning_ids) | {g.inv[s] for s in g.spanning_ids}
    assert read < set(range(g.order))
    assert built_ids(seq.sym_module) == read
    assert built_ids(seq.u_module) == set()
    assert built_ids(seq.extension.total) == set()


DUMP_RECIPES = ["natural", "twist", "u", "uext", "dual(natural)", "tensor(natural,twist)",
                "sum(twist,u)"]


@pytest.mark.parametrize("recipe", DUMP_RECIPES)
@pytest.mark.parametrize("label", GROUPS)
def test_dump_basis_reads_actions_on_s_prime_only(label, recipe):
    # the Z1 and B1 bases `h1 --dump-basis` prints are expanded from S'; B1
    # is the reduced basis the stack of (g-1) over every g != 1 gives
    g = group(label)
    module = resolve_module(g, recipe)
    z1_space(module)
    b1 = [c.vectorize() for c in b1_space(module)]
    assert built_ids(module) <= set(g.spanning_ids), recipe
    ident = Matrix.identity(g.ctx, module.dim)
    stack = vstack([module.action(i) - ident for i in range(1, g.order)])
    reduced, _, rank = rref(stack.transpose())
    assert b1 == [reduced.submatrix(i, i + 1, 0, reduced.cols).transpose() for i in range(rank)]


# ---------------------------------------------------------------------------
# Cocycle.validate against the S' x G loop it replaced
# ---------------------------------------------------------------------------


def spanning_pairs_reference(c):
    """The S' x G loop: g_st = A(s) g_t + g_s for s in S' and every t."""
    g = c.module.group
    return all(
        c.values[g.mul(s, t)] == c.module.action(s) @ c.values[t] + c.values[s]
        for s in g.spanning_ids
        for t in range(g.order)
    )


def is_cocycle_on_all_pairs(c):
    g = c.module.group
    return all(
        c.values[g.mul(i, j)] == c.module.action(i) @ c.values[j] + c.values[i]
        for i in range(g.order)
        for j in range(g.order)
    )


VALIDATE_GROUPS = ["GF(4)", "GF(9)", "zpxzp p=3", "SL2(F3)"]
VALIDATE_RECIPES = ["natural", "dual(natural)", "tensor(natural,twist)", "hom(natural,twist)",
                    "hom(twist,dual(natural))", "u"]


@functools.cache
def validate_module(label, recipe):
    return resolve_module(group(label), recipe)


@functools.cache
def z1_vectors(label, recipe):
    return [z.vectorize() for z in z1_space(validate_module(label, recipe))]


@st.composite
def cocycles(draw):
    """An element of Z1 as a full list, possibly changed at elements off S';
    or values on S' only, from Z1 or drawn at random."""
    label, recipe = draw(st.sampled_from(VALIDATE_GROUPS)), draw(st.sampled_from(VALIDATE_RECIPES))
    module = validate_module(label, recipe)
    g = module.group
    ctx, d = g.ctx, module.dim
    scalar = st.integers(0, ctx.q - 1).map(ctx.el)
    vec = Matrix.zeros(ctx, (g.order - 1) * d, 1)
    for z in z1_vectors(label, recipe):
        vec = vec + z.scale(draw(scalar))
    full = Cocycle.from_vector(module, vec)
    column = st.lists(st.integers(0, ctx.q - 1), min_size=d, max_size=d).map(
        lambda v: Matrix(ctx, d, 1, v)
    )
    kind = draw(st.sampled_from(["full", "changed off S'", "S' from Z1", "S' at random"]))
    if kind == "full":
        return full
    if kind == "changed off S'":
        values = list(full.values)
        outside = [i for i in range(1, g.order) if i not in g.spanning_ids]
        for i in draw(st.lists(st.sampled_from(outside), min_size=1, max_size=2, unique=True)):
            values[i] = values[i] + draw(column)
        return Cocycle(module, values)
    if kind == "S' from Z1":
        return Cocycle.on_spanning(module, full.spanning_values)
    return Cocycle.on_spanning(module, [draw(column) for _ in g.spanning_ids])


@settings(max_examples=80, deadline=None)
@given(cocycles())
def test_z1_system_check_agrees_with_the_spanning_pairs_loop(c):
    accepted = spanning_pairs_reference(c)
    if accepted:
        c.validate()
        # the cocycle identity on every pair, through dual, tensor and hom
        assert is_cocycle_on_all_pairs(c)
    else:
        with pytest.raises(NotACocycle):
            c.validate()


@pytest.mark.parametrize("label", VALIDATE_GROUPS)
def test_a_list_wrong_off_s_prime_is_rejected(label):
    module = validate_module(label, "natural")
    g = module.group
    vec = Matrix.zeros(g.ctx, (g.order - 1) * module.dim, 1)
    for z in z1_vectors(label, "natural"):
        vec = vec + z
    base = Cocycle.from_vector(module, vec)
    base.validate()
    for x in range(1, g.order):
        if x in g.spanning_ids:
            continue
        values = list(base.values)
        values[x] = values[x] + Matrix.basis_column(g.ctx, module.dim, 0)
        bad = Cocycle(module, values)
        assert not spanning_pairs_reference(bad)
        with pytest.raises(NotACocycle, match=f"value at element {x} "):
            bad.validate()
