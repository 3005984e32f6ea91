"""The verifier's checks on S' against the exhaustive checks they replace.

`verify._verify_payload` closes the published generators by one search
over a generating subset S', then checks the cocycle identity on S' x G
and every other group equation on S' only.  The reference below keeps the
exhaustive loops, on v4 reports: closure, inverses and the cocycle
identity over every ordered pair, the invariance of w = e_d, the
closed-form tensor witness X = [-I_d ; 0] and the toy identity
S^2(s) = [[U(s), g_s], [0, 1]] on every element, and the split system over
every published generator next to the one over S'.  It derives the actions
with the verifier's own helpers, on the elements of the verifier's closure.
"""

import functools
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modcoh.verify as verify
from modcoh.errors import FailedCheck
from modcoh.build import build_nonsplit_sequence
from modcoh.coh import extension_from_cocycle, split_system
from modcoh.gf import field_from_json, field_new
from modcoh.grp import additive_family, paired_shear_family
from modcoh.linalg import Matrix, kernel_basis, matrix_from_json, solve, vstack
from modcoh.rep import sym_power
from modcoh.report import run_pipeline

# the ten ladder instances (p, k, n) of the family-a benchmark reports
LADDER = [
    (2, 2, 2), (2, 3, 2), (2, 4, 2), (3, 2, 2), (3, 1, 2),
    (5, 1, 2), (7, 1, 2), (3, 1, 3), (2, 2, 3), (2, 3, 3),
]
LABELS = [f"GF({p}^{k}) n={n}" for p, k, n in LADDER] + ["zpxzp p=3"]


@functools.cache
def group(label):
    if label == "zpxzp p=3":
        return paired_shear_family(field_new(3))
    p, k, n = LADDER[LABELS.index(label)]
    return additive_family(field_new(p, k), n=n)


@functools.cache
def report(label):
    ctx = group(label).ctx
    params = {"p": ctx.p, "k": ctx.k, "n": group(label).n, "order_cap": 10_000, "seed": 0}
    return run_pipeline(group(label), params).report


class Derived:
    """Everything the verifier derives from a report's group, on every
    element, with its own helpers; g by its formula (s-1)iota everywhere."""

    def __init__(self, rep):
        payload = rep["payload"]
        self.payload = payload
        gobj = payload["group"]
        ctx = self.ctx = field_from_json(payload["field"])
        n = gobj["n"]
        self.generators = [matrix_from_json(ctx, m) for m in gobj["generators"]]
        self.closure = verify._generated(ctx, n, self.generators, gobj["order"])
        self.elements = self.closure[0]
        self.order = len(self.elements)
        self.index = {m: i for i, m in enumerate(self.elements)}
        ident = Matrix.identity(ctx, n)
        self.inv = [
            next(j for j, b in enumerate(self.elements) if a @ b == ident) for a in self.elements
        ]
        basis = [tuple(e) for e in payload["basis"]]
        every = range(self.order)
        sym = verify._sym_action(ctx, self.elements, basis, n, every)
        self.u = verify._u_action(ctx, self.elements, sym, self.inv, n, every)
        self.iota = matrix_from_json(ctx, payload["iota"])
        self.g = verify._cocycle(ctx, self.elements, sym, self.inv, self.iota, every[1:])
        self.d = self.u[0].rows
        self.w_dual = [
            verify._ext_matrix(ctx, self.u[j], self.g[j]).transpose() for j in self.inv
        ]
        self.w = Matrix.basis_column(ctx, self.d + 1, self.d)
        self.x = vstack([-Matrix.identity(ctx, self.d), Matrix.zeros(ctx, 1, self.d)])

    def mul(self, i, j):
        """Index of elements[i] @ elements[j], or None when it escapes the list."""
        return self.index.get(self.elements[i] @ self.elements[j])


@functools.cache
def derived(label):
    return Derived(report(label))


def witness_failures(der, x):
    """Elements where W(s) X U(s)^T - X = w g_s^T fails."""
    return [
        i for i in range(der.order)
        if der.w_dual[i] @ x @ der.u[i].transpose() - x != der.w @ der.g[i].transpose()
    ]


def reference_failures(der):
    """The exhaustive checks the S' checks replace; [] when all hold."""
    ctx, order, u, g = der.ctx, der.order, der.u, der.g
    out = []
    for i in range(order):
        for j in range(order):
            k = der.mul(i, j)
            if k is None:
                out.append(f"closure ({i}, {j})")
            elif g[k] != u[i] @ g[j] + g[i]:
                out.append(f"pair identity ({i}, {j})")
    out += [f"w fixed {i}" for i in range(order) if der.w_dual[i] @ der.w != der.w]
    out += [f"witness {i}" for i in witness_failures(der, der.x)]
    if der.payload["toy"] is not None:
        basis = verify._ordered_basis(2, 2, 2)
        action = verify._sym_action(ctx, der.elements, basis, 2, range(order))
        for i in range(order):
            if action[i] != verify._ext_matrix(ctx, u[i], g[i]):
                out.append(f"toy identity {i}")
    return out


@pytest.mark.parametrize("label", LABELS)
def test_reference_checks_hold(label):
    assert reference_failures(derived(label)) == []
    assert verify.verify_report(report(label)) >= 12
    # the verifier's X and w are the closed forms the builder checked
    ctx, d = derived(label).ctx, derived(label).d
    assert verify._hom_witness(ctx, d) == derived(label).x


@pytest.mark.parametrize("label", LABELS)
def test_verifier_sym_action_equals_the_builders(label):
    # two power tables, each in its own code: the verifier's monomial dicts
    # and the builder's polynomials give the same matrices on every element
    g = group(label)
    sym, basis = sym_power(g, g.ctx.p)
    derived_action = verify._sym_action(
        g.ctx, list(g.elements), [tuple(m) for m in basis], g.n, range(g.order)
    )
    assert derived_action == sym.actions()


@pytest.mark.parametrize("label", LABELS)
def test_u_action_is_a_homomorphism_on_all_pairs(label):
    der = derived(label)
    for i in range(der.order):
        for j in range(der.order):
            assert der.u[der.mul(i, j)] == der.u[i] @ der.u[j], (i, j)


@pytest.mark.parametrize("label", LABELS)
def test_verifier_picks_a_generating_subset(label):
    # the verifier's own closure numbers the elements as the builder does,
    # its S' is the builder's, its products are exactly S' x G, and its
    # inverses on S' are the inverses
    der = derived(label)
    elements, spanning, mul_idx, inverse = der.closure
    assert elements == group(label).elements
    assert spanning == group(label).spanning_ids
    assert set(mul_idx) == {(s, t) for s in spanning for t in range(der.order)}
    assert all(mul_idx[(s, t)] == der.mul(s, t) for s, t in mul_idx)
    assert inverse == {i: der.inv[i] for s in spanning for i in (s, der.inv[s])}


@pytest.mark.parametrize("label", LABELS)
def test_verifier_expands_g_from_s_prime_to_the_formula(label):
    # the verifier takes (s-1)iota on S' only and expands it along its BFS
    # tree, reading A and U on S' and its inverses: the expansion is the
    # formula on every element
    der = derived(label)
    _, spanning, mul_idx, _ = der.closure
    read = spanning + [der.inv[s] for s in spanning]
    basis = [tuple(e) for e in der.payload["basis"]]
    n = der.payload["group"]["n"]
    sym = verify._sym_action(der.ctx, der.elements, basis, n, read)
    u = verify._u_action(der.ctx, der.elements, sym, der.inv, n, read)
    assert [i for i, a in enumerate(u) if a is not None] == sorted(set(read))
    on_s = verify._cocycle(der.ctx, der.elements, sym, der.inv, der.iota, spanning)
    assert verify._expand_cocycle(u, on_s, mul_idx) == der.g


@functools.cache
def invariant_rows(label):
    """Hom-form witnesses X = [0 ; b^T] with b in U^G: adding one keeps the
    witness equation, since W(s) X U(s)^T = X for those X."""
    der = derived(label)
    ident = Matrix.identity(der.ctx, der.d)
    fixed = kernel_basis(vstack([der.u[s] - ident for s in der.closure[1]]))
    zeros = Matrix.zeros(der.ctx, der.d, der.d)
    return [vstack([zeros, b.transpose()]) for b in fixed]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_witness_perturbation_rejected_exactly_when_reference_rejects(data):
    # the verifier derives X itself; a perturbed derivation must be rejected
    # on S' exactly when the equation fails on some element
    label = data.draw(st.sampled_from(LABELS))
    der = derived(label)
    ctx, rows, cols = der.ctx, der.d + 1, der.d
    x = der.x
    # a few invariant directions give perturbations both sides must accept
    for y in invariant_rows(label)[:3]:
        x = x + y.scale(ctx.el(data.draw(st.integers(0, ctx.q - 1))))
    cells = data.draw(st.lists(
        st.tuples(st.integers(0, rows * cols - 1), st.integers(1, ctx.q - 1)), max_size=2,
    ))
    bump = [0] * (rows * cols)
    for pos, delta in cells:
        bump[pos] = ctx.add_i(bump[pos], delta)
    x = x + Matrix(ctx, rows, cols, bump)

    with mock.patch.object(verify, "_hom_witness", lambda ctx, d: x):
        try:
            verify.verify_report(report(label))
            accepted = True
        except FailedCheck as exc:
            assert str(exc).startswith("tensor-vanishing: witness equation fails")
            accepted = False
    assert accepted == (witness_failures(der, x) == [])
    if not any(bump):
        assert accepted


# the ladder plus GF(2), where the group hypothesis fails
SQUARE_LABELS = ["GF(2^1) n=2"] + LABELS


@pytest.mark.parametrize("label", SQUARE_LABELS)
def test_toy_is_the_main_extension_and_s_prime_split_system_agrees(label):
    g = additive_family(field_new(2)) if label == "GF(2^1) n=2" else group(label)
    main = build_nonsplit_sequence(g, require_hypothesis=False)
    ctx = g.ctx
    # every element of every 2x2 group of determinant 1 over p = 2: S^2 is
    # the extension by the main cocycle, the reference for the S' toy check
    if ctx.p == 2 and g.n == 2:
        assert all(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0] == ctx.one() for m in g.elements)
        sym = sym_power(g, 2)[0]
        total = extension_from_cocycle(main.cocycle).total
        for i in range(g.order):
            assert sym.action(i) == total.action(i), i
    # the split system over S' is consistent exactly when the one over every
    # element is
    system, rhs, ids = split_system(main.cocycle)
    assert ids == tuple(g.spanning_ids)
    ident = Matrix.identity(ctx, main.u_module.dim)
    full = vstack([main.u_module.action(i) - ident for i in range(g.order)])
    full_rhs = vstack(main.cocycle.values)
    consistent = solve(system, rhs).consistent
    assert consistent == solve(full, full_rhs).consistent
    assert consistent == main.split_result.split == (label == "GF(2^1) n=2")
