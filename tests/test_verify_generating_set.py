"""The verifier's checks on S' against the exhaustive checks they replace.

`verify._verify_payload` proves the element list is exactly the group the
generators generate by one BFS over a generating subset S', then checks the
cocycle identity on S' x G and every other group equation on S' only.  The
reference below keeps the loops it replaced: closure and the cocycle
identity over every ordered pair, and the invariance of w, the tensor
witness and the toy comparison on every element.  It derives the actions
with the verifier's own helpers.  (No valid report carries a Split verdict,
so the Split-witness loop has no reference here.)
"""

import functools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modcoh.verify as verify
from modcoh.errors import FailedCheck
from modcoh.gf import element_from_json, field_from_json, field_new
from modcoh.grp import additive_family, paired_shear_family
from modcoh.jsonutil import digest_of
from modcoh.linalg import Matrix, kernel_basis, matrix_from_json, matrix_to_json, vstack
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
    """Everything the verifier derives from a report's group, on every element."""

    def __init__(self, rep):
        payload = rep["payload"]
        self.payload = payload
        gobj = payload["group"]
        ctx = self.ctx = field_from_json(payload["field"])
        n = gobj["n"]
        self.elements = [matrix_from_json(ctx, m) for m in gobj["elements"]]
        self.gen_ids = gobj["generator_ids"]
        self.inv = gobj["inverse"]
        self.order = len(self.elements)
        basis = [tuple(e) for e in payload["basis"]]
        sym = verify._sym_action(ctx, self.elements, basis, n)
        self.u = verify._u_action(ctx, self.elements, sym, self.inv, n)
        self.g = verify._cocycle(
            ctx, self.elements, sym, self.inv, matrix_from_json(ctx, payload["iota"])
        )
        self.d = self.u[0].rows
        self.w_dual = [
            verify._ext_matrix(ctx, self.u[j], self.g[j]).transpose() for j in self.inv
        ]
        tv = payload["tensor_vanishing"]
        self.w = matrix_from_json(ctx, tv["w"])
        self.x = matrix_from_json(ctx, tv["witness"]).reshape(self.d + 1, self.d)

    def mul(self, i, j):
        """Index of elements[i] @ elements[j], or None when it escapes the list."""
        prod = self.elements[i] @ self.elements[j]
        return next((k for k, m in enumerate(self.elements) if m == prod), None)


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
    toy = der.payload["toy"]
    if toy is not None:
        action = verify._sym_action(ctx, der.elements, verify._ordered_basis(2, 2, 2), 2)
        toy_u = [a.submatrix(0, 2, 0, 2) for a in action]
        v0 = matrix_from_json(ctx, toy["v0"])
        ident3 = Matrix.identity(ctx, 3)
        values = [((a - ident3) @ v0).submatrix(0, 2, 0, 1) for a in action]
        if toy["hypothesis_ok"]:
            t = matrix_from_json(ctx, toy["intertwiner"])
            c = element_from_json(ctx, toy["class_scalar"])
            v = matrix_from_json(ctx, toy["coboundary_witness"])
            ident_u = Matrix.identity(ctx, der.d)
            for i in range(order):
                if u[i] @ t != t @ toy_u[i]:
                    out.append(f"toy intertwiner {i}")
                if t @ values[i] != g[i].scale(c) + (u[i] - ident_u) @ v:
                    out.append(f"toy class comparison {i}")
    return out


@pytest.mark.parametrize("label", LABELS)
def test_reference_checks_hold(label):
    assert reference_failures(derived(label)) == []
    assert verify.verify_report(report(label)) >= 12


@pytest.mark.parametrize("label", LABELS)
def test_verifier_sym_action_equals_the_builders(label):
    # two power tables, each in its own code: the verifier's monomial dicts
    # and the builder's polynomials give the same matrices on every element
    g = group(label)
    sym, basis = sym_power(g, g.ctx.p)
    derived_action = verify._sym_action(g.ctx, list(g.elements), [tuple(m) for m in basis], g.n)
    assert derived_action == sym.actions()


@pytest.mark.parametrize("label", LABELS)
def test_u_action_is_a_homomorphism_on_all_pairs(label):
    der = derived(label)
    for i in range(der.order):
        for j in range(der.order):
            assert der.u[der.mul(i, j)] == der.u[i] @ der.u[j], (i, j)


@pytest.mark.parametrize("label", LABELS)
def test_verifier_picks_a_generating_subset(label):
    # the verifier's own S' is the builder's choice, and its products are
    # exactly S' x G
    der = derived(label)
    index = {m: i for i, m in enumerate(der.elements)}
    spanning, mul_idx = verify._generated(der.elements, index, der.gen_ids)
    assert spanning == group(label).spanning_ids
    assert set(mul_idx) == {(s, t) for s in spanning for t in range(der.order)}
    assert all(mul_idx[(s, t)] == der.mul(s, t) for s, t in mul_idx)


@functools.cache
def invariant_rows(label):
    """Hom-form witnesses X = [0 ; b^T] with b in U^G: adding one keeps the
    witness equation, since W(s) X U(s)^T = X for those X."""
    der = derived(label)
    ident = Matrix.identity(der.ctx, der.d)
    fixed = kernel_basis(vstack([der.u[s] - ident for s in der.gen_ids]))
    zeros = Matrix.zeros(der.ctx, der.d, der.d)
    return [vstack([zeros, b.transpose()]) for b in fixed]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_witness_perturbation_rejected_exactly_when_reference_rejects(data):
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

    tampered = json.loads(json.dumps(report(label)))
    tampered["payload"]["tensor_vanishing"]["witness"] = matrix_to_json(x.flatten())
    tampered["digest"] = digest_of(tampered["payload"])
    try:
        verify.verify_report(tampered)
        accepted = True
    except FailedCheck as exc:
        assert str(exc).startswith("tensor-vanishing: witness equation fails")
        accepted = False
    assert accepted == (witness_failures(der, x) == [])
    if not any(bump):
        assert accepted
