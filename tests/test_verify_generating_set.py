"""The verifier's checks and proofs against the exhaustive checks they replace.

`verify._verify_payload` closes the published generators by one search
over a generating subset S' and checks the closed-form non-split row on H
from the images of its monomials under H^-1.  The block form of A (the
Frobenius), g = (s-1)iota lying in U and being a cocycle (the coboundary
of iota in Hom(V, W)), the tensor witness and the toy identity are
proved, not checked.  The reference below keeps the exhaustive loops: the
block form and (s-1)iota on every element, closure, inverses and the
cocycle identity of the formula over every ordered pair, the invariance
of w = e_d, the closed-form tensor witness X = [-I_d ; 0] in dense Hom
form and the toy identity S^2(s) = [[U(s), g_s], [0, 1]] on every
element, and the split system over every published generator next to the
one over S', and the non-split row against the dense stacked U(h) - I and
g_h.  It derives the dense action A column by column from the verifier's
own monomial images (`image_action`), on the elements of the verifier's
closure, and applies U(s) from its factors with `u_apply`.
"""

import functools
import json
import re
import tempfile
from itertools import permutations
from math import comb
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modcoh.coh as coh
import modcoh.verify as verify
from modcoh.errors import FailedCheck, NotACocycle
from modcoh.build import TensorVanishing, build_nonsplit_sequence
from modcoh.cli import JobSpec, build_group
from modcoh.coh import Cocycle, extension_from_cocycle, split_system
from modcoh.gf import field_from_json, field_new, field_to_json
from modcoh.grp import additive_family, closure, family_matrix, paired_shear_family
from modcoh.linalg import (
    Matrix, hstack, inverse, is_invertible, kron, matrix_to_json, matrix_values_from_json, solve,
    vstack,
)
import modcoh.rep as rep
from modcoh.rep import sym_power
from modcoh.report import run_pipeline

# the ten ladder instances (p, k, n) of the family-a benchmark reports
LADDER = [
    (2, 2, 2), (2, 3, 2), (2, 4, 2), (3, 2, 2), (3, 1, 2),
    (5, 1, 2), (7, 1, 2), (3, 1, 3), (2, 2, 3), (2, 3, 3),
]
LABELS = [f"GF({p}^{k}) n={n}" for p, k, n in LADDER] + ["zpxzp p=3"]
# the first non-abelian group, read through a `file:` recipe; every label
# above is elementary abelian
SL2_FILE = "SL2(F3) file"


def sl2_f3_from_file():
    """SL_2(F_3) by [[1,1],[0,1]], -I and [[1,0],[1,1]], through `file:`."""
    F3 = field_new(3)
    gens = [[[1, 1], [0, 1]], [[2, 0], [0, 2]], [[1, 0], [1, 1]]]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sl2_f3.json"
        path.write_text(json.dumps({
            "field": field_to_json(F3),
            "n": 2,
            "generators": [matrix_to_json(Matrix.from_rows(F3, g)) for g in gens],
        }))
        return build_group(JobSpec(p=3, group=f"file:{path}"))


@functools.cache
def group(label):
    if label == "zpxzp p=3":
        return paired_shear_family(field_new(3))
    if label == SL2_FILE:
        return sl2_f3_from_file()
    p, k, n = LADDER[LABELS.index(label)]
    return additive_family(field_new(p, k), n=n)


@functools.cache
def report(label):
    ctx = group(label).ctx
    params = {"p": ctx.p, "k": ctx.k, "n": group(label).n, "order_cap": 10_000, "seed": 0}
    return run_pipeline(group(label), params).report


@functools.cache
def sequence(label):
    return build_nonsplit_sequence(group(label))


def lower_right(a, n):
    """S, the action on V/W: the block of A below and right of the twist."""
    return a.submatrix(n, a.rows, n, a.cols)


def ext_matrix(ctx, act, val):
    """The block matrix [[U(s), g_s], [0, 1]]."""
    d = act.rows
    data = []
    for r in range(d):
        data.extend(act.row_list(r))
        data.append(val.raw(r, 0))
    data.extend([0] * d + [1])
    return Matrix(ctx, d + 1, d + 1, data)


def factored_apply(twist_s, a_inv, v):
    """U(s) @ v from U's factors s^[p] = `twist_s` and S(s^-1), the block of
    `a_inv` = A(s^-1): v = vec(F) for an n x (N-n) matrix F, and
    kron(A, B) vec(F) = vec(A F B^T) makes it vec(s^[p] F S(s^-1))."""
    n = twist_s.rows
    f = v.reshape(n, v.rows // n)
    return (twist_s @ f @ lower_right(a_inv, n)).flatten()


def basis_of(n, d, p):
    """The prescribed order of the degree-d monomials, as exponent tuples:
    the coordinates of the dense reference, which the verifier never
    orders."""
    return [tuple(m) for m in rep.monomial_basis(n, d, p)]


def image_action(ctx, sigma, basis):
    """A(sigma) on `basis`, each column the verifier's image of its
    monomial under sigma, placed by its code."""
    n, d, N = sigma.rows, sum(basis[0]), len(basis)
    pos = {verify._code(m, d): i for i, m in enumerate(basis)}
    cells = tuple(sigma.raw(i, j) for i in range(n) for j in range(n))
    data = [0] * (N * N)
    for col, mono in enumerate(basis):
        for code, v in verify._image(ctx, cells, n, mono).items():
            data[pos[code] * N + col] = v
    return Matrix(ctx, N, N, data)


def frob_matrix(ctx, m):
    """The Frobenius twist m^[p], entrywise."""
    return Matrix(ctx, m.rows, m.cols, [
        ctx.frob_i(m.raw(i, j)) for i in range(m.rows) for j in range(m.cols)
    ])


def sym_actions(ctx, elements, basis, ids):
    """A at each id in `ids`, keyed by id, from the verifier's images."""
    return {i: image_action(ctx, elements[i], basis) for i in ids}


def cocycle_formula(twist, sym, inv, ids):
    """g_s = (s-1)iota at each id s in `ids`, keyed by id: the right block
    of s^[p] A(s^-1)[0:n, :], whose left block must be I_n (g in U)."""
    out = {}
    for s in ids:
        t, a_inv = twist[s], sym[inv[s]]
        n = t.rows
        full = t @ a_inv.submatrix(0, n, 0, a_inv.cols)
        assert full.submatrix(0, n, 0, n) == Matrix.identity(t.ctx, n), s
        out[s] = full.submatrix(0, n, n, a_inv.cols).flatten()
    return out


def dense_u(ctx, elements, sym, inv, n, ids):
    """U(s) = kron(s^[p], S(s^-1)^T), the dense d x d matrix, at each id in
    `ids`, with S the lower-right block of the verifier's A(s^-1); None at
    every other id.  The reference for the factored apply: neither the
    builder nor the verifier forms it."""
    out = [None] * len(elements)
    for i in ids:
        s_block = lower_right(sym[inv[i]], n)
        out[i] = kron(frob_matrix(ctx, elements[i]), s_block.transpose())
    return out


def twists(ctx, elements, ids):
    """s^[p] at each id in `ids`, keyed by id."""
    return {i: frob_matrix(ctx, elements[i]) for i in ids}


def matrices(group):
    """Every element of a builder's group as a Matrix, in id order."""
    return [group.matrix(i) for i in range(group.order)]


class Derived:
    """The dense action A on every element of the verifier's closure, from
    the verifier's monomial images, and the dense U(s) of `dense_u`; g by
    its formula (s-1)iota everywhere, and g_1 = 0.  The closure's row-major
    tuples are made matrices here, for every element.  The report ships
    neither the basis nor iota, so both are derived from n and p: the
    prescribed monomial order and iota = (I_n | 0)."""

    def __init__(self, rep):
        payload = rep["payload"]
        self.payload = payload
        gobj = payload["group"]
        ctx = self.ctx = field_from_json(gobj["field"])
        n = gobj["n"]
        generators = [tuple(matrix_values_from_json(ctx, m)[2]) for m in gobj["generators"]]
        self.closure = verify._generated(ctx, n, generators, gobj["order"])[:3]
        self.elements = [Matrix(ctx, n, n, list(e)) for e in self.closure[0]]
        self.order = len(self.elements)
        self.index = {m: i for i, m in enumerate(self.elements)}
        ident = Matrix.identity(ctx, n)
        self.inv = [
            next(j for j, b in enumerate(self.elements) if a @ b == ident) for a in self.elements
        ]
        N = comb(n + ctx.p - 1, ctx.p)
        self.basis = basis_of(n, ctx.p, ctx.p)
        self.iota = hstack(Matrix.identity(ctx, n), Matrix.zeros(ctx, n, N - n))
        every = range(self.order)
        self.n = n
        self.twist = twists(ctx, self.elements, every)
        sym = sym_actions(ctx, self.elements, self.basis, every)
        self.sym = [sym[i] for i in every]
        self.u = dense_u(ctx, self.elements, self.sym, self.inv, n, every)
        g = cocycle_formula(self.twist, self.sym, self.inv, every[1:])
        self.d = self.u[0].rows
        self.g = [Matrix.zeros(ctx, self.d, 1)] + [g[i] for i in every[1:]]
        self.w = Matrix.basis_column(ctx, self.d + 1, self.d)
        self.x = vstack([-Matrix.identity(ctx, self.d), Matrix.zeros(ctx, 1, self.d)])

    def mul(self, i, j):
        """Index of elements[i] @ elements[j], or None when it escapes the list."""
        return self.index.get(self.elements[i] @ self.elements[j])


@functools.cache
def derived(label):
    return Derived(report(label))


def witness_failures(der, u, g):
    """Elements where the Hom form W(s) X U(s)^T - X = w g_s^T fails, with
    W(s) = [[U(s^-1), g_{s^-1}], [0, 1]]^T and X = [-I_d ; 0], every matrix
    dense: the equation the verifier checks in reduced form."""
    x = der.x
    out = []
    for i in range(der.order):
        w_dual = ext_matrix(der.ctx, u[der.inv[i]], g[der.inv[i]]).transpose()
        if w_dual @ x @ u[i].transpose() - x != der.w @ g[i].transpose():
            out.append(i)
    return out


def reference_failures(der):
    """The exhaustive checks the S' checks replace; [] when all hold."""
    ctx, order, u, g = der.ctx, der.order, der.u, der.g
    n, iota = der.n, der.iota
    out = []
    for i in range(order):
        # the block form, which the Frobenius proves for every element
        a = der.sym[i]
        if a.submatrix(0, n, 0, n) != der.twist[i] or not a.submatrix(n, a.rows, 0, n).is_zero:
            out.append(f"block form {i}")
    for i in range(1, order):
        # g_s = (s-1)iota reads iota A(s^-1) off the top n rows; here it is a product
        full = der.twist[i] @ iota @ der.sym[der.inv[i]] - iota
        if not full.submatrix(0, n, 0, n).is_zero or g[i] != full.submatrix(
            0, n, n, full.cols
        ).flatten():
            out.append(f"(s-1)iota {i}")
    for i in range(order):
        for j in range(order):
            k = der.mul(i, j)
            if k is None:
                out.append(f"closure ({i}, {j})")
            elif g[k] != u[i] @ g[j] + g[i]:
                out.append(f"pair identity ({i}, {j})")
    for i in range(order):
        w_dual = ext_matrix(ctx, u[der.inv[i]], g[der.inv[i]]).transpose()
        if w_dual @ der.w != der.w:
            out.append(f"w fixed {i}")
    out += [f"witness {i}" for i in witness_failures(der, u, g)]
    if der.payload["toy"] is not None:
        action = sym_actions(ctx, der.elements, basis_of(2, 2, 2), range(order))
        for i in range(order):
            if action[i] != ext_matrix(ctx, u[i], g[i]):
                out.append(f"toy identity {i}")
    return out


@pytest.mark.parametrize("label", LABELS + [SL2_FILE])
def test_reference_checks_hold(label):
    # the all-pairs loop checks the cocycle identity of the formula
    # g = (x-1)iota, which the verifier reads on S' and its inverses only
    assert reference_failures(derived(label)) == []
    assert verify.verify_report(report(label)) >= 6
    # the X and w of the reference are the closed forms the builder checked
    der = derived(label)
    closed_forms = TensorVanishing(der.ctx, der.d)
    assert (closed_forms.witness, closed_forms.w) == (der.x.flatten(), der.w)


@pytest.mark.parametrize("label", LABELS)
def test_verifier_sym_action_equals_the_builders(label):
    # each in its own code: the verifier's image of every monomial and the
    # builder's power tables give the same matrices on every element
    g = group(label)
    sym, basis = sym_power(g, g.ctx.p)
    every = range(g.order)
    derived_action = sym_actions(g.ctx, matrices(g), [tuple(m) for m in basis], every)
    assert [derived_action[i] for i in every] == sym.actions()


# the fields of the multiplicativity test: prime, characteristic 2 and odd
# extensions, and GF(17^2) = F_17[x]/(x^2 - 3), past the field tables
SUBSTITUTION_FIELDS = [(2, 1, None), (3, 1, None), (2, 2, None), (3, 2, None), (17, 2, [14, 0, 1])]


@functools.cache
def substitution_field(p, k, modulus):
    return field_new(p, k, None if modulus is None else list(modulus))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
def test_substitution_is_multiplicative_for_all_matrices(data):
    # the proof that S(s) S(s^-1) = I, which neither the builder nor the
    # verifier multiplies out: A(sigma) A(tau) = A(sigma tau) and A(I) = I
    # for any n x n sigma and tau, singular ones too, in both codes: the
    # verifier's monomial images and the builder's power tables.  The
    # degree is p, 2 or 3, with N at most 20 (GF(17^2) at n = 3 and degree
    # 17 has N = 171, too slow here), as the power tables do not use it
    p, k, modulus = data.draw(st.sampled_from(SUBSTITUTION_FIELDS))
    ctx = substitution_field(p, k, None if modulus is None else tuple(modulus))
    n = data.draw(st.sampled_from([2, 3]))
    d = data.draw(st.sampled_from([e for e in sorted({2, 3, p}) if comb(n + e - 1, e) <= 20]))

    def square():
        return data.draw(st.lists(st.integers(0, ctx.q - 1), min_size=n * n, max_size=n * n))

    sigma, tau = square(), square()
    if data.draw(st.booleans()):
        # the last row of sigma a multiple of its first: sigma is singular
        c = data.draw(st.integers(0, ctx.q - 1))
        sigma[-n:] = [ctx.mul_i(c, v) for v in sigma[:n]]
    sigma, tau = (Matrix(ctx, n, n, cells) for cells in (sigma, tau))
    v_basis = basis_of(n, d, p)
    r_basis = rep.monomial_basis(n, d, p)
    r_pos = {rep.monomial_code(m, d): i for i, m in enumerate(r_basis)}
    for action in (
        lambda x: image_action(ctx, x, v_basis),
        lambda x: rep._substitution_matrix(x, r_basis, r_pos),
    ):
        assert action(sigma) @ action(tau) == action(sigma @ tau)
        assert action(Matrix.identity(ctx, n)) == Matrix.identity(ctx, len(v_basis))


def u_apply(der, i, v):
    """U(i) @ v from U(i)'s factors, on the verifier's derived A."""
    return factored_apply(der.twist[i], der.sym[der.inv[i]], v)


@pytest.mark.parametrize("label", LABELS)
def test_u_apply_is_a_homomorphism_on_all_pairs(label):
    # U(ij) e = U(i) (U(j) e) for every unit vector e, so for every vector:
    # the factored apply is an action, with no d x d matrix
    der = derived(label)
    units = [Matrix.basis_column(der.ctx, der.d, b) for b in range(der.d)]
    for i in range(der.order):
        for j in range(der.order):
            for e in units:
                assert u_apply(der, der.mul(i, j), e) == u_apply(der, i, u_apply(der, j, e)), (i, j)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_factored_apply_equals_the_dense_kron(data):
    # for v = vec(F), F a random n x (N-n) matrix, and any element s, U(s) @ v
    # from the factors s^[p] and S(s^-1), of the verifier's A and of the
    # builder's, is the dense kron(s^[p], S(s^-1)^T) @ v: the `u_apply` that
    # the tests here expand g with is U
    label = data.draw(st.sampled_from(LABELS + [SL2_FILE]))
    der, seq = derived(label), sequence(label)
    ctx, d = der.ctx, der.d
    s = data.draw(st.integers(0, der.order - 1))
    v = Matrix(ctx, d, 1, data.draw(st.lists(st.integers(0, ctx.q - 1), min_size=d, max_size=d)))
    want = der.u[s] @ v
    assert u_apply(der, s, v) == want
    a_inv = seq.sym_module.action(group(label).inv[s])
    assert factored_apply(seq.twist.action(s), a_inv, v) == want


@pytest.mark.parametrize("label", LABELS + [SL2_FILE])
def test_verifier_picks_a_generating_subset(label):
    # the verifier's own closure numbers the elements as the builder does,
    # its S' is the builder's, and its inverses on S' are the inverses
    der = derived(label)
    elements, spanning, inverse = der.closure
    assert elements == group(label).elements
    assert dict(zip(elements, range(der.order))) == group(label).index
    assert der.elements == matrices(group(label))
    assert spanning == group(label).spanning_ids
    assert inverse == {i: der.inv[i] for s in spanning for i in (s, der.inv[s])}


@pytest.mark.parametrize("label", LABELS + [SL2_FILE])
def test_verifier_expands_g_from_s_prime_to_the_formula(label):
    # (s-1)iota on S' and its inverses, from A on S' and its inverses only,
    # as the builder's g for h1 is made.  The cocycle its values on S' fix,
    # expanded along the search tree by g_st = U(s) g_t + g_s with U(s)
    # applied from its factors on S' only, is the formula on every element
    der = derived(label)
    _, spanning, _ = der.closure
    read = spanning + [der.inv[s] for s in spanning]
    sym = sym_actions(der.ctx, der.elements, der.basis, read)
    g = cocycle_formula(der.twist, sym, der.inv, read)
    assert sorted(g) == sorted(set(read))
    assert all(g[i] == der.g[i] for i in read)
    expanded = [der.g[0]] + [None] * (der.order - 1)
    for s in spanning:
        expanded[s] = g[s]
    parents = group(label).tree_parents
    for k in range(1, der.order):
        if expanded[k] is None:
            s, t = parents[k]
            moved = factored_apply(der.twist[s], sym[der.inv[s]], expanded[t])
            expanded[k] = moved + g[s]
    assert expanded == der.g


def with_lower_right(der, j, block):
    """A(j) with its lower-right block S(j) replaced by `block`."""
    a, n = der.sym[j], der.n
    N = a.rows
    data = [a.raw(r, c) for r in range(N) for c in range(N)]
    for r in range(N - n):
        data[(n + r) * N + n : (r + n + 1) * N] = block.row_list(r)
    return Matrix(der.ctx, N, N, data)


def bump(ctx, m, cells):
    """m plus the (flat position, nonzero delta) cells."""
    data = [m.raw(r, c) for r in range(m.rows) for c in range(m.cols)]
    for pos, delta in cells:
        data[pos] = ctx.add_i(data[pos], delta)
    return Matrix(ctx, m.rows, m.cols, data)


def reduced_witness_failures(der, sym, g, ids):
    """Elements s of `ids` where U(s) g_{s^-1} = -g_s fails, with U(s)
    applied from its factors s^[p] and S(s^-1): the reduced last row block
    of the witness equation, which the verifier proves as the cocycle
    identity at (s, s^-1) of the coboundary g."""
    return [
        s for s in ids
        if not (factored_apply(der.twist[s], sym[der.inv[s]], g[der.inv[s]]) + g[s]).is_zero
    ]


def last_row_failures(der, u, g, ids):
    """Elements of `ids` where the last row block of the dense Hom form
    W(s) X U(s)^T - X = w g_s^T fails.  Row d of W(s) is (g_{s^-1}^T, 1),
    so the block reads -(U(s) g_{s^-1})^T = g_s^T; the top d rows,
    U(s) U(s^-1) = I, hold by A's multiplicativity and are not read."""
    x, d = der.x, der.d
    out = []
    for i in ids:
        w_dual = ext_matrix(der.ctx, u[der.inv[i]], g[der.inv[i]]).transpose()
        lhs = w_dual @ x @ u[i].transpose() - x
        if lhs.submatrix(d, d + 1, 0, d) != g[i].transpose():
            out.append(i)
    return out


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_witness_perturbation_rejected_exactly_when_reference_rejects(data):
    # the reduced form U(s) g_{s^-1} = -g_s on S' rejects a perturbed
    # derivation exactly when the last row block of the dense Hom form
    # fails on S': the reduction the verifier's proof of the tensor witness
    # rests on.  U(s) is applied only from its factors s^[p] and S(s^-1),
    # so U(s) is perturbed through S(s^-1), and g at s^-1 directly.  A
    # compensated draw then sets g_{s^-1} = -U(s)^-1 g_s, a derivation both
    # sides must accept when s^-1 is not itself in S'
    label = data.draw(st.sampled_from(LABELS + [SL2_FILE]))
    der = derived(label)
    ctx, n = der.ctx, der.n
    _, spanning, _ = der.closure
    s = data.draw(st.sampled_from(spanning))
    s_inv = der.inv[s]
    site = data.draw(st.sampled_from(["U(s)", "g_{s^-1}"]))
    sym, g = list(der.sym), list(der.g)
    k = sym[s].rows - n
    cells = data.draw(st.lists(
        st.tuples(st.integers(0, (der.d if site == "g_{s^-1}" else k * k) - 1),
                  st.integers(1, ctx.q - 1)),
        max_size=2,
    ))
    if site == "g_{s^-1}":
        g[s_inv] = bump(ctx, g[s_inv], cells)
    else:
        block = bump(ctx, lower_right(sym[s_inv], n), cells)
        sym[s_inv] = with_lower_right(der, s_inv, block)
    u = list(der.u)
    u[s] = dense_u(ctx, der.elements, sym, der.inv, n, [s])[s]
    compensated = (
        s_inv not in spanning and data.draw(st.booleans()) and is_invertible(u[s])
    )
    if compensated:
        g[s_inv] = -(inverse(u[s]) @ g[s])

    accepted = reduced_witness_failures(der, sym, g, spanning) == []
    assert accepted == (last_row_failures(der, u, g, spanning) == [])
    if compensated or (sym, g) == (der.sym, der.g):
        assert accepted


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_relator_path_rejects_exactly_what_the_pair_path_rejects(data):
    # Cocycle.validate has two engines: on a group certified elementary
    # abelian on S' it evaluates the power and commutator relators at x;
    # the pair path expands x along the tree and checks every other
    # product of S' x G.  Values on S' moved by a coboundary (s-1)v stay a
    # cocycle; a few bumped cells may leave Z1.  Both engines must accept
    # exactly the same values
    label = data.draw(st.sampled_from(LABELS))
    module = sequence(label).u_module
    ctx, d, spanning = module.group.ctx, module.dim, module.group.spanning_ids
    assert coh._relators_present(module.group)
    ident = Matrix.identity(ctx, d)
    v = Matrix(ctx, d, 1, data.draw(st.lists(st.integers(0, ctx.q - 1), min_size=d, max_size=d)))
    cells = data.draw(st.lists(
        st.tuples(st.integers(0, len(spanning) * d - 1), st.integers(1, ctx.q - 1)), max_size=2,
    ))
    x = []
    for b, (s, g_s) in enumerate(zip(spanning, sequence(label).cocycle.spanning_values)):
        mine = [(pos - b * d, delta) for pos, delta in cells if pos // d == b]
        x.append(bump(ctx, g_s + (module.action(s) - ident) @ v, mine))

    try:
        coh._check_relators(module, x)
        by_relators = True
    except NotACocycle as exc:
        assert re.match(r"the (power|commutator) relator of elements? [\d, ]+ of S' fails",
                        str(exc))
        by_relators = False
    try:
        Cocycle.on_spanning(module, x)._check_schreier_pairs()
        by_pairs = True
    except NotACocycle as exc:
        assert str(exc).startswith("pair identity fails")
        by_pairs = False
    assert by_relators == by_pairs
    if not cells:
        assert by_relators


@pytest.mark.parametrize("label", LABELS + [SL2_FILE])
def test_construct_cocycle_is_valid_without_a_validate_pass(label):
    # g = (s-1)iota is a cocycle by proof, so the builder makes neither of
    # validate's checks; re-checking its values on S' still passes
    calls = []
    with mock.patch.object(coh, "_check_relators", lambda *a: calls.append("relators")), \
            mock.patch.object(Cocycle, "_check_schreier_pairs",
                              lambda self: calls.append("pairs")):
        seq = build_nonsplit_sequence(group(label))
    assert calls == []
    Cocycle.on_spanning(seq.u_module, seq.cocycle.spanning_values).validate()


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
        assert all(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0] == ctx.one() for m in matrices(g))
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
    assert consistent == (label == "GF(2^1) n=2") == (main.certificate is None)


def slot_of(group, i, mono):
    """The coordinate of e(i, m) in U = Hom(V/W, W), flattened row-major
    over the prescribed basis, whose first n monomials span W."""
    n, p = group.n, group.ctx.p
    basis = basis_of(n, p, p)
    return i * (len(basis) - n) + basis.index(tuple(mono)) - n


def term_at(group, h, slot, c):
    """The term c e(i, m) of y at the coordinate `slot` of U."""
    n, p = group.n, group.ctx.p
    basis = basis_of(n, p, p)
    i, j = divmod(slot, len(basis) - n)
    return (h, i, basis[n + j], c)


def dense_restriction(seq, terms):
    """Whether y, given by its nonzero terms (h, W-row, V/W monomial,
    coefficient), kills the stacked U(h) - I over its elements but not the
    stacked g_h, every matrix dense: the reference for the checks on
    monomial images."""
    ctx, d = seq.group.ctx, seq.u_module.dim
    ids = list(dict.fromkeys(h for h, *_ in terms))
    cells = [0] * (len(ids) * d)
    for h, i, mono, c in terms:
        at = ids.index(h) * d + slot_of(seq.group, i, mono)
        cells[at] = ctx.add_i(cells[at], c)
    ident = Matrix.identity(ctx, d)
    system = vstack([seq.u_module.action(h) - ident for h in ids])
    rhs = vstack([seq.cocycle.value(h) for h in ids])
    y = Matrix(ctx, 1, len(cells), cells)
    return (y @ system).is_zero and not (y @ rhs).is_zero


def verifier_accepts(seq, terms):
    """The check on the images of y's monomials under the inverses of y's
    elements, on the group's row-major tuples, which both the builder and
    the verifier make."""
    g = seq.group
    inv = {h: g.inv[h] for h, *_ in terms}
    try:
        verify._check_restriction(g.ctx, g.elements, inv, terms, g.n)
    except FailedCheck:
        return False
    return True


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(LABELS + [SL2_FILE]), st.data())
def test_two_row_checks_agree_with_the_dense_reference(label, data):
    # the builder's certificate is the H and y of the lookup, which pass; a
    # scaled y passes too, and a y with a term added, changed or dropped
    # passes the check on monomial images exactly when the dense system
    # says so
    seq = sequence(label)
    group, ctx, d = seq.group, seq.group.ctx, seq.u_module.dim
    h_inverse, terms = verify._restriction_row(ctx, group.n, group.index)
    assert (h_inverse, terms) == seq.certificate
    assert h_inverse == {h: group.inv[h] for h in h_inverse}
    mode = data.draw(st.sampled_from(["scaled", "added", "changed", "dropped"]), label="mode")
    if mode == "scaled":
        c = data.draw(st.integers(1, ctx.q - 1), label="c")
        terms = [(h, i, mono, ctx.mul_i(c, v)) for h, i, mono, v in terms]
    elif mode == "added":
        terms.append(term_at(
            group,
            data.draw(st.integers(0, group.order - 1), label="h"),
            data.draw(st.integers(0, d - 1), label="slot"),
            data.draw(st.integers(1, ctx.q - 1), label="c"),
        ))
    else:
        at = data.draw(st.integers(0, len(terms) - 1), label="term")
        if mode == "dropped":
            del terms[at]
        else:
            h, i, mono, _ = terms[at]
            terms[at] = (h, i, mono, data.draw(st.integers(0, ctx.q - 1), label="c"))
    want = dense_restriction(seq, terms)
    assert verifier_accepts(seq, terms) == want
    if mode == "scaled":
        assert want


def scanned_restriction_row(ctx, n, elements, index):
    """H and y as the verifier once found them, on matrices: p = 2 by
    testing every element for the pattern A(b) = [[b+1, b], [b, b+1]] and
    taking the two least b, p >= 3 by looking the shear up.  The reference
    for the lookup on row-major tuples, which stops at the second b."""
    if n < 2:
        return {}, []
    pad, p = (0,) * (n - 2), ctx.p

    def padded(block):
        data = [int(i == j) for i in range(n) for j in range(n)]
        for i in range(2):
            data[i * n: i * n + 2] = block[i]
        return Matrix(ctx, n, n, data)

    if ctx.p > 2:
        u, back = (index.get(padded([[1, c], [0, 1]])) for c in (1, ctx.neg_i(1)))
        if u is None:
            return {}, []
        return {u: back}, [(u, 0, (p - 1, 1) + pad, ctx.add_i(1, 1)), (u, 1, (p - 2, 2) + pad, 1)]
    found = []
    for h, x in enumerate(elements):
        b = x.raw(0, 1)
        if b and x == padded([[ctx.add_i(b, 1), b], [b, ctx.add_i(b, 1)]]):
            found.append((b, h))
    if len(found) < 2:
        return {}, []
    (b1, h1), (b2, h2) = sorted(found)[:2]
    c = ctx.mul_i(b2, ctx.inv_i(b1))
    m = (1, 1) + pad
    return {h1: h1, h2: h2}, [(h1, 0, m, ctx.mul_i(c, c)), (h2, 0, m, 1)]


def sl2_f4():
    """SL_2(F_4), |G| = 60, non-abelian over p = 2: its pattern involutions
    are not among its generators."""
    F4 = field_new(2, 2)
    gen = F4.gen()
    return closure(F4, 2, [Matrix.from_rows(F4, r) for r in (
        [[1, 1], [0, 1]], [[1, gen], [0, 1]], [[1, 0], [1, 1]], [[1, 0], [gen, 1]],
    )])


ROW_GROUPS = {
    **{f"GF(2^{k}) n={n}": (lambda k=k, n=n: additive_family(field_new(2, k), n=n))
       for k, n in [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3)]},
    "SL2(F4)": sl2_f4,
    "GF(2) n=2": lambda: additive_family(field_new(2)),
    "diag(2, 1) over GF(3)": lambda: closure(
        field_new(3), 2, [Matrix.from_rows(field_new(3), [[2, 0], [0, 1]])]
    ),
    "SL2(F3)": lambda: group(SL2_FILE),
}


@pytest.mark.parametrize("label", list(ROW_GROUPS))
def test_restriction_row_lookup_equals_the_scan(label):
    # the verifier finds H by looking candidates up in its tuple index: the
    # p = 2 pattern of b = 1, 2, ... in encoding order up to the second hit,
    # the shear for p >= 3.  It finds what testing every element found,
    # none at all in GF(2) (one pattern involution) and in a p = 3 group
    # without the shear
    g = ROW_GROUPS[label]()
    ctx, n = g.ctx, g.n
    found = verify._restriction_row(ctx, n, g.index)
    elements = matrices(g)
    assert found == scanned_restriction_row(
        ctx, n, elements, {m: i for i, m in enumerate(elements)}
    )
    assert (found == ({}, [])) == (label in ("GF(2) n=2", "diag(2, 1) over GF(3)"))
    if label == "SL2(F4)":
        assert g.order == 60
        assert not set(found[0]) & set(g.spanning_ids)


@pytest.mark.parametrize("k,n", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3)])
def test_pattern_row_holds_on_every_pair_of_involutions(k, n):
    # the p = 2 row needs b1 != b2, both nonzero, not the two least: it holds
    # on every ordered pair, while one involution alone never suffices (its
    # one-element split system is consistent)
    seq = build_nonsplit_sequence(additive_family(field_new(2, k), n=n))
    ctx = seq.group.ctx
    # every pattern involution A(b) = [[b+1, b], [b, b+1]], b != 0, found by
    # testing each element of the group
    involutions = [
        (ctx.el(x.raw(0, 1)), h) for h, x in enumerate(matrices(seq.group))
        if x.raw(0, 1) and x == family_matrix(ctx, ctx.el(x.raw(0, 1)), n)
    ]
    assert len(involutions) == 2**k - 1
    pairs = 0
    for (b1, h1), (b2, h2) in permutations(involutions, 2):
        m = (1, 1) + (0,) * (n - 2)
        terms = [(h1, 0, m, ((b2 / b1) ** 2).val), (h2, 0, m, 1)]
        assert verifier_accepts(seq, terms) and dense_restriction(seq, terms)
        pairs += 1
    assert pairs == (2**k - 1) * (2**k - 2)
    ident = Matrix.identity(seq.group.ctx, seq.u_module.dim)
    for _, h in involutions:
        assert solve(seq.u_module.action(h) - ident, seq.cocycle.value(h)).consistent
