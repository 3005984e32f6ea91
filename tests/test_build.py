"""Pipeline stages: sequence construction, witnesses, assembly, toy, demo."""

import functools
import json
from dataclasses import fields
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modcoh.build import (
    assemble_obstruction_module,
    build_nonsplit_sequence,
    det_identity_demo,
    resolve_module,
    tensor_vanishing_witness,
    toy_example,
)
from modcoh import verify
from modcoh.cli import JobSpec, build_group, main
from modcoh.coh import h1_class, is_split, split_system, tensor_with_invariant
from modcoh.errors import (
    BadCharacteristic, HypothesisNotSatisfied, ModcohError,
)
from modcoh.gf import field_new, field_to_json
from modcoh.grp import additive_family, closure, paired_shear_family
from modcoh.linalg import Matrix, kron, matrix_to_json, solve, vstack
from modcoh.rep import action_is_homomorphism, direct_sum_mod, dual, tensor
from modcoh.report import run_pipeline

F2 = field_new(2)
F3 = field_new(3)
F4 = field_new(2, 2)

G4 = additive_family(F4)
G3 = closure(F3, 2, [Matrix.from_rows(F3, [[1, 1], [0, 1]])])


def test_dims_char2():
    seq = build_nonsplit_sequence(G4)
    assert seq.dims == {"N": 3, "V": 3, "W": 2, "U": 2, "U_ext": 3, "X": 11}
    assert len(seq.certificate[0]) == 2


def test_dims_char3():
    seq = build_nonsplit_sequence(G3)
    assert seq.dims == {"N": 4, "V": 4, "W": 2, "U": 4, "U_ext": 5, "X": 19}
    assert tuple(seq.certificate[0]) == tuple(G3.spanning_ids)


def test_hypothesis_rejected_over_gf2():
    with pytest.raises(HypothesisNotSatisfied):
        build_nonsplit_sequence(additive_family(F2))


def test_construction_without_hypothesis_flag():
    # the certificate is the hypothesis: GF(2) has one pattern involution,
    # so no H, and the sequence holds the group and no certificate
    seq = build_nonsplit_sequence(additive_family(F2), require_hypothesis=False)
    assert seq.u_module.dim == 2
    assert [f.name for f in fields(seq)] == ["group", "certificate"]
    assert seq.certificate is None
    with pytest.raises(HypothesisNotSatisfied, match="two pattern involutions"):
        build_nonsplit_sequence(seq.group)


def test_family_a_over_gf16_forms_at_most_two_candidates(monkeypatch):
    # H is found by looking the pattern tuples of b = 1, 2, ... up in the
    # group's index, stopping at the second hit: family-a holds A(1) and
    # A(2), so two candidates are formed, not one per field element, and
    # no Matrix at all
    group = additive_family(field_new(2, 4))
    made, candidates = [], []
    original, padded = Matrix.__init__, verify._padded

    def making(self, ctx, rows, cols, data):
        made.append((rows, cols))
        original(self, ctx, rows, cols, data)

    def forming(n, block):
        candidates.append(block)
        return padded(n, block)

    monkeypatch.setattr(Matrix, "__init__", making)
    monkeypatch.setattr(verify, "_padded", forming)
    seq = build_nonsplit_sequence(group)
    assert len(seq.certificate[0]) == 2
    assert len(candidates) == 2 and made == []


@pytest.mark.parametrize("recipe,p,order", [("sl2-file", 13, 2184), ("zpxzp", 23, 529)])
def test_construct_makes_no_matrix_per_element(monkeypatch, tmp_path, recipe, p, order):
    # the group holds its elements as tuples of encodings and the
    # certificate is read off them, so building the group and running the
    # pipeline make a Matrix per generator and a few more, not one per
    # element
    if recipe == "sl2-file":
        ctx = field_new(p)
        path = tmp_path / "sl2.json"
        path.write_text(json.dumps({"field": field_to_json(ctx), "n": 2, "generators": [
            matrix_to_json(Matrix.from_rows(ctx, g)) for g in ([[1, 1], [0, 1]], [[1, 0], [1, 1]])
        ]}))
        recipe = f"file:{path}"
    spec = JobSpec(p=p, group=recipe)
    made = []
    original = Matrix.__init__

    def making(self, ctx, rows, cols, data):
        made.append((rows, cols))
        original(self, ctx, rows, cols, data)

    monkeypatch.setattr(Matrix, "__init__", making)
    group = build_group(spec)
    run_pipeline(group, spec.to_dict())
    assert group.order == order
    assert len(made) <= len(group.generators) + 4


@pytest.mark.parametrize("diagonal,toy", [(False, True), (True, False)])
def test_toy_record_follows_the_determinant_of_the_generators(diagonal, toy):
    # SL_2(F_4) by its four shears, whose S' is not all of them, has the toy
    # record; with diag(t, 1) added, GL_2(F_4) has a generator of
    # determinant t and no toy record.  Both reports verify
    t = F4.gen()
    rows = [[[1, 1], [0, 1]], [[1, t], [0, 1]], [[1, 0], [1, 1]], [[1, 0], [t, 1]]]
    if diagonal:
        rows.append([[t, 0], [0, 1]])
    group = closure(F4, 2, [Matrix.from_rows(F4, r) for r in rows])
    assert group.order == (180 if diagonal else 60)
    report = run_pipeline(group, {"order_cap": group.order}).report
    assert (report["payload"]["toy"] is not None) == toy
    assert verify.verify_report(report) == 6 + toy


def test_cocycle_lands_in_u_and_validates():
    for group in (G4, G3):
        seq = build_nonsplit_sequence(group)
        seq.cocycle.validate()
        assert action_is_homomorphism(seq.u_module)
        assert action_is_homomorphism(seq.extension.total)


def test_iota_shape():
    # iota = (I_n | 0) is fixed by n, so the sequence does not hold it: its
    # cocycle is the coboundary (s-1)iota in Hom(V, W), with no W part
    seq = build_nonsplit_sequence(G4)
    iota = Matrix.from_rows(F4, [[1, 0, 0], [0, 1, 0]])
    for s in range(1, G4.order):
        full = seq.twist.action(s) @ iota @ seq.sym_module.action(G4.inv[s]) - iota
        assert full.submatrix(0, 2, 0, 2).is_zero
        assert seq.cocycle.value(s) == full.submatrix(0, 2, 2, 3).flatten()


def test_generator_system_char2_rows():
    # each S' block row of the solver's split system reads
    # (a^2+1)(z11 + z21) = a^2 + a
    seq = build_nonsplit_sequence(G4)
    A, b, ids = split_system(seq.cocycle)
    one = F4.one()
    assert ids == tuple(G4.spanning_ids)
    for t, gid in enumerate(ids):
        a = G4.matrix(gid)[0, 0]
        coeff = a * a + one
        rhs = a * a + a
        for r in range(2):
            row = t * 2 + r
            assert A[row, 0] == coeff and A[row, 1] == coeff
            assert b[row, 0] == rhs


def test_generator_system_char3_rows():
    # row 0: z21 = -1; row 3: -2 z21 = 0
    seq = build_nonsplit_sequence(G3)
    A, b, _ = split_system(seq.cocycle)
    assert [A.raw(0, j) for j in range(4)] == [0, 0, 1, 0]
    assert b[0, 0] == -F3.one()
    assert [A.raw(3, j) for j in range(4)] == [0, 0, (-2) % 3, 0]
    assert b[3, 0].is_zero


@pytest.mark.parametrize("group", [G4, G3])
def test_tensor_vanishing_witness_all_elements(group):
    seq = build_nonsplit_sequence(group)
    tv = tensor_vanishing_witness(seq)
    d = seq.u_module.dim
    # the witness is vec(-(U~ -> U)) in dual(uext) (x) u: 3*2 = 6 resp. 5*4 = 20 dims
    x = vstack([-Matrix.identity(group.ctx, d), Matrix.zeros(group.ctx, 1, d)])
    assert tv.witness == x.flatten()
    assert any(not c.is_zero for c in h1_class(seq.cocycle))
    # reference path: the dense tensor module, its cocycle and the solver's witness
    tg = tensor_with_invariant(dual(seq.extension.total), tv.w, seq.cocycle)
    solver = is_split(tg).witness
    t_mod = tg.module
    assert t_mod.dim == (d + 1) * d
    ident = Matrix.identity(group.ctx, t_mod.dim)
    for i in range(group.order):
        lhs = (t_mod.action(i) - ident) @ tv.witness
        assert lhs == kron(tv.w, seq.cocycle.values[i])
        # the two witnesses differ by a G-fixed vector
        assert ((t_mod.action(i) - ident) @ (tv.witness - solver)).is_zero
    assert all(c.is_zero for c in h1_class(tg))


@functools.cache
def family_sequence(p, k):
    return build_nonsplit_sequence(additive_family(field_new(p, k)))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(2, 2), (2, 3), (3, 1), (3, 2)]), st.data())
def test_closed_form_witness_is_a_solver_witness_plus_a_fixed_vector(pk, data):
    # the stacked system (T(s) - 1)u = cw (x) g_s over S' on
    # T = tensor(dual(uext), u), solved by linalg.solve, is consistent, and
    # c vec(X) differs from the solver's u by a vector fixed by S', hence
    # by G: the two witnesses agree up to H^0(G, T)
    seq = family_sequence(*pk)
    group, ctx = seq.group, seq.group.ctx
    c = ctx.el(data.draw(st.integers(1, ctx.q - 1), label="c"))
    tv = tensor_vanishing_witness(seq)
    t = tensor(dual(seq.extension.total), seq.u_module)
    ident = Matrix.identity(ctx, t.dim)
    less = [t.action(s) - ident for s in group.spanning_ids]
    rhs = [kron(tv.w.scale(c), seq.cocycle.value(s)) for s in group.spanning_ids]
    result = solve(vstack(less), vstack(rhs))
    assert result.consistent
    for m in less:
        assert (m @ (tv.witness.scale(c) - result.solution)).is_zero


def test_obstruction_dims():
    assert assemble_obstruction_module(build_nonsplit_sequence(G4)).dim == 11
    assert assemble_obstruction_module(build_nonsplit_sequence(G3)).dim == 19


def test_obstruction_dim_formula_n3():
    group = additive_family(F4, n=3)
    seq = build_nonsplit_sequence(group)
    rep = assemble_obstruction_module(seq)
    assert rep.dim == 4 * 3 * (comb(4, 2) - 3) + 3 == 39
    # the direct sum itself, built here as a reference only
    total = seq.extension.total
    x_module = direct_sum_mod([dual(seq.u_module), total, total, total])
    assert x_module.dim == rep.dim
    assert x_module.label == resolve_module(group, "sum(dual(u),uext,uext,uext)").label
    assert action_is_homomorphism(x_module)


def test_obstruction_components():
    # X is the recipe sum(dual(u),uext,uext,uext), of the dimension the
    # guard checks
    rep = assemble_obstruction_module(build_nonsplit_sequence(G4))
    x_module = resolve_module(G4, "sum(dual(u),uext,uext,uext)")
    assert x_module.label == "sum(dual(u),ext(u),ext(u),ext(u))"
    assert x_module.dim == rep.dim


@pytest.mark.parametrize("k", [2, 3, 4], ids=["GF4", "GF8", "GF16"])
def test_toy_nonsplit_and_equivalence(k, monkeypatch):
    import modcoh.build as build

    toy = toy_example(k)
    main, group = toy.main, toy.main.group
    assert group.order == 2**k
    assert main.certificate is not None and not toy.split
    # the toy is the main extension: S^2 = [[U(s), g_s], [0, 1]] on every element
    for i in range(group.order):
        assert main.sym_module.action(i) == main.extension.total.action(i)

    def forbidden(*args, **kwargs):
        raise AssertionError("the toy comparison must not solve")

    # given the main sequence, the toy runs no split test and reads off no cocycle
    monkeypatch.setattr(build, "is_split", forbidden)
    monkeypatch.setattr("modcoh.coh.cocycle_from_extension", forbidden)
    again = toy_example(group, main=main)
    assert again.main is main and not again.split


def test_toy_without_hypothesis_records_verdict():
    # over GF(2) the sequence degenerates; the toy verdict is the main one
    toy = toy_example(1)
    assert toy.main.certificate is None
    assert toy.split


def test_toy_rejects_wrong_characteristic():
    with pytest.raises(BadCharacteristic):
        toy_example(G3)


def test_det_identity_demo():
    out = det_identity_demo(seed=0, trials=50)
    assert out["all_zero"] and out["structured_zero"]
    assert set(out["zero_counts"]) == {"GF(2)", "GF(3)", "GF(4)"}
    assert all(v == 50 for v in out["zero_counts"].values())


def test_resolve_module_recipes():
    assert resolve_module(G4, "natural").dim == 2
    assert resolve_module(G4, "trivial").dim == 1
    assert resolve_module(G4, "trivial(3)").dim == 3
    assert resolve_module(G4, "sym(2)").dim == 3
    assert resolve_module(G4, "twist").dim == 2
    assert resolve_module(G4, "u").dim == 2
    assert resolve_module(G4, "uext").dim == 3
    assert resolve_module(G4, "dual(uext)").dim == 3
    assert resolve_module(G4, "tensor(twist,u)").dim == 4
    assert resolve_module(G4, "hom(natural,twist)").dim == 4
    assert resolve_module(G4, "sum(natural,trivial,u)").dim == 5


def test_resolve_module_errors():
    with pytest.raises(ModcohError):
        resolve_module(G4, "nope")
    with pytest.raises(ModcohError):
        resolve_module(G4, "sym(2")
    with pytest.raises(ModcohError):
        resolve_module(G4, "dual(natural,twist)")


def test_paired_shear_pipeline_smoke():
    group = paired_shear_family(F3)
    seq = build_nonsplit_sequence(group)
    assert seq.dims["N"] == comb(6, 3) == 20
    assert tuple(seq.certificate[0]) == (group.spanning_ids[0],)
    assert assemble_obstruction_module(seq).dim == 4 * 4 * (20 - 4) + 3


def test_zpxzp_p3_constructs_and_verifies(tmp_path):
    # |G| = 9, dim U = 64: the tensor stage is (65 * 64)-dimensional
    out = tmp_path / "zpxzp3.json"
    assert main(["construct", "--group", "zpxzp", "--p", "3", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["payload"]["dims"]["X"] == 4 * 64 + 3
    assert main(["verify", str(out)]) == 0


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2)])
def test_pipeline_builds_each_z1_system_once(monkeypatch, p, k):
    # the pipeline builds none; the H1 numbers of its module, which only the
    # h1 subcommand asks for, share one Z1 elimination
    import modcoh.coh as coh
    from modcoh.coh import b1_dim, z1_dim
    from modcoh.report import run_pipeline

    built = []
    original = coh._z1_system

    def counting(module):
        built.append(module)
        return original(module)

    def rebuilt(cls, module, vec):
        raise AssertionError("a Z1 or B1 basis vector was rebuilt as a Cocycle")

    monkeypatch.setattr(coh, "_z1_system", counting)
    # the z1/b1 dims are read off the cached bases, not counted as Cocycles
    monkeypatch.setattr(coh.Cocycle, "from_vector", classmethod(rebuilt))
    params = {"p": p, "k": k, "n": 2, "group": "family-a", "order_cap": 10000,
              "seed": 0, "modulus": None}
    result = run_pipeline(additive_family(field_new(p, k)), params)
    assert (result.report["payload"]["toy"] is not None) == (p == 2)
    assert built == []
    # h1_class for the main class and the z1/b1 dims live on U and share one
    # Z1 elimination
    u = result.sequence.u_module
    assert any(not c.is_zero for c in h1_class(result.sequence.cocycle))
    assert z1_dim(u) > b1_dim(u)
    assert built == [u]


def _group_file(tmp_path, name, p, gens):
    spec = tmp_path / f"{name}.json"
    ctx = field_new(p)
    spec.write_text(json.dumps({
        "field": field_to_json(ctx),
        "n": len(gens[0]),
        "generators": [matrix_to_json(Matrix.from_rows(ctx, g)) for g in gens],
    }))
    return f"file:{spec}"


CONSTRUCT_PATHS = {
    **{f"GF({p}^{k}) n={n}": ["--p", str(p), "--k", str(k), "--n", str(n)]
       for p, k, n in [(2, 2, 2), (2, 3, 2), (2, 4, 2), (3, 2, 2), (3, 1, 2),
                       (5, 1, 2), (7, 1, 2), (3, 1, 3), (2, 2, 3), (2, 3, 3)]},
    "zpxzp p=3": ["--group", "zpxzp", "--p", "3"],
    "SL_2(F_3) file": ["--p", "3", "--group",
                       ("sl2_f3", 3, [[[1, 1], [0, 1]], [[2, 0], [0, 2]], [[1, 0], [1, 1]]])],
    "GL_2(F_7) file": ["--p", "7", "--group",
                       ("gl2_f7", 7, [[[1, 1], [0, 1]], [[1, 0], [1, 1]], [[3, 0], [0, 1]]])],
}


@pytest.mark.parametrize("label", list(CONSTRUCT_PATHS))
def test_construct_builds_no_z1_system(monkeypatch, tmp_path, label):
    # the report's claims need no cohomology space and no solver: no Z1
    # system, relator or Schreier, is built, no Z1 basis is eliminated and
    # no split system is solved on any construct path; the non-split
    # certificate is a closed form, and neither does verify solve
    import modcoh.build as build
    import modcoh.coh as coh
    import modcoh.linalg as linalg

    calls = []
    for module, name in [
        (coh, "_z1_system"),
        (coh, "_schreier_system"),
        (coh, "_relator_system"),
        (coh, "kernel_basis"),
        (linalg, "kernel_basis"),
        (coh, "solve"),
        (linalg, "solve"),
        (coh, "is_split"),
        (build, "is_split"),
    ]:

        def counting(*args, name=name, original=getattr(module, name)):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(module, name, counting)
    args = [a if isinstance(a, str) else _group_file(tmp_path, *a) for a in CONSTRUCT_PATHS[label]]
    out = tmp_path / "report.json"
    assert main(["construct", *args, "--out", str(out)]) == 0
    assert main(["verify", str(out)]) == 0
    assert calls == []


@pytest.mark.parametrize("label", list(CONSTRUCT_PATHS))
def test_construct_and_verify_form_u_only_for_the_toy(monkeypatch, tmp_path, label):
    # U(s) = kron(s^[p], S(s^-1)^T) is read through its factors, and the
    # toy identity of the p = n = 2 record is proved, not compared, so no
    # Kronecker product is formed on any construct or verify path
    import modcoh.build as build
    import modcoh.coh as coh
    import modcoh.linalg as linalg
    import modcoh.rep as rep
    import modcoh.verify as verify

    shapes = []
    for module in (linalg, coh, rep, build, verify):

        def counting(a, b, original=module.kron):
            shapes.append((a.rows * b.rows, a.cols * b.cols))
            return original(a, b)

        monkeypatch.setattr(module, "kron", counting)
    args = [a if isinstance(a, str) else _group_file(tmp_path, *a) for a in CONSTRUCT_PATHS[label]]
    out = tmp_path / "report.json"
    assert main(["construct", *args, "--out", str(out)]) == 0
    assert main(["verify", str(out)]) == 0
    assert shapes == []


@pytest.mark.parametrize("label", list(CONSTRUCT_PATHS))
def test_construct_and_verify_form_no_symmetric_power_matrix(monkeypatch, tmp_path, label):
    # the certificate reads the images of its pinned monomials under H^-1,
    # and the block form of A and g in U are proved: neither construct nor
    # verify calls the builder's dense substitution or builds an action of
    # V = S^p, U or U~, and verify makes no Matrix at all
    import modcoh.rep as rep

    substituted, acted, made = [], [], []
    substitution, action, init = rep._substitution_matrix, rep.GModule.action, Matrix.__init__

    def substituting(*args):
        substituted.append(args[0].rows)
        return substitution(*args)

    def acting(module, i):
        acted.append(module.label)
        return action(module, i)

    def making(m, ctx, rows, cols, data):
        made.append(rows)
        init(m, ctx, rows, cols, data)

    monkeypatch.setattr(rep, "_substitution_matrix", substituting)
    monkeypatch.setattr(rep.GModule, "action", acting)
    args = [a if isinstance(a, str) else _group_file(tmp_path, *a) for a in CONSTRUCT_PATHS[label]]
    out = tmp_path / "report.json"
    assert main(["construct", *args, "--out", str(out)]) == 0
    monkeypatch.setattr(Matrix, "__init__", making)
    assert main(["verify", str(out)]) == 0
    assert substituted == []
    assert [label for label in acted if label.startswith("sym(") or label in ("u", "ext(u)")] == []
    assert made == []


@pytest.mark.parametrize("label", list(CONSTRUCT_PATHS))
def test_construct_and_verify_form_no_inverse_pair_product(monkeypatch, tmp_path, label):
    # S(s) S(s^-1) = I on S', so U(s) U(s^-1) = I, is proved: A is
    # multiplicative, s s^-1 = 1 and the bottom-left blocks are zero.  No
    # product on any construct or verify path has a left factor with N - n
    # rows, nor an (N-n) x (N-n) identity.  The certificate reads monomial
    # images, so no path forms a product with more than n rows at all (the
    # closures multiply tuples by ctx.left_mul), as no path forms an N x N
    # matrix to cut S(s) from when N - n = n
    # (test_construct_and_verify_form_no_symmetric_power_matrix)
    products, identities = [], []
    matmul, identity = Matrix.__matmul__, Matrix.identity.__func__

    def multiplying(a, b):
        products.append(a.rows)
        return matmul(a, b)

    def making_identity(cls, ctx, n):
        identities.append(n)
        return identity(cls, ctx, n)

    monkeypatch.setattr(Matrix, "__matmul__", multiplying)
    monkeypatch.setattr(Matrix, "identity", classmethod(making_identity))
    args = [a if isinstance(a, str) else _group_file(tmp_path, *a) for a in CONSTRUCT_PATHS[label]]
    out = tmp_path / "report.json"
    assert main(["construct", *args, "--out", str(out)]) == 0
    assert main(["verify", str(out)]) == 0
    dims = json.loads(out.read_text())["payload"]["dims"]
    m, n = dims["N"] - dims["W"], dims["W"]
    assert [rows for rows in products if rows > n] == []
    assert m == n or m not in identities


@pytest.mark.parametrize("label", list(CONSTRUCT_PATHS))
def test_verify_closes_the_group_on_tuples(monkeypatch, tmp_path, label):
    # the verifier parses the generators into row-major tuples of encodings
    # and closes them with the left products ctx.left_mul prepares: it makes
    # no Matrix and calls no Matrix product.  A monomial image is formed only
    # at the inverses of H, one per term of y, for the pinned monomials:
    # x1^(p-1) x2 and x1^(p-2) x2^2 for p >= 3, x1 x2 for p = 2
    import modcoh.verify as verify

    args = [a if isinstance(a, str) else _group_file(tmp_path, *a) for a in CONSTRUCT_PATHS[label]]
    out = tmp_path / "report.json"
    assert main(["construct", *args, "--out", str(out)]) == 0

    made, products, seen, images = [], [], {}, []
    init, matmul, image = Matrix.__init__, Matrix.__matmul__, verify._image

    def making(m, ctx, rows, cols, data):
        made.append((rows, cols))
        init(m, ctx, rows, cols, data)

    def multiplying(a, b):
        products.append((a.rows, b.cols))
        return matmul(a, b)

    def recording(name, original):
        def wrapped(*a):
            before = (len(made), len(products))
            seen[name] = (original(*a), a, (len(made), len(products)) == before)
            return seen[name][0]
        return wrapped

    def imaging(ctx, sigma, n, exps):
        images.append((sigma, tuple(exps)))
        return image(ctx, sigma, n, exps)

    monkeypatch.setattr(Matrix, "__init__", making)
    monkeypatch.setattr(Matrix, "__matmul__", multiplying)
    for name in ("_generated", "_restriction_row"):
        monkeypatch.setattr(verify, name, recording(name, getattr(verify, name)))
    monkeypatch.setattr(verify, "_image", imaging)
    assert main(["verify", str(out)]) == 0

    (elements, _, _, index), (_, n, *_), untouched = seen["_generated"]
    assert untouched
    assert all(type(e) is tuple for e in elements) and len(index) == len(elements)
    assert products == [] and made == []
    h_inverse, terms = seen["_restriction_row"][0]
    p = seen["_restriction_row"][1][0].p
    pad = (0,) * (n - 2)
    pinned = {(p - 1, 1) + pad, (p - 2, 2) + pad} if p > 2 else {(1, 1) + pad}
    assert len(images) == len(terms)
    assert {e for _, e in images} == pinned
    assert {sigma for sigma, _ in images} == {elements[h_inverse[h]] for h, *_ in terms}
