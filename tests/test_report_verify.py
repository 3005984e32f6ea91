"""Report schema and the independent verifier.

The tamper tests below recompute the payload digest after each mutation, so
they exercise the mathematical re-checks rather than the checksum.
"""

import ast
import itertools
import json
import pathlib
import re
from math import comb

import pytest

import modcoh.build
import modcoh.rep
import modcoh.verify
from modcoh.build import build_nonsplit_sequence
from modcoh.errors import CorruptReport, FailedCheck, ModcohError, TheoremViolation
from modcoh.gf import field_new
from modcoh.grp import (
    additive_family, closure, group_spec_from_json, group_to_json, paired_shear_family,
)
from modcoh.jsonutil import digest_of
from modcoh.linalg import Matrix, kernel_basis, matrix_to_json
from modcoh.report import run_pipeline, write_report
from modcoh.rep import GModule, frobenius_twist
from modcoh.verify import verify_report, verify_report_file

F3 = field_new(3)
F4 = field_new(2, 2)

# each job's order cap is its group's order, the tightest cap that holds
PARAMS2 = {"p": 2, "k": 2, "n": 2, "group": "family-a", "order_cap": 4,
           "seed": 0, "modulus": None}
PARAMS3 = {"p": 3, "k": 1, "n": 2, "group": "family-a", "order_cap": 3,
           "seed": 0, "modulus": None}


@pytest.fixture(scope="module")
def report2():
    return run_pipeline(additive_family(F4), PARAMS2).report


@pytest.fixture(scope="module")
def report3():
    group = closure(F3, 2, [Matrix.from_rows(F3, [[1, 1], [0, 1]])])
    return run_pipeline(group, PARAMS3).report


@pytest.fixture(scope="module")
def report_sl2():
    # SL_2(F_3), non-abelian: the builder and the verifier check the cocycle
    # pair by pair along the search tree
    gens = [[[1, 1], [0, 1]], [[2, 0], [0, 2]], [[1, 0], [1, 1]]]
    group = closure(F3, 2, [Matrix.from_rows(F3, g) for g in gens])
    return run_pipeline(group, dict(PARAMS3, order_cap=24)).report


def tampered(report, mutate):
    """Deep-copy, apply the mutation, re-seal the digest."""
    copy = json.loads(json.dumps(report))
    mutate(copy["payload"])
    copy["digest"] = digest_of(copy["payload"])
    return copy


def expect_failure(report, check_name):
    with pytest.raises(FailedCheck, match=check_name):
        verify_report(report)


def test_fresh_reports_verify(report2, report3):
    assert verify_report(report2) == 7
    assert verify_report(report3) == 6
    for report in (report2, report3):
        assert report["schema"] == "modcoh-report-v6"
        assert set(report["payload"]) == {
            "params", "group", "dims", "nonsplit_certificate", "tensor_vanishing", "toy",
        }
        assert report["payload"]["params"] == {"order_cap": report["payload"]["group"]["order"]}


def test_write_and_verify_file(tmp_path, report3):
    path = tmp_path / "r.json"
    write_report(report3, str(path))
    assert verify_report_file(str(path)) >= 6
    assert path.read_text().endswith("\n")


def test_digest_seal(report3):
    broken = json.loads(json.dumps(report3))
    broken["payload"]["dims"]["X"] = 20
    expect_failure(broken, "digest")


def test_wrong_schema():
    with pytest.raises(CorruptReport):
        verify_report({"schema": "other", "payload": {}, "digest": ""})
    with pytest.raises(CorruptReport):
        verify_report([1, 2, 3])


def test_tamper_dims_caught_mathematically(report3):
    expect_failure(tampered(report3, lambda p: p["dims"].update(X=20)), "dims")


@pytest.mark.parametrize("rows", [[[2, 0], [0, 1]], [[1, 0], [1, 1]]], ids=["diagonal", "lower"])
def test_group_without_the_shear_fails_nonsplit(report3, rows):
    # the non-split row lives on H = {x12(1)}, which the verifier finds in
    # its own closure: another valid group without the shear, resealed with
    # its order, passes every check before the certificate and fails it
    other = closure(F3, 2, [Matrix.from_rows(F3, rows)])

    def swap_group(p):
        old = p["group"]
        p["group"] = json.loads(json.dumps(group_to_json(other)))
        assert p["group"] != old

    expect_failure(tampered(report3, swap_group), r"nonsplit: the group has no shear x12\(1\)")


def test_group_with_one_pattern_involution_fails_nonsplit(report2):
    # p = 2: H is two pattern involutions A(b) with b != 0.  <A(1)> has one
    # (and the identity, b = 0), so an element of H is missing; it has
    # determinant 1, so the toy record still applies
    one = F4.one()
    other = closure(F4, 2, [Matrix.from_rows(F4, [[0, one], [one, 0]])])
    assert other.order == 2

    def swap_group(p):
        p["group"] = json.loads(json.dumps(group_to_json(other)))

    expect_failure(
        tampered(report2, swap_group), "nonsplit: the group has no two pattern involutions"
    )


def test_nonsplit_record_is_checked_before_the_basis(monkeypatch):
    # a report of about 5 kB: the group {I_30} over p = 7, its order, cap and
    # dims as the formulas give them.  Degree 7 in 30 variables has
    # C(36, 7) = 8,347,680 monomials; the verifier forms no basis, and the
    # verdict, the equation text and H, which need no monomial image, are
    # checked before any image is formed.  This group has no shear
    def no_image(*args):
        raise AssertionError("a monomial image was formed")

    monkeypatch.setattr(modcoh.verify, "_image", no_image)
    F7, n, p = field_new(7), 30, 7
    N = comb(n + p - 1, p)
    dim_u = n * (N - n)
    payload = {
        "params": {"order_cap": 1},
        "group": group_to_json(closure(F7, n, [Matrix.identity(F7, n)])),
        "dims": {"N": N, "V": N, "W": n, "U": dim_u, "U_ext": dim_u + 1, "X": 4 * dim_u + 3},
        "nonsplit_certificate": {"verdict": "NonSplit", "equation": modcoh.verify.SHEAR_EQUATION},
        "tensor_vanishing": {"equation": modcoh.verify.TENSOR_EQUATION},
        "toy": None,
    }
    report = {"schema": modcoh.verify.SCHEMA, "payload": payload, "digest": digest_of(payload)}
    assert payload["group"]["order"] == 1
    assert 4_000 < len(json.dumps(report)) < 6_000
    with pytest.raises(FailedCheck, match=re.escape("nonsplit: the group has no shear x12(1)")):
        verify_report(report)


def test_empty_generator_list_is_rejected_before_the_closure(monkeypatch):
    # a report with no generators, order 1 and dims that match the formulas
    # for n = 30 holds no n x n matrix, yet closing it would form the n^2
    # identity and H's candidates; the verifier fails `group` first
    def no_closure(*args):
        raise AssertionError("the group was closed")

    monkeypatch.setattr(modcoh.verify, "_generated", no_closure)
    F7, n, p = field_new(7), 30, 7
    N = comb(n + p - 1, p)
    dim_u = n * (N - n)
    payload = {
        "params": {"order_cap": 1},
        "group": {"field": group_to_json(additive_family(F7))["field"], "n": n,
                  "generators": [], "order": 1},
        "dims": {"N": N, "V": N, "W": n, "U": dim_u, "U_ext": dim_u + 1, "X": 4 * dim_u + 3},
        "nonsplit_certificate": {"verdict": "NonSplit", "equation": modcoh.verify.SHEAR_EQUATION},
        "tensor_vanishing": {"equation": modcoh.verify.TENSOR_EQUATION},
        "toy": None,
    }
    report = {"schema": modcoh.verify.SCHEMA, "payload": payload, "digest": digest_of(payload)}
    assert len(json.dumps(report)) < 1_000
    with pytest.raises(FailedCheck, match=re.escape("group: the generator list is empty")):
        verify_report(report)


def test_sym_action_block_check_fires(monkeypatch):
    # construct reads no symmetric-power action: the block form is the
    # Frobenius, proved.  The action V that h1 and the module recipes read
    # keeps its block checks on S' as a guard of the substitution code, so a
    # substitution that breaks the block structure at the element of S'
    # passes construct and is caught when V is made
    group = closure(F3, 2, [Matrix.from_rows(F3, [[1, 1], [0, 1]])])
    (s,) = group.spanning_ids
    original = modcoh.rep._substitution_matrix

    def broken(sigma, basis, pos):
        mat = original(sigma, basis, pos)
        if sigma != group.matrix(s):
            return mat
        data = [mat.raw(i, j) for i in range(mat.rows) for j in range(mat.cols)]
        data[2 * mat.cols] = 1  # row n = 2 of the pure power x^3's column: bottom-left
        return Matrix(F3, mat.rows, mat.cols, data)

    monkeypatch.setattr(modcoh.rep, "_substitution_matrix", broken)
    seq = build_nonsplit_sequence(group)
    with pytest.raises(TheoremViolation, match=f"bottom-left block of A_s is nonzero at element {s}"):
        seq.sym_module


# p >= 3 groups whose certificate reads m1 = x1^(p-1) x2 under u^-1, the
# inverse of the shear u = x12(1)
SHEAR_GROUPS = {
    "SL2(F3)": lambda: closure(F3, 2, [Matrix.from_rows(F3, g) for g in (
        [[1, 1], [0, 1]], [[2, 0], [0, 2]], [[1, 0], [1, 1]],
    )]),
    "GF(3) n=2": lambda: closure(F3, 2, [Matrix.from_rows(F3, [[1, 1], [0, 1]])]),
    "GF(5) n=2": lambda: additive_family(field_new(5)),
    "zpxzp p=3": lambda: paired_shear_family(F3),
}


def rejects_corrupted_m1_image(monkeypatch, group, code, check):
    """Both sides, with 1 added at monomial `code` of m1's image in
    `verify._image`, the one image helper, reject the certificate: verify
    with FailedCheck `check`, construct with a TheoremViolation that states
    `check` and names H.  The report is made before the helper is
    corrupted."""
    ctx, n = group.ctx, group.n
    report = run_pipeline(group, {"order_cap": group.order}).report
    m1 = (ctx.p - 1, 1) + (0,) * (n - 2)

    def corrupted(original):
        def broken(*args):
            image = original(*args)
            if tuple(args[-1]) == m1:
                image = dict(image)
                image[code] = ctx.add_i(image.get(code, 0), 1)
            return image
        return broken

    monkeypatch.setattr(modcoh.verify, "_image", corrupted(modcoh.verify._image))
    expect_failure(report, re.escape(check))
    u = group.index[tuple(int(i == j or (i, j) == (0, 1)) for i in range(n) for j in range(n))]
    with pytest.raises(TheoremViolation, match=re.escape(f"{check}, H = [{u}]")):
        build_nonsplit_sequence(group)


def test_tamper_cocycle_value(monkeypatch):
    # g_u = u^[p] T is read off the x_a^p coefficients of the images under
    # u^-1: m1 goes to m1 - x1^p, so g_u = -1 at (0, m1) and y g_u = -2.
    # One more x1^p in m1's image makes g_u = 0 there, and y g_u = 0
    for label, make in SHEAR_GROUPS.items():
        group = make()
        with monkeypatch.context() as patch:
            rejects_corrupted_m1_image(patch, group, group.ctx.p, "nonsplit: y kills g on H")
        assert verify_report(run_pipeline(group, {"order_cap": group.order}).report) == 6, label


def test_corrupted_non_pure_coefficient_is_rejected(monkeypatch):
    # the non-pure coefficients of m1's image are column m1 of S(u^-1); one
    # more m1 in it makes y U(u) - y = 2 e(0,m1) + 2 e(1,m1), not 0
    for label, make in SHEAR_GROUPS.items():
        group = make()
        m1_code = 2 * group.ctx.p  # p - 1 + (p + 1), base p + 1
        with monkeypatch.context() as patch:
            rejects_corrupted_m1_image(
                patch, group, m1_code, "nonsplit: y does not kill U(h) - 1 on H"
            )


def test_theorem_violation_in_construct_exits_3_and_writes_no_report(
    monkeypatch, tmp_path, capsys
):
    # with the one image helper corrupted as in test_tamper_cocycle_value,
    # construct stops before any report is written, exits 3 and names H
    from modcoh.cli import main

    original = modcoh.verify._image

    def broken(ctx, sigma, n, exps):
        image = dict(original(ctx, sigma, n, exps))
        image[ctx.p] = ctx.add_i(image.get(ctx.p, 0), 1)  # one more x1^p
        return image

    monkeypatch.setattr(modcoh.verify, "_image", broken)
    out = tmp_path / "report.json"
    assert main(["construct", "--p", "5", "--out", str(out)]) == 3
    assert not out.exists()
    err = capsys.readouterr().err
    assert err == "INTERNAL THEOREM VIOLATION: nonsplit: y kills g on H, H = [1]\n"


def test_cocycle_must_land_in_u():
    # on the path that makes g on S' (h1 and the module recipes),
    # (s-1)iota = s^[p] A(s^-1)[0:n, :] - iota must have no W part; it has
    # one when s^[p] (s^-1)^[p] != I, here for a faulty twist at s
    group = closure(F3, 2, [Matrix.from_rows(F3, [[1, 1], [0, 1]])])
    sym = build_nonsplit_sequence(group).sym_module
    twist = frobenius_twist(group)
    assert modcoh.build._iota_coboundary(group, twist, sym, 1)
    faulty = GModule(group, 2, lambda i: with_unit_added(F3, twist.action(i), 1, 0), "faulty")
    with pytest.raises(TheoremViolation, match=re.escape("(s-1)iota leaves U at element 1")):
        modcoh.build._iota_coboundary(group, faulty, sym, 1)


@pytest.mark.parametrize("ctx,rows", [
    (F3, [[1, 1], [1, 2]]),
    (F4, [[1, 2, 0], [0, 1, 3], [1, 0, 1]]),
])
def test_every_image_monomial_lies_in_the_basis(ctx, rows):
    # the verifier keys y and the residual by monomial, with no basis and no
    # out-of-basis guard: every image of a degree-p monomial under sigma has
    # only degree-p terms, and for invertible sigma the images are the
    # columns of an invertible A(sigma) over all C(n+p-1, p) of them
    sigma = Matrix.from_rows(ctx, rows)
    n, p = sigma.rows, ctx.p
    assert not kernel_basis(sigma)
    raw = tuple(sigma.raw(i, j) for i in range(n) for j in range(n))
    basis = [e for e in itertools.product(range(p + 1), repeat=n) if sum(e) == p]
    assert len(basis) == comb(n + p - 1, p)
    pos = {modcoh.verify._code(e, p): i for i, e in enumerate(basis)}
    data = [0] * (len(basis) ** 2)
    for col, exps in enumerate(basis):
        image = modcoh.verify._image(ctx, raw, n, exps)
        assert image and set(image) <= set(pos), exps
        for code, value in image.items():
            data[pos[code] * len(basis) + col] = value
    assert not kernel_basis(Matrix(ctx, len(basis), len(basis), data))


def with_unit_added(ctx, m, i, j):
    """m plus 1 at (i, j)."""
    data = [m.raw(r, c) for r in range(m.rows) for c in range(m.cols)]
    data[i * m.cols + j] = ctx.add_i(data[i * m.cols + j], 1)
    return Matrix(ctx, m.rows, m.cols, data)


@pytest.mark.parametrize(
    "mutate, check",
    [
        (lambda p: p["nonsplit_certificate"].update(
            equation=p["nonsplit_certificate"]["equation"].replace("x12(1)", "x21(1)")
        ), "equation text differs"),
        (lambda p: p["nonsplit_certificate"].update(equation=modcoh.verify.PATTERN_EQUATION),
         "equation text differs"),
        (lambda p: p["nonsplit_certificate"].update(verdict="Split"), "verdict 'Split'"),
    ],
    ids=["equation", "other_case_equation", "verdict"],
)
def test_tamper_nonsplit_record(report3, mutate, check):
    # the record ships no y and no element of H: both are fixed by p, the
    # basis and the rule its equation text states, so there is no wrong y
    # entry or element id to tamper with; the text and the verdict are
    # checked as stated
    expect_failure(tampered(report3, mutate), f"nonsplit: {check}")


@pytest.mark.parametrize(
    "mutate",
    [
        lambda p: p["tensor_vanishing"].update(equation="u == 0"),
        # w is stated by the equation text alone: its recipe and dimension
        lambda p: p["tensor_vanishing"].update(
            equation=p["tensor_vanishing"]["equation"].replace("w = e_d", "w = pi")
        ),
        lambda p: p["tensor_vanishing"].update(
            equation=p["tensor_vanishing"]["equation"].replace("w = e_d", "w = e_(d+1)")
        ),
    ],
    ids=["equation", "w_recipe", "w_dim"],
)
def test_tamper_bookkeeping(report3, mutate):
    with pytest.raises(FailedCheck, match="tensor-vanishing"):
        verify_report(tampered(report3, mutate))


@pytest.mark.parametrize(
    "rows, check",
    [
        # a cyclic group of order 4 (trace 0, det 1)
        ([[1, 1], [1, 2]], "group: the generators make more than the 3 elements stated"),
        # a group of order 2
        ([[2, 0], [0, 1]], "group: the generators reach 2 of the 3 elements"),
        # {I, s, 0} is closed under s and has 3 elements, but s has no inverse
        ([[0, 1], [0, 0]], "group: element 1 has no inverse"),
        ([[1, 1, 0], [0, 1, 0], [0, 0, 1]], "group: generator 0 is not 2x2"),
    ],
    ids=["larger", "smaller", "singular", "shape"],
)
def test_tamper_generator(report3, rows, check):
    # another generator of the same order can make a report that is true for
    # its own group; test_every_leaf_mutation_is_rejected tells those apart
    def swap(p):
        p["group"]["generators"][0] = matrix_to_json(Matrix.from_rows(F3, rows))

    expect_failure(tampered(report3, swap), check)


def test_generators_of_a_proper_subgroup_fail_group(report2):
    # the stated order must be exactly |<generators>|: one of GF(4)'s two
    # generators makes a subgroup of order 2, and the search reaches only that
    def cut(p):
        p["group"]["generators"] = p["group"]["generators"][:1]

    expect_failure(tampered(report2, cut), "group: the generators reach 2 of the 4 elements")


@pytest.mark.parametrize(
    "order, cap, check",
    [
        (2, 3, "group: the generators make more than the 2 elements stated"),
        (4, 3, "params: group order 4 is not within 1..order_cap = 3"),
        (4, 4, "group: the generators reach 3 of the 4 elements"),
        (0, 3, "params: group order 0 is not within 1..order_cap"),
        (True, 3, "params: group order True is not within 1..order_cap"),
        ("3", 3, "params: group order '3' is not within 1..order_cap"),
    ],
    ids=["below", "above_cap", "above", "zero", "bool", "string"],
)
def test_tamper_order(report3, order, cap, check):
    def restate(p):
        p["group"]["order"] = order
        p["params"]["order_cap"] = cap

    expect_failure(tampered(report3, restate), check)


def test_a_raised_order_cap_still_verifies(report3):
    # the cap bounds the search; it is not a claim about the group
    assert verify_report(tampered(report3, lambda p: p["params"].update(order_cap=10_000))) == 6


def test_toy_record_cannot_be_dropped(report2):
    # the toy comparison runs for every 2x2 group of determinant 1 over p = 2
    expect_failure(tampered(report2, lambda p: p.update(toy=None)), "toy")


def test_toy_record_does_not_depend_on_the_seed():
    # over GF(128) an intertwiner search would have to sample, so a seeded
    # search made the toy record vary with the seed; the toy is now an
    # equation, no stage draws random numbers, and the seed is accepted and
    # ignored: reports for every seed are identical
    ctx = field_new(2, 7, [1, 1, 0, 0, 0, 0, 0, 1])
    group = additive_family(ctx, params=[ctx.el(1), ctx.el(2), ctx.el(3)])
    assert group.order == 4
    reports = []
    for seed in (0, 1, 2):
        params = {"p": 2, "k": 7, "n": 2, "order_cap": 10000, "seed": seed}
        report = run_pipeline(group, params, seed=seed).report
        assert verify_report(report) == 7
        assert report["payload"]["toy"] == {"equation": modcoh.verify.TOY_EQUATION}
        assert report["payload"]["params"] == {"order_cap": 10000}
        reports.append(report)
    assert reports[0] == reports[1] == reports[2]


def test_tamper_bool_coefficient(report2):
    # JSON true equals 1 to Python, but it is not a canonical coefficient
    def to_bool(p):
        cell = p["group"]["generators"][0]["entries"][0][1]
        assert cell == [1, 0]
        cell[0] = True

    with pytest.raises(CorruptReport):
        verify_report(tampered(report2, to_bool))


@pytest.mark.parametrize(
    "mutate",
    [
        lambda p: p["group"]["generators"][0]["entries"][0][0].__setitem__(0, 1.0),
        lambda p: p["group"]["generators"][0].update(rows=True),
    ],
    ids=["float_coefficient", "bool_rows"],
)
def test_malformed_matrix_is_corrupt(report3, mutate):
    with pytest.raises(CorruptReport):
        verify_report(tampered(report3, mutate))


def test_split_verdict_cannot_be_forged(report3):
    # a Split verdict with a witness in place of the equation is corrupt
    def forge(p):
        cert = p["nonsplit_certificate"]
        cert["verdict"] = "Split"
        cert["witness"] = cert.pop("equation")

    with pytest.raises(CorruptReport, match="fields"):
        verify_report(tampered(report3, forge))


@pytest.mark.parametrize("schema", [f"modcoh-report-v{v}" for v in range(1, 6)])
def test_old_schema_report_is_corrupt(report3, schema):
    old = json.loads(json.dumps(report3))
    old["schema"] = schema
    with pytest.raises(CorruptReport, match="schema"):
        verify_report(old)


@pytest.mark.parametrize(
    "where, key",
    [
        ((), "sym_action"),
        ((), "u_action"),
        ((), "cocycle"),
        (("obstruction",), "generator_action"),
        (("nonsplit_certificate",), "system_digest"),
        (("tensor_vanishing", "w"), "note"),
        (("tensor_vanishing", "w_module"), "note"),
        (("tensor_vanishing",), "witness"),
        (("tensor_vanishing",), "w"),
        (("tensor_vanishing",), "w_module"),
        (("tensor_vanishing",), "h1_dim"),
        (("nonsplit_certificate",), "generator_ids"),
        (("nonsplit_certificate",), "module"),
        (("nonsplit_certificate",), "inconsistency_row"),
        (("nonsplit_certificate",), "subgroup"),
        (("params",), "seed"),
        (("group",), "elements"),
        (("group",), "inverse"),
        (("group",), "generator_ids"),
        (("group",), "digest"),
        (("tensor_vanishing",), "class_of_g"),
        (("tensor_vanishing",), "z1_dim"),
        (("tensor_vanishing",), "b1_dim"),
        (("toy",), "pi"),
        (("toy",), "certificate"),
        (("toy",), "intertwiner"),
        ((), "field"),
        ((), "basis"),
        ((), "iota"),
        ((), "obstruction"),
        (("params",), "p"),
        (("params",), "k"),
        (("params",), "n"),
    ],
    ids=lambda v: ".".join(("payload",) + v) if isinstance(v, tuple) else v,
)
def test_readded_field_is_corrupt(report2, where, key):
    # a field the verifier does not read would be sealed but unchecked; the
    # v3 to v6 schemas dropped those it re-derives, that another field
    # repeats or that the claims do not need, and none may come back
    def add(p):
        node = p
        for part in where:
            node = node.setdefault(part, {})
        node[key] = []

    with pytest.raises(CorruptReport, match="fields"):
        verify_report(tampered(report2, add))


# Leaves that a mutation may change without rejection because the digest
# alone binds them: none, since v6 ships neither params.seed nor a solver's
# row, and every other field is checked by something besides the digest.
DIGEST_ONLY: list[str] = []
# field-element encodings: a coefficient is bumped mod p, so it stays parseable
CELL_KEYS = {"entries"}


def _leaves(node, path=()):
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)) and value:
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,), value


def _mutated(value, path, p):
    """Decrement an int (bump a coefficient mod p), negate a bool, extend a
    string or an empty list.  Decrementing reaches order_cap, an upper bound
    that any raise keeps true; the reports are built at their tightest cap."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return (value + 1) % p if CELL_KEYS.intersection(path) else value - 1
    if isinstance(value, str):
        return value + "x"
    return 0 if value is None else value + [0]


def is_genuine(payload):
    """Whether the builder makes exactly this payload for the group and the
    params it states."""
    params = payload["params"]
    try:
        group = group_spec_from_json(payload["group"], order_cap=params["order_cap"])
        return run_pipeline(group, params).report["payload"] == payload
    except ModcohError:
        return False


def test_every_leaf_mutation_is_rejected(report2, report3, report_sl2):
    # a mutation that survives must leave the builder's own report for the
    # group it names (a generator swapped for another of the same group, say)
    # or be digest-only
    survivors = []
    mutations = 0
    for report in (report2, report3, report_sl2):
        p = report["payload"]["group"]["field"]["p"]
        for path, value in _leaves(report["payload"]):

            def mutate(payload, path=path, value=value):
                node = payload
                for part in path[:-1]:
                    node = node[part]
                node[path[-1]] = _mutated(value, path, p)

            mutations += 1
            changed = tampered(report, mutate)
            try:
                verify_report(changed)
            except ModcohError:
                continue
            if not is_genuine(changed["payload"]):
                survivors.append(".".join(map(str, path)))
    assert mutations > 90
    unexpected = [s for s in survivors if not any(re.fullmatch(r, s) for r in DIGEST_ONLY)]
    assert unexpected == []


def test_verifier_shares_only_primitives():
    # the verifier module may import gf, linalg, errors and jsonutil only
    source = pathlib.Path(modcoh.verify.__file__).read_text()
    tree = ast.parse(source)
    local_imports = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            local_imports.add(node.module)
        elif isinstance(node, ast.ImportFrom) and node.module and node.module.startswith("modcoh"):
            local_imports.add(node.module.split(".", 1)[1])
    assert local_imports <= {"gf", "linalg", "errors", "jsonutil"}


def test_corrupt_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(CorruptReport):
        verify_report_file(str(bad))
    missing = tmp_path / "missing.json"
    with pytest.raises(CorruptReport):
        verify_report_file(str(missing))
