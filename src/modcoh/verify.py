"""Independent re-checker for pipeline reports.

Deliberately shares only the field and matrix primitives with the builder:
group closure, the symmetric-power action, basis order, block structure,
cocycle construction, inconsistency rows and witness equations are all
re-derived here from the raw matrices in the report, without touching the
solver paths that produced them.  The payload digest binds every field.
"""

from __future__ import annotations

import json
from itertools import combinations_with_replacement
from math import comb
from typing import Sequence

from .errors import CorruptReport, FailedCheck, ModcohError
from .gf import FieldCtx, element_from_json, field_from_json
from .jsonutil import digest_of
from .linalg import Matrix, direct_sum, hstack, inverse, kron, matrix_from_json, vstack

SCHEMA = "modcoh-report-v1"
TENSOR_EQUATION = "(kron(W(s), U(s)) - I) @ u == kron(w, g_s) for every element"
_PAIRWISE_LIMIT = 64


def _fail(name: str, detail: str) -> None:
    raise FailedCheck(f"{name}: {detail}")


def _need(obj: dict, key: str):
    try:
        return obj[key]
    except (KeyError, TypeError) as exc:
        raise CorruptReport(f"missing field {key!r}") from exc


# ---------------------------------------------------------------------------
# independent re-implementations (kept free of the builder modules)
# ---------------------------------------------------------------------------


def _ordered_basis(n: int, d: int, p: int) -> list[tuple[int, ...]]:
    """Prescribed monomial order: pure powers, pinned slots, descending lex."""
    prefix = []
    for i in range(n):
        e = [0] * n
        e[i] = d
        prefix.append(tuple(e))
    if d == p == 2:
        prefix.append((1, 1) + (0,) * (n - 2))
    elif d == p and p >= 3:
        prefix.append((p - 1, 1) + (0,) * (n - 2))
        prefix.append((p - 2, 2) + (0,) * (n - 2))
    seen = set(prefix)
    rest = []
    for picks in combinations_with_replacement(range(n), d):
        e = [0] * n
        for i in picks:
            e[i] += 1
        t = tuple(e)
        if t not in seen:
            rest.append(t)
    rest.sort(reverse=True)
    return prefix + rest


def _substituted_column(
    ctx: FieldCtx, sigma: Matrix, exps: Sequence[int], basis_pos: dict
) -> list[int]:
    """Coefficients of prod_j (sum_i sigma_ij x_i)^(e_j) over the basis.

    Monomial-dict convolution, independent of the polynomial module.
    """
    n = len(exps)
    acc = {(0,) * n: 1}
    add, mul = ctx.add_i, ctx.mul_i
    for j, e in enumerate(exps):
        lin = {}
        for i in range(n):
            v = sigma.raw(i, j)
            if v:
                unit = [0] * n
                unit[i] = 1
                lin[tuple(unit)] = v
        for _ in range(e):
            nxt: dict = {}
            for m1, c1 in acc.items():
                for m2, c2 in lin.items():
                    m = tuple(a + b for a, b in zip(m1, m2))
                    prev = nxt.get(m, 0)
                    s = add(prev, mul(c1, c2))
                    if s:
                        nxt[m] = s
                    elif m in nxt:
                        del nxt[m]
            acc = nxt
    col = [0] * len(basis_pos)
    for mono, coeff in acc.items():
        if mono not in basis_pos:
            raise FailedCheck(f"sym-action: image monomial {mono} outside the basis")
        col[basis_pos[mono]] = coeff
    return col


def _frob_matrix(ctx: FieldCtx, m: Matrix) -> Matrix:
    frob = ctx.frob_i
    return Matrix(
        ctx,
        m.rows,
        m.cols,
        [frob(m.raw(i, j)) for i in range(m.rows) for j in range(m.cols)],
    )


def _check_sym_action(
    ctx: FieldCtx,
    name: str,
    elements: list[Matrix],
    action: list[Matrix],
    basis: list[tuple[int, ...]],
    n: int,
) -> None:
    pos = {m: i for i, m in enumerate(basis)}
    N = len(basis)
    for idx, (sigma, mat) in enumerate(zip(elements, action)):
        if mat.rows != N or mat.cols != N:
            _fail(name, f"action matrix {idx} is not {N}x{N}")
        for j, exps in enumerate(basis):
            col = _substituted_column(ctx, sigma, exps, pos)
            for i in range(N):
                if mat.raw(i, j) != col[i]:
                    _fail(
                        name,
                        f"element {idx}, basis column {j}: entry {i} is "
                        f"{mat[i, j]!r}, substitution gives {ctx.el(col[i])!r}",
                    )
        # block structure: top-left is the entrywise Frobenius, bottom-left zero
        if mat.submatrix(0, n, 0, n) != _frob_matrix(ctx, sigma):
            _fail(name, f"element {idx}: top-left block is not the Frobenius twist")
        if not mat.submatrix(n, N, 0, n).is_zero:
            _fail(name, f"element {idx}: bottom-left block is nonzero")


def _ext_matrices(ctx: FieldCtx, u_action: list[Matrix], cocycle: list[Matrix]) -> list[Matrix]:
    """Block matrices [[U(s), g_s], [0, 1]] per element."""
    out = []
    d = u_action[0].rows
    for act, val in zip(u_action, cocycle):
        data = []
        for r in range(d):
            data.extend(act.row_list(r))
            data.append(val.raw(r, 0))
        data.extend([0] * d + [1])
        out.append(Matrix(ctx, d + 1, d + 1, data))
    return out


def _check_split_record(
    ctx: FieldCtx,
    name: str,
    record: dict,
    action: list[Matrix],
    values: list[Matrix],
    generator_ids: list[int],
) -> None:
    """Reassemble the generator system and re-check the verdict data."""
    dim = action[0].rows
    if list(_need(record, "generator_ids")) != list(generator_ids):
        _fail(name, "generator ids differ from the group's")
    ident = Matrix.identity(ctx, dim)
    system = vstack([action[i] - ident for i in generator_ids])
    rhs = vstack([values[i] for i in generator_ids])
    if matrix_from_json(ctx, _need(record, "system")) != system:
        _fail(name, "stored system differs from the reassembled generator system")
    if matrix_from_json(ctx, _need(record, "rhs")) != rhs:
        _fail(name, "stored right-hand side differs from the cocycle values")
    stored_digest = _need(record, "system_digest")
    if stored_digest != digest_of(
        {"system": _need(record, "system"), "rhs": _need(record, "rhs")}
    ):
        _fail(name, "system digest mismatch")
    verdict = _need(record, "verdict")
    if verdict == "NonSplit":
        y = matrix_from_json(ctx, _need(record, "inconsistency_row"))
        if not (y @ system).is_zero:
            _fail(name, "inconsistency row does not kill the system")
        if (y @ rhs).is_zero:
            _fail(name, "inconsistency row kills the right-hand side")
    elif verdict == "Split":
        u = matrix_from_json(ctx, _need(record, "witness"))
        for i, (act, val) in enumerate(zip(action, values)):
            if (act - Matrix.identity(ctx, dim)) @ u != val:
                _fail(name, f"split witness fails at element {i}")
    else:
        _fail(name, f"unknown verdict {verdict!r}")


# ---------------------------------------------------------------------------
# the verifier
# ---------------------------------------------------------------------------


def verify_report(report: dict) -> int:
    """Re-check every certificate; returns the number of checks passed.

    Raises CorruptReport for malformed input and FailedCheck with the first
    failing equation otherwise.
    """
    try:
        return _verify_payload(report)
    except (FailedCheck, CorruptReport):
        raise
    except (ModcohError, KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        raise CorruptReport(f"malformed report: {exc!r}") from exc


def _verify_payload(report: dict) -> int:
    checks = 0
    if not isinstance(report, dict):
        raise CorruptReport("report is not a JSON object")
    if _need(report, "schema") != SCHEMA:
        raise CorruptReport(f"unknown schema {report['schema']!r}")
    payload = _need(report, "payload")
    if _need(report, "digest") != digest_of(payload):
        _fail("digest", "payload digest mismatch")
    checks += 1

    try:
        ctx = field_from_json(_need(payload, "field"))
    except ModcohError as exc:
        raise FailedCheck(f"field: {exc}") from exc
    params = _need(payload, "params")
    if (params.get("p"), params.get("k")) != (ctx.p, ctx.k):
        _fail("params", "params disagree with the field spec")
    checks += 1

    # group: closure, inverses, digest
    gobj = _need(payload, "group")
    n = _need(gobj, "n")
    if params.get("n") != n:
        _fail("params", "params n disagrees with the group")
    try:
        elements = [matrix_from_json(ctx, m) for m in _need(gobj, "elements")]
        generators = [matrix_from_json(ctx, m) for m in _need(gobj, "generators")]
    except ModcohError as exc:
        raise CorruptReport(f"group matrices: {exc}") from exc
    order = len(elements)
    if _need(gobj, "order") != order:
        _fail("group", "stored order differs from the element count")
    if order == 0 or elements[0] != Matrix.identity(ctx, n):
        _fail("group", "elements[0] is not the identity")
    index = {}
    for i, m in enumerate(elements):
        if m in index:
            _fail("group", f"duplicate element at ids {index[m]} and {i}")
        if m.rows != n or m.cols != n:
            _fail("group", f"element {i} is not {n}x{n}")
        index[m] = i
    gen_ids = list(_need(gobj, "generator_ids"))
    if len(gen_ids) != len(generators) or any(
        not isinstance(i, int) or i < 0 or i >= order or elements[i] != g
        for i, g in zip(gen_ids, generators)
    ):
        _fail("group", "generator ids do not point at the generator matrices")
    if order <= _PAIRWISE_LIMIT:
        pairs = [(i, j) for i in range(order) for j in range(order)]
    else:
        pairs = [(i, j) for i in gen_ids for j in range(order)]
    mul_idx: dict[tuple[int, int], int] = {}
    for i, j in pairs:
        prod = elements[i] @ elements[j]
        k = index.get(prod)
        if k is None:
            _fail("group", f"product of elements {i} and {j} escapes the element list")
        mul_idx[(i, j)] = k
    inv_table = list(_need(gobj, "inverse"))
    if len(inv_table) != order:
        _fail("group", "inverse table length mismatch")
    ident_n = Matrix.identity(ctx, n)
    for i, j in enumerate(inv_table):
        if not isinstance(j, int) or j < 0 or j >= order or elements[i] @ elements[j] != ident_n:
            _fail("group", f"inverse table wrong at element {i}")
    if _need(gobj, "digest") != digest_of(
        {
            "field": _need(payload, "field"),
            "n": n,
            "elements": _need(gobj, "elements"),
        }
    ):
        _fail("group", "group digest mismatch")
    checks += 1

    # dimension formulas
    p = ctx.p
    dims = _need(payload, "dims")
    N = comb(n + p - 1, p)
    dim_u = n * (N - n)
    expected = {
        "N": N,
        "V": N,
        "W": n,
        "U": dim_u,
        "U_ext": dim_u + 1,
        "X": 4 * dim_u + 3,
    }
    for key, val in expected.items():
        if _need(dims, key) != val:
            _fail("dims", f"dims[{key!r}] = {dims[key]} but the formula gives {val}")
    checks += 1

    # basis order
    basis = [tuple(e) for e in _need(payload, "basis")]
    if basis != _ordered_basis(n, p, p):
        _fail("basis", "stored basis violates the prescribed monomial order")
    checks += 1

    # symmetric-power action, re-derived by independent substitution
    try:
        sym_action = [matrix_from_json(ctx, m) for m in _need(payload, "sym_action")]
    except ModcohError as exc:
        raise CorruptReport(f"sym_action: {exc}") from exc
    if len(sym_action) != order:
        _fail("sym-action", "need one matrix per element")
    _check_sym_action(ctx, "sym-action", elements, sym_action, basis, n)
    checks += 1

    # iota
    iota = matrix_from_json(ctx, _need(payload, "iota"))
    if iota != hstack(Matrix.identity(ctx, n), Matrix.zeros(ctx, n, N - n)):
        _fail("iota", "iota is not (I_n | 0)")
    checks += 1

    # U action: kron(frobenius(sigma), S^T) with S the lower-right block of A_inv
    try:
        u_action = [matrix_from_json(ctx, m) for m in _need(payload, "u_action")]
    except ModcohError as exc:
        raise CorruptReport(f"u_action: {exc}") from exc
    if len(u_action) != order:
        _fail("u-action", "need one matrix per element")
    for i in range(order):
        a_inv = sym_action[inv_table[i]]
        s_block = a_inv.submatrix(n, N, n, N)
        want = kron(_frob_matrix(ctx, elements[i]), s_block.transpose())
        if u_action[i] != want:
            _fail("u-action", f"element {i}: matrix is not kron(twist, S^T)")
    checks += 1

    # cocycle: construction and pair identity
    try:
        cocycle = [matrix_from_json(ctx, v) for v in _need(payload, "cocycle")]
    except ModcohError as exc:
        raise CorruptReport(f"cocycle: {exc}") from exc
    if len(cocycle) != order:
        _fail("cocycle", "need one value per element")
    if not cocycle[0].is_zero:
        _fail("cocycle", "value at the identity must be zero")
    for i in range(order):
        a_inv = sym_action[inv_table[i]]
        full = _frob_matrix(ctx, elements[i]) @ iota @ a_inv - iota
        if not full.submatrix(0, n, 0, n).is_zero:
            _fail("cocycle", f"(s-1)iota leaves U at element {i}")
        if full.submatrix(0, n, n, N).flatten() != cocycle[i]:
            _fail("cocycle", f"stored value at element {i} differs from (s-1)iota")
    for (i, j), k in mul_idx.items():
        if cocycle[k] != u_action[i] @ cocycle[j] + cocycle[i]:
            _fail("cocycle", f"pair identity fails at elements ({i}, {j})")
    checks += 1

    # non-split certificate
    cert = _need(payload, "nonsplit_certificate")
    mod_desc = _need(cert, "module")
    if mod_desc.get("dim") != dim_u or mod_desc.get("group_digest") != gobj["digest"]:
        _fail("nonsplit", "certificate module descriptor mismatch")
    _check_split_record(ctx, "nonsplit", cert, u_action, cocycle, gen_ids)
    checks += 1

    # tensor vanishing: (s-1)u = w (x) g_s over every element, in Hom form
    tv = _need(payload, "tensor_vanishing")
    ext = _ext_matrices(ctx, u_action, cocycle)
    w_dual = [ext[inv_table[i]].transpose() for i in range(order)]
    w = matrix_from_json(ctx, _need(tv, "w"))
    if w != Matrix.basis_column(ctx, dim_u + 1, dim_u):
        _fail("tensor-vanishing", "w is not the coordinate functional of iota")
    for i in range(order):
        if w_dual[i] @ w != w:
            _fail("tensor-vanishing", f"w is not fixed at element {i}")
    u_vec = matrix_from_json(ctx, _need(tv, "witness"))
    if u_vec.rows != (dim_u + 1) * dim_u or u_vec.cols != 1:
        _fail("tensor-vanishing", f"witness is not a {(dim_u + 1) * dim_u}x1 column")
    # kron(A, B) @ vec(X) = vec(A @ X @ B^T) for the row-major vec
    x = u_vec.reshape(dim_u + 1, dim_u)
    for i in range(order):
        if w_dual[i] @ x @ u_action[i].transpose() - x != w @ cocycle[i].transpose():
            _fail("tensor-vanishing", f"witness equation fails at element {i}")
    if _need(tv, "w_module") != {
        "group_digest": gobj["digest"],
        "recipe": "dual(ext(u))",
        "dim": dim_u + 1,
    }:
        _fail("tensor-vanishing", "w module descriptor is not dual(ext(u)) of dim d+1")
    if _need(tv, "equation") != TENSOR_EQUATION:
        _fail("tensor-vanishing", "equation text differs from the checked equation")
    z1_dim, b1_dim, h1_dim = _need(tv, "z1_dim"), _need(tv, "b1_dim"), _need(tv, "h1_dim")
    if not all(type(v) is int for v in (z1_dim, b1_dim, h1_dim)):
        _fail("tensor-vanishing", "z1_dim, b1_dim and h1_dim must be integers")
    if h1_dim != z1_dim - b1_dim or h1_dim < 1:
        _fail("tensor-vanishing", f"h1_dim = {h1_dim} is not z1_dim - b1_dim >= 1")
    class_of_g = [element_from_json(ctx, c) for c in _need(tv, "class_of_g")]
    if len(class_of_g) != h1_dim:
        _fail("tensor-vanishing", f"class_of_g has {len(class_of_g)} coordinates, not {h1_dim}")
    if all(c.is_zero for c in class_of_g):
        _fail("tensor-vanishing", "class_of_g is zero")
    checks += 1

    # obstruction module: block-diagonal assembly over the generators
    obs = _need(payload, "obstruction")
    if _need(obs, "dim") != 4 * dim_u + 3 or _need(obs, "dim_by_formula") != 4 * dim_u + 3:
        _fail("obstruction", "dimension record disagrees with the formula")
    if _need(obs, "components") != ["dual(u)", "ext(u)", "ext(u)", "ext(u)"]:
        _fail("obstruction", "components are not dual(u), ext(u), ext(u), ext(u)")
    gen_action = [matrix_from_json(ctx, m) for m in _need(obs, "generator_action")]
    if len(gen_action) != len(gen_ids):
        _fail("obstruction", "need one matrix per generator")
    for t, gid in enumerate(gen_ids):
        dual_u = u_action[inv_table[gid]].transpose()
        want = direct_sum(direct_sum(direct_sum(dual_u, ext[gid]), ext[gid]), ext[gid])
        if gen_action[t] != want:
            _fail("obstruction", f"generator {gid}: block assembly mismatch")
    checks += 1

    # toy comparison
    toy = payload.get("toy")
    if toy is not None:
        checks += _verify_toy(ctx, toy, elements, index, inv_table, gen_ids, u_action, cocycle)
    return checks


def _verify_toy(
    ctx: FieldCtx,
    toy: dict,
    elements: list[Matrix],
    index: dict,
    inv_table: list[int],
    gen_ids: list[int],
    u_action: list[Matrix],
    main_cocycle: list[Matrix],
) -> int:
    checks = 0
    order = len(elements)
    if ctx.p != 2:
        _fail("toy", "toy record present but the characteristic is not 2")
    basis2 = _ordered_basis(2, 2, 2)
    action = [matrix_from_json(ctx, m) for m in _need(toy, "action")]
    if len(action) != order:
        _fail("toy", "need one degree-2 matrix per element")
    _check_sym_action(ctx, "toy", elements, action, basis2, 2)
    checks += 1

    # hypothesis scan: [[a, a+1], [a+1, a]] patterns among the elements
    found = set()
    one = 1
    for m in elements:
        a = m.raw(0, 0)
        a1 = ctx.add_i(a, one)
        if m.raw(0, 1) == a1 and m.raw(1, 0) == a1 and m.raw(1, 1) == a:
            found.add(a)
    stored = [element_from_json(ctx, v).val for v in _need(toy, "pattern_values")]
    if sorted(stored) != sorted(found):
        _fail("toy", "stored pattern values disagree with the element scan")
    if _need(toy, "hypothesis_ok") != (len(found) >= 3):
        _fail("toy", "hypothesis flag disagrees with the pattern count")
    checks += 1

    pi = matrix_from_json(ctx, _need(toy, "pi"))
    v0 = matrix_from_json(ctx, _need(toy, "v0"))
    if pi.rows != 1 or pi.cols != 3 or (pi @ v0).raw(0, 0) != 1:
        _fail("toy", "pi, v0 are not a projection and preimage of 1")
    for i, a in enumerate(action):
        if pi @ a != pi:
            _fail("toy", f"projection not invariant at element {i}")
        if a.raw(2, 0) or a.raw(2, 1):
            _fail("toy", f"first two coordinates are not a submodule at element {i}")
    toy_u = [a.submatrix(0, 2, 0, 2) for a in action]
    values = [matrix_from_json(ctx, v) for v in _need(toy, "cocycle")]
    if len(values) != order:
        _fail("toy", "need one cocycle value per element")
    ident3 = Matrix.identity(ctx, 3)
    for i, a in enumerate(action):
        diff = (a - ident3) @ v0
        if diff.raw(2, 0):
            _fail("toy", f"(s-1)v0 leaves the kernel at element {i}")
        if diff.submatrix(0, 2, 0, 1) != values[i]:
            _fail("toy", f"cocycle value at element {i} differs from (s-1)v0")
    checks += 1

    cert = _need(toy, "certificate")
    if _need(toy, "hypothesis_ok") and _need(cert, "verdict") != "NonSplit":
        _fail("toy", "hypothesis holds but the verdict is not NonSplit")
    _check_split_record(ctx, "toy-certificate", cert, toy_u, values, gen_ids)
    checks += 1

    it = toy.get("intertwiner")
    if it is not None:
        t_mat = matrix_from_json(ctx, _need(it, "matrix"))
        try:
            inverse(t_mat)
        except ModcohError as exc:
            raise FailedCheck(f"toy-intertwiner: matrix not invertible: {exc}") from exc
        for i in range(order):
            if u_action[i] @ t_mat != t_mat @ toy_u[i]:
                _fail("toy-intertwiner", f"does not intertwine at element {i}")
        scalar = element_from_json(ctx, _need(toy, "class_scalar"))
        if scalar.is_zero:
            _fail("toy-intertwiner", "class scalar is zero")
        v = matrix_from_json(ctx, _need(toy, "coboundary_witness"))
        dim_u = u_action[0].rows
        ident_u = Matrix.identity(ctx, dim_u)
        for i in range(order):
            lhs = t_mat @ values[i]
            rhs = main_cocycle[i].scale(scalar) + (u_action[i] - ident_u) @ v
            if lhs != rhs:
                _fail("toy-intertwiner", f"class comparison fails at element {i}")
        checks += 1
    return checks


def verify_report_file(path: str) -> int:
    try:
        with open(path, "r") as handle:
            report = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise CorruptReport(f"cannot read report: {exc}") from exc
    return verify_report(report)
