"""Independent re-checker for pipeline reports.

Deliberately shares only the field and matrix primitives with the builder,
which checks its own certificate with `_restriction_row` and
`_check_restriction` from here.
A v6 report names the group by its field, generators and order, states
the order cap and the dimensions, and makes each claim an equation text;
it ships nothing that n and p fix, and no solver output.  The verifier
checks two kinds of thing, and proves the rest below:

- the premises the proofs rest on: the group, from a nonempty list of
  generators, closes to its stated order within the cap, the dims are the
  formulas of n and p, and H, which the equation text names, lies in G by
  lookup in the closure;
- the instance claim: the closed-form non-split row y on H, y's two
  identities read off the images of at most two pinned monomials under
  the elements of H^-1.

The verdict, the equation texts and the presence of H, which need nothing
derived, are checked before any image is formed.  Every payload object
must have exactly the v6 fields, so no sealed field goes unchecked by
accident.  The payload digest binds every field, and every field is
checked by something other than the digest.

The group is closed here from its generators by the search that
grp.closure makes (Holt, Eick and O'Brien, Handbook of Computational Group
Theory, 2005, section 7.6): from the identity by left multiplication with
S', the generators in order, each kept only when the search has not
reached it yet.  The search stops past the stated order, and must reach
exactly that many elements, which order_cap bounds.  Its products are
S' x G, so each element of S' meets its inverse in its own row.  It runs
on raw encodings: an element is a row-major tuple, the generators are
parsed straight into them, each element of S' multiplies by the left
product ctx.left_mul prepared for it once, and the ids it finds are still
the builder's.  H is looked up among those tuples.  No Matrix is made, and
no basis, no symmetric-power action A, no U(s) and no Kronecker product is
formed: the image of a monomial x^e under sigma, x_j -> sum_i sigma_ij x_i,
is the product of the linear forms, kept as a dict over monomials coded
as base-(p+1) integers, and its coefficients are the column of x^e in
A(sigma).  What is proved:

- The block form is the Frobenius.  In characteristic p,
  (sum_i sigma_ij x_i)^p = sum_i sigma_ij^p x_i^p, so for every n x n
  sigma the pure-power columns of A(sigma) are sigma^[p] over a zero
  bottom-left block.  W is a submodule acting by the twist s^[p], and the
  lower-right block S is the action on V/W.
- The substitution action A is multiplicative for all n x n matrices,
  A(sigma) A(tau) = A(sigma tau), with A(I) = I: substitution is an
  algebra map.  So S is multiplicative too, and
  U(s) = kron(s^[p], S(s^-1)^T) is a homomorphism.  In particular
  A(s) A(s^-1) = I, and with the bottom-left blocks zero its lower-right
  block is S(s) S(s^-1) = I; by the mixed-product rule
  U(s) U(s^-1) = kron(I_n, (S(s) S(s^-1))^T) = I.
- g lies in U.  g_s = (s-1)iota = s^[p] iota A(s^-1) - iota, and
  iota A(s^-1) is the top n rows of A(s^-1), so the left block of g_s is
  s^[p] (s^-1)^[p] - I = 0, the twist being multiplicative.  g is the
  coboundary of iota in Hom(V, W), so a cocycle on all of G:
  (st-1)iota = s(t-1)iota + (s-1)iota, and a cocycle of the stable U.
  iota = (I_n | 0) is fixed by n, so no report field feeds g, and its
  right block h^[p] T, T the top-right block of A(h^-1), is read off the
  pure-power coefficients of the images under h^-1.
- Every degree-p monomial lies in the basis, which is all C(n+p-1, p) of
  them.  So every monomial of an image is a coordinate of V, and U's
  coordinate e(i, m) pairs the W-row i with the V/W monomial m: y and the
  residual are kept by monomial, with no basis order.
- The tensor witness.  With W(s) = [[U(s^-1)^T, 0], [g_{s^-1}^T, 1]],
  X = [-I_d ; 0] and w = e_d, W(s) X U(s)^T - X = w g_s^T reads
  -[[(U(s) U(s^-1))^T], [(U(s) g_{s^-1})^T]] + [[I_d], [0]] = [[0], [g_s^T]]
  row block by row block.  Its top d rows are U(s) U(s^-1) = I, proved
  above; its last row is U(s) g_{s^-1} = -g_s, the cocycle identity
  g_1 = g_{s s^-1} = U(s) g_{s^-1} + g_s at (s, s^-1) of that same
  coboundary, restricted to the stable U.  W(s) e_d = e_d, the invariance
  of w, is W(s)'s last column, true for any U and g.  So the equation
  holds on every element, and its record is checked as stated.
- The toy identity, for p = n = 2 and det s = 1.  The basis is x^2, y^2,
  xy; the xy coefficient of (ax + cy)(bx + dy) is ad + bc = det s = 1, so
  S(s^-1) = 1 and U(s) = s^[2].  The top-right block of
  A(s) A(s^-1) = I reads A(s)[0:2, 2] + s^[2] A(s^-1)[0:2, 2] = 0, so
  A(s)[0:2, 2] = -g_s = g_s in characteristic 2, and
  A(s) = [[U(s), g_s], [0, 1]].  det is multiplicative, so the record is
  due exactly when the generators have determinant 1, and it too is
  checked as stated.
- If g_h = (h-1)u for one u and every h in G, then for a subgroup H and
  rows y_h with sum_h y_h (U(h) - 1) = 0, sum_h y_h g_h = 0.  So such a y
  with sum_h y_h g_h != 0 rules out every split.  H and y are closed forms
  fixed by p (the shear x12(1) for p >= 3, two pattern involutions for
  p = 2; `_restriction_row` works both out), and each term
  c e(i, m) reads row i of h^[p] and the image of m under h^-1: its
  non-pure coefficients are column m of S(h^-1), which row (i, m) of
  U(h) pairs with row i of h^[p], and its coefficients on the x_a^p are
  column m of T.  This is the claim that depends on the group, and it is
  checked.
"""

from __future__ import annotations

import json
from math import comb
from typing import Iterable, Mapping, Sequence

from .errors import CorruptReport, FailedCheck, ModcohError
from .gf import FieldCtx, field_from_json
from .jsonutil import digest_of
from .linalg import (
    kron,  # unused here; bench/test_bench.py patches this import site
    matrix_values_from_json,
)

# the schema and the equation texts of the report, defined here only:
# report.py imports them, so the verifier needs nothing from the builder
SCHEMA = "modcoh-report-v6"
SHEAR_EQUATION = (
    "y@(U(u)-1) == 0 and y@g_u != 0 for u = x12(1), "
    "y = 2e(0,x1^(p-1)x2) + e(1,x1^(p-2)x2^2)"
)
PATTERN_EQUATION = (
    "y1@(U(h1)-1) + y2@(U(h2)-1) == 0 and y1@g_h1 + y2@g_h2 != 0 for "
    "hi = [[bi+1, bi], [bi, bi+1]], b1 < b2 the two least nonzero b, "
    "y1 = (b2/b1)^2 e(0,x1x2), y2 = e(0,x1x2)"
)
TENSOR_EQUATION = (
    "W(s) @ X @ U(s)^T - X == w @ g_s^T for every element, X = [-I_d ; 0], w = e_d"
)
TOY_EQUATION = "S^2(s) == [[U(s), g_s], [0, 1]] for every element"

# the exact fields of the report and of each v6 payload object
_REPORT_KEYS = frozenset({"schema", "payload", "digest"})
_PAYLOAD_KEYS = frozenset({
    "params", "group", "dims", "nonsplit_certificate", "tensor_vanishing", "toy",
})
_PARAMS_KEYS = frozenset({"order_cap"})
_FIELD_KEYS = frozenset({"p", "k", "modulus"})
_GROUP_KEYS = frozenset({"field", "n", "generators", "order"})
_MATRIX_KEYS = frozenset({"rows", "cols", "entries"})
_NONSPLIT_KEYS = frozenset({"verdict", "equation"})
_TENSOR_KEYS = frozenset({"equation"})
_TOY_KEYS = frozenset({"equation"})

# a group element as the closure holds it: its n x n encodings, row-major
Element = tuple[int, ...]


def _fail(name: str, detail: str) -> None:
    raise FailedCheck(f"{name}: {detail}")


def _record(obj, name: str, keys: Iterable[str]) -> dict:
    """`obj` itself, once it is an object with exactly the fields `keys`."""
    if not isinstance(obj, dict) or obj.keys() != set(keys):
        found = sorted(obj) if isinstance(obj, dict) else type(obj).__name__
        raise CorruptReport(f"{name}: fields {found} are not {sorted(keys)}")
    return obj


# ---------------------------------------------------------------------------
# independent re-implementations (kept free of the builder modules)
# ---------------------------------------------------------------------------


def _code(exps: Sequence[int], d: int) -> int:
    """sum_i e_i (d+1)^i: the base-(d+1) digits of a monomial of degree at
    most d, so unique, and additive under products of degree at most d."""
    code = 0
    for e in reversed(exps):
        code = code * (d + 1) + e
    return code


def _convolve(ctx: FieldCtx, a: dict, b: dict) -> dict:
    """Product of two polynomials stored as {monomial code: nonzero value},
    independent of the polynomial module; the code of a term product is the
    sum of the codes."""
    add, mul = ctx.add_i, ctx.mul_i
    out: dict = {}
    get = out.get
    for c1, v1 in a.items():
        for c2, v2 in b.items():
            out[c1 + c2] = add(get(c1 + c2, 0), mul(v1, v2))
    return {c: v for c, v in out.items() if v}


def _image(ctx: FieldCtx, sigma: Element, n: int, exps: Sequence[int]) -> dict:
    """x^exps under x_j -> l_j = sum_i sigma_ij x_i, for sigma a row-major
    tuple of encodings: prod_j l_j^(e_j), one linear factor at a time, as
    {monomial code: nonzero value} over the codes of degree d = sum(exps).
    Its coefficients are the column of x^exps in the substitution action
    on the degree-d monomials, with no basis formed."""
    d = sum(exps)
    image = {0: 1}
    for j, e in enumerate(exps):
        lin = {(d + 1) ** i: sigma[i * n + j] for i in range(n) if sigma[i * n + j]}
        for _ in range(e):
            image = _convolve(ctx, image, lin)
    return image


def _restriction_row(
    ctx: FieldCtx, n: int, index: Mapping[Element, int]
) -> tuple[dict[int, int], list[tuple[int, int, tuple[int, ...], int]]]:
    """H by the rule of the equation text, as the inverse of each of its
    elements, and y's nonzero terms c e(i, m) as (h, W-row i, V/W monomial
    m as its exponents, c); ({}, []) when the group has no such H.
    `index` maps each element, a row-major tuple of encodings, to its id,
    and H is found by looking its candidates up there.  T below is the
    top-right block of A(h^-1), so g_h = h^[p] T (module docstring).

    - p >= 3: H = {u}, u = x12(1), whose inverse is x12(-1), and
      y = 2 e(0,m1) + e(1,m2) with m1 = x1^(p-1) x2 and m2 = x1^(p-2) x2^2.
      u^[p] = u, and u^-1 substitutes x2 -> x2 - x1, sending m1 to
      m1 - x1^p and m2 to m2 - 2 m1 + x1^p.  So columns m1 and m2 of
      S(u^-1) are e_m1 and e_m2 - 2 e_m1, and those of T are -e_0 and e_0.
      Rows (0, m1) and (1, m2) of U(u) are (e_0 + e_1) (x) e_m1 and
      e_1 (x) (e_m2 - 2 e_m1), so
      y U(u) = 2 e(0,m1) + 2 e(1,m1) + e(1,m2) - 2 e(1,m1) = y.  And
      g_u = u T is (e_0 + e_1).(-e_0) = -1 at (0, m1) and e_1.e_0 = 0 at
      (1, m2), so y g_u = -2 != 0.
    - p = 2: H = {A(b1), A(b2)}, A(b) = [[b+1, b], [b, b+1]] the pattern
      involution, its own inverse, for the two least nonzero b in field
      encoding order, taken b = 1, 2, ... up to the second one in the
      group, and y = ((b2/b1)^2 e(0,m), e(0,m)) with m = x1 x2.
      A(b)^[2] = A(b^2), and A(b) sends m to (b^2+b)(x1^2 + x2^2) + m, as
      (b+1)^2 + b^2 = 1.  So column m of S(A(b)) is e_m, T has b^2+b in
      rows 0 and 1 of column m, and
      e(0,m) (U(A(b)) - 1) = b^2 (e(0,m) + e(1,m)), while g_A(b) at (0, m)
      is (b^2+1 + b^2)(b^2+b) = b^2+b.  The two rows sum to
      ((b2/b1)^2 b1^2 + b2^2)(e(0,m) + e(1,m)) = 0, and
      y g = (b2/b1)^2 (b1^2+b1) + b2^2+b2 = b2 (b1 + b2) / b1 != 0.
      One involution is not enough: c e(0,m) (U(A(b)) - 1) = 0 forces
      c = 0.
    """
    if n < 2:
        return {}, []
    pad = (0,) * (n - 2)
    p = ctx.p
    if p > 2:
        u, back = (index.get(_padded(n, [[1, c], [0, 1]])) for c in (1, ctx.neg_i(1)))
        if u is None:
            return {}, []
        return {u: back}, [(u, 0, (p - 1, 1) + pad, ctx.add_i(1, 1)), (u, 1, (p - 2, 2) + pad, 1)]
    found = []
    for b in range(1, ctx.q):
        a = ctx.add_i(b, 1)
        h = index.get(_padded(n, [[a, b], [b, a]]))
        if h is not None:
            found.append((b, h))
            if len(found) == 2:
                break
    if len(found) < 2:
        return {}, []
    (b1, h1), (b2, h2) = found
    c = ctx.mul_i(b2, ctx.inv_i(b1))
    m = (1, 1) + pad
    return {h1: h1, h2: h2}, [(h1, 0, m, ctx.mul_i(c, c)), (h2, 0, m, 1)]


def _padded(n: int, block: list[list[int]]) -> Element:
    """The 2x2 `block` in the top-left of I_n, row-major."""
    data = [int(i == j) for i in range(n) for j in range(n)]
    for i in range(2):
        data[i * n: i * n + 2] = block[i]
    return tuple(data)


def _check_restriction(
    ctx: FieldCtx,
    elements: Sequence[Element],
    h_inverse: Mapping[int, int],
    terms: list[tuple[int, int, tuple[int, ...], int]],
    n: int,
) -> None:
    """sum_h y_h (U(h) - 1) = 0 and sum_h y_h g_h != 0 for y's `terms`
    (h, i, m, c), each read off row i of h^[p] and the image of m under
    h^-1 (module docstring).  The residual is kept by (W-row, monomial
    code); the codes of the x_a^p are T's rows, not coordinates of U."""
    p = ctx.p
    add, mul, frob = ctx.add_i, ctx.mul_i, ctx.frob_i
    pure = [p * (p + 1) ** a for a in range(n)]  # the codes of x_a^p
    residual: dict[tuple[int, int], int] = {}
    value = 0
    for h, i, mono, c in terms:
        image = _image(ctx, elements[h_inverse[h]], n, mono)
        for a in range(n):
            t = frob(elements[h][i * n + a])
            if t:
                f = mul(c, t)
                for code, v in image.items():
                    residual[a, code] = add(residual.get((a, code), 0), mul(f, v))
                value = add(value, mul(f, image.get(pure[a], 0)))
        at = (i, _code(mono, p))
        residual[at] = ctx.sub_i(residual.get(at, 0), c)
    if any(v for (_, code), v in residual.items() if code not in pure):
        _fail("nonsplit", "y does not kill U(h) - 1 on H")
    if not value:
        _fail("nonsplit", "y kills g on H")


def _generated(
    ctx: FieldCtx, n: int, generators: list[Element], order: int
) -> tuple[list[Element], list[int], dict[int, int], dict[Element, int]]:
    """The elements of <generators>, each a row-major tuple of encodings,
    S', the inverse of each element of S' and back, and the id of each
    element.

    The search of grp.closure: a generator is kept, as the next element of
    S', only when the search has not reached it; its row then catches up
    with the elements found so far, and every row takes each element found
    after them.  Element ids are the order of discovery, so they and S' are
    the builder's.  The rows are S' x G, so an element of S' meets its
    inverse in its own row; the products are not kept.  Each product is the
    ctx.left_mul of its element of S', prepared once.  Fails `group` past
    `order` elements, short of it, or when an element of S' never meets
    the identity in its row, which a group element must.
    """
    identity = tuple(int(i == j) for i in range(n) for j in range(n))
    elements, index = [identity], {identity: 0}
    spanning: list[int] = []
    muls: list = []
    inverse: dict[int, int] = {}
    for g in generators:
        if g in index:
            continue
        # g is new, so g = g 1 gets the next id; the elements h found before
        # g take its row only, and every later one takes every row
        spanning.append(len(elements))
        muls.append(ctx.left_mul(g, n))
        first, h = len(elements), 0
        while h < len(elements):
            x0 = elements[h]
            for b in range(len(muls)) if h >= first else (len(muls) - 1,):
                x = muls[b](x0) if h else g
                k = index.get(x)
                if k is None:
                    if len(elements) == order:
                        _fail("group", f"the generators make more than the {order} elements stated")
                    index[x] = len(elements)
                    elements.append(x)
                elif k == 0:
                    inverse[spanning[b]], inverse[h] = h, spanning[b]
            h += 1
    if len(elements) != order:
        _fail("group", f"the generators reach {len(elements)} of the {order} elements stated")
    for s in spanning:
        if s not in inverse:
            _fail("group", f"element {s} has no inverse in the group found")
    return elements, spanning, inverse, index


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
    _record(report, "report", _REPORT_KEYS)
    if report["schema"] != SCHEMA:
        raise CorruptReport(f"unknown schema {report['schema']!r}")
    payload = _record(report["payload"], "payload", _PAYLOAD_KEYS)
    if report["digest"] != digest_of(payload):
        _fail("digest", "payload digest mismatch")
    checks += 1

    # field: the group's, the report's only field spec
    gobj = _record(payload["group"], "group", _GROUP_KEYS)
    try:
        ctx = field_from_json(_record(gobj["field"], "field", _FIELD_KEYS))
    except ModcohError as exc:
        raise FailedCheck(f"field: {exc}") from exc
    checks += 1

    # group: <generators>, closed here by the builder's search, has exactly
    # the stated order, which the job's order cap bounds
    params = _record(payload["params"], "params", _PARAMS_KEYS)
    n, order, cap = gobj["n"], gobj["order"], params["order_cap"]
    if type(n) is not int or n < 1:
        _fail("group", f"n = {n!r} is not a positive integer")
    if type(order) is not int or type(cap) is not int or not 1 <= order <= cap:
        _fail("params", f"group order {order!r} is not within 1..order_cap = {cap!r}")
    parsed = [
        matrix_values_from_json(ctx, _record(m, "matrix", _MATRIX_KEYS))
        for m in gobj["generators"]
    ]
    # no H fits in the trivial group, and with a generator the report holds
    # the n^2 cells that closing it costs
    if not parsed:
        _fail("group", "the generator list is empty")
    for i, (rows, cols, _) in enumerate(parsed):
        if rows != n or cols != n:
            _fail("group", f"generator {i} is not {n}x{n}")
    generators = [tuple(values) for _, _, values in parsed]
    elements, _, _, index = _generated(ctx, n, generators, order)
    checks += 1

    # dimension formulas
    p = ctx.p
    N = comb(n + p - 1, p)
    dim_u = n * (N - n)
    expected = {"N": N, "V": N, "W": n, "U": dim_u, "U_ext": dim_u + 1, "X": 4 * dim_u + 3}
    dims = _record(payload["dims"], "dims", expected.keys())
    for key, val in expected.items():
        if dims[key] != val:
            _fail("dims", f"dims[{key!r}] = {dims[key]} but the formula gives {val}")
    checks += 1

    # the claims' records, which need nothing derived: the non-split
    # verdict and equation text and the subgroup H that text names, looked
    # up in the closure, then the tensor-vanishing and toy equations, which
    # are proved (module docstring).  All of them come before any image
    cert = _record(payload["nonsplit_certificate"], "nonsplit", _NONSPLIT_KEYS)
    if cert["verdict"] != "NonSplit":
        _fail("nonsplit", f"verdict {cert['verdict']!r} is not NonSplit")
    if cert["equation"] != (SHEAR_EQUATION if p > 2 else PATTERN_EQUATION):
        _fail("nonsplit", "equation text differs from the checked equation")
    h_inverse, terms = _restriction_row(ctx, n, index)
    if not terms:
        _fail("nonsplit", "the group has no " + (
            "shear x12(1)" if p > 2 else "two pattern involutions A(b) with b != 0"
        ))
    tv = _record(payload["tensor_vanishing"], "tensor_vanishing", _TENSOR_KEYS)
    if tv["equation"] != TENSOR_EQUATION:
        _fail("tensor-vanishing", "equation text differs from the checked equation")
    checks += 1
    checks += _verify_toy(ctx, payload["toy"], n, generators)

    # non-split certificate: the closed-form y on H kills U(h) - 1 and not
    # g, read off the images of its monomials under H^-1
    _check_restriction(ctx, elements, h_inverse, terms, n)
    checks += 1
    return checks


def _toy_due(ctx: FieldCtx, n: int, generators: Iterable[Element]) -> bool:
    """Whether the report holds the toy record: exactly for 2x2 groups of
    determinant 1 over p = 2, where the toy sequence is the main extension
    (module docstring).  det is multiplicative, so the group has
    determinant 1 iff its generators, row-major tuples of encodings, do.
    """
    mul = ctx.mul_i
    return ctx.p == 2 and n == 2 and all(
        ctx.sub_i(mul(a, d), mul(b, c)) == 1 for a, b, c, d in generators
    )


def _verify_toy(ctx: FieldCtx, toy, n: int, generators: list[Element]) -> int:
    """The toy record: present exactly when `_toy_due`, and then stating
    that the toy sequence is the main extension, which is proved (module
    docstring)."""
    if _toy_due(ctx, n, generators) != (toy is not None):
        _fail("toy", "toy record present exactly for 2x2 groups of determinant 1 over p = 2")
    if toy is None:
        return 0
    if _record(toy, "toy", _TOY_KEYS)["equation"] != TOY_EQUATION:
        _fail("toy", "equation text differs from the checked equation")
    return 1


def verify_report_file(path: str) -> int:
    try:
        with open(path, "r") as handle:
            report = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise CorruptReport(f"cannot read report: {exc}") from exc
    return verify_report(report)
