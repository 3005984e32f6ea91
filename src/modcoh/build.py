"""Pipeline: construct and certify the canonical non-split sequence.

Given a matrix group over characteristic p, the degree-p symmetric power V
carries the twist submodule W spanned by the p-th powers of the variables.
U is the space of maps V -> W vanishing on W (coordinates: the matrix Z
with zero first columns, flattened row-major), iota restricts to the
identity on W, and g_s = (s-1) iota is a cocycle whose class obstructs the
splitting of 0 -> U -> U + K iota -> K -> 0.

The construction checks the one claim that depends on the group, the
closed-form non-split row y on the subgroup H, from the images of at most
two pinned monomials under the elements of H^-1 (RestrictionCertificate):
no basis, no symmetric-power action and no d x d matrix is formed.  H is
found by the rule the report's equation text states, at most q lookups
of its candidate matrices in the group's index and none after the second
hit; the group hypothesis is that H exists (restriction_certificate).  The
dimensions are closed formulas, and the rest is proved, not re-computed:
the block form of the symmetric-power action A (the Frobenius), g lying
in U, the closed-form tensor-vanishing witness (TensorVanishing) and the
identity of the degree-2 toy sequence with the main extension
(toy_example).  None of these is stored: the report states them as
equations, which the verifier checks or proves the same way, and ships
neither the basis nor iota, which n and p fix.

No stage computes a cohomology space or calls a solver.  The class of g
is nonzero by the restriction certificate on H, its product with w
vanishes by the closed-form witness, and dim X has a closed formula; Z1,
B1 and H1 are left to the `h1` subcommand.  The
modules V, U and U~ and the cocycle on S' are made only when `h1`, a
module recipe or the toy reads them (NonSplitSequence).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from math import comb
from typing import Optional, Union

from .coh import (
    Cocycle,
    ExtensionClass,
    extension_from_cocycle,
    is_split,
    z1_space,  # unused here; bench/test_bench.py patches this import site
)
from .errors import (
    BadCharacteristic,
    BadProjection,
    GroupMismatch,
    HypothesisNotSatisfied,
    ModcohError,
    TheoremViolation,
)
from .gf import FieldCtx, field_new
from .grp import MatrixGroup, _family_matrix, additive_family
from .linalg import Matrix, kron, vstack
from .poly import Monomial, Polynomial, det3_identity
from .rep import (
    GModule,
    dual,
    direct_sum_mod,
    frobenius_twist,
    hom,
    monomial_code,
    monomial_image,
    natural_module,
    sym_power,
    tensor,
    trivial_module,
)


@dataclass
class NonSplitSequence:
    """The group and its non-split certificate, None when the group has no
    subgroup H for it (the hypothesis fails).  The report reads only these
    and the dims, which are formulas.  The modules and the cocycle are made
    on first read (`h1`, the module recipes, the toy and the tests read
    them), each with the guard checks of its own code: the block form of A
    and g in U on S'.  iota = (I_n | 0) is fixed by n, so it is not held."""

    group: MatrixGroup
    certificate: Optional[RestrictionCertificate]

    @property
    def dims(self) -> dict[str, int]:
        """By their formulas: N = C(n+p-1, p) degree-p monomials, W the n
        pure powers, U = Hom(V/W, W), U~ = U + K and X = U* + 3 U~."""
        n, p = self.group.n, self.group.ctx.p
        N = comb(n + p - 1, p)
        dim_u = n * (N - n)
        return {"N": N, "V": N, "W": n, "U": dim_u, "U_ext": dim_u + 1, "X": 4 * dim_u + 3}

    @cached_property
    def twist(self) -> GModule:
        return frobenius_twist(self.group)

    @cached_property
    def sym_module(self) -> GModule:
        """V = S^p(K^n) by substitution.  Its block form is proved (the
        Frobenius, RestrictionCertificate) and checked on S' as a guard of
        the substitution code: a zero bottom-left block and the top-left
        block s^[p].  A is a homomorphism, so the blocks hold on every
        element once they hold on S'; W is a submodule acting by s^[p], and
        S, the lower-right block, is the action on V/W."""
        group, twist = self.group, self.twist
        n, p = group.n, group.ctx.p
        sym, _ = sym_power(group, p)
        N = sym.dim
        if N != comb(n + p - 1, p):
            raise TheoremViolation(f"dim V = {N} != C({n + p - 1},{p})")
        for i in group.spanning_ids:
            a = sym.action(i)
            if a.submatrix(0, n, 0, n) != twist.action(i):
                raise TheoremViolation(f"top-left block of A_s is not the twist at element {i}")
            if not a.submatrix(n, N, 0, n).is_zero:
                raise TheoremViolation(f"bottom-left block of A_s is nonzero at element {i}")
        return sym

    @cached_property
    def u_module(self) -> GModule:
        """U(s) = kron(s^[p], S(s^-1)^T), the action F -> s^[p] F S(s)^-1 on
        U = Hom(V/W, W), flattened row-major; a homomorphism because S and
        the twist are."""
        group, sym, twist = self.group, self.sym_module, self.twist
        n, N, inv = group.n, sym.dim, group.inv

        def u_action(i: int) -> Matrix:
            s_block = sym.action(inv[i]).submatrix(n, N, n, N)
            return kron(twist.action(i), s_block.transpose())

        return GModule(group, n * (N - n), u_action, "u")

    @cached_property
    def cocycle(self) -> Cocycle:
        """g on S', from the twist at s and A(s^-1).  g_s = (s-1)iota =
        s^[p] iota A(s^-1) - iota is the coboundary of iota in Hom(V, W),
        hence a cocycle there on all of G, and it lies in U on every
        element (RestrictionCertificate); the check on S' guards the
        computation.  So its values on S' fix a cocycle of U with no check
        on the rest of G (Cocycle.restricted_coboundary), and no validate
        pass is made."""
        values = [
            _iota_coboundary(self.group, self.twist, self.sym_module, s)
            for s in self.group.spanning_ids
        ]
        return Cocycle.restricted_coboundary(self.u_module, values)

    @cached_property
    def extension(self) -> ExtensionClass:
        return extension_from_cocycle(self.cocycle)


def build_nonsplit_sequence(
    group: MatrixGroup, require_hypothesis: bool = True
) -> NonSplitSequence:
    """Find the non-split certificate of the group and check it.

    The hypothesis is that the certificate exists: the group holds the
    subgroup H its closed-form row y needs (`restriction_certificate`).
    With `require_hypothesis` a group without it raises
    HypothesisNotSatisfied, naming what is missing; otherwise the
    certificate is None and no verdict is taken here.  A row that fails its
    check is a TheoremViolation.  The check reads the images of the pinned
    monomials under H^-1 and the rows of the twist on H, and nothing else:
    no module is built here (NonSplitSequence).
    """
    cert = restriction_certificate(group)
    if cert is not None:
        _check_restriction(group, cert)
    elif require_hypothesis:
        if group.n < 2:
            missing = "the shear and the pattern involutions need n >= 2"
        elif group.ctx.p > 2:
            missing = "the group has no unipotent shear x12(1)"
        else:
            missing = "the group has fewer than two pattern involutions A(b), b != 0"
        raise HypothesisNotSatisfied(missing)
    return NonSplitSequence(group, cert)


def _iota_coboundary(group: MatrixGroup, twist: GModule, sym: GModule, i: int) -> Matrix:
    """g_i = (i-1)iota = i^[p] iota A(i^-1) - iota in U's coordinates, read
    off the twist at i and A at i^-1; raises TheoremViolation if it leaves U.
    iota = (I_n | 0), so iota A(i^-1) is the top n rows of A(i^-1): the
    left n x n block of i^[p] A(i^-1)[0:n, :] must be I_n, and g_i is its
    right block, flattened."""
    n, N = group.n, sym.dim
    full = twist.action(i) @ sym.action(group.inv[i]).submatrix(0, n, 0, N)
    if full.submatrix(0, n, 0, n) != Matrix.identity(group.ctx, n):
        raise TheoremViolation(f"(s-1)iota leaves U at element {i}")
    return full.submatrix(0, n, n, N).flatten()


# ---------------------------------------------------------------------------
# the non-split certificate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RestrictionCertificate:
    """A row y over a subgroup H with sum_h y_h (U(h) - 1) = 0 and
    sum_h y_h g_h != 0, so g is not a coboundary on H, hence not on G.

    If g_h = (h-1)u for one u and every h, then
    sum_h y_h g_h = sum_h y_h (U(h) - 1) u = 0.  `ids` is H and `terms`
    are y's nonzero coordinates c e(i, m): (element id h, W-row i, V/W
    monomial m as its exponents, coefficient c as its field encoding).

    U = Hom(V/W, W), so its coordinate (i, m) pairs the W-row i with the
    V/W monomial m.  Row (i, m) of U(h) = kron(h^[p], S(h^-1)^T) is row i
    of h^[p] (x) column m of S(h^-1), and g_h = h^[p] iota A(h^-1) - iota
    = (0 | h^[p] T), with T the top-right block of A(h^-1).  Column m of
    A(h^-1) is the image of m under the substitution x_j -> sum_i
    (h^-1)_ij x_i: its coefficients on the non-pure monomials are column m
    of S(h^-1), and those on the x_a^p column m of T.  So each term reads
    one monomial image (`_check_restriction`), and three facts, proved
    here, stand for the checks the dense action once made:

    - The block form is the Frobenius.  In characteristic p,
      (sum_i sigma_ij x_i)^p = sum_i sigma_ij^p x_i^p, so for every n x n
      sigma the image of x_j^p is sum_i sigma_ij^p x_i^p: the pure-power
      columns of A(sigma) are sigma^[p] over a zero bottom-left block.
    - g lies in U.  The left block of g_h is h^[p] (h^-1)^[p] - I, which is
      0 as the twist is multiplicative and h h^-1 = 1.
    - Every degree-p monomial lies in the basis, which is all of them; so
      every monomial of an image is a coordinate, and a residual kept by
      (W-row, monomial) needs no basis order.

    The basis pins the first V/W monomials, so H and y are closed forms
    (`restriction_certificate`):

    - p >= 3: H = {u}, u = x12(1), and y = 2 e(0,m1) + e(1,m2) with
      m1 = x1^(p-1) x2 and m2 = x1^(p-2) x2^2.  u^[p] = u, and u^-1
      substitutes x2 -> x2 - x1, sending m1 to m1 - x1^p and m2 to
      m2 - 2 m1 + x1^p.  So columns m1 and m2 of S(u^-1) are e_m1 and
      e_m2 - 2 e_m1, and those of T are -e_0 and e_0.  Rows (0, m1) and
      (1, m2) of U(u) are (e_0 + e_1) (x) e_m1 and e_1 (x) (e_m2 - 2 e_m1),
      so y U(u) = 2 e(0,m1) + 2 e(1,m1) + e(1,m2) - 2 e(1,m1) = y.  And
      g_u = u T is (e_0 + e_1).(-e_0) = -1 at (0, m1) and e_1.e_0 = 0 at
      (1, m2), so y g_u = -2 != 0.
    - p = 2: H = {A(b1), A(b2)}, A(b) = [[b+1, b], [b, b+1]] the pattern
      involution of a = b + 1, with b1 != b2 both nonzero, and
      y = ((b2/b1)^2 e(0,m), e(0,m)) with m = x1 x2.  A(b)^[2] = A(b^2), and
      A(b) = A(b)^-1 sends m to (b^2+b)(x1^2 + x2^2) + m, as
      (b+1)^2 + b^2 = 1.  So column m of S(A(b)) is e_m, T has b^2+b in
      rows 0 and 1 of column m, and e(0,m) (U(A(b)) - 1) =
      b^2 (e(0,m) + e(1,m)), while g_A(b) at (0, m) is
      (b^2+1 + b^2)(b^2+b) = b^2+b.  The two rows sum to
      ((b2/b1)^2 b1^2 + b2^2)(e(0,m) + e(1,m)) = 0, and
      y g = (b2/b1)^2 (b1^2+b1) + b2^2+b2 = b2 (b1 + b2) / b1 != 0.
      One involution is not enough: c e(0,m) (U(A(b)) - 1) = 0 forces c = 0.
    """

    ids: tuple[int, ...]
    terms: tuple[tuple[int, int, tuple[int, ...], int], ...]


def restriction_certificate(group: MatrixGroup) -> Optional[RestrictionCertificate]:
    """H and y by the rule that the report's equation text states, or None
    when the group has no such H.  H is looked up in `group.index`: for
    p >= 3 the shear x12(1); for p = 2 the pattern involutions A(b) of the
    two least nonzero b in field encoding order, taken b = 1, 2, ... up to
    the second one in the group.  Neither fits in a group of n < 2.
    """
    ctx, n, p = group.ctx, group.n, group.ctx.p
    if n < 2:
        return None
    pad = (0,) * (n - 2)
    if p > 2:
        u = group.index.get(_family_matrix(ctx, 1, n))
        if u is None:
            return None
        m1, m2 = (p - 1, 1) + pad, (p - 2, 2) + pad
        return RestrictionCertificate((u,), ((u, 0, m1, ctx.add_i(1, 1)), (u, 1, m2, 1)))
    found = []
    for b in range(1, ctx.q):
        h = group.index.get(_family_matrix(ctx, b, n))
        if h is not None:
            found.append((b, h))
            if len(found) == 2:
                break
    else:
        return None
    (b1, h1), (b2, h2) = found
    c = ctx.mul_i(b2, ctx.inv_i(b1))
    m = (1, 1) + pad
    return RestrictionCertificate((h1, h2), ((h1, 0, m, ctx.mul_i(c, c)), (h2, 0, m, 1)))


def _check_restriction(group: MatrixGroup, cert: RestrictionCertificate) -> None:
    """sum_h y_h (U(h) - 1) = 0 and sum_h y_h g_h != 0, each term read off
    the image of its monomial under h^-1 and row i of h^[p]
    (RestrictionCertificate).  The residual is kept by (W-row, monomial
    code); the codes of the x_a^p are T's rows, not coordinates of U.
    Raises TheoremViolation if either identity fails."""
    ctx, n, p = group.ctx, group.n, group.ctx.p
    add, mul, frob = ctx.add_i, ctx.mul_i, ctx.frob_i
    pure = [p * (p + 1) ** a for a in range(n)]  # the codes of x_a^p
    residual: dict[tuple[int, int], int] = {}
    value = 0
    for h, i, mono, c in cert.terms:
        image = monomial_image(group.elements[group.inv[h]], mono)
        for a in range(n):
            t = frob(group.elements[h].raw(i, a))
            if t:
                f = mul(c, t)
                for code, v in image.items():
                    residual[a, code] = add(residual.get((a, code), 0), mul(f, v))
                value = add(value, mul(f, image.get(pure[a], 0)))
        at = (i, monomial_code(mono, p))
        residual[at] = ctx.sub_i(residual.get(at, 0), c)
    if any(v for (_, code), v in residual.items() if code not in pure):
        raise TheoremViolation(f"the non-split row does not kill U(h) - 1 on H = {cert.ids}")
    if not value:
        raise TheoremViolation(f"the non-split row kills g on H = {cert.ids}")


# ---------------------------------------------------------------------------
# tensor-vanishing witness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TensorVanishing:
    """w = pi kills the class of g after tensoring: (s-1)u = w (x) g_s.

    The witness is u = vec(X) (row-major) for the (d+1) x d matrix
    X = [-I_d ; 0], minus the projection U~ -> U, and w = e_d is the
    coordinate functional of iota in dual(U~).  Both are fixed by d, so the
    report names them in its equation and ships neither, and they are
    formed here only when read.

    By kron(A, B) @ vec(X) = vec(A @ X @ B^T) the equation reads
    W(s) @ X @ U(s)^T - X = w @ g_s^T, with
    W(s) = U~(s^-1)^T = [[U(s^-1)^T, 0], [g_{s^-1}^T, 1]].  Then
    W(s) @ X @ U(s)^T = -[[(U(s) U(s^-1))^T], [(U(s) g_{s^-1})^T]], and
    w @ g_s^T is zero but for its last row g_s^T.  So the equation holds
    exactly when

    - U(s) U(s^-1) = I (the top d rows), and
    - U(s) g_{s^-1} = -g_s (the last row).

    W(s) e_d = e_d, the invariance of w, is the last column of W(s) and
    holds by the block form for any U and g.  Both facts are proved, not
    multiplied out:

    - substitution is an algebra map, so A(sigma) A(tau) = A(sigma tau)
      for all n x n matrices, and s s^-1 = 1 gives A(s) A(s^-1) = I.  The
      bottom-left blocks are zero, so the lower-right block of that
      product is S(s) S(s^-1) = I_{N-n}, and by the mixed-product rule,
      the Frobenius twist being multiplicative,
      U(s) U(s^-1) = kron(s^[p] (s^-1)^[p], (S(s) S(s^-1))^T) = I;
    - g is the coboundary of iota in Hom(V, W), and U(s) is that action
      restricted to the stable U, so g_1 = g_{s s^-1} = U(s) g_{s^-1} + g_s
      with g_1 = 0: the cocycle identity at (s, s^-1).

    So the equation holds on every element.
    """

    ctx: FieldCtx
    d: int

    @property
    def w(self) -> Matrix:
        return Matrix.basis_column(self.ctx, self.d + 1, self.d)

    @property
    def witness(self) -> Matrix:
        ctx, d = self.ctx, self.d
        return vstack([-Matrix.identity(ctx, d), Matrix.zeros(ctx, 1, d)]).flatten()


def tensor_vanishing_witness(seq: NonSplitSequence) -> TensorVanishing:
    """The closed-form X and w of the sequence's U, which hold by proof
    (TensorVanishing): no action is read."""
    return TensorVanishing(seq.group.ctx, seq.dims["U"])


# ---------------------------------------------------------------------------
# the direct-sum module with its dimension bookkeeping
# ---------------------------------------------------------------------------


@dataclass
class ObstructionReport:
    dim: int


def assemble_obstruction_module(seq: NonSplitSequence) -> ObstructionReport:
    """Dimension of X = dual(U) + U~ + U~ + U~, checked against the closed formula.

    The module is the recipe sum(dual(u),uext,uext,uext); neither it nor
    U or U~ is built, as dim U~ = dim U + 1.  The report path does not call
    it: dims.X is the formula itself, which the verifier checks.
    """
    dims = seq.dims
    dim = dims["U"] + 3 * dims["U_ext"]
    n, p = seq.group.n, seq.group.ctx.p
    by_formula = 4 * n * (comb(n + p - 1, p) - n) + 3
    if dim != by_formula:
        raise TheoremViolation(f"dim X = {dim} disagrees with the closed formula {by_formula}")
    return ObstructionReport(dim)


# ---------------------------------------------------------------------------
# degree-2 toy sequence
# ---------------------------------------------------------------------------


@dataclass
class ToyReport:
    """The toy sequence, which is the main extension: its verdict is main's."""

    main: NonSplitSequence
    split: bool


def toy_example(
    group_or_degree: Union[MatrixGroup, int],
    main: Optional[NonSplitSequence] = None,
) -> ToyReport:
    """Toy sequence 0 -> <x^2, y^2> -> S^2 -> K -> 0, shown to be the main one.

    Accepts a ready 2x2 group over characteristic 2, or an extension degree
    k (then the group is the additive family over GF(2^k)).  For p = 2 the
    main construction has degree 2 and the basis x^2, y^2, xy, so S^2 is
    `main.sym_module`, and the toy sequence is read off it with
    pi = (0, 0, 1) and v0 = xy.

    The toy extension is the main extension: S^2(s) = [[U(s), g_s], [0, 1]]
    when det s = 1, which is proved, not compared.  The xy-coefficient of
    (ax + cy)(bx + dy) is ad + bc = det s, so pi is invariant (a group
    with det s != 1 on S' raises BadProjection) and S(s^-1) = 1, making
    U(s) = s^[2] the toy action.
    The top-right block of A(s) A(s^-1) = I gives
    r_s = -s^[2] r_{s^-1} = g_s in characteristic 2, where
    r_s = A(s)[0:2, 2] is the toy cocycle (s-1)v0.  So the toy verdict is
    main's.  Under the group hypothesis main's certificate proves it
    non-split; without it (GF(2)), and only then, the verdict is
    `is_split(main.cocycle)`.
    """
    if isinstance(group_or_degree, int):
        group = additive_family(field_new(2, group_or_degree))
    else:
        group = group_or_degree
    if group.ctx.p != 2 or group.n != 2:
        raise BadCharacteristic("the toy sequence needs p = 2 and n = 2")
    if main is None:
        main = build_nonsplit_sequence(group, require_hypothesis=False)
    elif main.group is not group:
        raise GroupMismatch("the main sequence lives over a different group")
    for s in group.spanning_ids:
        if main.sym_module.action(s).raw(2, 2) != 1:
            raise BadProjection(f"pi = (0, 0, 1) is not invariant: det != 1 at element {s}")
    return ToyReport(main, main.certificate is None and is_split(main.cocycle).split)


# ---------------------------------------------------------------------------
# determinant identity demo
# ---------------------------------------------------------------------------


def _random_poly(rng: random.Random, ctx: FieldCtx, n: int, max_deg: int) -> Polynomial:
    out = Polynomial.zero(ctx, n)
    for _ in range(rng.randrange(1, 5)):
        exps = [0] * n
        for _ in range(rng.randrange(0, max_deg + 1)):
            exps[rng.randrange(n)] += 1
        coeff = ctx.el(rng.randrange(ctx.q))
        out = out + Polynomial.from_monomial(ctx, Monomial(exps), coeff)
    return out


def det_identity_demo(seed: int = 0, trials: int = 100) -> dict:
    """u23*a1 - u13*a2 + u12*a3 on random and structured triples; all zero.

    `trials` must be positive: with none, all_zero would hold vacuously."""
    if trials < 1:
        raise ModcohError(f"trials must be at least 1, not {trials}")
    rng = random.Random(seed)
    results = {}
    for p, k in ((2, 1), (3, 1), (2, 2)):
        ctx = field_new(p, k)
        zero_count = 0
        for _ in range(trials):
            a = [_random_poly(rng, ctx, 3, 3) for _ in range(3)]
            b = [_random_poly(rng, ctx, 3, 3) for _ in range(3)]
            if det3_identity(a, b).is_zero:
                zero_count += 1
        results[f"GF({ctx.q})"] = zero_count
    ctx = field_new(3)
    xs = [Polynomial.variable(ctx, 3, i) for i in range(3)]
    ones = [Polynomial.constant(ctx, 3, ctx.one())] * 3
    structured = det3_identity(xs, ones).is_zero
    return {
        "trials_per_field": trials,
        "zero_counts": results,
        "all_zero": all(v == trials for v in results.values()),
        "structured_zero": structured,
    }


# ---------------------------------------------------------------------------
# module recipes (the CLI naming surface)
# ---------------------------------------------------------------------------


# deepest parenthesis nesting of a recipe: the parser and the actions of the
# modules it builds take one stack frame per level
_MAX_RECIPE_DEPTH = 64


def resolve_module(group: MatrixGroup, recipe: str) -> GModule:
    """Build a module from a recipe string.

    Atoms: trivial, trivial(d), natural, sym(d), twist, u, uext.
    Combinators: dual(r), tensor(r,s), hom(r,s), sum(r,...).
    """
    text = recipe.replace(" ", "")
    depth = max(accumulate({"(": 1, ")": -1}.get(c, 0) for c in text), default=0)
    if depth > _MAX_RECIPE_DEPTH:
        raise ModcohError(f"recipe nested deeper than {_MAX_RECIPE_DEPTH} levels")
    mod, pos = _parse_recipe(group, text, 0, {})
    if pos != len(text):
        raise ModcohError(f"trailing characters in recipe {recipe!r}")
    return mod


def _sequence_for_recipe(group: MatrixGroup, cache: dict) -> NonSplitSequence:
    if "seq" not in cache:
        cache["seq"] = build_nonsplit_sequence(group, require_hypothesis=False)
    return cache["seq"]


def _parse_recipe(group: MatrixGroup, s: str, i: int, cache: dict) -> tuple[GModule, int]:
    j = i
    while j < len(s) and (s[j].isalnum() or s[j] == "_"):
        j += 1
    name = s[i:j]
    if not name:
        raise ModcohError(f"expected a recipe name at position {i} in {s!r}")
    if name == "natural":
        return natural_module(group), j
    if name == "twist":
        return frobenius_twist(group), j
    if name == "u":
        return _sequence_for_recipe(group, cache).u_module, j
    if name == "uext":
        return _sequence_for_recipe(group, cache).extension.total, j
    if name == "trivial":
        if j < len(s) and s[j] == "(":
            d, j = _parse_int(s, j + 1)
            j = _expect(s, j, ")")
            return trivial_module(group, d), j
        return trivial_module(group), j
    if name == "sym":
        j = _expect(s, j, "(")
        d, j = _parse_int(s, j)
        j = _expect(s, j, ")")
        return sym_power(group, d)[0], j
    if name in ("dual", "tensor", "hom", "sum"):
        j = _expect(s, j, "(")
        args = []
        while True:
            mod, j = _parse_recipe(group, s, j, cache)
            args.append(mod)
            if j < len(s) and s[j] == ",":
                j += 1
                continue
            break
        j = _expect(s, j, ")")
        if name == "dual":
            if len(args) != 1:
                raise ModcohError("dual takes one argument")
            return dual(args[0]), j
        if name == "tensor":
            if len(args) != 2:
                raise ModcohError("tensor takes two arguments")
            return tensor(args[0], args[1]), j
        if name == "hom":
            if len(args) != 2:
                raise ModcohError("hom takes two arguments")
            return hom(args[0], args[1]), j
        return direct_sum_mod(args), j
    raise ModcohError(f"unknown recipe atom {name!r}")


def _parse_int(s: str, i: int) -> tuple[int, int]:
    j = i
    while j < len(s) and s[j].isdigit():
        j += 1
    if j == i:
        raise ModcohError(f"expected an integer at position {i} in {s!r}")
    return int(s[i:j]), j


def _expect(s: str, i: int, ch: str) -> int:
    if i >= len(s) or s[i] != ch:
        raise ModcohError(f"expected {ch!r} at position {i} in {s!r}")
    return i + 1
