"""Pipeline: construct and certify the canonical non-split sequence.

Given a matrix group over characteristic p, the degree-p symmetric power V
carries the twist submodule W spanned by the p-th powers of the variables.
U is the space of maps V -> W vanishing on W (coordinates: the matrix Z
with zero first columns, flattened row-major), iota restricts to the
identity on W, and g_s = (s-1) iota is a cocycle whose class obstructs the
splitting of 0 -> U -> U + K iota -> K -> 0.

The construction checks the one claim that depends on the group, the
closed-form non-split row y on the subgroup H, with the verifier's own
functions: `verify._restriction_row` finds H by the rule the report's
equation text states, at most q lookups of its candidates in the group's
index and none after the second hit, and y; `verify._check_restriction`
reads y's two identities off the images of at most two pinned monomials
under the elements of H^-1, and proves them there.  No basis, no
symmetric-power action and no d x d matrix is formed.  The group
hypothesis is that H exists.  The dimensions are closed formulas, and the
rest is proved, not re-computed: the block form of the symmetric-power
action A (the Frobenius), g lying in U (both in verify's module
docstring), the closed-form tensor-vanishing witness (TensorVanishing)
and the identity of the degree-2 toy sequence with the main extension
(toy_example).  None of these is stored: the report states them as
equations, which the verifier checks or proves the same way, and ships
neither the basis nor iota, which n and p fix.

No stage computes a cohomology space or calls a solver.  The class of g
is nonzero by the certificate on H, its product with w
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
    FailedCheck,
    GroupMismatch,
    HypothesisNotSatisfied,
    ModcohError,
    TheoremViolation,
)
from .gf import FieldCtx, field_new
from .grp import MatrixGroup, additive_family
from .linalg import Matrix, kron, vstack
from .poly import Monomial, Polynomial, det3_identity
from .rep import (
    GModule,
    dual,
    direct_sum_mod,
    frobenius_twist,
    hom,
    natural_module,
    sym_power,
    tensor,
    trivial_module,
)
from . import verify


@dataclass
class NonSplitSequence:
    """The group and its non-split certificate (h_inverse, terms), None when
    the group has no subgroup H for it (the hypothesis fails).  H is the
    keys of h_inverse, each mapped to the id of its inverse, and terms are
    y's nonzero coordinates (verify._restriction_row).  The report reads
    only these and the dims, which are formulas.  The modules and the
    cocycle are made on first read (`h1`, the module recipes, the toy and
    the tests read them), each with the guard checks of its own code: the
    block form of A and g in U on S'.  iota = (I_n | 0) is fixed by n, so
    it is not held."""

    group: MatrixGroup
    certificate: Optional[tuple[dict[int, int], list]]

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
        Frobenius, verify's module docstring) and checked on S' as a guard of
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
        element (verify's module docstring); the check on S' guards the
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
    subgroup H its closed-form row y needs (`verify._restriction_row`).
    With `require_hypothesis` a group without it raises
    HypothesisNotSatisfied, naming what is missing; otherwise the
    certificate is None and no verdict is taken here.  A row that fails its
    check (`verify._check_restriction`) is a TheoremViolation naming H.
    The check reads the images of the pinned monomials under H^-1 and the
    rows of the twist on H, and nothing else: no module is built here
    (NonSplitSequence).
    """
    ctx, n = group.ctx, group.n
    h_inverse, terms = verify._restriction_row(ctx, n, group.index)
    cert = None
    if terms:
        try:
            verify._check_restriction(ctx, group.elements, h_inverse, terms, n)
        except FailedCheck as exc:
            raise TheoremViolation(f"{exc}, H = {list(h_inverse)}") from exc
        cert = h_inverse, terms
    elif require_hypothesis:
        if n < 2:
            missing = "the shear and the pattern involutions need n >= 2"
        elif ctx.p > 2:
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
