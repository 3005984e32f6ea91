"""Pipeline: construct and certify the canonical non-split sequence.

Given a matrix group over characteristic p, the degree-p symmetric power V
carries the twist submodule W spanned by the p-th powers of the variables.
U is the space of maps V -> W vanishing on W (coordinates: the matrix Z
with zero first columns, flattened row-major), iota restricts to the
identity on W, and g_s = (s-1) iota is a cocycle whose class obstructs the
splitting of 0 -> U -> U + K iota -> K -> 0.  The remaining stages check
the closed-form tensor-vanishing witness, record the components and
dimension of the large direct-sum module, and show that the degree-2 toy
sequence is the main extension.  The witness and the toy identity are
checked on the generating subset S', not searched for by a solver, and
neither is stored: the report states them as equations that the verifier
re-checks.

No stage computes a cohomology space.  The class of g is nonzero by the
split test's inconsistency row, its product with w vanishes by the
closed-form witness, and dim X has a closed formula; Z1, B1 and H1 are
left to the `h1` subcommand.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate
from math import comb
from typing import Optional, Union

from .coh import (
    Cocycle,
    ExtensionClass,
    NonSplitCertificate,
    SplitResult,
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
    WitnessNotFound,
)
from .gf import FieldCtx, field_new
from .grp import HypothesisReport, MatrixGroup, additive_family, check_extension_hypothesis
from .linalg import Matrix, hstack, kron, vstack
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


@dataclass
class NonSplitSequence:
    """Everything the certificates cite: modules, iota, cocycle, verdict."""

    group: MatrixGroup
    hypothesis: HypothesisReport
    sym_module: GModule
    basis: list[Monomial]
    twist: GModule
    u_module: GModule
    iota: Matrix
    cocycle: Cocycle
    extension: ExtensionClass
    split_result: SplitResult
    certificate: Optional[NonSplitCertificate]

    @property
    def dims(self) -> dict[str, int]:
        n = self.group.n
        N = self.sym_module.dim
        return {
            "N": N,
            "V": N,
            "W": self.twist.dim,
            "U": self.u_module.dim,
            "U_ext": self.extension.total.dim,
            "X": 4 * self.u_module.dim + 3,
        }


def build_nonsplit_sequence(
    group: MatrixGroup, require_hypothesis: bool = True
) -> NonSplitSequence:
    """Construct U, iota, the cocycle and the split-test certificate.

    With `require_hypothesis` the group must contain the pattern elements
    that force non-splitness; a split verdict is then a hard error.

    Every module is built on demand, and this stage reads the actions only
    on S' and its inverses: A(s) for the block checks, U(s) and g_s for
    s in S', and A(s^-1), which U(s) and g_s are made from.  The checks
    there cover every element:

    - Substitution is multiplicative for all n x n matrices, so A is a
      homomorphism.  A product of block upper triangular matrices is block
      upper triangular, with the product of the top-left blocks, and the
      Frobenius twist is multiplicative too.  So a zero bottom-left block
      and a top-left block s^[p] on S' hold on every element, each being a
      product of elements of S' (s^-1 is a power of s in a finite group).
      Then W is a submodule acting by s^[p], and S, the lower-right block,
      is the action on V/W.
    - U(s) = kron(s^[p], S(s^-1)^T) is the action F -> s^[p] F S(s)^-1 on
      U = Hom(V/W, W), the maps V -> W vanishing on W, flattened row-major;
      it is a homomorphism because S and the twist are.
    - g_s = (s-1)iota = s^[p] iota A(s^-1) - iota is the coboundary of iota
      in Hom(V, W), hence a cocycle there.  On W it is
      s^[p] (s^-1)^[p] - I = 0, so it lies in U on every element once the
      blocks are right; the check on S' guards the computation.  The cocycle
      is given by its values on S', and validate() checks that they extend
      to a cocycle on G, with no Z1 system (Cocycle.validate says which
      check covers which element).
    """
    ctx = group.ctx
    p, n = ctx.p, group.n
    hyp = check_extension_hypothesis(group)
    if require_hypothesis and not hyp.ok:
        raise HypothesisNotSatisfied(f"{hyp.case}: {hyp.detail}")
    sym, basis = sym_power(group, p)
    N = sym.dim
    if N != comb(n + p - 1, p):
        raise TheoremViolation(f"dim V = {N} != C({n + p - 1},{p})")
    twist = frobenius_twist(group)
    spanning, inv = group.spanning_ids, group.inv
    for i in dict.fromkeys(spanning + [inv[s] for s in spanning]):
        a = sym.action(i)
        if a.submatrix(0, n, 0, n) != twist.action(i):
            raise TheoremViolation(f"top-left block of A_s is not the twist at element {i}")
        if not a.submatrix(n, N, 0, n).is_zero:
            raise TheoremViolation(f"bottom-left block of A_s is nonzero at element {i}")

    def u_action(i: int) -> Matrix:
        s_block = sym.action(inv[i]).submatrix(n, N, n, N)
        return kron(twist.action(i), s_block.transpose())

    u_module = GModule(group, n * (N - n), u_action, "u")

    iota = hstack(Matrix.identity(ctx, n), Matrix.zeros(ctx, n, N - n))
    values = [_iota_coboundary(group, twist, sym, iota, s) for s in spanning]
    g = Cocycle.on_spanning(u_module, values)
    g.validate()
    ext = extension_from_cocycle(g)

    verdict = is_split(g)
    if hyp.ok and verdict.split:
        raise TheoremViolation(
            "the sequence split although the group hypothesis holds; "
            f"witness = {verdict.witness!r}"
        )
    return NonSplitSequence(
        group, hyp, sym, basis, twist, u_module, iota, g, ext, verdict, verdict.certificate
    )


def _iota_coboundary(
    group: MatrixGroup, twist: GModule, sym: GModule, iota: Matrix, i: int
) -> Matrix:
    """g_i = (i-1)iota = i^[p] iota A(i^-1) - iota in U's coordinates, read
    off the twist at i and A at i^-1; raises TheoremViolation if it leaves U."""
    n, N = group.n, sym.dim
    full = twist.action(i) @ iota @ sym.action(group.inv[i]) - iota
    if not full.submatrix(0, n, 0, n).is_zero:
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
    holds by the block form for any U and g.  The first fact needs no
    d x d product: with U(s) = kron(s^[p], S(s^-1)^T), the mixed-product
    rule gives U(s) U(s^-1) = kron(s^[p] (s^-1)^[p], (S(s) S(s^-1))^T)
    = kron(I_n, (S(s) S(s^-1))^T), since the Frobenius twist is
    multiplicative; so it holds iff S(s) S(s^-1) = I_{N-n} on the
    lower-right blocks of the symmetric-power action.  The second is the
    cocycle identity at (s, s^-1), one product with a column.
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
    """Check the closed-form X and w on S', in the two facts the Hom form
    reduces to (see TensorVanishing): S(s) S(s^-1) = I and
    U(s) g_{s^-1} = -g_s.

    w is fixed by the block form, so both sides of the equation are
    cocycles, and agreement on S' implies it on every element.  g_{s^-1}
    is taken by its formula (s-1)iota: that is a cocycle (the coboundary
    of iota in Hom(V, W)) with the validated cocycle's values on S', so the
    two agree on every element.  Reads the symmetric-power action and the
    twist on S' and its inverses, which the sequence already built, and U
    on S' only; U~ is not read.
    """
    group = seq.group
    ctx, n, N = group.ctx, group.n, seq.sym_module.dim
    ident = Matrix.identity(ctx, N - n)
    for s in group.spanning_ids:
        s_inv = group.inv[s]
        lower = seq.sym_module.action(s).submatrix(n, N, n, N)
        if lower @ seq.sym_module.action(s_inv).submatrix(n, N, n, N) != ident:
            raise WitnessNotFound(f"U(s) U(s^-1) is not the identity at element {s}")
        g_inv = _iota_coboundary(group, seq.twist, seq.sym_module, seq.iota, s_inv)
        if not (seq.u_module.action(s) @ g_inv + seq.cocycle.value(s)).is_zero:
            raise WitnessNotFound(f"-(U~ -> U) does not kill the class at element {s}")
    return TensorVanishing(ctx, seq.u_module.dim)


# ---------------------------------------------------------------------------
# the direct-sum module with its dimension bookkeeping
# ---------------------------------------------------------------------------


@dataclass
class ObstructionReport:
    components: list[str]
    dim: int
    dim_by_formula: int


def assemble_obstruction_module(seq: NonSplitSequence) -> ObstructionReport:
    """Labels and dimension of X = dual(U) + U~ + U~ + U~, with the closed formula.

    The action is not assembled: the report carries no X matrices, and the
    verifier checks the components and dimensions against U.
    """
    u, total = seq.u_module, seq.extension.total
    dim = u.dim + 3 * total.dim
    n, p = seq.group.n, seq.group.ctx.p
    by_formula = 4 * n * (comb(n + p - 1, p) - n) + 3
    if dim != by_formula:
        raise TheoremViolation(f"dim X = {dim} disagrees with the closed formula {by_formula}")
    return ObstructionReport([f"dual({u.label})"] + [total.label] * 3, dim, by_formula)


# ---------------------------------------------------------------------------
# degree-2 toy comparison
# ---------------------------------------------------------------------------


@dataclass
class ToyReport:
    """The toy sequence, which is the main extension: its verdict is main's."""

    main: NonSplitSequence


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
    when det s = 1.  The xy-coefficient of (ax + cy)(bx + dy) is
    ad + bc = det s, so pi is invariant (a group with det s != 1 raises
    BadProjection) and S(s^-1) = 1, making U(s) = s^[2] the toy action.
    The top-right block of A(s) A(s^-1) = I gives
    r_s = -s^[2] r_{s^-1} = g_s in characteristic 2, where
    r_s = A(s)[0:2, 2] is the toy cocycle (s-1)v0.  Both sides are
    homomorphisms, so the equality is checked on S' and a failure is a
    TheoremViolation; the toy verdict, with or without the group
    hypothesis, is then `main.split_result`.
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
        sym = main.sym_module.action(s)
        if sym.raw(2, 2) != 1:
            raise BadProjection(f"pi = (0, 0, 1) is not invariant: det != 1 at element {s}")
        if sym != main.extension.total.action(s):
            raise TheoremViolation(f"S^2 is not the main extension at element {s}")
    return ToyReport(main)


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
    """u23*a1 - u13*a2 + u12*a3 on random and structured triples; all zero."""
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
