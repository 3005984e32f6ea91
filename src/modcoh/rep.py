"""G-modules over a finite matrix group and the standard constructions.

A module is its dimension and a function from element ids to action
matrices; each matrix is built on first use and kept.  The constructions
below are functors of the group element (substitution, the Frobenius
twist, transpose-inverse, Kronecker products, direct sums), so each gives
a homomorphism whenever its inputs do, and a homomorphism is fixed by its
values on a generating set.  Code that needs the action only on the
generating subset S' and its inverses therefore builds nothing else.
Tensor products act by Kronecker products; Hom(M, N) is realized as
tensor(N, dual(M)) with matrices flattened row-major, so the action on an
(N.dim x M.dim) matrix F is F -> N(s) @ F @ M(s)^-1.

The symmetric power S^d is built by substitution: a table of the powers
l_j^1..l_j^d of the substituted variables, then one product per column.
Its polynomials are dicts keyed by integer monomial codes (`monomial_code`),
so a term product is a sum of two integers.  The modules read a group
element as a `Matrix` (`MatrixGroup.matrix`), or, for the twist, as its
tuple of encodings.
"""

from __future__ import annotations

import random
from itertools import product as iter_product
from typing import Callable, Optional, Sequence

from .errors import GroupMismatch, ModcohError
from .gf import FieldCtx
from .grp import MatrixGroup
from .linalg import Matrix, direct_sum, is_invertible, kernel_basis, kron, vstack
from .poly import Monomial, monomial_basis

INTERTWINER_EXHAUST_CAP = 4096
INTERTWINER_SAMPLES = 1000


class GModule:
    """Finite-dimensional module: dimension plus the action of each element id.

    `action(i)` is the matrix of element i, built by the function the
    module was made with on first use and then kept; a list of matrices is
    passed as `mats.__getitem__`.
    """

    __slots__ = ("group", "dim", "label", "_make", "_act", "coh_cache")

    def __init__(
        self, group: MatrixGroup, dim: int, action: Callable[[int], Matrix], label: str
    ):
        self.group = group
        self.dim = dim
        self._make = action
        self._act: list[Optional[Matrix]] = [None] * group.order
        self.label = label
        # Z1/B1 bases of this (immutable) module, filled in by modcoh.coh
        self.coh_cache: dict = {}

    def action(self, i: int) -> Matrix:
        act = self._act[i]
        if act is None:
            act = self._act[i] = self._make(i)
        return act

    def actions(self) -> list[Matrix]:
        return [self.action(i) for i in range(self.group.order)]

    def _check(self, other: "GModule") -> None:
        if other.group is not self.group:
            raise GroupMismatch(f"{self.label} and {other.label} live over different groups")

    def __repr__(self) -> str:
        return f"GModule({self.label}, dim={self.dim})"


def action_is_homomorphism(mod: GModule) -> bool:
    """Exhaustive check action(i)@action(j) = action(i*j); identity at 0."""
    g = mod.group
    if mod.action(0) != Matrix.identity(mod.group.ctx, mod.dim):
        return False
    for i in range(g.order):
        for j in range(g.order):
            if mod.action(i) @ mod.action(j) != mod.action(g.mul(i, j)):
                return False
    return True


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def trivial_module(group: MatrixGroup, dim: int = 1) -> GModule:
    ident = Matrix.identity(group.ctx, dim)
    return GModule(group, dim, lambda i: ident, f"trivial({dim})")


def natural_module(group: MatrixGroup) -> GModule:
    return GModule(group, group.n, group.matrix, "natural")


def sym_power(group: MatrixGroup, d: int) -> tuple[GModule, list[Monomial]]:
    """Action on homogeneous degree-d polynomials, with its ordered basis."""
    ctx, n = group.ctx, group.n
    basis = monomial_basis(n, d, ctx.p)
    pos = {monomial_code(m, d): i for i, m in enumerate(basis)}

    def action(i: int) -> Matrix:
        return _substitution_matrix(group.matrix(i), basis, pos)

    return GModule(group, len(basis), action, f"sym({d})"), basis


def monomial_code(exps: Sequence[int], d: int) -> int:
    """The integer sum_i e_i (d+1)^i of a monomial of degree at most d.

    Each exponent is at most d, so these are the base-(d+1) digits: codes
    are unique, and the product of two monomials whose degrees sum to at
    most d has the sum of their codes, with no carry.
    """
    code = 0
    for e in reversed(exps):
        code = code * (d + 1) + e
    return code


def _code_product(ctx: FieldCtx, a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Product of two polynomials stored as {monomial code: nonzero value},
    whose degrees sum to at most d: each term product adds the codes."""
    add, mul = ctx.add_i, ctx.mul_i
    out: dict[int, int] = {}
    get = out.get
    for c1, v1 in a.items():
        for c2, v2 in b.items():
            out[c1 + c2] = add(get(c1 + c2, 0), mul(v1, v2))
    return {c: v for c, v in out.items() if v}


def _substitution_matrix(
    sigma: Matrix, basis: Sequence[Monomial], pos: dict[int, int]
) -> Matrix:
    """Columns: each basis monomial with x_j replaced by l_j = sum_i sigma_ij x_i.

    Substitution is a ring homomorphism, so the column of x^e is
    prod_j l_j^(e_j), read off a table of the powers l_j^1..l_j^d built by
    repeated multiplication once per element (one product per column when
    n = 2).  Polynomials are dicts keyed by `monomial_code`: every monomial
    met has degree at most d, so a term product is a sum of codes, and
    `pos` maps the code of each basis monomial to its position.
    """
    ctx, n = sigma.ctx, sigma.rows
    add, mul = ctx.add_i, ctx.mul_i
    d = sum(basis[0])
    powers = []
    for j in range(n):
        lin = {(d + 1) ** i: sigma.raw(i, j) for i in range(n) if sigma.raw(i, j)}
        row = [None, lin]  # row[e] = l_j^e
        for _ in range(d - 1):
            row.append(_code_product(ctx, row[-1], lin))
        powers.append(row)
    N = len(basis)
    data = [0] * (N * N)
    for col, mono in enumerate(basis):
        factors = [powers[j][e] for j, e in enumerate(mono) if e]
        image = factors.pop()
        for f in factors[1:]:
            image = _code_product(ctx, image, f)
        if not factors:
            for c, v in image.items():
                data[pos[c] * N + col] = v
            continue
        # the last product goes straight into the column
        for c1, v1 in factors[0].items():
            for c2, v2 in image.items():
                at = pos[c1 + c2] * N + col
                data[at] = add(data[at], mul(v1, v2))
    return Matrix(ctx, N, N, data)


def frobenius_twist(group: MatrixGroup) -> GModule:
    """Entrywise p-th power of the natural action, read off the tuples."""
    ctx, n, elements = group.ctx, group.n, group.elements
    frob = ctx.frob_i

    def action(i: int) -> Matrix:
        return Matrix(ctx, n, n, list(map(frob, elements[i])))

    return GModule(group, n, action, "twist")


def dual(mod: GModule) -> GModule:
    """Action phi -> phi o sigma^-1, i.e. transpose of the inverse matrix."""
    inv = mod.group.inv
    return GModule(
        mod.group, mod.dim, lambda i: mod.action(inv[i]).transpose(), f"dual({mod.label})"
    )


def tensor(m: GModule, n: GModule) -> GModule:
    m._check(n)
    return GModule(
        m.group,
        m.dim * n.dim,
        lambda i: kron(m.action(i), n.action(i)),
        f"tensor({m.label},{n.label})",
    )


def hom(m: GModule, n: GModule) -> GModule:
    """Hom(m, n) with maps flattened row-major; equals tensor(n, dual(m))."""
    t = tensor(n, dual(m))
    return GModule(m.group, t.dim, t.action, f"hom({m.label},{n.label})")


def direct_sum_mod(mods: Sequence[GModule]) -> GModule:
    if not mods:
        raise ModcohError("direct sum of no modules")
    first = mods[0]
    for other in mods[1:]:
        first._check(other)

    def action(i: int) -> Matrix:
        acc = mods[0].action(i)
        for other in mods[1:]:
            acc = direct_sum(acc, other.action(i))
        return acc

    label = "sum(" + ",".join(m.label for m in mods) + ")"
    return GModule(first.group, sum(m.dim for m in mods), action, label)


# ---------------------------------------------------------------------------
# intertwiners
# ---------------------------------------------------------------------------


class IntertwinerResult:
    """Solution space of N(s) T = T M(s) plus an invertible pick, if any.

    `space_dim` is dim Hom_G(M, N); `matrix` is None either because the
    space is zero or because the (exhaustive or sampled) search found no
    invertible element; `searched` says which strategy ran.
    """

    __slots__ = ("space_dim", "basis", "matrix", "searched")

    def __init__(
        self,
        space_dim: int,
        basis: tuple[Matrix, ...],
        matrix: Optional[Matrix],
        searched: str,  # "none", "exhaustive", or "sampled"
    ):
        self.space_dim = space_dim
        self.basis = basis
        self.matrix = matrix
        self.searched = searched


def find_intertwiner(m: GModule, n: GModule, seed: int = 0) -> IntertwinerResult:
    """Equivariant maps T: m -> n; searches the space for an invertible one."""
    m._check(n)
    ctx = m.group.ctx
    gen_ids = m.group.spanning_ids
    rows = []
    ident_n = Matrix.identity(ctx, n.dim)
    ident_m = Matrix.identity(ctx, m.dim)
    for gid in gen_ids:
        rows.append(kron(n.action(gid), ident_m) - kron(ident_n, m.action(gid).transpose()))
    if rows:
        space = kernel_basis(vstack(rows))
    else:
        space = [
            Matrix.basis_column(ctx, n.dim * m.dim, i) for i in range(n.dim * m.dim)
        ]
    basis = tuple(vec.reshape(n.dim, m.dim) for vec in space)
    s = len(basis)
    if s == 0 or m.dim != n.dim:
        return IntertwinerResult(s, basis, None, "none")
    if ctx.q**s <= INTERTWINER_EXHAUST_CAP:
        for coeffs in iter_product(range(ctx.q), repeat=s):
            if not any(coeffs):
                continue
            cand = _combine(basis, coeffs)
            if is_invertible(cand):
                return IntertwinerResult(s, basis, cand, "exhaustive")
        return IntertwinerResult(s, basis, None, "exhaustive")
    rng = random.Random(seed)
    for _ in range(INTERTWINER_SAMPLES):
        coeffs = tuple(rng.randrange(ctx.q) for _ in range(s))
        if not any(coeffs):
            continue
        cand = _combine(basis, coeffs)
        if is_invertible(cand):
            return IntertwinerResult(s, basis, cand, "sampled")
    return IntertwinerResult(s, basis, None, "sampled")


def _combine(basis: Sequence[Matrix], coeffs: Sequence[int]) -> Matrix:
    ctx = basis[0].ctx
    acc = Matrix.zeros(ctx, basis[0].rows, basis[0].cols)
    for b, c in zip(basis, coeffs):
        if c:
            acc = acc + b.scale(ctx.el(c))
    return acc

