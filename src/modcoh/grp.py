"""Finite matrix groups enumerated from generators.

Closure is one breadth-first search from the identity by left
multiplication with the generators, taken in the given order, so element
ids are reproducible and can be cited by certificates.  A report names the
group by its generators and order; the verifier repeats the same search.
The named families used by the pipeline live here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import (
    BadCharacteristic,
    MixedContexts,
    ModcohError,
    NotAdditivelyClosed,
    OrderCapExceeded,
    ShapeMismatch,
    SingularGenerator,
)
from .gf import FieldCtx, FieldElement, field_to_json
from .linalg import Matrix, is_invertible, matrix_to_json

DEFAULT_ORDER_CAP = 10_000


class MatrixGroup:
    """Finite subgroup of GL_n over a fixed field, with enumerated elements.

    Built by `closure`.  Element i is `elements[i]`, the identity is 0 and
    `inv[i]` is the id of the inverse of element i.

    `spanning_ids` is S', the ids of the generators, in order, that lie
    outside the subgroup generated by those kept before them.  S' generates
    the group; the additive family over GF(p^k) publishes its k elements
    and no other generator.

    `tree_parents` is the search tree that found the elements:
    parents[st] = (s, t) when the search first reached st as s @ t, with s
    in S'.  The identity has no parent and each s in S' has (s, 0).  Every
    parent is reached before its child, so it has the smaller id, and a
    value defined on S' and the identity extends to every element along
    these edges.
    """

    __slots__ = (
        "ctx", "n", "generators", "elements", "index", "inv",
        "spanning_ids", "tree_parents", "_rows",
    )

    def __init__(
        self,
        ctx: FieldCtx,
        n: int,
        generators: list[Matrix],
        elements: list[Matrix],
        index: dict[Matrix, int],
        inv: list[int],
        spanning_ids: list[int],
        tree_parents: list[Optional[tuple[int, int]]],
        rows: list[Optional[list[int]]],
    ):
        """`index` maps each element to its id; `rows[i]` is the row of
        `mul(i, .)`, or None until first use."""
        self.ctx = ctx
        self.n = n
        self.generators = generators
        self.elements = elements
        self.index = index
        self.inv = inv
        self.spanning_ids = spanning_ids
        self.tree_parents = tree_parents
        self._rows = rows

    @property
    def order(self) -> int:
        return len(self.elements)

    def mul(self, i: int, j: int) -> int:
        """Index of elements[i] @ elements[j].

        Products are tabulated one row per left factor, on first use; the
        rows of S' come from `closure`.
        """
        row = self._rows[i]
        if row is None:
            a, index = self.elements[i], self.index
            row = self._rows[i] = [index[a @ b] for b in self.elements]
        return row[j]

    def __repr__(self) -> str:
        return f"MatrixGroup(order={self.order}, n={self.n}, field={self.ctx!r})"


def closure(
    ctx: FieldCtx,
    n: int,
    generators: Sequence[Matrix],
    order_cap: int = DEFAULT_ORDER_CAP,
) -> MatrixGroup:
    """The group generated by `generators`, in one breadth-first search.

    The search starts at the identity and multiplies by S' on the left (see
    `MatrixGroup`): it takes the generators in order, skips each one it has
    already reached, and otherwise keeps it, multiplies every element found
    so far by it, and goes on taking each later element times every kept
    generator.  Element ids are the order of discovery and the search tree
    is `tree_parents`.  The set found holds every generator and is closed
    under S', so it is the group, found with |S'|(|G| - 1) products; they
    are the S' rows of the multiplication table, and the inverses follow
    from those rows with no further product.
    """
    gens = list(generators)
    for g in gens:
        if g.ctx is not ctx:
            raise MixedContexts("generator over a different field")
        if g.rows != n or g.cols != n:
            raise ShapeMismatch(f"generator is {g.rows}x{g.cols}, expected {n}x{n}")
        if not is_invertible(g):
            raise SingularGenerator(f"singular generator {g!r}")

    # found[x] = kept[letter[x]] @ found[parent[x]] for x > 0, and
    # left[b][h] is the id of kept[b] @ found[h]
    identity = Matrix.identity(ctx, n)
    found, index = [identity], {identity: 0}
    parent, letter = [0], [-1]
    kept: list[Matrix] = []
    left: list[list[int]] = []

    def product(b: int, h: int) -> int:
        x = kept[b] @ found[h] if h else kept[b]
        i = index.get(x)
        if i is None:
            i = index[x] = len(found)
            found.append(x)
            parent.append(h)
            letter.append(b)
            if len(found) > order_cap:
                raise OrderCapExceeded(f"group order exceeds cap {order_cap}")
        return i

    for g in gens:
        if g in index:
            continue
        kept.append(g)
        left.append([])
        # the new row catches up with the elements found so far, then every
        # row takes each element found after them
        done = len(found)
        left[-1].extend(product(len(kept) - 1, h) for h in range(done))
        while done < len(found):
            for b, row in enumerate(left):
                row.append(product(b, done))
            done += 1

    size = len(found)
    spanning = [row[0] for row in left]
    parents: list[Optional[tuple[int, int]]] = [None]
    parents.extend((spanning[b], h) for b, h in zip(letter[1:], parent[1:]))
    # x = s @ h has x^-1 = h^-1 @ s^-1.  Right multiplication by s^-1
    # commutes with the S' rows, so right[b][x] = x @ s^-1 follows the tree
    # from right[b][0] = s^-1, the element that row b sends to the identity
    right = []
    for row in left:
        r = [row.index(0)]
        for x in range(1, size):
            r.append(left[letter[x]][r[parent[x]]])
        right.append(r)
    inv = [0] * size
    for x in range(1, size):
        inv[x] = right[letter[x]][inv[parent[x]]]
    rows: list[Optional[list[int]]] = [None] * size
    for s, row in zip(spanning, left):
        rows[s] = row
    return MatrixGroup(ctx, n, gens, found, index, inv, spanning, parents, rows)


# ---------------------------------------------------------------------------
# named families
# ---------------------------------------------------------------------------


def family_matrix(ctx: FieldCtx, a: FieldElement, n: int = 2) -> Matrix:
    """The 2x2 one-parameter block, embedded in the top-left of GL_n.

    Characteristic 2: [[a+1, a], [a, a+1]]; otherwise the shear [[1, a], [0, 1]].
    The parameter map is additive: A(a) @ A(b) = A(a+b).
    """
    if a.ctx is not ctx:
        raise MixedContexts("parameter from a different field")
    if n < 2:
        raise ShapeMismatch("family needs n >= 2")
    one = ctx.one()
    if ctx.p == 2:
        block = [[a + one, a], [a, a + one]]
    else:
        block = [[one, a], [ctx.zero(), one]]
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i < 2 and j < 2:
                row.append(block[i][j])
            else:
                row.append(one if i == j else ctx.zero())
        rows.append(row)
    return Matrix.from_rows(ctx, rows)


def additive_family(
    ctx: FieldCtx,
    params: Optional[Iterable[FieldElement]] = None,
    n: int = 2,
    order_cap: int = DEFAULT_ORDER_CAP,
) -> MatrixGroup:
    """Group {A(a) : a in U} for an additive subgroup U of the field.

    Defaults to U = the whole field.  The generators are the matrices of a
    basis of U over F_p (k of them for U = GF(p^k)), chosen greedily in
    field encoding order: each parameter outside the span of those chosen
    before it.  A(a) A(b) = A(a + b), so the group the first j generators
    make is {A(a) : a in their span}, and closure over all nonzero
    parameters in encoding order keeps exactly this basis as S'.  Element
    ids, S' and the search tree are therefore those of that closure.
    """
    if params is None:
        vals = set(range(ctx.q))
    else:
        vals = set()
        for a in params:
            if a.ctx is not ctx:
                raise MixedContexts("parameter from a different field")
            vals.add(a.val)
        vals.add(0)
        for a in list(vals):
            if ctx.neg_i(a) not in vals:
                raise NotAdditivelyClosed(f"missing -a for a = {ctx.el(a)!r}")
            for b in vals:
                if ctx.add_i(a, b) not in vals:
                    raise NotAdditivelyClosed(
                        f"missing a+b for a = {ctx.el(a)!r}, b = {ctx.el(b)!r}"
                    )
    basis, span = [], {0}
    for v in sorted(vals):
        if v not in span:
            basis.append(v)
            multiples = [0]
            for _ in range(ctx.p - 1):
                multiples.append(ctx.add_i(multiples[-1], v))
            span = {ctx.add_i(a, m) for a in span for m in multiples}
    gens = [family_matrix(ctx, ctx.el(v), n) for v in basis]
    group = closure(ctx, n, gens, order_cap)
    if group.order != len(vals):
        raise ModcohError("family closure does not match the parameter set")
    return group


def paired_shear_family(ctx: FieldCtx, order_cap: int = DEFAULT_ORDER_CAP) -> MatrixGroup:
    """Order-p^2 group of 4x4 block pairs of shears over the prime subfield."""
    if ctx.p < 3:
        raise BadCharacteristic("the 4x4 paired-shear family needs p >= 3")
    zero, one = ctx.zero(), ctx.one()

    def element(a: FieldElement, b: FieldElement) -> Matrix:
        return Matrix.from_rows(
            ctx,
            [
                [one, a, zero, zero],
                [zero, one, zero, zero],
                [zero, zero, one, b],
                [zero, zero, zero, one],
            ],
        )

    gens = [element(one, zero), element(zero, one)]
    group = closure(ctx, 4, gens, order_cap)
    if group.order != ctx.p**2:
        raise ModcohError("paired-shear closure has unexpected order")
    return group


# ---------------------------------------------------------------------------
# hypothesis check for the extension construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HypothesisReport:
    """Whether a group supports the non-split construction in degree p.

    `ids` are the element ids found: the pattern elements in the order of
    `values` (p = 2), or the shear (p >= 3).  The non-split certificate
    takes its subgroup H from them, so G is scanned once.
    """

    ok: bool
    case: str  # "involution-pattern" (p = 2) or "unipotent-shear" (p >= 3)
    values: tuple[FieldElement, ...]  # distinct pattern parameters found (p = 2)
    ids: tuple[int, ...]
    detail: str


def _matches_involution_pattern(m: Matrix) -> Optional[int]:
    """The encoding of a for [[a, a+1], [a+1, a]] + identity elsewhere, or
    None; compared on raw encodings, where one is 1."""
    a = m.raw(0, 0)
    a1 = m.ctx.add_i(a, 1)
    if m.raw(0, 1) != a1 or m.raw(1, 0) != a1 or m.raw(1, 1) != a:
        return None
    n = m.rows
    if any(m.raw(i, j) != (i == j) for i in range(n) for j in range(n) if i >= 2 or j >= 2):
        return None
    return a


def check_extension_hypothesis(group: MatrixGroup) -> HypothesisReport:
    """Scan the enumerated elements for the required pattern.

    p = 2: at least three distinct parameters a with [[a, a+1], [a+1, a]]
    (plus identity padding) in the group.  p >= 3: the specific unipotent
    shear [[1, 1], [0, 1]] (plus identity padding) is an element.
    """
    ctx = group.ctx
    if ctx.p == 2:
        matches = enumerate(map(_matches_involution_pattern, group.elements))
        found = sorted((a, i) for i, a in matches if a is not None)
        ok = len(found) >= 3
        return HypothesisReport(
            ok,
            "involution-pattern",
            tuple(ctx.el(a) for a, _ in found),
            tuple(i for _, i in found),
            f"{len(found)} distinct pattern parameter(s); need >= 3",
        )
    shear = group.index.get(family_matrix(ctx, ctx.one(), group.n))
    ok = shear is not None
    return HypothesisReport(
        ok,
        "unipotent-shear",
        (),
        () if shear is None else (shear,),
        "unipotent shear present" if ok else "unipotent shear missing",
    )


# -- serialization -------------------------------------------------------------


def group_to_json(group: MatrixGroup) -> dict:
    """The group record: the field, n, the generators as given, and |G|.

    It is also a group spec: `group_spec_from_json` reads it back to the
    same closure.
    """
    return {
        "field": field_to_json(group.ctx),
        "n": group.n,
        "generators": [matrix_to_json(m) for m in group.generators],
        "order": group.order,
    }


def group_spec_from_json(obj: dict, order_cap: int = DEFAULT_ORDER_CAP) -> MatrixGroup:
    """Build a group from a spec {field, n, generators}."""
    from .gf import field_from_json
    from .linalg import matrix_from_json

    try:
        ctx = field_from_json(obj["field"])
        n = obj["n"]
        gens = [matrix_from_json(ctx, g) for g in obj["generators"]]
    except KeyError as exc:
        raise ModcohError(f"bad group spec: missing {exc}") from exc
    return closure(ctx, n, gens, order_cap)
