"""Finite matrix groups enumerated from generators.

A group is enumerated by one breadth-first search from the identity by left
multiplication with the generators, taken in the given order, so element
ids are reproducible and can be cited by certificates (`_search`).
`closure` runs it on matrices.  The named families used by the pipeline
run it on their parameters, whose addition is the matrix product of the
family, and form one matrix per element; they find the elements, ids and
search tree that `closure` finds from their generators.  A report names
the group by its generators and order; the verifier closes the generators
itself.  The family matrices are also the candidates for the subgroup H of
the non-split certificate, which `build.restriction_certificate` looks up
in a group's `index`.
"""

from __future__ import annotations

from operator import matmul
from typing import Callable, Hashable, Iterable, Optional, Sequence

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

    Built by `closure` or by a named family.  Element i is `elements[i]`,
    the identity is 0 and `inv[i]` is the id of the inverse of element i.

    `spanning_ids` is S', the ids of the generators, in order, that lie
    outside the subgroup generated by those kept before them.  S' generates
    the group; the named families publish S' and no other generator.

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
        spanning_rows: list[list[int]],
    ):
        """`index` maps each element to its id; `spanning_rows[b]` is the
        row of `mul(spanning_ids[b], .)`, found by the search."""
        self.ctx = ctx
        self.n = n
        self.generators = generators
        self.elements = elements
        self.index = index
        self.inv = inv
        self.spanning_ids = spanning_ids
        self.tree_parents = tree_parents
        self._rows: list[Optional[list[int]]] = [None] * len(elements)
        for s, row in zip(spanning_ids, spanning_rows):
            self._rows[s] = row

    @property
    def order(self) -> int:
        return len(self.elements)

    def mul(self, i: int, j: int) -> int:
        """Index of elements[i] @ elements[j].

        Products are tabulated one row per left factor, on first use; the
        rows of S' come from the search.
        """
        row = self._rows[i]
        if row is None:
            a, index = self.elements[i], self.index
            row = self._rows[i] = [index[a @ b] for b in self.elements]
        return row[j]

    def __repr__(self) -> str:
        return f"MatrixGroup(order={self.order}, n={self.n}, field={self.ctx!r})"


def _search(
    identity: Hashable,
    generators: Iterable[Hashable],
    product: Callable[[Hashable, Hashable], Hashable],
    order_cap: int,
) -> tuple:
    """The group that `generators` make under `product`, in one
    breadth-first search from `identity`.

    The search multiplies by S' on the left (see `MatrixGroup`): it takes
    the generators in order, skips each one it has already reached, and
    otherwise keeps it, multiplies every element found so far by it, and
    goes on taking each later element times every kept generator.  Element
    ids are the order of discovery.  The set found holds every generator
    and is closed under S', so it is the group, found with |S'|(|G| - 1)
    products; they are the S' rows of the multiplication table, and the
    inverses follow from those rows with no further product.  (Holt, Eick
    and O'Brien, Handbook of Computational Group Theory, 2005.)

    Returns the elements in order of discovery, their ids, S', the S' rows,
    the search tree and the inverse ids.
    """
    # found[x] = kept[letter[x]] * found[parent[x]] for x > 0, and
    # left[b][h] is the id of kept[b] * found[h]
    found, index = [identity], {identity: 0}
    parent, letter = [0], [-1]
    kept: list = []
    left: list[list[int]] = []

    def visit(b: int, h: int) -> int:
        x = product(kept[b], found[h]) if h else kept[b]
        i = index.get(x)
        if i is None:
            i = index[x] = len(found)
            found.append(x)
            parent.append(h)
            letter.append(b)
            if len(found) > order_cap:
                raise OrderCapExceeded(f"group order exceeds cap {order_cap}")
        return i

    for g in generators:
        if g in index:
            continue
        kept.append(g)
        left.append([])
        # the new row catches up with the elements found so far, then every
        # row takes each element found after them
        done = len(found)
        left[-1].extend(visit(len(kept) - 1, h) for h in range(done))
        while done < len(found):
            for b, row in enumerate(left):
                row.append(visit(b, done))
            done += 1

    size = len(found)
    spanning = [row[0] for row in left]
    parents: list[Optional[tuple[int, int]]] = [None]
    parents.extend((spanning[b], h) for b, h in zip(letter[1:], parent[1:]))
    # x = s * h has x^-1 = h^-1 * s^-1.  Right multiplication by s^-1
    # commutes with the S' rows, so right[b][x] = x * s^-1 follows the tree
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
    return found, index, spanning, left, parents, inv


def closure(
    ctx: FieldCtx,
    n: int,
    generators: Sequence[Matrix],
    order_cap: int = DEFAULT_ORDER_CAP,
) -> MatrixGroup:
    """The group generated by `generators`: `_search` on the matrices, one
    matrix product per step.  Element ids are the order of discovery and
    the search tree is `tree_parents`.
    """
    gens = list(generators)
    for g in gens:
        if g.ctx is not ctx:
            raise MixedContexts("generator over a different field")
        if g.rows != n or g.cols != n:
            raise ShapeMismatch(f"generator is {g.rows}x{g.cols}, expected {n}x{n}")
        if not is_invertible(g):
            raise SingularGenerator(f"singular generator {g!r}")
    found, index, spanning, rows, parents, inv = _search(
        Matrix.identity(ctx, n), gens, matmul, order_cap
    )
    return MatrixGroup(ctx, n, gens, found, index, inv, spanning, parents, rows)


def _parameter_group(
    ctx: FieldCtx,
    n: int,
    matrix: Callable[[Hashable], Matrix],
    identity: Hashable,
    generators: Iterable[Hashable],
    product: Callable[[Hashable, Hashable], Hashable],
    order_cap: int,
) -> MatrixGroup:
    """The group of a family, `_search` run on its parameters, whose
    `product` is the matrix product of their images under `matrix`: one
    matrix per element, and S' as the generators."""
    params, _, spanning, rows, parents, inv = _search(identity, generators, product, order_cap)
    elements = list(map(matrix, params))
    index = {m: i for i, m in enumerate(elements)}
    gens = [elements[s] for s in spanning]
    return MatrixGroup(ctx, n, gens, elements, index, inv, spanning, parents, rows)


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
    return _family_matrix(ctx, a.val, n)


def _family_matrix(ctx: FieldCtx, a: int, n: int) -> Matrix:
    """`family_matrix` of the parameter with encoding `a`: for a = 1 the
    shear x12(1) (p >= 3), and for p = 2 the pattern involution A(a)."""
    data = [0] * (n * n)
    data[:: n + 1] = [1] * n
    data[1] = a
    if ctx.p == 2:
        data[0] = data[n + 1] = ctx.add_i(a, 1)
        data[n] = a
    return Matrix(ctx, n, n, data)


def additive_family(
    ctx: FieldCtx,
    params: Optional[Iterable[FieldElement]] = None,
    n: int = 2,
    order_cap: int = DEFAULT_ORDER_CAP,
) -> MatrixGroup:
    """Group {A(a) : a in U} for an additive subgroup U of the field.

    Defaults to U = the whole field.  a -> A(a) is injective and
    A(a) A(b) = A(a + b), so the search runs on the parameters, one field
    addition per step, over every parameter in encoding order.  It keeps a
    basis of U over F_p (k elements for U = GF(p^k)), each parameter
    outside the span of those kept before it, and the group publishes
    their matrices as its generators.  Element ids, S', the S' rows and
    the search tree are those of `closure` over these generators, and of
    `closure` over the matrices of all nonzero parameters in encoding order.
    """
    if n < 2:
        raise ShapeMismatch("family needs n >= 2")
    if params is None:
        vals = range(ctx.q)
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
        vals = sorted(vals)
    return _parameter_group(
        ctx, n, lambda a: _family_matrix(ctx, a, n), 0, vals, ctx.add_i, order_cap
    )


def paired_shear_family(ctx: FieldCtx, order_cap: int = DEFAULT_ORDER_CAP) -> MatrixGroup:
    """Order-p^2 group of 4x4 block pairs of shears over the prime subfield.

    The element of the pair (a, b) is block diagonal, with blocks
    [[1, a], [0, 1]] and [[1, b], [0, 1]].  The pairs add under the matrix
    product, so the search runs on them,
    with generators (1, 0) and (0, 1), and the group is that of `closure`
    over the two generator matrices.
    """
    if ctx.p < 3:
        raise BadCharacteristic("the 4x4 paired-shear family needs p >= 3")
    add = ctx.add_i

    def pair_sum(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
        return add(x[0], y[0]), add(x[1], y[1])

    def element(pair: tuple[int, int]) -> Matrix:
        data = [1, pair[0], 0, 0, 0, 1, 0, 0, 0, 0, 1, pair[1], 0, 0, 0, 1]
        return Matrix(ctx, 4, 4, data)

    return _parameter_group(ctx, 4, element, (0, 0), [(1, 0), (0, 1)], pair_sum, order_cap)


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
