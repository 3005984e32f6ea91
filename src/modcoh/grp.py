"""Finite matrix groups enumerated from generators.

A group is enumerated by one breadth-first search from the identity by left
multiplication with the generators, taken in the given order, so element
ids are reproducible and can be cited by certificates.  The search is the
verifier's own `verify._search`, so construct and verify close a group by
one function.  `closure` runs it on row-major tuples of encodings.  The
named families used by the pipeline run it on their parameters, whose
addition is the matrix product of the family, and map each parameter to
its tuple; they find the elements, ids and search tree that `closure`
finds from their generators.  A group holds its elements as those tuples
and makes a `Matrix` of one only when asked (`MatrixGroup.matrix`).  A
report names the group by its generators and order; the verifier closes
the generators itself.  The family tuples are also the candidates for the
subgroup H of the non-split certificate, which `verify._restriction_row`
looks up in a group's `index`.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Hashable, Iterable, Optional, Sequence

from .errors import (
    BadCharacteristic,
    MixedContexts,
    ModcohError,
    NotAdditivelyClosed,
    ShapeMismatch,
    SingularGenerator,
)
from .gf import FieldCtx, FieldElement, field_from_json, field_to_json
from .linalg import Matrix, is_invertible, matrix_from_json, matrix_to_json
from .verify import _search

DEFAULT_ORDER_CAP = 10_000

# a group element as the closure holds it: its n x n encodings, row-major
Element = tuple[int, ...]


class MatrixGroup:
    """Finite subgroup of GL_n over a fixed field, with enumerated elements.

    Built by `closure` or by a named family.  Element i is `elements[i]`,
    the row-major tuple of its encodings, and `matrix(i)` is it as a
    `Matrix`; `index` maps each tuple to its id.  The identity is 0 and
    `inv[i]` is the id of the inverse of element i.  The generators, which
    `group_to_json` writes, are `Matrix` objects.

    `spanning_ids` is S', the ids of the generators, in order, that lie
    outside the subgroup generated by those kept before them.  S' generates
    the group; the named families publish S' and no other generator.

    `tree_parents` is the search tree that found the elements:
    parents[st] = (s, t) when the search first reached st as s @ t, with s
    in S'.  The identity has no parent and each s in S' has (s, 0).  Every
    parent is reached before its child, so it has the smaller id, and a
    value defined on S' and the identity extends to every element along
    these edges.

    The group keeps what the search leaves, the inverse of each element of
    S' and `_letter[x]` = the position of s in S', and makes `tree_parents`
    and `inv` from them on first read: the report path reads neither, and
    only `h1`, the module recipes and the toy do.
    """

    __slots__ = (
        "ctx", "n", "generators", "elements", "index", "spanning_ids",
        "_inverse", "_letter", "_rows", "_inv", "_tree_parents",
    )

    def __init__(
        self,
        ctx: FieldCtx,
        n: int,
        generators: list[Matrix],
        elements: list[Element],
        index: dict[Element, int],
        spanning_ids: list[int],
        inverse: dict[int, int],
        letter: list[int],
    ):
        """`index` maps each element to its id, `inverse` each element of
        S' to its inverse's id, and element x > 0 is
        `spanning_ids[letter[x]]` times an earlier element, as the search
        (`verify._search`) found them."""
        self.ctx = ctx
        self.n = n
        self.generators = generators
        self.elements = elements
        self.index = index
        self.spanning_ids = spanning_ids
        self._inverse = inverse
        self._letter = letter
        self._rows: list[Optional[list[int]]] = [None] * len(elements)
        self._inv: Optional[list[int]] = None
        self._tree_parents: Optional[list[Optional[tuple[int, int]]]] = None

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def tree_parents(self) -> list[Optional[tuple[int, int]]]:
        """x = s t with s = S'[letter[x]], so t = s^-1 x: one left product
        of the element of S'^-1 that `ctx.left_mul` prepares once per s."""
        if self._tree_parents is None:
            n, elements, index = self.n, self.elements, self.index
            spanning = self.spanning_ids
            back = [self.ctx.left_mul(elements[self._inverse[s]], n) for s in spanning]
            parents: list[Optional[tuple[int, int]]] = [None]
            parents.extend(
                (spanning[b], index[back[b](x)])
                for b, x in zip(self._letter[1:], elements[1:])
            )
            self._tree_parents = parents
        return self._tree_parents

    @property
    def inv(self) -> list[int]:
        """The id of each element's inverse, from the search tree and the S'
        rows.  x = s h has x^-1 = h^-1 s^-1.  Right multiplication by s^-1
        commutes with the S' rows, so right[s][x] = x s^-1 follows the tree
        from right[s][0] = s^-1."""
        if self._inv is None:
            parents = self.tree_parents
            left = {s: self._row(s) for s in self.spanning_ids}
            right = {}
            for s in self.spanning_ids:
                r = right[s] = [self._inverse[s]]
                for t, h in parents[1:]:
                    r.append(left[t][r[h]])
            inv = [0] * len(parents)
            for x, (s, h) in enumerate(parents[1:], 1):
                inv[x] = right[s][inv[h]]
            self._inv = inv
        return self._inv

    def matrix(self, i: int) -> Matrix:
        """Element i as a new `Matrix`."""
        return Matrix(self.ctx, self.n, self.n, list(self.elements[i]))

    def mul(self, i: int, j: int) -> int:
        """Index of the product of elements i and j."""
        return self._row(i)[j]

    def _row(self, i: int) -> list[int]:
        """Row i of the multiplication table, tabulated on first use by the
        left product `ctx.left_mul` of element i."""
        row = self._rows[i]
        if row is None:
            left, index = self.ctx.left_mul(self.elements[i], self.n), self.index
            row = self._rows[i] = [index[left(b)] for b in self.elements]
        return row

    def __repr__(self) -> str:
        return f"MatrixGroup(order={self.order}, n={self.n}, field={self.ctx!r})"


def closure(
    ctx: FieldCtx,
    n: int,
    generators: Sequence[Matrix],
    order_cap: int = DEFAULT_ORDER_CAP,
) -> MatrixGroup:
    """The group generated by `generators`: `_search` on their row-major
    tuples of encodings under `ctx.left_mul`, whose tuples and ids the
    group keeps as its elements and index.  Element ids are the order of
    discovery and the search tree is `tree_parents`.
    """
    gens = list(generators)
    for g in gens:
        if g.ctx is not ctx:
            raise MixedContexts("generator over a different field")
        if g.rows != n or g.cols != n:
            raise ShapeMismatch(f"generator is {g.rows}x{g.cols}, expected {n}x{n}")
        if not is_invertible(g):
            raise SingularGenerator(f"singular generator {g!r}")
    cells = [(i, j) for i in range(n) for j in range(n)]
    found, index, spanning, inverse, letter = _search(
        tuple(int(i == j) for i, j in cells),
        [tuple(g.raw(i, j) for i, j in cells) for g in gens],
        lambda g: ctx.left_mul(g, n),
        order_cap,
    )
    return MatrixGroup(ctx, n, gens, found, index, spanning, inverse, letter)


def _parameter_group(
    ctx: FieldCtx,
    n: int,
    element: Callable[[Hashable], Element],
    identity: Hashable,
    generators: Iterable[Hashable],
    product: Callable[[Hashable, Hashable], Hashable],
    order_cap: int,
) -> MatrixGroup:
    """The group of a family, `_search` run on its parameters, whose
    `product` is the matrix product of their images under `element`: one
    row-major tuple per element, and the matrices of S' as the generators."""
    params, _, spanning, inverse, letter = _search(
        identity, generators, lambda g: partial(product, g), order_cap
    )
    elements = list(map(element, params))
    index = {x: i for i, x in enumerate(elements)}
    gens = [Matrix(ctx, n, n, list(elements[s])) for s in spanning]
    return MatrixGroup(ctx, n, gens, elements, index, spanning, inverse, letter)


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
    return Matrix(ctx, n, n, list(_family_matrix(ctx, a.val, n)))


def _family_matrix(ctx: FieldCtx, a: int, n: int) -> Element:
    """`family_matrix` of the parameter with encoding `a`, as its row-major
    tuple of encodings."""
    data = [0] * (n * n)
    data[:: n + 1] = [1] * n
    data[1] = a
    if ctx.p == 2:
        data[0] = data[n + 1] = ctx.add_i(a, 1)
        data[n] = a
    return tuple(data)


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
    their matrices as its generators.  Element ids, S', its inverses and
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

    def element(pair: tuple[int, int]) -> Element:
        return (1, pair[0], 0, 0, 0, 1, 0, 0, 0, 0, 1, pair[1], 0, 0, 0, 1)

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


def parse_group_spec(obj) -> tuple[FieldCtx, int, list]:
    """The field, n and serialized generators of a spec {field, n,
    generators}, each checked for its kind before any matrix is read: the
    spec is an object, n passes the verifier's rule (an int >= 1) and the
    generators are a list."""
    if not isinstance(obj, dict):
        raise ModcohError(f"bad group spec: a {type(obj).__name__}, not an object")
    try:
        ctx, n, gens = field_from_json(obj["field"]), obj["n"], obj["generators"]
    except KeyError as exc:
        raise ModcohError(f"bad group spec: missing {exc}") from exc
    if type(n) is not int or n < 1:
        raise ModcohError(f"bad group spec: n = {n!r} is not a positive integer")
    if not isinstance(gens, list):
        raise ModcohError(f"bad group spec: generators are a {type(gens).__name__}, not a list")
    return ctx, n, gens


def group_spec_from_json(obj: dict, order_cap: int = DEFAULT_ORDER_CAP) -> MatrixGroup:
    """Build a group from a spec {field, n, generators}."""
    ctx, n, gens = parse_group_spec(obj)
    return closure(ctx, n, [matrix_from_json(ctx, g) for g in gens], order_cap)
