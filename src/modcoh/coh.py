"""First cohomology of a finite matrix group by exact linear algebra.

Cocycles are maps g: G -> M with g_{st} = s(g_t) + g_s and g_1 = 0.  A
cocycle is fixed by its values x = (g_s) on a generating subset S' of G
(``MatrixGroup.spanning_ids``), so a Cocycle stores x and expands any other
value on demand along the breadth-first tree over S', and Z1, B1 and every
class are computed in those |S'|d unknowns (Holt, Eick and O'Brien,
Handbook of Computational Group Theory, 2005, section 7.6; GAP's
OneCocycles).  Each relator of a presentation on S' gives d equations, its
Fox derivative evaluated in the module.  A group certified elementary
abelian on S' is presented by the powers s^p and the commutators [s, t];
every other group takes one relator per non-tree edge of the Schreier
graph over S'.  Either system reads the action on S' only, has Z1 on S' as
its kernel, and is built once per module, only when Z1 itself is asked for
(z1_dim, z1_space, h1_class).  Cocycle.validate builds no system: it
evaluates the relators at x, or expands x along the tree and checks the
Schreier rows' identity pair by pair.  A cocycle that is one by
construction skips it: the pipeline's g = (s-1)iota is the coboundary of
iota in a larger module, read in a submodule
(Cocycle.restricted_coboundary), so construct makes no validate pass.
Z1 on S' is the kernel_basis of that system, which depends on Z1 alone,
not on the relators chosen.  B1 on S' is
the column space of the stacked (s-1); the complement of B1 in Z1 and each
class are computed on those coordinates, and only z1_stacked/b1_stacked
(and z1_space/b1_space, which read them) expand to the stacked non-identity
coordinates.  Split tests solve (s-1)u = g_s over S',
returning either a witness u or an inconsistency row that re-verifies
without the solver.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from .errors import (
    BadProjection,
    GroupMismatch,
    ModcohError,
    NotACocycle,
    NotEquivariant,
    NotFixed,
)
from .gf import FieldElement
from .grp import MatrixGroup
from .linalg import Matrix, hstack, kernel_basis, kron, rref, solve, vstack
from .rep import GModule, tensor

# stored entries allowed for the Z1 system that is built, rows x columns,
# and for Z1 expanded to stacked coordinates, (|G|-1)d x dim Z1; larger
# ones are beyond the supported desk scale
Z1_SYSTEM_ENTRY_CAP = 4_000_000


class Cocycle:
    """A 1-cocycle on a module, fixed by its values x = (g_s) on S'.

    Every other value is expanded on demand along the breadth-first tree of
    the group over S' (``MatrixGroup.tree_parents``) by g_st = A(s) g_t + g_s,
    and kept; the identity has g_1 = 0.  A cocycle made from a full value
    list, one column per element id, keeps that list as its values, and
    validate() checks it against the expansion.
    """

    __slots__ = ("module", "_x", "_given", "_known", "_checked")

    def __init__(self, module: GModule, values: Sequence[Matrix]):
        if len(values) != module.group.order:
            raise ModcohError("need one value per group element")
        if not values[0].is_zero:
            raise NotACocycle("value at the identity must be zero")
        self._setup(module, [values[s] for s in module.group.spanning_ids], values)

    @classmethod
    def on_spanning(cls, module: GModule, x: Sequence[Matrix]) -> "Cocycle":
        """The cocycle with values x on S', in the order of spanning_ids."""
        if len(x) != len(module.group.spanning_ids):
            raise ModcohError("need one value per element of S'")
        g = cls.__new__(cls)
        g._setup(module, x, None)
        return g

    @classmethod
    def restricted_coboundary(cls, module: GModule, x: Sequence[Matrix]) -> "Cocycle":
        """The cocycle with values x_s = (s-1)v on S', for a vector v of a
        larger module M of which `module` is a submodule; the caller forms x
        from v and checks that each x_s lies in `module`.

        s -> (s-1)v is the coboundary of v in M, so a cocycle on all of G:
        (st-1)v = s(t-1)v + (s-1)v.  It lies in the submodule on S', hence
        on every element, a word in S', since g_st = s g_t + g_s and the
        submodule is stable.  So x is the restriction to S' of a cocycle of
        `module`, and the pass is recorded: validate() returns at once.
        """
        g = cls.on_spanning(module, x)
        g._checked = True
        return g

    def _setup(
        self, module: GModule, x: Sequence[Matrix], given: Optional[Sequence[Matrix]]
    ) -> None:
        for v in x if given is None else given:
            if v.rows != module.dim or v.cols != 1:
                raise ModcohError("cocycle values must be dim x 1 columns")
        self.module = module
        self._x = tuple(x)
        self._given = None if given is None else tuple(given)
        self._known: Optional[list[Optional[Matrix]]] = None
        self._checked = False  # set once validate() has passed

    @classmethod
    def zero(cls, module: GModule) -> "Cocycle":
        z = Matrix.zeros(module.group.ctx, module.dim, 1)
        return cls.on_spanning(module, [z] * len(module.group.spanning_ids))

    @classmethod
    def coboundary(cls, module: GModule, v: Matrix) -> "Cocycle":
        """The cocycle s -> (s-1)v."""
        return cls.on_spanning(
            module, [less @ v for less in _cached(module, "less_one", _less_one)]
        )

    @property
    def spanning_values(self) -> tuple[Matrix, ...]:
        """x = (g_s) for s in S', in the order of spanning_ids."""
        return self._x

    def value(self, i: int) -> Matrix:
        """g at element id i: the given value, or the expansion of x."""
        if self._given is not None:
            return self._given[i]
        return self._expanded(i)

    @property
    def values(self) -> tuple[Matrix, ...]:
        """g on every element id, in order."""
        if self._given is not None:
            return self._given
        return tuple(self._expanded(i) for i in range(self.module.group.order))

    def _expanded(self, i: int) -> Matrix:
        if self._known is None:
            self._known = _seeded(self.module, self._x)
        return _expand(self.module, self._known, i)

    def validate(self) -> None:
        """Check that x is the restriction to S' of a cocycle on G; raises
        NotACocycle.

        No Z1 system is built; each check evaluates one at x:

        - When `_relators_present` certifies G elementary abelian on S', the
          relators s^p and [s, t] present G, so x extends to a cocycle iff
          each relator's rows vanish at x (see _relator_system):
          N_s g_s = (A(s)-1)^(p-1) g_s = 0 for each s, and
          (A(s)-1) g_t - (A(t)-1) g_s = 0 for each pair in S'.
        - Otherwise x is expanded along the search tree, which sets
          g_st = A(s) g_t + g_s on each tree edge, and the same identity is
          checked on every other pair (s, t) of S' x G: the Schreier rows,
          evaluated at x.  The expansion then obeys the identity on all of
          S' x G, and with g_1 = 0, by induction on the length of w as a word
          over S', g_wt = w g_t + g_w on G x G: a cocycle.

        In both cases the cocycle is the expansion along the tree, and a
        full value list must equal it on every element.  The action must be
        homomorphic (every module constructor gives one).  Values and module
        are immutable, so a pass is recorded on the object and later calls
        return at once.
        """
        if self._checked:
            return
        module = self.module
        group = module.group
        if self._x:
            if _relators_present(group):
                _check_relators(module, self._x)
            else:
                self._check_schreier_pairs()
        if self._given is not None:
            for i in range(1, group.order):
                if self._given[i] != self._expanded(i):
                    raise NotACocycle(f"value at element {i} is not the expansion from S'")
        self._checked = True

    def _check_schreier_pairs(self) -> None:
        """g_st = A(s) g_t + g_s on every non-tree pair of S' x G, with g
        expanded along the tree; reads the action and the products on S'."""
        if self._known is None:
            self._known = _seeded(self.module, self._x)
        for s, t, row in _schreier_rows(self.module, self._known, self._x):
            if not row.is_zero:
                raise NotACocycle(f"pair identity fails at elements ({s}, {t})")

    def vectorize(self) -> Matrix:
        """Stack the non-identity values into one long column."""
        return vstack(self.values[1:])

    @classmethod
    def from_vector(cls, module: GModule, vec: Matrix) -> "Cocycle":
        d, m = module.dim, module.group.order
        if vec.rows != d * (m - 1) or vec.cols != 1:
            raise ModcohError("vector length does not match the module and group")
        vals = [Matrix.zeros(module.group.ctx, d, 1)]
        for i in range(m - 1):
            vals.append(vec.submatrix(i * d, (i + 1) * d, 0, 1))
        return cls(module, vals)

    # sums and multiples are taken on the values on S', which fix a cocycle

    def __add__(self, other: "Cocycle") -> "Cocycle":
        if other.module is not self.module:
            raise GroupMismatch("cocycles on different modules")
        return Cocycle.on_spanning(self.module, [a + b for a, b in zip(self._x, other._x)])

    def __sub__(self, other: "Cocycle") -> "Cocycle":
        if other.module is not self.module:
            raise GroupMismatch("cocycles on different modules")
        return Cocycle.on_spanning(self.module, [a - b for a, b in zip(self._x, other._x)])

    def scale(self, c: FieldElement) -> "Cocycle":
        return Cocycle.on_spanning(self.module, [v.scale(c) for v in self._x])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Cocycle)
            and other.module is self.module
            and other.values == self.values
        )

    def __hash__(self) -> int:
        return hash(self._x)

    def __repr__(self) -> str:
        return f"Cocycle(on {self.module.label}, |G|={self.module.group.order})"


def _seeded(module: GModule, x: Sequence[Matrix]) -> list[Optional[Matrix]]:
    """Values known before any expansion: 0 at the identity, x on S'."""
    known: list[Optional[Matrix]] = [None] * module.group.order
    known[0] = Matrix.zeros(module.group.ctx, module.dim, x[0].cols if x else 1)
    for s, v in zip(module.group.spanning_ids, x):
        known[s] = v
    return known


def _expand(module: GModule, known: list[Optional[Matrix]], i: int) -> Matrix:
    """known[i], filled in along the tree path from the nearest known
    ancestor by g_st = A(s) g_t + g_s.

    Works for a block of columns as well as a single value; reads the
    action on S' only.
    """
    if known[i] is None:
        parents = module.group.tree_parents
        path = []
        k = i
        while known[k] is None:
            path.append(k)
            k = parents[k][1]
        for k in reversed(path):
            s, t = parents[k]
            known[k] = module.action(s) @ known[t] + known[s]
    return known[i]


# ---------------------------------------------------------------------------
# cocycle and coboundary spaces
# ---------------------------------------------------------------------------


def _check_desk_scale(what: str, rows: int, cols: int, module: GModule) -> None:
    if rows * cols > Z1_SYSTEM_ENTRY_CAP:
        raise ModcohError(
            f"Z1 {what} would store {rows * cols} entries ({rows}x{cols} for "
            f"|G| = {module.group.order}, dim {module.dim}); beyond the supported "
            f"desk scale of {Z1_SYSTEM_ENTRY_CAP}"
        )


def _relators_present(group: MatrixGroup) -> bool:
    """Whether the powers s^p and commutators [s, t], s, t in S', present G.

    Three checks on the multiplication table: s^p = 1 and st = ts for s, t
    in S', and |G| = p^|S'|.  Then E = <S' | s^p, [s, t]> is (Z/p)^|S'|, of
    order p^|S'|.  The elements of S' satisfy these relators in G, so
    s -> s extends to a homomorphism E -> G, onto because S' generates G.
    Equal orders make it an isomorphism, so the relators present G on S'.
    """
    p, spanning = group.ctx.p, group.spanning_ids
    if group.order != p ** len(spanning):
        return False
    for b, s in enumerate(spanning):
        power = s
        for _ in range(p - 1):
            power = group.mul(s, power)
        if power != 0 or any(group.mul(s, t) != group.mul(t, s) for t in spanning[:b]):
            return False
    return True


def _check_relators(module: GModule, x: Sequence[Matrix]) -> None:
    """The relator rows of _relator_system evaluated at x, without building
    them: (A(s)-1)^(p-1) g_s as p-1 products with a column, and
    (A(s)-1) g_t - (A(t)-1) g_s."""
    less = _cached(module, "less_one", _less_one)
    for b, g_b in enumerate(x):
        norm = g_b
        for _ in range(module.group.ctx.p - 1):
            norm = less[b] @ norm
        if not norm.is_zero:
            raise NotACocycle(f"the power relator of element {b} of S' fails")
        for c in range(b):
            if less[b] @ x[c] != less[c] @ g_b:
                raise NotACocycle(f"the commutator relator of elements {c}, {b} of S' fails")


def _relator_system(module: GModule) -> Matrix:
    """Z1 in the unknowns x = (g_s), s in S', from the relators of an
    elementary abelian G (see _relators_present).

    Each x is the restriction of exactly one cocycle on the free group over
    S' (acting through G), and that cocycle factors through G iff it
    vanishes on every relator: d rows per relator.  The
    power s^p gives N_s g_s = 0 with N_s = sum_{i<p} A(s)^i, which is
    (A(s)-1)^{p-1} in characteristic p, since (X-1)^p = X^p - 1 in F_p[X];
    it is taken as p-2 products of the cached (s-1), so only A(s) is read,
    not A on all of <s>.  The commutator [s, t] gives
    (A(s)-1) g_t - (A(t)-1) g_s = 0.  The system is checked against
    Z1_SYSTEM_ENTRY_CAP before it is built.
    """
    g = module.group
    d, spanning = module.dim, g.spanning_ids
    k = len(spanning)
    n = k * d
    _check_desk_scale("system", (k + k * (k - 1) // 2) * d, n, module)
    less = _cached(module, "less_one", _less_one)
    relators: list[dict[int, Matrix]] = []
    for b in range(k):
        norm = less[b]
        for _ in range(g.ctx.p - 2):
            norm = norm @ less[b]
        relators.append({b: norm})
        relators.extend({b: less[c], c: -less[b]} for c in range(b))
    data: list[int] = []
    for blocks in relators:
        for r in range(d):
            row = [0] * n
            for b, block in blocks.items():
                row[b * d : (b + 1) * d] = block.row_list(r)
            data.extend(row)
    return Matrix(g.ctx, len(relators) * d, n, data)


def _schreier_system(module: GModule) -> Matrix:
    """Z1 in the unknowns x = (g_s), s in S', on the Schreier graph over S'.

    Along the search tree of the group (``MatrixGroup.tree_parents``) each
    element t gets the d x |S'|d matrix C_t with g_t = C_t x: C_1 = 0,
    C_s = E_s picking block s, and a tree edge t -> st sets
    C_st = A(s) C_t + E_s.  Each non-tree edge adds the d rows
    C_st - A(s) C_t - E_s = 0.  The system and the C_t, which hold as many
    entries as Z1 expanded at its largest, dim Z1 = |S'|d, are checked
    against Z1_SYSTEM_ENTRY_CAP before either is built.
    """
    g = module.group
    m, d = g.order, module.dim
    spanning = g.spanning_ids
    n = len(spanning) * d
    _check_desk_scale("system", (len(spanning) * m - (m - 1)) * d, n, module)
    _check_desk_scale("expansion", (m - 1) * d, n, module)
    units = []
    for b in range(len(spanning)):
        unit = [0] * (d * n)
        for r in range(d):
            unit[r * n + b * d + r] = 1
        units.append(Matrix(g.ctx, d, n, unit))
    return vstack(row for _, _, row in _schreier_rows(module, _seeded(module, units), units))


def _schreier_rows(module: GModule, known: list[Optional[Matrix]], x: Sequence[Matrix]):
    """(s, t, g_st - A(s) g_t - g_s) for each non-tree pair (s, t) of S' x G,
    t by t, with g the expansion of x along the tree into `known` (seeded by
    _seeded(module, x)).  x may be values or blocks of columns; reads the
    action and the products on S' only."""
    g = module.group
    parents = g.tree_parents
    for t in range(g.order):
        for s, x_s in zip(g.spanning_ids, x):
            st = g.mul(s, t)
            if parents[st] != (s, t):
                image = module.action(s) @ _expand(module, known, t) + x_s
                yield s, t, _expand(module, known, st) - image


def _z1_system(module: GModule) -> Matrix:
    """The relator system if the relators present G, else the Schreier one."""
    if _relators_present(module.group):
        return _relator_system(module)
    return _schreier_system(module)


# Each module's bases are eliminated once and kept in module.coh_cache: the
# Z1 system, Z1 and B1 on the S' blocks,
# the H1 matrix there, the (s-1) for s in S', and for z1_stacked/b1_stacked
# the stacked non-identity columns.  Columns refer to
# the field, not the module, so the cache forms no reference cycle and dies
# with the module.


def _cached(module: GModule, key: str, compute):
    cache = module.coh_cache
    if key not in cache:
        cache[key] = compute(module)
    return cache[key]


def _z1_basis(module: GModule) -> tuple[Matrix, ...]:
    """Z1 on the S' blocks: the kernel_basis of the Z1 system.

    kernel_basis reads the basis off the reduced row echelon form, which
    depends only on the row space.  Every Z1 system on S' has Z1 on S' as
    its kernel, hence the annihilator of Z1 on S' as its row space, so this
    basis is the same whichever relators built the system.  Class
    coordinates are given in it.
    """
    if module.group.order == 1:
        return ()
    return tuple(kernel_basis(_cached(module, "z1_system", _z1_system)))


def _less_one(module: GModule) -> list[Matrix]:
    """(s-1) for s in S': the relator rows and checks, B1 and every split
    system start from these."""
    ident = Matrix.identity(module.group.ctx, module.dim)
    return [module.action(s) - ident for s in module.group.spanning_ids]


def _spanning_less_one(module: GModule) -> Matrix:
    """The stacked (s-1), one d-row block per s in S'."""
    return vstack(_cached(module, "less_one", _less_one))


def _column_basis(m: Matrix) -> tuple[Matrix, ...]:
    """The nonzero rows of rref(m^T), as columns: a basis of m's columns."""
    reduced, _, r = rref(m.transpose())
    return tuple(reduced.submatrix(i, i + 1, 0, reduced.cols).transpose() for i in range(r))


def _b1_basis(module: GModule) -> tuple[Matrix, ...]:
    """B1 on the S' blocks: the column space of the stacked (s-1) over S'.

    Its kernel is the fixed space of <S'> = G, as for the stack over all
    of G, so its rank is dim B1.
    """
    if module.group.order == 1:
        return ()
    return _column_basis(_spanning_less_one(module))


def _h1_columns(module: GModule) -> tuple[Optional[Matrix], int]:
    """[B1 basis | complement of B1 in Z1] on the S' blocks, side by side,
    and the B1 count.

    A cocycle is determined by its values on S', so restricting to those
    blocks keeps every linear relation among Z1 vectors.  Z1 comes first,
    so a system over Z1_SYSTEM_ENTRY_CAP is refused before B1 is
    eliminated.
    """
    zb = _cached(module, "z1", _z1_basis)
    bb = _cached(module, "b1", _b1_basis)
    cols = list(bb) + _complement_basis(bb, zb)
    if not cols:
        return None, 0
    return _side_by_side(cols), len(bb)


def _expanded(module: GModule, basis: Sequence[Matrix]) -> Matrix:
    """The cocycles with the columns of `basis` as values on the S' blocks,
    expanded along the search tree by g_st = A(s) g_t + g_s: one column per
    vector, in stacked non-identity coordinates.  Reads the action on S'
    only."""
    g = module.group
    d, width = module.dim, len(basis)
    cols = _side_by_side(basis)
    known = _seeded(
        module, [cols.submatrix(b * d, (b + 1) * d, 0, width) for b in range(len(g.spanning_ids))]
    )
    return vstack([_expand(module, known, i) for i in range(1, g.order)])


def _z1_columns(module: GModule) -> tuple[Matrix, ...]:
    """The basis kernel_basis gives for Z1 in stacked non-identity coordinates.

    That basis is the reduced one whose pivot is each vector's last nonzero
    coordinate, so it depends on Z1 alone: Z1 on S' is expanded along the
    tree and brought to that form by one rref of the column-reversed
    vectors.  The expansion is checked against Z1_SYSTEM_ENTRY_CAP before it
    is built.
    """
    g = module.group
    zb = _cached(module, "z1", _z1_basis)
    if not zb:
        return ()
    width = len(zb)
    _check_desk_scale("expansion", (g.order - 1) * module.dim, width, module)
    vectors = _expanded(module, zb).transpose()
    n = vectors.cols
    flipped = [x for i in range(width) for x in reversed(vectors.row_list(i))]
    reduced, _, _ = rref(Matrix(g.ctx, width, n, flipped))
    # pivots in flipped order come last-coordinate-first: reverse the rows too
    return tuple(
        Matrix(g.ctx, n, 1, reduced.row_list(i)[::-1]) for i in reversed(range(width))
    )


def _b1_columns(module: GModule) -> tuple[Matrix, ...]:
    """The reduced basis of B1 in stacked non-identity coordinates.

    B1 there is the column space of the stacked (g-1) over every g != 1,
    which is spanned by B1 on S' expanded along the tree; the nonzero rows
    of the reduced row echelon form of that span are unique, so this basis
    is the one the stack over all of G gives, and only the action on S' is
    read.
    """
    bb = _cached(module, "b1", _b1_basis)
    if not bb:
        return ()
    return _column_basis(_expanded(module, bb))


def z1_stacked(module: GModule) -> tuple[Matrix, ...]:
    """The basis of `z1_space`, each cocycle as its stacked non-identity
    values (`Cocycle.vectorize`)."""
    return _cached(module, "z1_stacked", _z1_columns)


def b1_stacked(module: GModule) -> tuple[Matrix, ...]:
    """The basis of `b1_space`, each cocycle as its stacked non-identity
    values (`Cocycle.vectorize`)."""
    return _cached(module, "b1_stacked", _b1_columns)


def z1_space(module: GModule) -> list[Cocycle]:
    """Deterministic basis of Z1(G, M)."""
    return [Cocycle.from_vector(module, v) for v in z1_stacked(module)]


def b1_space(module: GModule) -> list[Cocycle]:
    """Deterministic basis of B1(G, M), the coboundaries."""
    return [Cocycle.from_vector(module, v) for v in b1_stacked(module)]


def z1_dim(module: GModule) -> int:
    return len(_cached(module, "z1", _z1_basis))


def b1_dim(module: GModule) -> int:
    return len(_cached(module, "b1", _b1_basis))


def h1_dim(module: GModule) -> int:
    return z1_dim(module) - b1_dim(module)


def h1_class(g: Cocycle) -> list[FieldElement]:
    """Coordinates of the class of g in a fixed complement of B1 inside Z1.

    Empty coordinates mean H1 = 0; the class is zero iff all coordinates
    are zero.  Raises NotACocycle for invalid input.  The complement is
    chosen once per module, on the S' blocks: the B1 basis followed by the
    greedy choice from the Z1 basis of _z1_basis, so every class on one
    module shares it.
    """
    g.validate()
    module = g.module
    if module.group.order == 1:
        return []
    stacked, nb = _cached(module, "h1", _h1_columns)
    target = vstack(g.spanning_values)
    if stacked is None:
        if not target.is_zero:
            raise NotACocycle("cocycle outside Z1")
        return []
    res = solve(stacked, target)
    if not res.consistent:
        raise NotACocycle("cocycle outside Z1")
    return [res.solution[nb + i, 0] for i in range(stacked.cols - nb)]


def _side_by_side(cols: Sequence[Matrix]) -> Matrix:
    return vstack([c.transpose() for c in cols]).transpose()


def _complement_basis(bb: Sequence[Matrix], zb: Sequence[Matrix]) -> list[Matrix]:
    """Complement of span(bb) inside span(zb), as columns of zb.

    One rref of [bb | zb]: a pivot column past bb is a z outside the span of
    bb and the z before it, the same greedy choice as adding one z at a time.
    """
    if not zb:
        return []
    _, pivots, _ = rref(_side_by_side(list(bb) + list(zb)))
    return [zb[c - len(bb)] for c in pivots if c >= len(bb)]


# ---------------------------------------------------------------------------
# extensions
# ---------------------------------------------------------------------------


class ExtensionClass:
    """A short exact sequence 0 -> base -> total -> K -> 0 in block form."""

    __slots__ = ("base", "cocycle", "total")

    def __init__(self, base: GModule, cocycle: Cocycle, total: GModule):
        self.base = base
        self.cocycle = cocycle
        self.total = total


def extension_from_cocycle(g: Cocycle) -> ExtensionClass:
    """Total module with action [[A_s, g_s], [0, 1]], built per element on demand."""
    g.validate()
    base = g.module

    def action(i: int) -> Matrix:
        return _block_extension(base.action(i), g.value(i))

    total = GModule(base.group, base.dim + 1, action, f"ext({base.label})")
    return ExtensionClass(base, g, total)


def _block_extension(act: Matrix, val: Matrix) -> Matrix:
    """The block matrix [[act, val], [0, 1]]."""
    d = act.rows
    data = []
    for r in range(d):
        data.extend(act.row_list(r))
        data.append(val.raw(r, 0))
    data.extend([0] * d + [1])
    return Matrix(act.ctx, d + 1, d + 1, data)


def cocycle_from_extension(
    total: GModule, pi: Matrix, v0: Matrix
) -> tuple[Cocycle, GModule, list[Matrix]]:
    """Read the class of an extension off a preimage of 1.

    `pi` is a G-invariant surjection (1 x dim row) onto the trivial module,
    `v0` a column with pi @ v0 = 1.  Returns the cocycle s -> (s-1)v0 in
    the coordinates of a deterministic kernel basis, together with the
    kernel module and that basis.
    """
    ctx = total.group.ctx
    if pi.rows != 1 or pi.cols != total.dim:
        raise BadProjection(f"projection must be 1x{total.dim}")
    if pi.is_zero:
        raise BadProjection("projection must be surjective (nonzero)")
    for i in range(total.group.order):
        if pi @ total.action(i) != pi:
            raise BadProjection(f"projection not invariant at element {i}")
    if v0.rows != total.dim or v0.cols != 1 or (pi @ v0).raw(0, 0) != 1:
        raise BadProjection("v0 must be a preimage of 1")
    kb = kernel_basis(pi)
    kb_mat = kb[0]
    for col in kb[1:]:
        kb_mat = hstack(kb_mat, col)
    acts = []
    vals = []
    ident = Matrix.identity(ctx, total.dim)
    for i in range(total.group.order):
        act = total.action(i)
        res = solve(kb_mat, act @ kb_mat)
        if not res.consistent:
            raise BadProjection("kernel of the projection is not invariant")
        acts.append(res.solution)
        val = solve(kb_mat, (act - ident) @ v0)
        if not val.consistent:
            raise BadProjection("(s-1)v0 leaves the kernel of the projection")
        vals.append(val.solution)
    kernel_module = GModule(
        total.group, total.dim - 1, acts.__getitem__, f"ker(pi|{total.label})"
    )
    return Cocycle(kernel_module, vals), kernel_module, kb


# ---------------------------------------------------------------------------
# split testing with certificates
# ---------------------------------------------------------------------------


class NonSplitCertificate:
    """Inconsistency witness for the S' system (s-1)u = g_s.

    `row` is y with y @ system = 0 and y @ rhs != 0; `verify` re-checks
    both equations by plain matrix products.
    """

    __slots__ = ("system", "rhs", "row")

    def __init__(self, system: Matrix, rhs: Matrix, row: Matrix):
        self.system = system
        self.rhs = rhs
        self.row = row

    def verify(self) -> bool:
        return (self.row @ self.system).is_zero and not (self.row @ self.rhs).is_zero


class SplitResult:
    __slots__ = ("split", "witness", "certificate")

    def __init__(
        self, split: bool, witness: Optional[Matrix], certificate: Optional[NonSplitCertificate]
    ):
        self.split = split
        self.witness = witness
        self.certificate = certificate


def split_system(g: Cocycle) -> tuple[Matrix, Matrix, tuple[int, ...]]:
    """The system (s-1)u = g_s over S', one block of rows per element of S'."""
    module = g.module
    ctx = module.group.ctx
    ids = tuple(module.group.spanning_ids)
    if not ids:
        return Matrix.zeros(ctx, 0, module.dim), Matrix.zeros(ctx, 0, 1), ids
    system = _spanning_less_one(module)
    rhs = vstack(g.spanning_values)
    return system, rhs, ids


def is_split(e: Union[Cocycle, ExtensionClass]) -> SplitResult:
    """Decide splitness from the system over S'; certify either way.

    g is validated first (at no cost once it has passed).  A u with
    (s-1)u = g_s on all of G solves the S' rows, so a row y that
    kills the S' system but not its right-hand side rules out any split:
    NonSplit returns that y.  Conversely s -> g_s - (s-1)u is a cocycle,
    and one that vanishes on S' vanishes on G, so a u solving the S' rows
    is a Split witness on every element.
    """
    g = e.cocycle if isinstance(e, ExtensionClass) else e
    g.validate()
    system, rhs, _ = split_system(g)
    if system.rows == 0:
        return SplitResult(True, Matrix.zeros(g.module.group.ctx, g.module.dim, 1), None)
    res = solve(system, rhs)
    if res.consistent:
        return SplitResult(True, res.solution, None)
    cert = NonSplitCertificate(system, rhs, res.certificate)
    if not cert.verify():
        raise ModcohError("internal error: inconsistency certificate does not re-verify")
    return SplitResult(False, None, cert)


# ---------------------------------------------------------------------------
# pushforwards
# ---------------------------------------------------------------------------


def push_class(g: Cocycle, phi: Matrix, target: GModule) -> Cocycle:
    """Image cocycle s -> phi @ g_s along an equivariant map phi: M -> N."""
    if target.group is not g.module.group:
        raise GroupMismatch("target module over a different group")
    if phi.rows != target.dim or phi.cols != g.module.dim:
        raise ModcohError(f"map must be {target.dim}x{g.module.dim}")
    for i in g.module.group.spanning_ids:
        if target.action(i) @ phi != phi @ g.module.action(i):
            raise NotEquivariant(f"map does not intertwine at element {i}")
    return Cocycle.on_spanning(target, [phi @ v for v in g.spanning_values])


def tensor_with_invariant(w_module: GModule, w: Matrix, g: Cocycle) -> Cocycle:
    """The cocycle s -> w (x) g_s on tensor(w_module, g.module).

    w = 0 is allowed and gives the zero cocycle; callers that need a
    nonzero invariant must reject it themselves.
    """
    if w_module.group is not g.module.group:
        raise GroupMismatch("invariant vector lives over a different group")
    if w.rows != w_module.dim or w.cols != 1:
        raise ModcohError(f"w must be a {w_module.dim}-dimensional column")
    for i in w_module.group.spanning_ids:
        if w_module.action(i) @ w != w:
            raise NotFixed(f"w is not fixed by element {i}")
    t = tensor(w_module, g.module)
    return Cocycle.on_spanning(t, [kron(w, v) for v in g.spanning_values])
