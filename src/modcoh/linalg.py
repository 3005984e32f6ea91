"""Exact dense linear algebra over a fixed finite field.

Matrices are immutable, stored row-major as integer-encoded field elements.
Elimination has one rule: rows are taken in order, and each is reduced
against the rows kept before it, pivoting on its first nonzero entry
(`_forward`).  `rank` counts the kept rows; `rref` and `kernel_basis`
back-reduce them (`_back_reduce`) and read off the reduced row echelon form,
which is unique; `solve` stops at the first row whose dependency fails on
the right-hand side, and reads its certificate from that row's reduction
factors; `inverse` is `solve(m, I)`.  Echelon forms, kernels, solutions and
certificates are byte-reproducible.

Every loop over cells is a row kernel of the field context, whose class
`gf` picks once per kind of field, so nothing here branches on the kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress
from typing import Iterable, Optional, Sequence, Union

from .errors import MixedContexts, ModcohError, ShapeMismatch, Singular
from .gf import FieldCtx, FieldElement, values_from_json


class Matrix:
    """Dense matrix over one :class:`FieldCtx`."""

    __slots__ = ("ctx", "rows", "cols", "_d")

    def __init__(self, ctx: FieldCtx, rows: int, cols: int, data: list[int]):
        if rows < 0 or cols < 0 or len(data) != rows * cols:
            raise ShapeMismatch(f"{rows}x{cols} grid with {len(data)} entries")
        self.ctx = ctx
        self.rows = rows
        self.cols = cols
        self._d = data

    # -- constructors --------------------------------------------------------

    @classmethod
    def zeros(cls, ctx: FieldCtx, rows: int, cols: int) -> "Matrix":
        return cls(ctx, rows, cols, [0] * (rows * cols))

    @classmethod
    def identity(cls, ctx: FieldCtx, n: int) -> "Matrix":
        data = [0] * (n * n)
        for i in range(n):
            data[i * n + i] = 1
        return cls(ctx, n, n, data)

    @classmethod
    def from_rows(
        cls, ctx: FieldCtx, rows: Sequence[Sequence[Union[FieldElement, int]]]
    ) -> "Matrix":
        """Build from nested sequences; plain ints are taken mod p."""
        r = len(rows)
        c = len(rows[0]) if r else 0
        data = []
        for row in rows:
            if len(row) != c:
                raise ShapeMismatch("ragged rows")
            for x in row:
                if isinstance(x, FieldElement):
                    if x.ctx is not ctx:
                        raise MixedContexts("entry from a different field")
                    data.append(x.val)
                else:
                    data.append(x % ctx.p)
        return cls(ctx, r, c, data)

    @classmethod
    def column(cls, ctx: FieldCtx, entries: Sequence[Union[FieldElement, int]]) -> "Matrix":
        return cls.from_rows(ctx, [[x] for x in entries])

    @classmethod
    def basis_column(cls, ctx: FieldCtx, dim: int, i: int) -> "Matrix":
        data = [0] * dim
        data[i] = 1
        return cls(ctx, dim, 1, data)

    # -- access ---------------------------------------------------------------

    def __getitem__(self, ij: tuple[int, int]) -> FieldElement:
        i, j = ij
        return FieldElement(self.ctx, self._d[i * self.cols + j])

    def raw(self, i: int, j: int) -> int:
        return self._d[i * self.cols + j]

    def row_list(self, i: int) -> list[int]:
        return self._d[i * self.cols : (i + 1) * self.cols]

    @property
    def is_zero(self) -> bool:
        return not any(self._d)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Matrix)
            and other.ctx is self.ctx
            and other.rows == self.rows
            and other.cols == self.cols
            and other._d == self._d
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, tuple(self._d)))

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(repr(self[i, j]) for j in range(self.cols)) for i in range(self.rows)
        )
        return f"[{body}]"

    # -- arithmetic -------------------------------------------------------------

    def _check(self, other: "Matrix") -> None:
        if not isinstance(other, Matrix):
            raise TypeError(f"expected Matrix, got {type(other).__name__}")
        if other.ctx is not self.ctx:
            raise MixedContexts("matrices over different fields")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch(f"{self.rows}x{self.cols} + {other.rows}x{other.cols}")
        return Matrix(self.ctx, self.rows, self.cols, self.ctx.add_rows(self._d, other._d))

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch(f"{self.rows}x{self.cols} - {other.rows}x{other.cols}")
        return Matrix(self.ctx, self.rows, self.cols, self.ctx.sub_rows(self._d, other._d))

    def __neg__(self) -> "Matrix":
        return Matrix(self.ctx, self.rows, self.cols, self.ctx.neg_row(self._d))

    def scale(self, c: FieldElement) -> "Matrix":
        if c.ctx is not self.ctx:
            raise MixedContexts("scalar from a different field")
        return Matrix(self.ctx, self.rows, self.cols, self.ctx.scale_row(self._d, c.val))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        if self.cols != other.rows:
            raise ShapeMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        n, m = self.rows, other.cols
        return Matrix(self.ctx, n, m, self.ctx.matmul(self._d, other._d, n, self.cols, m))

    def transpose(self) -> "Matrix":
        r, c, d = self.rows, self.cols, self._d
        # column j of a row-major list is the slice d[j::c]
        return Matrix(self.ctx, c, r, list(chain.from_iterable(d[j::c] for j in range(c))))

    def submatrix(self, r0: int, r1: int, c0: int, c1: int) -> "Matrix":
        data = []
        for i in range(r0, r1):
            data.extend(self._d[i * self.cols + c0 : i * self.cols + c1])
        return Matrix(self.ctx, r1 - r0, c1 - c0, data)

    def column_vector(self, j: int) -> "Matrix":
        return self.submatrix(0, self.rows, j, j + 1)

    def flatten(self) -> "Matrix":
        """Row-major flattening into a column vector."""
        return Matrix(self.ctx, self.rows * self.cols, 1, list(self._d))

    def reshape(self, rows: int, cols: int) -> "Matrix":
        if rows * cols != len(self._d):
            raise ShapeMismatch(f"cannot reshape {self.rows}x{self.cols} to {rows}x{cols}")
        return Matrix(self.ctx, rows, cols, list(self._d))


# ---------------------------------------------------------------------------
# free functions (the operation surface)
# ---------------------------------------------------------------------------


def hstack(a: Matrix, b: Matrix) -> Matrix:
    a._check(b)
    if a.rows != b.rows:
        raise ShapeMismatch("hstack row mismatch")
    data = []
    for i in range(a.rows):
        data.extend(a.row_list(i))
        data.extend(b.row_list(i))
    return Matrix(a.ctx, a.rows, a.cols + b.cols, data)


def vstack(blocks: Iterable[Matrix]) -> Matrix:
    blocks = list(blocks)
    if not blocks:
        raise ShapeMismatch("vstack of nothing")
    ctx, cols = blocks[0].ctx, blocks[0].cols
    data: list[int] = []
    rows = 0
    for blk in blocks:
        blocks[0]._check(blk)
        if blk.cols != cols:
            raise ShapeMismatch("vstack column mismatch")
        data.extend(blk._d)
        rows += blk.rows
    return Matrix(ctx, rows, cols, data)


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product with block layout a_ij * b."""
    a._check(b)
    scale_row, zero = a.ctx.scale_row, [0] * b.cols
    brows = [b.row_list(r) for r in range(b.rows)]
    out: list[int] = []
    for i in range(a.rows):
        arow = a.row_list(i)
        for brow in brows:
            for av in arow:
                out += scale_row(brow, av) if av else zero
    return Matrix(a.ctx, a.rows * b.rows, a.cols * b.cols, out)


def direct_sum(a: Matrix, b: Matrix) -> Matrix:
    a._check(b)
    R, C = a.rows + b.rows, a.cols + b.cols
    out = [0] * (R * C)
    for i in range(a.rows):
        out[i * C : i * C + a.cols] = a.row_list(i)
    for i in range(b.rows):
        off = (a.rows + i) * C + a.cols
        out[off : off + b.cols] = b.row_list(i)
    return Matrix(a.ctx, R, C, out)


def _forward(ctx: FieldCtx, rows: Iterable[list[int]], n: int):
    """One pass over `rows`, in order, pivoting on their first n entries.

    Each row is reduced against the rows kept before it, in the order they
    were kept.  A row whose first n entries do not all reduce to 0 is kept,
    scaled to 1 at its pivot, the first nonzero of them; so a kept row is 0
    at the pivots kept before it.  A row that reduces to 0 is dropped: it
    depends on the kept rows.  The first row whose first n entries reduce
    to 0 while its other entries do not ends the pass, and no row after it
    is read.

    Returns (pcols, krows, steps, stop): the pivot columns and the kept
    rows, in the order kept; for each kept row, the index of the row it came
    from, the factors it was reduced by (one per kept row before it) and
    its pivot before scaling; and None, or the index and factors of the row
    that ended the pass.
    """
    scale_row, axpy, inv = ctx.scale_row, ctx.axpy, ctx.inv_i
    cols = range(n)
    pcols: list[int] = []
    krows: list[list[int]] = []
    steps: list[tuple[int, list[int], int]] = []
    for i, row in enumerate(rows):
        facs = []
        for pc, krow in zip(pcols, krows):
            f = row[pc]
            facs.append(f)
            if f:
                row = axpy(row, krow, f)
        col = next(compress(cols, row), -1)
        if col >= 0:
            pv = row[col]
            pcols.append(col)
            krows.append(row if pv == 1 else scale_row(row, inv(pv)))
            steps.append((i, facs, pv))
        elif any(row[n:]):
            return pcols, krows, steps, (i, facs)
    return pcols, krows, steps, None


def _back_reduce(ctx: FieldCtx, pcols: list[int], krows: list[list[int]]) -> None:
    """Clear each kept row at the pivots kept after it, last row first, in
    place.  The rows after row j are cleared first, so each is 0 at every
    pivot but its own, and clearing row j at one of them leaves its entries
    at the others as they were.  The kept rows become the nonzero rows of
    the reduced row echelon form, in the order kept."""
    for j in range(len(krows) - 2, -1, -1):
        row = krows[j]
        for l in range(len(krows) - 1, j, -1):
            c = row[pcols[l]]
            if c:
                row = ctx.axpy(row, krows[l], c)
        krows[j] = row


def _reduced(m: Matrix) -> tuple[list[int], list[list[int]]]:
    """The pivot columns and nonzero rows of rref(m), in the order kept."""
    pcols, krows, _, _ = _forward(m.ctx, map(m.row_list, range(m.rows)), m.cols)
    _back_reduce(m.ctx, pcols, krows)
    return pcols, krows


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...], int]:
    """Reduced row echelon form; returns (R, pivot columns, rank)."""
    pcols, krows = _reduced(m)
    order = sorted(range(len(pcols)), key=pcols.__getitem__)
    flat = [x for j in order for x in krows[j]]
    flat.extend([0] * ((m.rows - len(order)) * m.cols))
    return Matrix(m.ctx, m.rows, m.cols, flat), tuple(sorted(pcols)), len(pcols)


def rank(m: Matrix) -> int:
    """The number of rows the forward pass keeps."""
    return len(_forward(m.ctx, map(m.row_list, range(m.rows)), m.cols)[0])


def kernel_basis(m: Matrix) -> list[Matrix]:
    """Deterministic basis of the right kernel, as column vectors: one per
    free column c, with a 1 at c and minus column c of rref(m) at the
    pivots."""
    ctx, n = m.ctx, m.cols
    pcols, krows = _reduced(m)
    pivot_set = set(pcols)
    basis = []
    for free in range(n):
        if free in pivot_set:
            continue
        vec = [0] * n
        vec[free] = 1
        for c, v in zip(pcols, ctx.neg_row([row[free] for row in krows])):
            vec[c] = v
        basis.append(Matrix(ctx, n, 1, vec))
    return basis


@dataclass(frozen=True)
class SolveResult:
    """Outcome of an exact linear solve a @ x = b.

    If consistent, `solution` is the particular solution with every free
    variable 0; otherwise `certificate` is a row vector y with y @ a = 0 and
    y @ b != 0, re-checkable without the solver.
    """

    consistent: bool
    solution: Optional[Matrix]
    certificate: Optional[Matrix]


def solve(a: Matrix, b: Matrix) -> SolveResult:
    """Solve a @ x = b by one forward pass over the rows of [a | b].

    The pass pivots on the a-part.  Each kept row records the factors it
    was reduced by, so its combination T_j of the original rows can be
    unfolded later without an identity block.  A dropped row depends on
    the kept rows, and the dependency holds on b.

    The first row f whose a-part reduces to 0 and whose b-part does not ends
    the pass, and the rows after it are never read.  With c_j its factors,
    y = e_f - sum_j c_j T_j has y @ a = 0 (the reduced a-part) and
    y @ b != 0 (the reduced b-part).  Since the rows kept before f are
    independent, y is the only vector with y[f] = 1, support on f and those
    rows, and y @ a = 0.  kernel_basis(a.T) gives exactly that vector for
    each row that depends on the rows before it, in row order, so y is also
    its first vector with y @ b != 0.

    If no row breaks, the kept rows are back-reduced to the nonzero rows of
    rref([a | b]), whose pivots all lie in the a-part, and x is read off
    them with every free variable 0.
    """
    a._check(b)
    if a.rows != b.rows:
        raise ShapeMismatch(f"solve: {a.rows} equations vs {b.rows} right-hand rows")
    ctx, n = a.ctx, a.cols
    rows = (a.row_list(i) + b.row_list(i) for i in range(a.rows))
    pcols, krows, steps, stop = _forward(ctx, rows, n)
    if stop is not None:
        # y = e_f + sum_j u_j T_j with u = -facs and, for kept row j from
        # row r with factors c and pivot pv, T_j = (e_r - sum_l c_l T_l) / pv:
        # unfold the T_j from the last kept row down
        f, facs = stop
        axpy, mul, inv = ctx.axpy, ctx.mul_i, ctx.inv_i
        y = [0] * a.rows
        y[f] = 1
        u = ctx.neg_row(facs)
        for j in range(len(u) - 1, -1, -1):
            if u[j]:
                r, c, pv = steps[j]
                g = mul(u[j], inv(pv))
                y[r] = g
                u[:j] = axpy(u[:j], c, g)
        return SolveResult(False, None, Matrix(ctx, 1, a.rows, y))
    _back_reduce(ctx, pcols, krows)
    bc = b.cols
    sol = [0] * (n * bc)
    for c, row in zip(pcols, krows):
        sol[c * bc : (c + 1) * bc] = row[n:]
    return SolveResult(True, Matrix(ctx, n, bc, sol), None)


def inverse(m: Matrix) -> Matrix:
    """solve(m, I): m @ x = I is consistent exactly when m is invertible."""
    if not m.is_square:
        raise ShapeMismatch(f"inverse of non-square {m.rows}x{m.cols}")
    res = solve(m, Matrix.identity(m.ctx, m.rows))
    if not res.consistent:
        raise Singular(f"matrix of rank {rank(m)} < {m.rows}")
    return res.solution


def is_invertible(m: Matrix) -> bool:
    return m.is_square and rank(m) == m.rows


# -- serialization ------------------------------------------------------------


def matrix_to_json(m: Matrix) -> dict:
    decode = m.ctx.decode
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [[list(decode(v)) for v in m.row_list(i)] for i in range(m.rows)],
    }


def matrix_json_text(m: Matrix) -> str:
    """The canonical JSON text of `matrix_to_json(m)`, written directly:
    each distinct value is decoded and written once, and the rows are
    joined from those texts."""
    decode, c = m.ctx.decode, m.cols
    text = {v: "[" + ",".join(map(str, decode(v))) + "]" for v in set(m._d)}
    cells = list(map(text.__getitem__, m._d))
    rows = cells if c == 1 else [",".join(cells[i * c : (i + 1) * c]) for i in range(m.rows)]
    entries = "[" + "],[".join(rows) + "]" if rows else ""
    return f'{{"cols":{c},"entries":[{entries}],"rows":{m.rows}}}'


def matrix_from_json(ctx: FieldCtx, obj: dict) -> Matrix:
    """Strict parse of a serialized matrix."""
    return Matrix(ctx, *matrix_values_from_json(ctx, obj))


def matrix_values_from_json(ctx: FieldCtx, obj: dict) -> tuple[int, int, list[int]]:
    """Strict parse of a serialized matrix into its rows, cols and
    row-major values, with no Matrix made.

    `rows` and `cols` must be ints and `entries` a list of `rows` lists of
    `cols` cells; the cells are checked and decoded in one pass.
    """
    try:
        rows, cols, entries = obj["rows"], obj["cols"], obj["entries"]
    except (KeyError, TypeError) as exc:
        raise ModcohError(f"bad matrix object: {obj!r}") from exc
    if (
        type(rows) is not int
        or type(cols) is not int
        or type(entries) is not list
        or len(entries) != rows
        or (entries and (set(map(type, entries)) != {list} or set(map(len, entries)) != {cols}))
    ):
        raise ModcohError("matrix shape mismatch in serialized form")
    return rows, cols, values_from_json(ctx, list(chain.from_iterable(entries)))
