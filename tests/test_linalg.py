"""Exact linear algebra: products, echelon forms, solves, certificates."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modcoh import gf
from modcoh.errors import MixedContexts, ShapeMismatch, Singular
from modcoh.gf import field_new
from modcoh.grp import family_matrix
from modcoh.linalg import (
    Matrix,
    direct_sum,
    inverse,
    is_invertible,
    kernel_basis,
    kron,
    matrix_from_json,
    matrix_to_json,
    rank,
    rref,
    solve,
    vstack,
)

F2 = field_new(2)
F3 = field_new(3)
F4 = field_new(2, 2)


def random_matrix(rng, ctx, rows, cols):
    return Matrix(ctx, rows, cols, [rng.randrange(ctx.q) for _ in range(rows * cols)])


def row_space_size_oracle(m):
    """Brute-force span enumeration; |span| = q^rank."""
    ctx = m.ctx
    vectors = {tuple([0] * m.cols)}
    rows = [tuple(m.row_list(i)) for i in range(m.rows)]
    changed = True
    while changed:
        changed = False
        for v in list(vectors):
            for r in rows:
                for c in range(1, ctx.q):
                    w = tuple(ctx.add_i(a, ctx.mul_i(c, b)) for a, b in zip(v, r))
                    if w not in vectors:
                        vectors.add(w)
                        changed = True
    return len(vectors)


def test_identity_matmul():
    m = Matrix.from_rows(F3, [[1, 2], [0, 1]])
    assert Matrix.identity(F3, 2) @ m == m
    assert m @ Matrix.identity(F3, 2) == m


def test_char2_square_of_ones():
    ones = Matrix.from_rows(F2, [[1, 1], [1, 1]])
    assert (ones @ ones).is_zero


def test_family_involution_over_gf4():
    # A(t) @ A(t) = A(t + t) = A(0) = I
    t = F4.gen()
    a = family_matrix(F4, t)
    assert a @ a == Matrix.identity(F4, 2)


# each per-field loop of matmul, add, sub, neg and scale: k = 1, characteristic-2 tables,
# odd-p tables, and digit arithmetic without tables,
# GF(17^2) = F_17[x]/(x^2 - 3) with q > 256
MATMUL_FIELDS = [(2, 1, None), (7, 1, None), (2, 2, None), (2, 4, None), (3, 2, None),
                 (17, 2, (14, 0, 1))]


@pytest.mark.parametrize("p,deg,modulus", MATMUL_FIELDS)
@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.one_of(st.integers(2, 4), st.integers(9, 16)), st.integers(1, 4),
       st.data())
def test_matmul_matches_per_cell_field_arithmetic(p, deg, modulus, n, k, m, data):
    ctx = field_new(p, deg, modulus)
    # zeros drawn often, so both zero skips are taken; rows of 9 or more
    # entries take the compress scan
    assert gf._SCAN_MIN == 9
    cell = st.one_of(st.just(0), st.integers(0, ctx.q - 1))
    a = Matrix(ctx, n, k, data.draw(st.lists(cell, min_size=n * k, max_size=n * k)))
    b = Matrix(ctx, k, m, data.draw(st.lists(cell, min_size=k * m, max_size=k * m)))
    want = [
        [sum((a[i, t] * b[t, j] for t in range(k)), ctx.zero()) for j in range(m)]
        for i in range(n)
    ]
    assert a @ b == Matrix.from_rows(ctx, want)


@pytest.mark.parametrize("p,deg,modulus", MATMUL_FIELDS)
@settings(max_examples=20, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_add_sub_match_per_cell_field_arithmetic(p, deg, modulus, n, m, data):
    ctx = field_new(p, deg, modulus)
    cells = st.lists(st.integers(0, ctx.q - 1), min_size=n * m, max_size=n * m)
    a, b = (Matrix(ctx, n, m, data.draw(cells)) for _ in range(2))
    for got, op in ((a + b, lambda x, y: x + y), (a - b, lambda x, y: x - y)):
        want = [[op(a[i, j], b[i, j]) for j in range(m)] for i in range(n)]
        assert got == Matrix.from_rows(ctx, want)


@pytest.mark.parametrize("p,deg,modulus", MATMUL_FIELDS)
@settings(max_examples=20, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_neg_scale_match_per_cell_field_arithmetic(p, deg, modulus, n, m, data):
    ctx = field_new(p, deg, modulus)
    cells = st.lists(st.integers(0, ctx.q - 1), min_size=n * m, max_size=n * m)
    a = Matrix(ctx, n, m, data.draw(cells))
    c = ctx.el(data.draw(st.integers(0, ctx.q - 1)))
    assert -a == Matrix.from_rows(ctx, [[-a[i, j] for j in range(m)] for i in range(n)])
    want = [[c * a[i, j] for j in range(m)] for i in range(n)]
    assert a.scale(c) == Matrix.from_rows(ctx, want)


def test_rref_identity_and_zero():
    r, pivots, rk = rref(Matrix.identity(F3, 3))
    assert r == Matrix.identity(F3, 3) and pivots == (0, 1, 2) and rk == 3
    z = Matrix.zeros(F3, 2, 3)
    r, pivots, rk = rref(z)
    assert r == z and pivots == () and rk == 0


def test_rref_rank_against_row_space_oracle():
    m = Matrix.from_rows(F2, [[1, 1], [1, 1]])
    assert row_space_size_oracle(m) == 2**rank(m)
    assert rank(m) == 1
    rng = random.Random(3)
    for _ in range(20):
        m = random_matrix(rng, F3, 3, 3)
        assert row_space_size_oracle(m) == 3 ** rank(m)


def test_rref_determinism():
    rng = random.Random(11)
    m = random_matrix(rng, F4, 4, 5)
    assert rref(m) == rref(m)


def test_solve_identity_and_certificates():
    v = Matrix.column(F3, [1, 2])
    res = solve(Matrix.identity(F3, 2), v)
    assert res.consistent and res.solution == v and kernel_basis(Matrix.identity(F3, 2)) == []
    res = solve(Matrix.zeros(F3, 2, 2), v)
    assert not res.consistent
    y = res.certificate
    assert (y @ Matrix.zeros(F3, 2, 2)).is_zero and not (y @ v).is_zero


def test_solve_vs_rank_comparison_random():
    # consistency of solve() must coincide with rank(a) == rank(a|b)
    rng = random.Random(5)
    for ctx in (F2, F3, F4):
        for _ in range(200):
            rows, cols = rng.randrange(1, 5), rng.randrange(1, 4)
            a = random_matrix(rng, ctx, rows, cols)
            b = random_matrix(rng, ctx, rows, 1)
            res = solve(a, b)
            aug = Matrix(ctx, rows, cols + 1, [
                x for i in range(rows) for x in a.row_list(i) + b.row_list(i)
            ])
            assert res.consistent == (rank(a) == rank(aug))
            if res.consistent:
                assert a @ res.solution == b
                kernel = kernel_basis(a)
                assert len(kernel) == cols - rank(a)
                for k in kernel:
                    assert (a @ k).is_zero
            else:
                y = res.certificate
                assert (y @ a).is_zero and not (y @ b).is_zero


def test_kernel_basis_properties():
    rng = random.Random(9)
    for _ in range(30):
        m = random_matrix(rng, F3, 3, 5)
        basis = kernel_basis(m)
        assert len(basis) == 5 - rank(m)
        for v in basis:
            assert (m @ v).is_zero


def test_kron_identities():
    assert kron(Matrix.identity(F3, 2), Matrix.identity(F3, 3)) == Matrix.identity(F3, 6)
    a = Matrix.from_rows(F3, [[1, 2], [0, 1]])
    b = Matrix.from_rows(F3, [[1, 0, 2], [2, 1, 0], [0, 0, 1]])
    assert kron(a, b).rows == 6 and kron(a, b).cols == 6


def kron_entry_oracle(a, b, i, j):
    return a[i // b.rows, j // b.cols] * b[i % b.rows, j % b.cols]


def test_kron_mixed_product_with_expansion_oracle():
    rng = random.Random(13)
    for _ in range(10):
        a, b, c, d = (random_matrix(rng, F3, 2, 2) for _ in range(4))
        lhs = kron(a, b) @ kron(c, d)
        rhs = kron(a @ c, b @ d)
        assert lhs == rhs
        for i in range(4):
            for j in range(4):
                assert kron(a, b)[i, j] == kron_entry_oracle(a, b, i, j)


def test_direct_sum():
    assert direct_sum(Matrix.identity(F3, 1), Matrix.identity(F3, 2)) == Matrix.identity(F3, 3)
    rng = random.Random(17)
    a, b, c, d = (random_matrix(rng, F4, 2, 2) for _ in range(4))
    assert direct_sum(a, b) @ direct_sum(c, d) == direct_sum(a @ c, b @ d)


def test_inverse_shear_gf3():
    m = Matrix.from_rows(F3, [[1, 1], [0, 1]])
    assert inverse(m) == Matrix.from_rows(F3, [[1, -1], [0, 1]])


def test_inverse_singular_and_random():
    with pytest.raises(Singular):
        inverse(Matrix.from_rows(F2, [[1, 1], [1, 1]]))
    rng = random.Random(23)
    found = 0
    while found < 10:
        m = random_matrix(rng, F4, 3, 3)
        if rank(m) == 3:
            assert m @ inverse(m) == Matrix.identity(F4, 3)
            found += 1


def test_shape_and_context_errors():
    a = Matrix.identity(F3, 2)
    with pytest.raises(ShapeMismatch):
        a @ Matrix.identity(F3, 3)
    with pytest.raises(MixedContexts):
        a @ Matrix.identity(F2, 2)
    with pytest.raises(ShapeMismatch):
        a + Matrix.zeros(F3, 2, 3)
    with pytest.raises(ShapeMismatch):
        solve(Matrix.zeros(F3, 2, 2), Matrix.zeros(F3, 3, 1))


def test_matrix_serialization_round_trip():
    rng = random.Random(29)
    m = random_matrix(rng, F4, 2, 3)
    assert matrix_from_json(F4, matrix_to_json(m)) == m
    obj = matrix_to_json(m)
    assert obj["rows"] == 2 and obj["cols"] == 3
    assert all(len(entry) == 2 for row in obj["entries"] for entry in row)


def test_flatten_reshape_row_major():
    m = Matrix.from_rows(F3, [[1, 2], [0, 1]])
    assert m.flatten().transpose() == Matrix.from_rows(F3, [[1, 2, 0, 1]])
    assert m.flatten().reshape(2, 2) == m


# the seven fields of the benchmark ladder
BENCH_FIELDS = [(3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4)]


@st.composite
def linear_systems(draw):
    """(a, b, in_space): b in a's column space exactly when in_space.

    Out of the space, a = P [M; 0] and b = P e_last with P invertible
    (unit lower times unit upper triangular), so P^-1 b = e_last is not in
    the column space of [M; 0].
    """
    ctx = field_new(*draw(st.sampled_from(BENCH_FIELDS)))
    rows, cols, rhs = draw(st.integers(1, 8)), draw(st.integers(1, 8)), draw(st.integers(1, 2))

    def cells(r, c):
        entries = st.lists(st.integers(0, ctx.q - 1), min_size=r * c, max_size=r * c)
        return Matrix(ctx, r, c, draw(entries))

    in_space = draw(st.booleans())
    if in_space:
        a = cells(rows, cols)
        return a, a @ cells(cols, rhs), True
    lower, upper = cells(rows, rows), cells(rows, rows)
    lower = Matrix(ctx, rows, rows, [
        1 if i == j else lower.raw(i, j) if j < i else 0 for i in range(rows) for j in range(rows)
    ])
    upper = Matrix(ctx, rows, rows, [
        1 if i == j else upper.raw(i, j) if j > i else 0 for i in range(rows) for j in range(rows)
    ])
    p = lower @ upper
    a = p @ vstack([cells(rows - 1, cols), Matrix.zeros(ctx, 1, cols)])
    b = p @ Matrix.basis_column(ctx, rows, rows - 1)
    return a, b, False


@settings(max_examples=200, deadline=None)
@given(linear_systems())
def test_solve_certificate_equations(system):
    a, b, in_space = system
    res = solve(a, b)
    assert res.consistent == in_space
    kernel = kernel_basis(a)
    for k in kernel:
        assert (a @ k).is_zero
    assert len(kernel) == a.cols - rank(a)
    if res.consistent:
        assert a @ res.solution == b
        assert res.certificate is None
    else:
        y = res.certificate
        assert (y @ a).is_zero
        assert not (y @ b).is_zero
        assert res.solution is None


# -- the column-scan Gauss-Jordan elimination, as the oracle -----------------


def reference_eliminate(ctx, work, pivot_cols_range):
    """In-place reduced row echelon over the first `pivot_cols_range` columns.

    For each column in turn, the first row at or below the next pivot row
    that is nonzero there is swapped up, scaled to 1, and cleared from every
    other row.  Returns the pivot list as (row, col) pairs, in order.
    """
    nrows = len(work)
    pivots = []
    prow = 0
    for col in range(pivot_cols_range):
        found = -1
        for r in range(prow, nrows):
            if work[r][col]:
                found = r
                break
        if found < 0:
            continue
        if found != prow:
            work[prow], work[found] = work[found], work[prow]
        piv = work[prow]
        if piv[col] != 1:
            work[prow] = piv = ctx.scale_row(piv, ctx.inv_i(piv[col]))
        for r in range(nrows):
            f = work[r][col]
            if f and r != prow:
                work[r] = ctx.axpy(work[r], piv, f)
        pivots.append((prow, col))
        prow += 1
        if prow == nrows:
            break
    return pivots


def reference_rref(m):
    work = [m.row_list(i) for i in range(m.rows)]
    pivots = reference_eliminate(m.ctx, work, m.cols)
    flat = [x for row in work for x in row]
    return Matrix(m.ctx, m.rows, m.cols, flat), tuple(c for _, c in pivots), len(pivots)


def reference_kernel_basis(m):
    """One column per free column c: 1 at c, minus column c of the rref at
    the pivots."""
    ctx = m.ctx
    work = [m.row_list(i) for i in range(m.rows)]
    pivots = reference_eliminate(ctx, work, m.cols)
    pivot_cols = {c for _, c in pivots}
    basis = []
    for free in range(m.cols):
        if free not in pivot_cols:
            vec = [0] * m.cols
            vec[free] = 1
            for r, c in pivots:
                vec[c] = ctx.neg_i(work[r][free])
            basis.append(Matrix(ctx, m.cols, 1, vec))
    return basis


def reference_inverse(m):
    n = m.rows
    work = [m.row_list(i) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    pivots = reference_eliminate(m.ctx, work, n)
    if len(pivots) < n:
        raise Singular(f"matrix of rank {len(pivots)} < {n}")
    return Matrix(m.ctx, n, n, [x for row in work for x in row[n:]])


def reference_solve(a, b):
    """solve as two eliminations: the rref of [a | b] and, on inconsistency,
    the first vector y of kernel_basis(a.T) with y @ b != 0."""
    ctx = a.ctx
    work = [a.row_list(i) + b.row_list(i) for i in range(a.rows)]
    pivots = reference_eliminate(ctx, work, a.cols)
    if any(any(work[r][a.cols :]) for r in range(len(pivots), a.rows)):
        for y in reference_kernel_basis(a.transpose()):
            yt = y.transpose()
            if not (yt @ b).is_zero:
                return False, None, yt
        raise AssertionError("inconsistent system without a certificate")
    sol = [0] * (a.cols * b.cols)
    for r, c in pivots:
        sol[c * b.cols : (c + 1) * b.cols] = work[r][a.cols :]
    return True, Matrix(ctx, a.cols, b.cols, sol), None


# k = 1, the p = 2 table fields, an odd-p table field, and GF(17^2) by a
# custom modulus, whose q > 256 keeps the per-digit arithmetic
ORACLE_FIELDS = [(2, 1), (3, 1), (7, 1), (2, 2), (2, 4), (3, 2), (17, 2, (14, 0, 1))]


def assert_solves_like_reference(a, b):
    res = solve(a, b)
    assert (res.consistent, res.solution, res.certificate) == reference_solve(a, b)
    return res


@st.composite
def row_systems(draw):
    """[a | b] row by row: random rows, zero rows, and rows that combine the
    rows above them, whose b-part follows the same combination or not."""
    ctx = field_new(*draw(st.sampled_from(ORACLE_FIELDS)))
    rows, cols, rhs = draw(st.integers(1, 9)), draw(st.integers(1, 7)), draw(st.integers(1, 3))
    cell = st.integers(0, ctx.q - 1)
    a_rows, b_rows = [], []
    for i in range(rows):
        kind = draw(st.sampled_from(["random", "zero", "combination"] if i else ["random", "zero"]))
        if kind == "random":
            ar = draw(st.lists(cell, min_size=cols, max_size=cols))
            br = draw(st.lists(cell, min_size=rhs, max_size=rhs))
        else:
            ar, br = [0] * cols, [0] * rhs
            if kind == "combination":
                for j, c in enumerate(draw(st.lists(cell, min_size=i, max_size=i))):
                    ar = [ctx.add_i(x, ctx.mul_i(c, y)) for x, y in zip(ar, a_rows[j])]
                    br = [ctx.add_i(x, ctx.mul_i(c, y)) for x, y in zip(br, b_rows[j])]
            if draw(st.booleans()):
                br = [ctx.add_i(x, y) for x, y in zip(br, draw(st.lists(cell, min_size=rhs, max_size=rhs)))]
        a_rows.append(ar)
        b_rows.append(br)
    return (
        Matrix(ctx, rows, cols, [x for r in a_rows for x in r]),
        Matrix(ctx, rows, rhs, [x for r in b_rows for x in r]),
    )


@settings(max_examples=300, deadline=None)
@given(row_systems())
def test_solve_matches_the_two_elimination_reference(system):
    a, b = system
    res = assert_solves_like_reference(a, b)
    if res.consistent:
        assert a @ res.solution == b
    else:
        assert (res.certificate @ a).is_zero and not (res.certificate @ b).is_zero


@pytest.mark.parametrize("field", ORACLE_FIELDS)
def test_solve_certificate_rows(field):
    # plain integers, taken mod p: the same systems over every field
    ctx = field_new(*field)
    r1, r2, both = [1, 2, 0], [0, 1, 1], [1, 3, 1]
    # inconsistent only at the last row: y = e_2 - e_0 - e_1
    a = Matrix.from_rows(ctx, [r1, r2, both])
    b = Matrix.from_rows(ctx, [[1, 0], [1, 1], [3, 1]])
    res = assert_solves_like_reference(a, b)
    assert res.certificate == Matrix.from_rows(ctx, [[-1, -1, 1]])
    # the first dependent row (r1 + r2) holds on b, the next (r1) does not:
    # the certificate is e_3 - e_0, not a combination with row 2
    a = Matrix.from_rows(ctx, [r1, r2, both, r1, r2])
    b = Matrix.from_rows(ctx, [[1], [1], [2], [0], [1]])
    res = assert_solves_like_reference(a, b)
    assert res.certificate == Matrix.from_rows(ctx, [[-1, 0, 0, 1, 0]])
    # wide, tall and empty-a systems
    for a, b in [
        (Matrix.from_rows(ctx, [[1, 1, 0, 1]]), Matrix.from_rows(ctx, [[1, 0]])),
        (Matrix.zeros(ctx, 3, 2), Matrix.from_rows(ctx, [[0], [0], [1]])),
        (Matrix.zeros(ctx, 2, 0), Matrix.from_rows(ctx, [[0], [1]])),
    ]:
        assert_solves_like_reference(a, b)


def test_solve_reads_no_row_after_the_inconsistent_one(monkeypatch):
    a = Matrix.from_rows(F3, [[1, 0], [0, 1], [1, 1], [2, 0], [0, 2]])
    b = Matrix.column(F3, [1, 1, 0, 1, 1])
    read = []
    row_list = Matrix.row_list

    def counting(self, i):
        read.append(i)
        return row_list(self, i)

    monkeypatch.setattr(Matrix, "row_list", counting)
    res = solve(a, b)
    monkeypatch.undo()
    assert res.certificate == Matrix(F3, 1, 5, [2, 2, 1, 0, 0])
    assert max(read) == 2


# -- rref, kernel_basis, rank and inverse against the reference ----------------


def unit_triangular(ctx, n, cells, lower):
    return Matrix(ctx, n, n, [
        1 if i == j else cells[i * n + j] if (j < i if lower else j > i) else 0
        for i in range(n) for j in range(n)
    ])


@st.composite
def elimination_inputs(draw):
    """(kind, m): "random" is any shape (m < n and m > n) with some rows and
    columns zeroed, "square" is invertible or has a dependent last row, and
    "tall" is m > n of full column rank, P [U; 0] with P invertible and U
    unit upper triangular."""
    ctx = field_new(*draw(st.sampled_from(ORACLE_FIELDS)))
    # a small alphabet makes rank deficiency common
    alphabet = draw(st.sampled_from([2, ctx.q]))

    def cells(count):
        return draw(st.lists(st.integers(0, alphabet - 1), min_size=count, max_size=count))

    kind = draw(st.sampled_from(["random", "square", "tall"]))
    if kind == "random":
        rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
        data = cells(rows * cols)
        zero_rows = draw(st.sets(st.integers(0, max(rows - 1, 0))))
        zero_cols = draw(st.sets(st.integers(0, max(cols - 1, 0))))
        data = [
            0 if i in zero_rows or j in zero_cols else data[i * cols + j]
            for i in range(rows) for j in range(cols)
        ]
        return kind, Matrix(ctx, rows, cols, data)
    if kind == "square":
        n = draw(st.integers(1, 6))
        m = unit_triangular(ctx, n, cells(n * n), True) @ unit_triangular(
            ctx, n, cells(n * n), False
        )
        if draw(st.booleans()):
            # the last row a combination of the others
            coeffs = Matrix(ctx, 1, n - 1, cells(n - 1))
            top = m.submatrix(0, n - 1, 0, n)
            m = vstack([top, coeffs @ top]) if n > 1 else Matrix.zeros(ctx, 1, 1)
        return kind, m
    cols = draw(st.integers(1, 5))
    rows = draw(st.integers(cols + 1, 8))
    p = unit_triangular(ctx, rows, cells(rows * rows), True) @ unit_triangular(
        ctx, rows, cells(rows * rows), False
    )
    u = unit_triangular(ctx, cols, cells(cols * cols), False)
    return kind, p @ vstack([u, Matrix.zeros(ctx, rows - cols, cols)])


@settings(max_examples=400, deadline=None)
@given(elimination_inputs())
def test_elimination_matches_the_gauss_jordan_reference(case):
    kind, m = case
    reduced, pivots, r = reference_rref(m)
    assert rref(m) == (reduced, pivots, r)
    assert rank(m) == r
    kernel = kernel_basis(m)
    assert kernel == reference_kernel_basis(m)
    assert all((m @ v).is_zero for v in kernel)
    if kind == "tall":
        assert r == m.cols and kernel == []
    assert is_invertible(m) == (m.is_square and r == m.rows)
    if not m.is_square:
        with pytest.raises(ShapeMismatch):
            inverse(m)
    elif r == m.rows:
        inv = inverse(m)
        assert inv == reference_inverse(m)
        assert m @ inv == Matrix.identity(m.ctx, m.rows)
    else:
        with pytest.raises(Singular, match=f"rank {r} <"):
            inverse(m)
        with pytest.raises(Singular):
            reference_inverse(m)
