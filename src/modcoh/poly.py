"""Multivariate polynomials over a finite field, and monomial bases.

The basis of a homogeneous component follows a prescribed order: the pure
powers x_i^d come first; when d equals the characteristic the next one or
two slots are pinned (x1*x2 for d = 2, else x1^(d-1)*x2 and x1^(d-2)*x2^2);
the remaining monomials follow in descending lexicographic order of their
exponent vectors (x1 heaviest).  Linear substitution x_j -> sum_i m_ij x_i
is the multiplicative extension of a matrix acting on the variables.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import comb
from typing import Sequence

from .errors import BadDegree, MixedContexts, ModcohError, ShapeMismatch
from .gf import FieldCtx, FieldElement
from .linalg import Matrix


class Monomial(tuple):
    """Exponent vector; index i holds the power of x_{i+1}."""

    __slots__ = ()

    @property
    def degree(self) -> int:
        return sum(self)

    def __repr__(self) -> str:
        parts = []
        for i, e in enumerate(self):
            if e == 1:
                parts.append(f"x{i + 1}")
            elif e > 1:
                parts.append(f"x{i + 1}^{e}")
        return "*".join(parts) if parts else "1"


class Polynomial:
    """Polynomial in n variables; terms map monomials to nonzero coefficients."""

    __slots__ = ("ctx", "n", "terms")

    def __init__(self, ctx: FieldCtx, n: int, terms: dict[Monomial, int]):
        self.ctx = ctx
        self.n = n
        self.terms = terms  # int-encoded nonzero coefficients only

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, ctx: FieldCtx, n: int) -> "Polynomial":
        return cls(ctx, n, {})

    @classmethod
    def constant(cls, ctx: FieldCtx, n: int, c: FieldElement) -> "Polynomial":
        if c.ctx is not ctx:
            raise MixedContexts("constant from a different field")
        return cls(ctx, n, {} if c.is_zero else {Monomial((0,) * n): c.val})

    @classmethod
    def variable(cls, ctx: FieldCtx, n: int, i: int) -> "Polynomial":
        exps = [0] * n
        exps[i] = 1
        return cls(ctx, n, {Monomial(exps): 1})

    @classmethod
    def from_monomial(cls, ctx: FieldCtx, mono: Monomial, c: FieldElement) -> "Polynomial":
        if c.ctx is not ctx:
            raise MixedContexts("coefficient from a different field")
        return cls(ctx, len(mono), {} if c.is_zero else {mono: c.val})

    # -- structure ------------------------------------------------------------

    def coefficient(self, mono: Monomial) -> FieldElement:
        return FieldElement(self.ctx, self.terms.get(mono, 0))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list[tuple[Monomial, FieldElement]]:
        """Canonical order: degree descending, then descending lex."""
        return [
            (m, FieldElement(self.ctx, v))
            for m, v in sorted(self.terms.items(), key=lambda t: (t[0].degree, t[0]), reverse=True)
        ]

    def _check(self, other: "Polynomial") -> None:
        if not isinstance(other, Polynomial):
            raise TypeError(f"expected Polynomial, got {type(other).__name__}")
        if other.ctx is not self.ctx or other.n != self.n:
            raise MixedContexts("polynomials from different rings")

    # -- ring operations --------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        add = self.ctx.add_i
        out = dict(self.terms)
        for m, v in other.terms.items():
            s = add(out.get(m, 0), v)
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Polynomial(self.ctx, self.n, out)

    def __neg__(self) -> "Polynomial":
        neg = self.ctx.neg_i
        return Polynomial(self.ctx, self.n, {m: neg(v) for m, v in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        add, mul = self.ctx.add_i, self.ctx.mul_i
        out: dict[Monomial, int] = {}
        for m1, v1 in self.terms.items():
            for m2, v2 in other.terms.items():
                m = Monomial(e1 + e2 for e1, e2 in zip(m1, m2))
                s = add(out.get(m, 0), mul(v1, v2))
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return Polynomial(self.ctx, self.n, out)

    def __pow__(self, e: int) -> "Polynomial":
        if e < 0:
            raise ModcohError("negative polynomial power")
        result = Polynomial.constant(self.ctx, self.n, self.ctx.one())
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def scale(self, c: FieldElement) -> "Polynomial":
        if c.ctx is not self.ctx:
            raise MixedContexts("scalar from a different field")
        if c.is_zero:
            return Polynomial.zero(self.ctx, self.n)
        mul = self.ctx.mul_i
        return Polynomial(self.ctx, self.n, {m: mul(c.val, v) for m, v in self.terms.items()})

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Polynomial)
            and other.ctx is self.ctx
            and other.n == self.n
            and other.terms == self.terms
        )

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if self.is_zero:
            return "0"
        return " + ".join(
            f"({c!r})*{m!r}" if m.degree else f"({c!r})" for m, c in self.sorted_terms()
        )

    def to_json(self) -> list[dict]:
        return [
            {"exponents": list(m), "coeff": list(c.coeffs)} for m, c in self.sorted_terms()
        ]


def monomial_basis(n: int, d: int, p: int) -> list[Monomial]:
    """Ordered basis of the degree-d homogeneous component in n variables."""
    if n < 2 or d < 1:
        raise BadDegree(f"need n >= 2 and d >= 1, got n = {n}, d = {d}")
    prefix = []
    for i in range(n):
        exps = [0] * n
        exps[i] = d
        prefix.append(Monomial(exps))
    if d == p == 2:
        prefix.append(Monomial((1, 1) + (0,) * (n - 2)))
    elif d == p and p >= 3:
        prefix.append(Monomial((p - 1, 1) + (0,) * (n - 2)))
        prefix.append(Monomial((p - 2, 2) + (0,) * (n - 2)))
    seen = set(prefix)
    rest = [
        m
        for m in _all_monomials(n, d)
        if m not in seen
    ]
    rest.sort(reverse=True)
    basis = prefix + rest
    assert len(basis) == comb(n + d - 1, d)
    return basis


def _all_monomials(n: int, d: int) -> list[Monomial]:
    out = []
    for picks in combinations_with_replacement(range(n), d):
        exps = [0] * n
        for i in picks:
            exps[i] += 1
        out.append(Monomial(exps))
    return out


def substitute_linear(f: Polynomial, m: Matrix) -> Polynomial:
    """Replace each x_j by sum_i m[i,j] x_i and expand."""
    if m.ctx is not f.ctx:
        raise MixedContexts("matrix over a different field")
    if m.rows != f.n or m.cols != f.n:
        raise ShapeMismatch(f"substitution needs an {f.n}x{f.n} matrix, got {m.rows}x{m.cols}")
    ctx, n = f.ctx, f.n
    images = []
    for j in range(n):
        col: dict[Monomial, int] = {}
        for i in range(n):
            v = m.raw(i, j)
            if v:
                exps = [0] * n
                exps[i] = 1
                col[Monomial(exps)] = v
        images.append(Polynomial(ctx, n, col))
    out = Polynomial.zero(ctx, n)
    for mono, coeff in f.terms.items():
        term = Polynomial.constant(ctx, n, FieldElement(ctx, coeff))
        for j, e in enumerate(mono):
            if e:
                term = term * images[j] ** e
        out = out + term
    return out


def det3_identity(a: Sequence[Polynomial], b: Sequence[Polynomial]) -> Polynomial:
    """u23*a1 - u13*a2 + u12*a3 with u_ij = a_i b_j - a_j b_i; always zero."""
    if len(a) != 3 or len(b) != 3:
        raise ModcohError("det3_identity needs two triples")
    for f in list(a) + list(b):
        a[0]._check(f)
    u23 = a[1] * b[2] - a[2] * b[1]
    u13 = a[0] * b[2] - a[2] * b[0]
    u12 = a[0] * b[1] - a[1] * b[0]
    return u23 * a[0] - u13 * a[1] + u12 * a[2]
