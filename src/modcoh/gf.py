"""Exact arithmetic in prime fields GF(p) and extension fields GF(p^k).

An element of GF(p^k) is a residue class of polynomials over GF(p) modulo a
fixed monic irreducible polynomial of degree k.  Elements are encoded as a
single integer in [0, p^k) whose little-endian base-p digits are the
coefficient vector, which keeps equality, hashing and table lookups cheap;
the coefficient view is available through :attr:`FieldElement.coeffs`.

Each kind of field is a :class:`FieldCtx` class, picked once by
:func:`field_new`: :class:`PrimeCtx` (k = 1), :class:`Char2Ctx` (p = 2,
k > 1: XOR and tables), :class:`OddTableCtx` (odd p, k > 1, q <=
_TABLE_LIMIT: tables) and :class:`FieldCtx` itself, the digit loops, for
larger odd q.  A kind supplies the element operations and the row kernels
that `linalg` runs, so no other module reads a table or branches on the kind.

Contexts are interned: :func:`field_new` returns the same object for the
same (p, k, modulus), so mixed-field operands are rejected with an identity
check on every binary operation.
"""

from __future__ import annotations

from itertools import chain, compress
from typing import Iterator, Optional, Sequence

from .errors import (
    DivisionByZero,
    MixedContexts,
    ModcohError,
    NoBuiltinModulus,
    NotPrime,
    ReducibleModulus,
)

# Lexicographically smallest monic irreducible polynomial per (p, k);
# little-endian coefficients including the leading 1.
BUILTIN_MODULI: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (3, 2): (1, 0, 1),
    (5, 2): (2, 0, 1),
    (7, 2): (1, 0, 1),
}

_MAX_EXT_DEGREE = 8
_TABLE_LIMIT = 256  # precompute operation tables for fields up to this size


# ---------------------------------------------------------------------------
# dense polynomial helpers over GF(p), little-endian coefficient lists;
# used for modulus validation and as arithmetic fallback for large fields
# ---------------------------------------------------------------------------


def _ptrim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _pmod(a: Sequence[int], m: Sequence[int], p: int) -> list[int]:
    # m is monic
    r = list(a)
    dm = len(m) - 1
    while len(r) - 1 >= dm and r:
        lead = r[-1]
        if lead:
            shift = len(r) - 1 - dm
            for i, mi in enumerate(m):
                r[shift + i] = (r[shift + i] - lead * mi) % p
        r.pop()
    return _ptrim(r)


def _pgcd(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    x, y = _ptrim(list(a)), _ptrim(list(b))
    while y:
        inv_lead = pow(y[-1], p - 2, p)
        ym = [(c * inv_lead) % p for c in y]
        x, y = y, _pmod(x, ym, p)
    return x


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _is_irreducible(modulus: tuple[int, ...], p: int) -> bool:
    """Rabin's irreducibility test for a monic polynomial over GF(p), in
    the digit-loop arithmetic of GF(p)[x] / (modulus)."""
    k = len(modulus) - 1
    if k == 1:
        return True
    ring = FieldCtx(p, k, modulus)
    x = ring.encode((0, 1))
    if ring.pow_i(x, p**k) != x:
        return False
    for r in _prime_factors(k):
        h = ring.sub_i(ring.pow_i(x, p ** (k // r)), x)
        if len(_pgcd(ring.decode(h), modulus, p)) > 1:
            return False
    return True


# ---------------------------------------------------------------------------
# field contexts, one class per kind of field
# ---------------------------------------------------------------------------

# row length from which matmul finds the nonzero entries of a row with
# itertools.compress instead of testing each one in the loop
_SCAN_MIN = 9

_CTX_CACHE: dict[tuple[int, int, tuple[int, ...]], "FieldCtx"] = {}


class FieldCtx:
    """Arithmetic context for GF(p^k); construct through :func:`field_new`.

    This class is the digit-loop kind, correct for every field: its element
    operations work on base-p digits and its row kernels call them cell by
    cell.  The other kinds override what they do faster.
    """

    __slots__ = ("p", "k", "modulus", "q")

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        self.p = p
        self.k = k
        self.modulus = modulus
        self.q = p**k

    # -- encoding ----------------------------------------------------------

    def decode(self, v: int) -> tuple[int, ...]:
        p = self.p
        out = []
        for _ in range(self.k):
            v, d = divmod(v, p)
            out.append(d)
        return tuple(out)

    def encode(self, digits: Sequence[int]) -> int:
        v = 0
        for d in reversed(digits):
            v = v * self.p + d
        return v

    def encode_cells(self, cells: list[list[int]], digits: list[int]) -> list[int]:
        """The values of canonical `cells`, whose concatenation is `digits`."""
        return list(map(self.encode, cells))

    # -- integer-encoded operations ----------------------------------------

    def add_i(self, a: int, b: int) -> int:
        p = self.p
        return self.encode([(x + y) % p for x, y in zip(self.decode(a), self.decode(b))])

    def neg_i(self, a: int) -> int:
        p = self.p
        return self.encode([-x % p for x in self.decode(a)])

    def sub_i(self, a: int, b: int) -> int:
        p = self.p
        return self.encode([(x - y) % p for x, y in zip(self.decode(a), self.decode(b))])

    def mul_i(self, a: int, b: int) -> int:
        prod = _pmul(self.decode(a), self.decode(b), self.p)
        return self.encode(_pmod(prod, self.modulus, self.p))

    def inv_i(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero(f"inverse of 0 in {self!r}")
        return self._inv(a)

    def _inv(self, a: int) -> int:
        return self.pow_i(a, self.q - 2)

    def pow_i(self, a: int, e: int) -> int:
        if e < 0:
            a, e = self.inv_i(a), -e
        r = 1
        while e:
            if e & 1:
                r = self.mul_i(r, a)
            a = self.mul_i(a, a)
            e >>= 1
        return r

    def frob_i(self, a: int) -> int:
        return self.pow_i(a, self.p)

    # -- row kernels -------------------------------------------------------

    def add_rows(self, a: list[int], b: list[int]) -> list[int]:
        return list(map(self.add_i, a, b))

    def sub_rows(self, a: list[int], b: list[int]) -> list[int]:
        return list(map(self.sub_i, a, b))

    def neg_row(self, a: list[int]) -> list[int]:
        return list(map(self.neg_i, a))

    def scale_row(self, row: list[int], c: int) -> list[int]:
        """c * row."""
        mul = self.mul_i
        return [mul(c, x) for x in row]

    def axpy(self, row: list[int], piv: list[int], f: int) -> list[int]:
        """row - f * piv."""
        mul, sub = self.mul_i, self.sub_i
        return [sub(x, mul(f, y)) for x, y in zip(row, piv)]

    def matmul(self, a: list[int], b: list[int], n: int, k: int, m: int) -> list[int]:
        """The n x m product of row-major a (n x k) and b (k x m).  Every kind
        skips zeros on both sides, as the operands are mostly sparse, and
        finds the nonzero entries of rows of _SCAN_MIN or more with compress."""
        out = [0] * (n * m)
        cols = range(k)
        scan = k >= _SCAN_MIN
        mul, add = self.mul_i, self.add_i
        for i in range(n):
            arow, orow = i * k, i * m
            for t in compress(cols, a[arow : arow + k]) if scan else cols:
                av = a[arow + t]
                if av:
                    brow = t * m
                    for j in range(m):
                        bv = b[brow + j]
                        if bv:
                            out[orow + j] = add(out[orow + j], mul(av, bv))
        return out

    # -- element constructors ----------------------------------------------

    def el(self, v: int) -> "FieldElement":
        return FieldElement(self, v)

    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def gen(self) -> "FieldElement":
        """The residue class of t; equals 1 in a prime field."""
        return FieldElement(self, self.p if self.k > 1 else 1)

    def from_int(self, i: int) -> "FieldElement":
        """Image of a rational integer (i times 1)."""
        return FieldElement(self, i % self.p)

    def from_coeffs(self, coeffs: Sequence[int]) -> "FieldElement":
        if len(coeffs) > self.k:
            raise ModcohError(f"coefficient vector longer than k={self.k}")
        digits = [c % self.p for c in coeffs] + [0] * (self.k - len(coeffs))
        return FieldElement(self, self.encode(digits))

    def elements(self) -> Iterator["FieldElement"]:
        for v in range(self.q):
            yield FieldElement(self, v)

    def __repr__(self) -> str:
        return f"GF({self.q})"


class PrimeCtx(FieldCtx):
    """GF(p), k = 1: integer arithmetic reduced mod p."""

    __slots__ = ()

    def decode(self, v: int) -> tuple[int, ...]:
        return (v,)

    def encode_cells(self, cells: list[list[int]], digits: list[int]) -> list[int]:
        return digits

    def add_i(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def neg_i(self, a: int) -> int:
        return (-a) % self.p

    def sub_i(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul_i(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def _inv(self, a: int) -> int:
        return pow(a, self.p - 2, self.p)

    def frob_i(self, a: int) -> int:
        return a

    def add_rows(self, a: list[int], b: list[int]) -> list[int]:
        p = self.p
        return [(x + y) % p for x, y in zip(a, b)]

    def sub_rows(self, a: list[int], b: list[int]) -> list[int]:
        p = self.p
        return [(x - y) % p for x, y in zip(a, b)]

    def neg_row(self, a: list[int]) -> list[int]:
        p = self.p
        return [-x % p for x in a]

    def scale_row(self, row: list[int], c: int) -> list[int]:
        p = self.p
        return [c * x % p for x in row]

    def axpy(self, row: list[int], piv: list[int], f: int) -> list[int]:
        p = self.p
        return [(x - f * y) % p for x, y in zip(row, piv)]

    def matmul(self, a: list[int], b: list[int], n: int, k: int, m: int) -> list[int]:
        # accumulate plain integer products, reduce once at the end
        out = [0] * (n * m)
        cols = range(k)
        scan = k >= _SCAN_MIN
        for i in range(n):
            arow, orow = i * k, i * m
            for t in compress(cols, a[arow : arow + k]) if scan else cols:
                av = a[arow + t]
                if av:
                    brow = t * m
                    for j in range(m):
                        bv = b[brow + j]
                        if bv:
                            out[orow + j] += av * bv
        p = self.p
        return [x % p for x in out]


class _TableCtx(FieldCtx):
    """k > 1 and q <= _TABLE_LIMIT: products, inverses and digits from tables."""

    __slots__ = ("_mul_t", "_inv_t", "_frob_t", "_digits_t", "_value_t")

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        super().__init__(p, k, modulus)
        q = self.q
        self._digits_t = [FieldCtx.decode(self, v) for v in range(q)]
        self._value_t = {d: v for v, d in enumerate(self._digits_t)}
        # the digit-loop products, each read off the digit table
        mul = self._mul_t = [[0] * q for _ in range(q)]
        for a in range(q):
            for b in range(a, q):
                mul[a][b] = mul[b][a] = FieldCtx.mul_i(self, a, b)
        self._inv_t = [0] + [mul[a].index(1) for a in range(1, q)]
        self._frob_t = [self.pow_i(a, p) for a in range(q)]

    def decode(self, v: int) -> tuple[int, ...]:
        return self._digits_t[v]

    def encode_cells(self, cells: list[list[int]], digits: list[int]) -> list[int]:
        return list(map(self._value_t.__getitem__, map(tuple, cells)))

    def mul_i(self, a: int, b: int) -> int:
        return self._mul_t[a][b]

    def _inv(self, a: int) -> int:
        return self._inv_t[a]

    def frob_i(self, a: int) -> int:
        return self._frob_t[a]

    def scale_row(self, row: list[int], c: int) -> list[int]:
        return list(map(self._mul_t[c].__getitem__, row))


class Char2Ctx(_TableCtx):
    """GF(2^k), k > 1: the digit vector is a bit vector, so addition and
    subtraction are XOR and negation is the identity."""

    __slots__ = ()

    def add_i(self, a: int, b: int) -> int:
        return a ^ b

    sub_i = add_i

    def neg_i(self, a: int) -> int:
        return a

    def add_rows(self, a: list[int], b: list[int]) -> list[int]:
        return [x ^ y for x, y in zip(a, b)]

    sub_rows = add_rows

    def neg_row(self, a: list[int]) -> list[int]:
        return list(a)

    def axpy(self, row: list[int], piv: list[int], f: int) -> list[int]:
        m = self._mul_t[f]
        return [x ^ m[y] for x, y in zip(row, piv)]

    def matmul(self, a: list[int], b: list[int], n: int, k: int, m: int) -> list[int]:
        mul_t = self._mul_t
        out = [0] * (n * m)
        cols = range(k)
        scan = k >= _SCAN_MIN
        for i in range(n):
            arow, orow = i * k, i * m
            for t in compress(cols, a[arow : arow + k]) if scan else cols:
                av = a[arow + t]
                if av:
                    mrow, brow = mul_t[av], t * m
                    for j in range(m):
                        bv = b[brow + j]
                        if bv:
                            out[orow + j] ^= mrow[bv]
        return out


class OddTableCtx(_TableCtx):
    """Odd p, k > 1 and q <= _TABLE_LIMIT: addition and negation tables too."""

    __slots__ = ("_add_t", "_neg_t")

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        super().__init__(p, k, modulus)
        q = self.q
        self._add_t = [[FieldCtx.add_i(self, a, b) for b in range(q)] for a in range(q)]
        self._neg_t = [FieldCtx.neg_i(self, a) for a in range(q)]

    def add_i(self, a: int, b: int) -> int:
        return self._add_t[a][b]

    def neg_i(self, a: int) -> int:
        return self._neg_t[a]

    def sub_i(self, a: int, b: int) -> int:
        return self._add_t[a][self._neg_t[b]]

    def add_rows(self, a: list[int], b: list[int]) -> list[int]:
        add_t = self._add_t
        return [add_t[x][y] for x, y in zip(a, b)]

    def sub_rows(self, a: list[int], b: list[int]) -> list[int]:
        add_t, neg_t = self._add_t, self._neg_t
        return [add_t[x][neg_t[y]] for x, y in zip(a, b)]

    def neg_row(self, a: list[int]) -> list[int]:
        return list(map(self._neg_t.__getitem__, a))

    def axpy(self, row: list[int], piv: list[int], f: int) -> list[int]:
        # x - f*y = x + (-f)*y
        add_t, m = self._add_t, self._mul_t[self._neg_t[f]]
        return [add_t[x][m[y]] for x, y in zip(row, piv)]

    def matmul(self, a: list[int], b: list[int], n: int, k: int, m: int) -> list[int]:
        mul_t, add_t = self._mul_t, self._add_t
        out = [0] * (n * m)
        cols = range(k)
        scan = k >= _SCAN_MIN
        for i in range(n):
            arow, orow = i * k, i * m
            for t in compress(cols, a[arow : arow + k]) if scan else cols:
                av = a[arow + t]
                if av:
                    mrow, brow = mul_t[av], t * m
                    for j in range(m):
                        bv = b[brow + j]
                        if bv:
                            out[orow + j] = add_t[out[orow + j]][mrow[bv]]
        return out


class FieldElement:
    """An element of a fixed :class:`FieldCtx`; immutable and canonical."""

    __slots__ = ("ctx", "val")

    def __init__(self, ctx: FieldCtx, val: int):
        self.ctx = ctx
        self.val = val

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.ctx.decode(self.val)

    @property
    def is_zero(self) -> bool:
        return self.val == 0

    def _check(self, other: "FieldElement") -> None:
        if not isinstance(other, FieldElement):
            raise TypeError(f"expected FieldElement, got {type(other).__name__}")
        if other.ctx is not self.ctx:
            raise MixedContexts(f"{self.ctx!r} vs {other.ctx!r}")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.ctx, self.ctx.add_i(self.val, other.val))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.ctx, self.ctx.sub_i(self.val, other.val))

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.ctx, self.ctx.mul_i(self.val, other.val))

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.ctx, self.ctx.mul_i(self.val, self.ctx.inv_i(other.val)))

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.ctx, self.ctx.neg_i(self.val))

    def __pow__(self, e: int) -> "FieldElement":
        return FieldElement(self.ctx, self.ctx.pow_i(self.val, e))

    def inv(self) -> "FieldElement":
        return FieldElement(self.ctx, self.ctx.inv_i(self.val))

    def frobenius(self) -> "FieldElement":
        return FieldElement(self.ctx, self.ctx.frob_i(self.val))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FieldElement)
            and other.ctx is self.ctx
            and other.val == self.val
        )

    def __hash__(self) -> int:
        return hash((id(self.ctx), self.val))

    def __bool__(self) -> bool:
        return self.val != 0

    def __repr__(self) -> str:
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                var = "t" if i == 1 else f"t^{i}"
                parts.append(var if c == 1 else f"{c}{var}")
        return "+".join(reversed(parts)) if parts else "0"


def field_new(p: int, k: int = 1, modulus: Optional[Sequence[int]] = None) -> FieldCtx:
    """Create (or fetch the interned) context for GF(p^k).

    The modulus is a little-endian coefficient list of a monic degree-k
    polynomial over GF(p).  If omitted it is looked up in the built-in
    table (k = 1 never needs one).
    """
    if not isinstance(p, int) or _prime_factors(p) != [p]:
        raise NotPrime(f"p = {p} is not prime")
    if not isinstance(k, int) or k < 1:
        raise ModcohError(f"extension degree k = {k} must be a positive integer")
    if k > _MAX_EXT_DEGREE:
        raise ModcohError(f"extension degree k = {k} > {_MAX_EXT_DEGREE} is unsupported")
    if modulus is None:
        if k == 1:
            mod = (0, 1)
        elif (p, k) in BUILTIN_MODULI:
            mod = BUILTIN_MODULI[(p, k)]
        else:
            raise NoBuiltinModulus(f"no built-in modulus for (p, k) = ({p}, {k})")
    else:
        mod = tuple(c % p for c in modulus)
        if len(mod) != k + 1 or mod[-1] != 1:
            raise ModcohError(f"modulus must be monic of degree k = {k}")
    # only irreducible moduli are interned, so a known one is not re-tested
    key = (p, k, mod)
    ctx = _CTX_CACHE.get(key)
    if ctx is None:
        if modulus is not None and not _is_irreducible(mod, p):
            raise ReducibleModulus(f"modulus {list(mod)} is reducible over GF({p})")
        if k == 1:
            kind = PrimeCtx
        elif p**k > _TABLE_LIMIT:
            kind = FieldCtx
        else:
            kind = Char2Ctx if p == 2 else OddTableCtx
        ctx = _CTX_CACHE[key] = kind(p, k, mod)
    return ctx


def frobenius(x: FieldElement) -> FieldElement:
    """The p-th power map; an automorphism fixing the prime field."""
    return x.frobenius()


# -- serialization (field spec and single elements) --------------------------


def field_to_json(ctx: FieldCtx) -> dict:
    return {"p": ctx.p, "k": ctx.k, "modulus": list(ctx.modulus)}


def field_from_json(obj: dict) -> FieldCtx:
    try:
        p, k, modulus = obj["p"], obj["k"], obj["modulus"]
    except (KeyError, TypeError) as exc:
        raise ModcohError(f"bad field spec: {obj!r}") from exc
    ctx = field_new(p, k, modulus)
    if list(ctx.modulus) != list(modulus):
        raise ModcohError("field spec modulus is not in canonical reduced form")
    return ctx


def element_to_json(x: FieldElement) -> list[int]:
    return list(x.coeffs)


def values_from_json(ctx: FieldCtx, cells: list) -> list[int]:
    """Strict parse of a list of element encodings into integer values.

    Each cell must be a list of exactly k coefficients, each an ``int``
    (``bool`` is rejected) in [0, p).  The checks are whole-list passes, so
    a matrix costs a few C-level scans plus one table lookup per cell; only
    odd-p fields beyond the tables encode cell by cell.
    """
    if not cells:
        return []
    if set(map(type, cells)) != {list} or set(map(len, cells)) != {ctx.k}:
        raise ModcohError(f"element encodings for {ctx!r} must be lists of {ctx.k} integers")
    flat = list(chain.from_iterable(cells))
    if set(map(type, flat)) != {int} or min(flat) < 0 or max(flat) >= ctx.p:
        raise ModcohError(f"non-canonical element encoding for {ctx!r}: "
                          f"coefficients must be integers in [0, {ctx.p})")
    return ctx.encode_cells(cells, flat)


def element_from_json(ctx: FieldCtx, coeffs: list[int]) -> FieldElement:
    """Strict parse: the coefficient vector must be canonical."""
    return FieldElement(ctx, values_from_json(ctx, [coeffs])[0])
