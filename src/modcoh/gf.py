"""Exact arithmetic in prime fields GF(p) and extension fields GF(p^k).

An element of GF(p^k) is a residue class of polynomials over GF(p) modulo a
fixed monic irreducible polynomial of degree k.  Elements are encoded as a
single integer in [0, p^k) whose little-endian base-p digits are the
coefficient vector, which keeps equality, hashing and table lookups cheap;
the coefficient view is available through :attr:`FieldElement.coeffs`.

For k > 1 the per-element operations avoid digit loops wherever they can.
In characteristic 2 the digit vector is a bit vector, so addition and
subtraction are XOR and negation is the identity.  For q <= _TABLE_LIMIT
the context precomputes full multiplication and inverse tables and, for odd
p, addition and negation tables, plus a table of digit tuples that serves
:meth:`FieldCtx.decode`, :attr:`FieldElement.coeffs` and the JSON encoding,
and its inverse, a digits-to-value dict that serves the JSON decoding.
Larger odd-characteristic extensions fall back to the digit loops
(``_add_digits``, ``_neg_digits``, ``_decode_digits``), which also serve
the tests as the reference the tables are checked against.

Contexts are interned: :func:`field_new` returns the same object for the
same (p, k, modulus), so mixed-field operands are rejected with an identity
check on every binary operation.
"""

from __future__ import annotations

from itertools import chain
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


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


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


def _ppow_x(e: int, m: Sequence[int], p: int) -> list[int]:
    """x^e mod m over GF(p), binary exponentiation."""
    result = [1]
    base = _pmod([0, 1], m, p)
    while e:
        if e & 1:
            result = _pmod(_pmul(result, base, p), m, p)
        base = _pmod(_pmul(base, base, p), m, p)
        e >>= 1
    return result


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


def _is_irreducible(modulus: Sequence[int], p: int) -> bool:
    """Rabin's irreducibility test for a monic polynomial over GF(p)."""
    k = len(modulus) - 1
    if k == 1:
        return True
    x = _pmod([0, 1], modulus, p)
    if _ppow_x(p**k, modulus, p) != x:
        return False
    for r in _prime_factors(k):
        h = list(_ppow_x(p ** (k // r), modulus, p))
        # h := x^(p^(k/r)) - x
        while len(h) < 2:
            h.append(0)
        h[1] = (h[1] - 1) % p
        g = _pgcd(h, modulus, p)
        if len(g) > 1:
            return False
    return True


# ---------------------------------------------------------------------------
# field context
# ---------------------------------------------------------------------------

_CTX_CACHE: dict[tuple[int, int, tuple[int, ...]], "FieldCtx"] = {}


class FieldCtx:
    """Arithmetic context for GF(p^k); construct through :func:`field_new`."""

    __slots__ = (
        "p",
        "k",
        "modulus",
        "q",
        "_mul_t",
        "_inv_t",
        "_frob_t",
        "_add_t",
        "_neg_t",
        "_digits_t",
        "_value_t",
    )

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        self.p = p
        self.k = k
        self.modulus = modulus
        self.q = p**k
        self._mul_t: Optional[list[list[int]]] = None
        self._inv_t: Optional[list[int]] = None
        self._frob_t: Optional[list[int]] = None
        # addition and negation tables: odd p, k > 1 and q <= _TABLE_LIMIT only
        self._add_t: Optional[list[list[int]]] = None
        self._neg_t: Optional[list[int]] = None
        self._digits_t: Optional[list[tuple[int, ...]]] = None
        self._value_t: Optional[dict[tuple[int, ...], int]] = None
        if k > 1 and self.q <= _TABLE_LIMIT:
            self._build_tables()

    # -- encoding ----------------------------------------------------------

    def decode(self, v: int) -> tuple[int, ...]:
        if self.k == 1:
            return (v,)
        if self._digits_t is not None:
            return self._digits_t[v]
        return self._decode_digits(v)

    def _decode_digits(self, v: int) -> tuple[int, ...]:
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

    def _build_tables(self) -> None:
        q, p = self.q, self.p
        digits = [self._decode_digits(a) for a in range(q)]
        mul = [[0] * q for _ in range(q)]
        for a in range(q):
            da = digits[a]
            for b in range(a, q):
                prod = _pmod(_pmul(da, digits[b], p), self.modulus, p)
                v = self.encode(tuple(prod) + (0,) * (self.k - len(prod)))
                mul[a][b] = v
                mul[b][a] = v
        self._mul_t = mul
        inv = [0] * q
        for a in range(1, q):
            row = mul[a]
            for b in range(1, q):
                if row[b] == 1:
                    inv[a] = b
                    break
        self._inv_t = inv
        self._frob_t = [self.pow_i(a, p) for a in range(q)]
        if p != 2:
            self._add_t = [[self._add_digits(a, b) for b in range(q)] for a in range(q)]
            self._neg_t = [self._neg_digits(a) for a in range(q)]
        self._digits_t = digits
        self._value_t = {d: v for v, d in enumerate(digits)}

    # -- integer-encoded operations ----------------------------------------

    def add_i(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        if self._add_t is not None:
            return self._add_t[a][b]
        return self._add_digits(a, b)

    def neg_i(self, a: int) -> int:
        if self.k == 1:
            return (-a) % self.p
        if self.p == 2:
            return a
        if self._neg_t is not None:
            return self._neg_t[a]
        return self._neg_digits(a)

    def sub_i(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a - b) % self.p
        if self.p == 2:
            return a ^ b
        if self._add_t is not None:
            return self._add_t[a][self._neg_t[b]]
        return self._add_digits(a, self._neg_digits(b))

    def _add_digits(self, a: int, b: int) -> int:
        p = self.p
        v, mult = 0, 1
        for _ in range(self.k):
            v += ((a % p + b % p) % p) * mult
            a //= p
            b //= p
            mult *= p
        return v

    def _neg_digits(self, a: int) -> int:
        p = self.p
        v, mult = 0, 1
        for _ in range(self.k):
            v += ((-(a % p)) % p) * mult
            a //= p
            mult *= p
        return v

    def mul_i(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a * b) % self.p
        if self._mul_t is not None:
            return self._mul_t[a][b]
        prod = _pmod(_pmul(self.decode(a), self.decode(b), self.p), self.modulus, self.p)
        return self.encode(tuple(prod) + (0,) * (self.k - len(prod)))

    def inv_i(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero(f"inverse of 0 in {self!r}")
        if self.k == 1:
            return pow(a, self.p - 2, self.p)
        if self._inv_t is not None:
            return self._inv_t[a]
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
        if self.k == 1:
            return a
        if self._frob_t is not None:
            return self._frob_t[a]
        return self.pow_i(a, self.p)

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
        if self.ctx.k == 1:
            return str(self.val)
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
    if not isinstance(p, int) or not _is_prime(p):
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
        if not _is_irreducible(mod, p):
            raise ReducibleModulus(f"modulus {list(mod)} is reducible over GF({p})")
    key = (p, k, mod)
    ctx = _CTX_CACHE.get(key)
    if ctx is None:
        ctx = FieldCtx(p, k, mod)
        _CTX_CACHE[key] = ctx
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
    if ctx.k == 1:
        return flat
    if ctx._value_t is not None:
        return list(map(ctx._value_t.__getitem__, map(tuple, cells)))
    return list(map(ctx.encode, cells))


def element_from_json(ctx: FieldCtx, coeffs: list[int]) -> FieldElement:
    """Strict parse: the coefficient vector must be canonical."""
    return FieldElement(ctx, values_from_json(ctx, [coeffs])[0])
