"""Exact arithmetic over GF(p) and GF(2^m) on canonical integers in [0, q),
with polynomial evaluation and interpolation on coefficient lists (lowest
degree first).

A prime p must lie below 3.3e24, where Miller-Rabin decides it exactly.
Binary fields use a fixed table of default irreducible polynomials so that
canonical integer encodings are reproducible across runs and implementations.
For m <= 16 one loop precomputes a log/exp table pair from the first
generator it finds (lists up to m = 12, compact `array('H')` above), making
multiplication two lookups; larger m (up to 32) falls back to
shift-and-reduce, chosen here in each operation, never by the caller.
`mul_row` computes a*x + y along a row of x and y in one comprehension
for every kind of field; `interpolate` sums the cached Lagrange basis rows
of a point set, one `mul_row` per point, and `interpolate_at` (through the
`lagrange_values` cache) and `interpolate_at_zero` take values at points.
`ints_below` is the one rule for field and wire values, which every
receiver and the sharing layer apply.
"""

from __future__ import annotations

import itertools
import operator
from array import array
from functools import lru_cache, reduce
from typing import Sequence

from .config import check_keys, read_int


class FieldError(ValueError):
    pass


# Default irreducible polynomial per extension degree, as an (m+1)-bit mask
# (bit i = coefficient of x^i).  Fixed so transcripts replay identically.
DEFAULT_BINARY_POLYS = {
    1: 0x3,
    2: 0x7,
    3: 0xB,
    4: 0x13,
    5: 0x25,
    6: 0x43,
    7: 0x83,
    8: 0x11B,
    9: 0x211,
    10: 0x409,
    11: 0x805,
    12: 0x1053,
    13: 0x201B,
    14: 0x4443,
    15: 0x8003,
    16: 0x1100B,
}

MAX_BINARY_M = 32
_TABLE_MAX_M = 16
_LIST_MAX_M = 12
LAGRANGE_CACHE_SIZE = 1024  # point sets whose Lagrange rows and values are kept

_spec_cache: dict = {}


def ints_below(v, limit: int, length: int) -> bool:
    """Whether v is a tuple of `length` >= 1 exact ints in [0, limit), never
    a bool or another int subclass; tested in C."""
    return (type(v) is tuple and len(v) == length
            and _JUST_INT.issuperset(map(type, v)) and 0 <= min(v) and max(v) < limit)


_JUST_INT = frozenset({int})


_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first thirteen primes as bases, which decides
    every n < _PRIME_LIMIT exactly (Sorenson and Webster, 2015)."""
    if n < 2 or any(n % b == 0 for b in _PRIME_BASES):
        return n in _PRIME_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    return all(pow(b, d, n) == 1 or any(pow(b, d << r, n) == n - 1 for r in range(s))
               for b in _PRIME_BASES)


def _gf2_poly_mod(a: int, b: int) -> int:
    """Remainder of carryless polynomial division a mod b over GF(2)."""
    db = b.bit_length() - 1
    while a.bit_length() - 1 >= db:
        a ^= b << (a.bit_length() - 1 - db)
    return a


def _gf2_irreducible(poly: int, m: int) -> bool:
    """Trial division by every GF(2) polynomial of degree 1..m//2."""
    if poly < 0 or poly.bit_length() - 1 != m:
        return False
    for deg in range(1, m // 2 + 1):
        for low in range(1 << deg):
            candidate = (1 << deg) | low
            if _gf2_poly_mod(poly, candidate) == 0:
                return False
    return True


@lru_cache(maxsize=MAX_BINARY_M)  # searched once per degree FieldSpec.binary takes
def smallest_irreducible_poly(m: int) -> int:
    """Lexicographically smallest irreducible polynomial of degree m."""
    # one exists for every degree, so the search always ends
    return next(poly for poly in range((1 << m) | 1, 2 << m, 2) if _gf2_irreducible(poly, m))


class FieldSpec:
    """A prime field GF(p) or binary extension field GF(2^m).

    Instances are immutable and interned: constructing the same field twice
    returns the same object, so multiplication tables are built only once.
    """

    __slots__ = ("kind", "p", "m", "poly", "q", "char", "_exp", "_log")

    def __new__(cls, kind: str, p: int = 0, m: int = 0, poly: int = 0):
        key = (kind, p, m, poly)
        cached = _spec_cache.get(key)
        if cached is not None:
            return cached
        self = super().__new__(cls)
        self.kind = kind
        if kind == "prime":
            if not (p < _PRIME_LIMIT and _is_prime(p)):
                raise FieldError(f"p={p} is not a prime below {_PRIME_LIMIT}")
            self.p = p
            self.m = 0
            self.poly = 0
            self.q = p
            self.char = p
            self._exp = None
            self._log = None
        elif kind == "binary":
            if not 1 <= m <= MAX_BINARY_M:
                raise FieldError(f"extension degree m={m} out of range 1..{MAX_BINARY_M}")
            if not _gf2_irreducible(poly, m):
                raise FieldError(f"poly {poly:#x} is not irreducible of degree {m}")
            self.p = 2
            self.m = m
            self.poly = poly
            self.q = 1 << m
            self.char = 2
            if m <= _TABLE_MAX_M:
                self._build_tables()
            else:
                self._exp = None
                self._log = None
        else:
            raise FieldError(f"unknown field kind {kind!r}")
        _spec_cache[key] = self
        return self

    def __reduce__(self):
        # Through the interning constructors: a pickled or deep-copied field
        # comes back as this very object.
        if self.kind == "prime":
            return FieldSpec.prime, (self.p,)
        return FieldSpec.binary, (self.m, self.poly)

    @classmethod
    def prime(cls, p: int) -> "FieldSpec":
        return cls("prime", p=p)

    @classmethod
    def binary(cls, m: int, poly: int | None = None) -> "FieldSpec":
        if not 1 <= m <= MAX_BINARY_M:
            raise FieldError(f"extension degree m={m} out of range 1..{MAX_BINARY_M}")
        if poly is None:
            poly = DEFAULT_BINARY_POLYS.get(m)
            if poly is None:
                poly = smallest_irreducible_poly(m)
        return cls("binary", m=m, poly=poly)

    def _build_tables(self) -> None:
        """Log/exp tables of the first generator among x (multiplied by a
        shift), 3, 4, ...: one whose powers return to 1 before q - 1 steps
        overwrites log[1] (x, of order 51 under 0x11B, does)."""
        size, poly = self.q, self.poly
        # Lists up to GF(2^_LIST_MAX_M), where they measured faster; above, array('H'):
        # 384 KB at GF(2^16), against about 5.5 MB of int objects in lists.
        zeros = ((lambda k: [0] * k) if self.m <= _LIST_MAX_M
                 else (lambda k: array("H", bytes(2 * k))))
        for g in itertools.count(2):
            exp, log = zeros(size - 1), zeros(size)
            x = 1
            for i in range(size - 1):
                exp[i] = x
                log[x] = i
                if g == 2:
                    x <<= 1
                    if x & size:
                        x ^= poly
                else:
                    x = self._clmul_reduce(x, g)
            if log[1] == 0:
                self._exp = exp + exp
                self._log = log
                return

    def _clmul_reduce(self, a: int, b: int) -> int:
        acc = 0
        while b:
            if b & 1:
                acc ^= a
            b >>= 1
            a <<= 1
            if a & self.q:
                a ^= self.poly
        return acc

    # Integer-level operations on canonical values in [0, q).

    def add_int(self, a: int, b: int) -> int:
        if self.kind == "prime":
            return (a + b) % self.p
        return a ^ b

    def sub_int(self, a: int, b: int) -> int:
        if self.kind == "prime":
            return (a - b) % self.p
        return a ^ b

    def mul_int(self, a: int, b: int) -> int:
        if self.kind == "prime":
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[self._log[a] + self._log[b]]
        return self._clmul_reduce(a, b)

    def mul_row(self, a: int, xs: Sequence[int], ys: Sequence[int]) -> list[int]:
        """[a * x + y for x, y in zip(xs, ys)] as a new list: a row of
        multiply-adds in one comprehension for every kind of field."""
        if a == 0:
            return list(ys)
        if self.kind == "prime":
            p = self.p
            return [(a * x + y) % p for x, y in zip(xs, ys)]
        exp = self._exp
        if exp is None:
            clmul = self._clmul_reduce
            return [clmul(a, x) ^ y for x, y in zip(xs, ys)]
        log = self._log
        la = log[a]
        return [(exp[la + log[x]] if x else 0) ^ y for x, y in zip(xs, ys)]

    def inv_int(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.kind == "prime":
            return pow(a, self.p - 2, self.p)
        if self._exp is not None:
            return self._exp[(self.q - 1) - self._log[a]]
        return self.pow_int(a, self.q - 2)

    def pow_int(self, a: int, e: int) -> int:
        result = 1
        base = a
        while e:
            if e & 1:
                result = self.mul_int(result, base)
            base = self.mul_int(base, base)
            e >>= 1
        return result

    @property
    def elem_bits(self) -> int:
        """Bits of the canonical little-endian wire encoding of one element."""
        if self.kind == "binary":
            return self.m
        return (self.p - 1).bit_length()

    def to_json(self) -> dict:
        if self.kind == "prime":
            return {"kind": "prime", "p": self.p}
        return {"kind": "binary", "m": self.m, "poly": hex(self.poly)}

    @classmethod
    def from_json(cls, obj: dict) -> "FieldSpec":
        kind = obj.get("kind") if isinstance(obj, dict) else None
        if kind == "prime":
            check_keys(obj, "prime field", "kind", "p")
            return cls.prime(read_int(obj["p"], "p"))
        if kind == "binary":
            check_keys(obj, "binary field", "kind", "m", "poly")
            poly = obj.get("poly")
            poly = None if poly is None else read_int(poly, "poly")
            return cls.binary(read_int(obj["m"], "m"), poly)
        raise FieldError(f"bad field spec {obj!r}")

    def __repr__(self) -> str:
        if self.kind == "prime":
            return f"GF({self.p})"
        return f"GF(2^{self.m}; {self.poly:#x})"


def poly_eval(spec: FieldSpec, coeffs: Sequence[int], x: int) -> int:
    """Horner evaluation of a coefficient list at x."""
    # The prime and table branches stay: one generic Horner loop measured
    # 1.25-1.94 us a call against 0.57-0.90 us, and `rsmt verify` makes 100k+.
    acc = 0
    if spec.kind == "prime":
        p = spec.p
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        return acc
    exp, log = spec._exp, spec._log
    if exp is None or x == 0:
        mul, add = spec.mul_int, spec.add_int
        for c in reversed(coeffs):
            acc = add(mul(acc, x), c)
        return acc
    lx = log[x]
    for c in reversed(coeffs):
        acc = (exp[log[acc] + lx] if acc else 0) ^ c
    return acc


def vanishing_poly(spec: FieldSpec, xs: Sequence[int]) -> list[int]:
    """prod (x - a) over the points a in xs: one `mul_row` per point."""
    poly = [1]
    for a in xs:
        poly = spec.mul_row(spec.sub_int(0, a), [*poly, 0], [0, *poly])
    return poly


@lru_cache(maxsize=LAGRANGE_CACHE_SIZE)
def _lagrange_rows(spec: FieldSpec, xs: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Row i holds the coefficients of the Lagrange basis polynomial of
    xs[i], 1 there and 0 at every other point: the vanishing polynomial of
    xs divided by (x - xs[i]), scaled by the inverse of its value at xs[i]."""
    k = len(xs)
    if k == 0 or len(set(xs)) != k:
        raise FieldError("interpolation needs one or more distinct x values")
    v = vanishing_poly(spec, xs)
    rows = []
    for a in xs:
        quot = v[1:]  # v / (x - a) by synthetic division, from the top
        for j in range(k - 2, -1, -1):
            quot[j] = spec.add_int(quot[j], spec.mul_int(a, quot[j + 1]))
        rows.append(tuple(spec.mul_row(spec.inv_int(poly_eval(spec, quot, a)), quot, [0] * k)))
    return tuple(rows)


@lru_cache(maxsize=LAGRANGE_CACHE_SIZE)
def lagrange_values(spec: FieldSpec, xs: tuple[int, ...], at: tuple[int, ...]):
    """Row i holds the Lagrange basis row of xs[i] evaluated at each point of `at`."""
    return tuple(tuple(poly_eval(spec, row, a) for a in at) for row in _lagrange_rows(spec, xs))


def interpolate(spec: FieldSpec, xs: Sequence[int], ys: Sequence[int]) -> list[int]:
    """Coefficients of the unique polynomial of degree < len(xs) through the
    points (xs[i], ys[i]): the sum of ys[i] times the Lagrange basis row of
    xs[i], one `mul_row` per point.  The rows of the last 1,024 point sets
    are cached, so a repeated one costs no inversion."""
    if len(ys) != len(xs):
        raise FieldError("need one y value per x value")
    coeffs = [0] * len(xs)
    for y, row in zip(ys, _lagrange_rows(spec, tuple(xs))):
        coeffs = spec.mul_row(y, row, coeffs)
    return coeffs


def interpolate_at(spec: FieldSpec, xs: Sequence[int], ys: Sequence[int],
                   at: Sequence[int]) -> list[int]:
    """The values at each point of `at` of `interpolate(spec, xs, ys)`: one
    `mul_row` per point, by ys[i], of the cached `lagrange_values` row of xs[i]."""
    if len(ys) != len(xs):
        raise FieldError("need one y value per x value")
    out = [0] * len(at)
    for y, row in zip(ys, lagrange_values(spec, tuple(xs), tuple(at))):
        out = spec.mul_row(y, row, out)
    return out


def interpolate_at_zero(spec: FieldSpec, xs: Sequence[int], ys: Sequence[int]) -> int:
    """The constant term of `interpolate(spec, xs, ys)`: the ys times the
    constant entries of the cached Lagrange basis rows, summed."""
    if len(ys) != len(xs):
        raise FieldError("need one y value per x value")
    terms = map(spec.mul_int, ys, [row[0] for row in _lagrange_rows(spec, tuple(xs))])
    return sum(terms) % spec.p if spec.kind == "prime" else reduce(operator.xor, terms, 0)
