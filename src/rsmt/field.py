"""Exact arithmetic over GF(p) and GF(2^m) on canonical integers in [0, q),
with polynomial evaluation and interpolation on coefficient lists (lowest
degree first).

Binary fields use a fixed table of default irreducible polynomials so that
canonical integer encodings are reproducible across runs and implementations.
For m <= 16 a log/exp table pair is precomputed, making multiplication a
couple of array lookups; larger m (up to 32) falls back to shift-and-reduce.
"""

from __future__ import annotations

from typing import Sequence


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

_MAX_BINARY_M = 32
_TABLE_MAX_M = 16

_spec_cache: dict = {}


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


def _gf2_poly_mod(a: int, b: int) -> int:
    """Remainder of carryless polynomial division a mod b over GF(2)."""
    db = b.bit_length() - 1
    while a.bit_length() - 1 >= db:
        a ^= b << (a.bit_length() - 1 - db)
    return a


def _gf2_irreducible(poly: int, m: int) -> bool:
    """Trial division by every GF(2) polynomial of degree 1..m//2."""
    if poly.bit_length() - 1 != m:
        return False
    for deg in range(1, m // 2 + 1):
        for low in range(1 << deg):
            candidate = (1 << deg) | low
            if _gf2_poly_mod(poly, candidate) == 0:
                return False
    return True


def smallest_irreducible_poly(m: int) -> int:
    """Lexicographically smallest irreducible polynomial of degree m."""
    for low in range(1, 1 << m, 2):
        candidate = (1 << m) | low
        if _gf2_irreducible(candidate, m):
            return candidate
    raise FieldError(f"no irreducible polynomial of degree {m} found")


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
            if not _is_prime(p):
                raise FieldError(f"p={p} is not prime")
            self.p = p
            self.m = 0
            self.poly = 0
            self.q = p
            self.char = p
            self._exp = None
            self._log = None
        elif kind == "binary":
            if not 1 <= m <= _MAX_BINARY_M:
                raise FieldError(f"extension degree m={m} out of range 1..{_MAX_BINARY_M}")
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

    @classmethod
    def prime(cls, p: int) -> "FieldSpec":
        return cls("prime", p=p)

    @classmethod
    def binary(cls, m: int, poly: int | None = None) -> "FieldSpec":
        if not 1 <= m <= _MAX_BINARY_M:
            raise FieldError(f"extension degree m={m} out of range 1..{_MAX_BINARY_M}")
        if poly is None:
            poly = DEFAULT_BINARY_POLYS.get(m)
            if poly is None:
                poly = smallest_irreducible_poly(m)
        return cls("binary", m=m, poly=poly)

    def _build_tables(self) -> None:
        size = self.q
        exp = [0] * (2 * size)
        log = [0] * size
        x = 1
        primitive = True
        for i in range(size - 1):
            exp[i] = x
            log[x] = i
            x <<= 1
            if x & size:
                x ^= self.poly
            if x == 1 and i != size - 2:
                # x cycled back early: poly is irreducible but x is not
                # primitive (e.g. 0x11B, where x has order 51).
                primitive = False
                break
        if not primitive:
            exp, log = self._tables_from_generator()
        for i in range(size - 1, 2 * size - 2):
            exp[i] = exp[i - (size - 1)]
        self._exp = exp
        self._log = log

    def _tables_from_generator(self):
        size = self.q
        for g in range(2, size):
            exp = [0] * (2 * size)
            log = [0] * size
            x = 1
            ok = True
            for i in range(size - 1):
                exp[i] = x
                if x != 1 and log[x] != 0:
                    ok = False
                    break
                log[x] = i
                x = self._clmul_reduce(x, g)
            if ok and x == 1:
                return exp, log
        raise FieldError("no generator found")  # unreachable for a field

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

    @property
    def elem_bytes(self) -> int:
        return (self.elem_bits + 7) // 8

    def to_json(self) -> dict:
        if self.kind == "prime":
            return {"kind": "prime", "p": self.p}
        return {"kind": "binary", "m": self.m, "poly": hex(self.poly)}

    @classmethod
    def from_json(cls, obj: dict) -> "FieldSpec":
        kind = obj.get("kind")
        if kind == "prime":
            return cls.prime(int(obj["p"]))
        if kind == "binary":
            poly = obj.get("poly")
            if isinstance(poly, str):
                poly = int(poly, 0)
            return cls.binary(int(obj["m"]), poly)
        raise FieldError(f"bad field spec {obj!r}")

    def __repr__(self) -> str:
        if self.kind == "prime":
            return f"GF({self.p})"
        return f"GF(2^{self.m}; {self.poly:#x})"


def poly_eval(spec: FieldSpec, coeffs: Sequence[int], x: int) -> int:
    """Horner evaluation of a coefficient list at x."""
    acc = 0
    for c in reversed(coeffs):
        acc = spec.add_int(spec.mul_int(acc, x), c)
    return acc


def interpolate(spec: FieldSpec, xs: Sequence[int], ys: Sequence[int]) -> list[int]:
    """Coefficients of the unique polynomial of degree < len(xs) through the
    points (xs[i], ys[i]): Newton divided differences, then the Newton form
    expanded to monomials, O(k^2) field operations."""
    k = len(xs)
    if k == 0:
        raise FieldError("interpolation needs at least one point")
    if len(set(xs)) != k:
        raise FieldError("duplicate x values in interpolation")
    if len(ys) != k:
        raise FieldError("need one y value per x value")
    sub, mul, inv = spec.sub_int, spec.mul_int, spec.inv_int
    c = list(ys)
    for j in range(1, k):
        for i in range(k - 1, j - 1, -1):
            c[i] = mul(sub(c[i], c[i - 1]), inv(sub(xs[i], xs[i - j])))
    # Horner on the Newton form: p <- p * (x - xs[i]) + c[i], top down.
    coeffs = [0] * k
    coeffs[0] = c[k - 1]
    for i in range(k - 2, -1, -1):
        xi = xs[i]
        for d in range(k - 1 - i, 0, -1):
            coeffs[d] = sub(coeffs[d - 1], mul(coeffs[d], xi))
        coeffs[0] = sub(c[i], mul(coeffs[0], xi))
    return coeffs
