"""Exact arithmetic over GF(p) and GF(2^m) on canonical integers in [0, q),
with polynomial evaluation and interpolation on coefficient lists (lowest
degree first).

Binary fields use a fixed table of default irreducible polynomials so that
canonical integer encodings are reproducible across runs and implementations.
For m <= 16 a log/exp table pair is precomputed (lists up to m = 12, compact
`array('H')` above), making multiplication two lookups; larger m (up to 32)
falls back to shift-and-reduce, chosen here in each operation, never by the
caller.  `mul_row` computes a*x + y along a row of x and y, and
`interpolate` reuses the inverse differences of a point set it has seen.
`ints_below` is the one rule for field and wire values, which every
receiver and the sharing layer apply.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
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

_MAX_BINARY_M = 32
_TABLE_MAX_M = 16
_LIST_MAX_M = 12

_spec_cache: dict = {}


def ints_below(v, limit: int, length: int) -> bool:
    """Whether v is a tuple of `length` >= 1 exact ints in [0, limit), never
    a bool or another int subclass; tested in C."""
    return (type(v) is tuple and len(v) == length
            and _JUST_INT.issuperset(map(type, v)) and 0 <= min(v) and max(v) < limit)


_JUST_INT = frozenset({int})


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
        if not 1 <= m <= _MAX_BINARY_M:
            raise FieldError(f"extension degree m={m} out of range 1..{_MAX_BINARY_M}")
        if poly is None:
            poly = DEFAULT_BINARY_POLYS.get(m)
            if poly is None:
                poly = smallest_irreducible_poly(m)
        return cls("binary", m=m, poly=poly)

    def _build_tables(self) -> None:
        size = self.q
        # Lists up to GF(2^_LIST_MAX_M), where they measured faster; above, array('H'):
        # 384 KB at GF(2^16), against about 5.5 MB of int objects in lists.
        zeros = ((lambda k: [0] * k) if self.m <= _LIST_MAX_M
                 else (lambda k: array("H", bytes(2 * k))))
        exp, log = zeros(size - 1), zeros(size)
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
            exp, log = self._tables_from_generator(zeros)
        self._exp = exp + exp
        self._log = log

    def _tables_from_generator(self, zeros):
        size = self.q
        for g in range(2, size):
            exp, log = zeros(size - 1), zeros(size)
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

    def mul_row(self, a: int, xs: Sequence[int], ys: Sequence[int]) -> list[int]:
        """[a * x + y for x, y in zip(xs, ys)]: a row of multiply-adds,
        through the log/exp tables where there are some."""
        exp = self._exp
        if exp is None or a == 0:
            mul, add = self.mul_int, self.add_int
            return [add(mul(a, x), y) for x, y in zip(xs, ys)]
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


@lru_cache(maxsize=1024)
def _inverse_differences(spec: FieldSpec, xs: tuple[int, ...]) -> tuple[int, ...]:
    """1/(xs[i] - xs[i-j]) for j = 1..k-1 and i = k-1 down to j, the order
    in which the divided differences use them; as logs on table fields."""
    k = len(xs)
    if len(set(xs)) != k:
        raise FieldError("duplicate x values in interpolation")
    weights = [spec.inv_int(spec.sub_int(xs[i], xs[i - j]))
               for j in range(1, k) for i in range(k - 1, j - 1, -1)]
    return tuple(weights if spec._log is None else map(spec._log.__getitem__, weights))


def interpolate(spec: FieldSpec, xs: Sequence[int], ys: Sequence[int]) -> list[int]:
    """Coefficients of the unique polynomial of degree < len(xs) through the
    points (xs[i], ys[i]): Newton divided differences, then the Newton form
    expanded to monomials, O(k^2) field operations.  The inverse differences
    of a point set are cached, so a repeated one costs no inversion."""
    k = len(xs)
    if k == 0:
        raise FieldError("interpolation needs at least one point")
    weights = iter(_inverse_differences(spec, tuple(xs)))
    if len(ys) != k:
        raise FieldError("need one y value per x value")
    c = list(ys)
    coeffs = [0] * k
    exp, log = spec._exp, spec._log
    if exp is None:
        sub, mul = spec.sub_int, spec.mul_int
        for j in range(1, k):
            for i in range(k - 1, j - 1, -1):
                c[i] = mul(sub(c[i], c[i - 1]), next(weights))
        # Horner on the Newton form: p <- p * (x - xs[i]) + c[i], top down.
        coeffs[0] = c[k - 1]
        for i in range(k - 2, -1, -1):
            xi = xs[i]
            for d in range(k - 1 - i, 0, -1):
                coeffs[d] = sub(coeffs[d - 1], mul(coeffs[d], xi))
            coeffs[0] = sub(c[i], mul(coeffs[0], xi))
        return coeffs
    # The same two loops through the log/exp tables (subtraction is xor).
    for j in range(1, k):
        for i in range(k - 1, j - 1, -1):
            d = c[i] ^ c[i - 1]
            w = next(weights)
            c[i] = exp[log[d] + w] if d else 0
    coeffs[0] = c[k - 1]
    for i in range(k - 2, -1, -1):
        if xs[i] == 0:  # p * x: a shift
            coeffs[1:k - i] = coeffs[:k - 1 - i]
            coeffs[0] = c[i]
            continue
        lx = log[xs[i]]
        for d in range(k - 1 - i, -1, -1):
            v = coeffs[d]
            coeffs[d] = (coeffs[d - 1] if d else c[i]) ^ (exp[log[v] + lx] if v else 0)
    return coeffs
