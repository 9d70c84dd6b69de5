"""Threshold secret sharing and tamper-evident encodings.

Secrets, shares and codewords are canonical field integers, and share i of
an n-share sharing sits at evaluation point i.  Three layers:
  * Shamir sharing with plain and error-correcting reconstruction (a
    candidate codeword through t+1 shares, then Gao's extended-Euclid
    Reed-Solomon decoder if it fails; polynomial steps run on `mul_row`),
  * an algebraic manipulation detection code whose codeword is the flat
    tuple (s_1, ..., s_d, x, x^(d+2) + sum s_i x^i),
  * their composition: coordinate-wise Shamir sharing of the AMD codeword,
    which rejects any tampered reconstruction except with probability (d+1)/q.
All randomness is drawn with `rng.randrange(q)`: first the AMD x, then each
sharing polynomial's t coefficients in coordinate order.  A secret's n
shares are a row, one pass per coefficient over the cached powers i^j of the
points.  A value is checked once, at the public entry point that takes it
(`shamir_share`, `amd_encode`, a protocol's `check_message`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

from .field import (FieldSpec, interpolate, interpolate_at, interpolate_at_zero, ints_below,
                    poly_eval, vanishing_poly)


class SharingError(ValueError):
    pass


class ThresholdError(SharingError):
    pass


class Marker:
    """A symbol outside every value domain, one object per name: falsy,
    printed as its name, and the same object after pickle or copy."""

    _made: dict[str, Marker] = {}

    def __new__(cls, name: str):
        if name not in cls._made:
            marker = cls._made[name] = super().__new__(cls)
            marker.name = name
        return cls._made[name]

    def __reduce__(self):
        return Marker, (self.name,)

    def __repr__(self):
        return self.name

    def __bool__(self):
        return False


FAIL = Marker("FAIL")  # returned by detecting reconstructors


@dataclass(frozen=True)
class SharingSpec:
    """(t, n) Shamir sharing over a field; share i sits at point i."""

    t: int
    n: int
    field: FieldSpec

    def __post_init__(self):
        if not 0 < self.t < self.n:
            raise SharingError(f"need 0 < t < n, got t={self.t}, n={self.n}")
        if self.n > self.field.q - 1:
            raise SharingError(f"n={self.n} exceeds nonzero elements of {self.field}")

    @cached_property
    def vanishing(self) -> tuple[int, ...]:
        """prod (x - i) over the points i = 1..n, lowest degree first."""
        return tuple(vanishing_poly(self.field, range(1, self.n + 1)))

    @cached_property
    def powers(self) -> tuple[tuple[int, ...], ...]:
        """Row j-1 holds i^j for the points i = 1..n, j = 1..t; as logs on
        table fields."""
        f, log = self.field, self.field._log
        rows = ([f.pow_int(i, j) for i in range(1, self.n + 1)] for j in range(1, self.t + 1))
        return tuple(tuple(row if log is None else map(log.__getitem__, row)) for row in rows)


def _check_values(f: FieldSpec, values, what: str) -> None:
    if not ints_below(tuple(values), f.q, len(values)):
        bad = next(v for v in values if not ints_below((v,), f.q, 1))
        raise SharingError(f"{what} {bad!r} is not an element of {f}")


def _check_points(spec: SharingSpec, indices) -> None:
    if not ints_below(tuple(indices), spec.n + 1, len(indices)) or 0 in indices:
        raise SharingError(f"share indices must lie in 1..{spec.n}")


def shamir_share(spec: SharingSpec, secret: int, rng: random.Random) -> dict[int, int]:
    """Shares f(i) of f(x) = secret + r_1 x + ... + r_t x^t, with r_1..r_t
    drawn in that order."""
    _check_values(spec.field, (secret,), "secret")
    return dict(zip(range(1, spec.n + 1), _share_rows(spec, (secret,), rng)[0]))


def _share_rows(spec: SharingSpec, secrets, rng: random.Random) -> list[list[int]]:
    """Each checked secret's n shares as a row, its r_1..r_t drawn in that
    order: one pass over the row per coefficient, adding r_j * i^j."""
    # Not through `mul_row`: a call per drawn coefficient measured `rsmt
    # verify` at 2.18-2.34 s against 2.07-2.12 s with this loop, and a call
    # per polynomial 2.53-2.57 s (2-vCPU Xeon, Python 3.11.7).
    f, q = spec.field, spec.field.q
    prime, exp, log = f.kind == "prime", f._exp, f._log
    rows = []
    for secret in secrets:
        row = [secret] * spec.n
        for powers in spec.powers:
            r = rng.randrange(q)
            if prime:
                row = [(a + r * x) % q for a, x in zip(row, powers)]
            elif exp is None:
                row = [a ^ f.mul_int(r, x) for a, x in zip(row, powers)]
            elif r:
                lr = log[r]
                row = [a ^ exp[lr + x] for a, x in zip(row, powers)]
        rows.append(row)
    return rows


def shamir_reconstruct(spec: SharingSpec, subset: Mapping[int, int]) -> int:
    if len(subset) < spec.t + 1:
        raise ThresholdError(f"need at least {spec.t + 1} shares, got {len(subset)}")
    f = spec.field
    _check_points(spec, subset)
    _check_values(f, subset.values(), "share")
    return interpolate_at_zero(f, list(subset), list(subset.values()))


def rs_reconstruct(spec: SharingSpec, shares: Mapping[int, int], max_errors: int):
    """Error-correcting reconstruction tolerating up to `max_errors` bad shares.

    Returns the unique secret whose degree-<=t sharing agrees with at least
    n - max_errors of the given shares, or FAIL if none exists.  First the
    candidate through the first t+1 shares in the mapping's order, returned
    when n - e shares agree with it: two such polynomials of degree <= t
    agree on n - 2e >= t+1 points, so they are equal, and the order picks
    only whether Gao's decoder runs, never the result.  Gao: interpolate all
    n shares to g1, run the extended Euclidean algorithm on (prod (x - i),
    g1) until the remainder g has degree < (n + t + 1)/2, with g = u*prod +
    v*g1; the codeword polynomial is g/v.
    """
    e = max_errors
    if type(e) is not int or e < 0:
        raise SharingError(f"max_errors must be an int >= 0, got {e!r}")
    n = spec.n
    k = spec.t + 1
    xs = range(1, n + 1)
    if len(shares) != n or not all(i in shares for i in xs):
        raise SharingError("error-correcting reconstruction needs all n shares")
    if n < k + 2 * e:
        raise SharingError(f"n={n} too small for t={spec.t}, e={e}")
    f = spec.field
    ys = [shares[i] for i in xs]
    _check_values(f, ys, "share")
    order = [*map(int, shares)]  # the keys equal 1..n; as ints, for the cache
    # the candidate at 0, then at the other n - t - 1 points
    at = interpolate_at(f, order[:k], [shares[i] for i in order[:k]], (0, *order[k:]))
    if sum(a != shares[i] for a, i in zip(at[1:], order[k:])) <= e:
        return at[0]
    r1 = _trim(interpolate(f, xs, ys))
    r0 = spec.vanishing
    v0, v1 = [], [1]
    while 2 * (len(r1) - 1) >= n + k:
        quot, rem = _poly_divmod(f, r0, r1)
        r0, r1 = r1, rem
        v0, v1 = v1, _poly_sub_mul(f, v0, quot, v1)
    poly, rem = _poly_divmod(f, r1, v1)
    if rem or len(poly) > k:
        return FAIL
    if sum(poly_eval(f, poly, x) == y for x, y in zip(xs, ys)) >= n - e:
        return poly[0] if poly else 0
    return FAIL


# Polynomials for the decoder: coefficient lists, lowest degree first, with
# no trailing zeros (the zero polynomial is []).


def _trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_sub_mul(f: FieldSpec, a, b, c) -> list[int]:
    """a - b * c: one `mul_row` by -b[i] per coefficient of b."""
    out = [*a, *[0] * (len(b) + len(c) - 1 - len(a))]
    for i, coef in enumerate(b):
        out[i:i + len(c)] = f.mul_row(f.sub_int(0, coef), c, out[i:i + len(c)])
    return _trim(out)


def _poly_divmod(f: FieldSpec, num, den) -> tuple[list[int], list[int]]:
    """Quotient and remainder of num by a nonzero den."""
    rem = list(num)
    dd = len(den) - 1
    if len(rem) <= dd:
        return [], rem
    quot = [0] * (len(rem) - dd)
    lead_inv = f.inv_int(den[-1])
    for k in range(len(quot) - 1, -1, -1):
        coef = f.mul_int(rem[k + dd], lead_inv)
        quot[k] = coef
        rem[k:k + dd + 1] = f.mul_row(f.sub_int(0, coef), den, rem[k:k + dd + 1])
    return _trim(quot), _trim(rem[:dd])


# --- AMD code ---------------------------------------------------------------


@dataclass(frozen=True)
class AmdSpec:
    """Message length d over a field; a codeword is the flat tuple
    (s_1, ..., s_d, x, tag) with tag = x^(d+2) + sum_i s_i x^i."""

    field: FieldSpec
    d: int

    def __post_init__(self):
        if self.d < 1:
            raise SharingError("d must be >= 1")
        if (self.d + 2) % self.field.char == 0:
            raise SharingError(
                f"d+2={self.d + 2} divisible by field characteristic {self.field.char}"
            )

    @property
    def delta(self) -> Fraction:
        """Undetected-manipulation probability bound (d+1)/q, exactly."""
        return Fraction(self.d + 1, self.field.q)


def amd_encode(spec: AmdSpec, s: Sequence[int], rng: random.Random) -> tuple[int, ...]:
    """The codeword (s_1, ..., s_d, x, tag) for a uniform x."""
    if len(s) != spec.d:
        raise SharingError(f"message must have {spec.d} elements")
    _check_values(spec.field, s, "message element")
    x = rng.randrange(spec.field.q)
    return (*s, x, poly_eval(spec.field, (0, *s, 0, 1), x))


def amd_decode(spec: AmdSpec, c: Sequence[int]):
    """The message (s_1, ..., s_d) if the codeword's tag checks, else FAIL."""
    if len(c) != spec.d + 2:
        raise SharingError(f"codeword must have {spec.d + 2} elements")
    _check_values(spec.field, c, "codeword element")
    *s, x, tag = c
    return tuple(s) if poly_eval(spec.field, (0, *s, 0, 1), x) == tag else FAIL


# --- Robust sharing: Shamir of the AMD codeword -----------------------------


@dataclass(frozen=True)
class RobustSharingSpec:
    amd: AmdSpec
    inner: SharingSpec

    def __post_init__(self):
        if self.amd.field is not self.inner.field:
            raise SharingError("AMD code and inner sharing must share one field")

    @property
    def delta(self) -> Fraction:
        return self.amd.delta

    @property
    def share_len(self) -> int:
        return self.amd.d + 2


def robust_share(
    spec: RobustSharingSpec, secret: Sequence[int], rng: random.Random
) -> dict[int, tuple[int, ...]]:
    """AMD-encode, then Shamir-share each of the d+2 codeword coordinates
    with an independent polynomial.  Share i is a (d+2)-vector."""
    rows = _share_rows(spec.inner, amd_encode(spec.amd, secret, rng), rng)
    return dict(zip(range(1, spec.inner.n + 1), zip(*rows)))


def robust_reconstruct(spec: RobustSharingSpec, subset: Mapping[int, Sequence[int]]):
    """Shamir-reconstruct each coordinate (ThresholdError below t+1), then AMD-decode."""
    if any(len(vec) != spec.share_len for vec in subset.values()):
        raise SharingError(f"share vectors must have length {spec.share_len}")
    codeword = tuple(
        shamir_reconstruct(spec.inner, {i: vec[k] for i, vec in subset.items()})
        for k in range(spec.share_len)
    )
    return amd_decode(spec.amd, codeword)
