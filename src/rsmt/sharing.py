"""Threshold secret sharing and tamper-evident encodings.

Secrets, shares and codewords are canonical field integers.  Three layers:
  * Shamir sharing with plain and error-correcting reconstruction (Gao's
    extended-Euclid Reed-Solomon decoder; an exhaustive subset search is
    kept as the oracle tests compare it against),
  * an algebraic manipulation detection code (s, x, x^(d+2) + sum s_i x^i),
  * their composition: coordinate-wise Shamir sharing of the AMD codeword,
    which rejects any tampered reconstruction except with probability (d+1)/q.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field as dc_field
from typing import Mapping, Sequence

from .field import FieldSpec, interpolate, poly_eval


class SharingError(ValueError):
    pass


class ThresholdError(SharingError):
    pass


class _Fail:
    """Singleton failure symbol returned by detecting reconstructors."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "FAIL"

    def __bool__(self):
        return False


FAIL = _Fail()


@dataclass(frozen=True)
class SharingSpec:
    """(t, n) Shamir sharing over a field with fixed nonzero evaluation points."""

    t: int
    n: int
    field: FieldSpec
    eval_points: tuple[int, ...] = dc_field(default=())

    def __post_init__(self):
        if not 0 < self.t < self.n:
            raise SharingError(f"need 0 < t < n, got t={self.t}, n={self.n}")
        if self.n > self.field.q - 1:
            raise SharingError(f"n={self.n} exceeds nonzero elements of {self.field}")
        pts = self.eval_points or tuple(range(1, self.n + 1))
        if len(pts) != self.n:
            raise SharingError("need one evaluation point per share")
        if len(set(pts)) != self.n or any(not 0 < p < self.field.q for p in pts):
            raise SharingError("evaluation points must be distinct and nonzero")
        object.__setattr__(self, "eval_points", tuple(pts))

    def point(self, index: int) -> int:
        """Evaluation point of channel `index` (1-based)."""
        return self.eval_points[index - 1]


def _check_values(f: FieldSpec, values, what: str) -> None:
    for v in values:
        if not (isinstance(v, int) and 0 <= v < f.q):
            raise SharingError(f"{what} {v!r} is not an element of {f}")


def shamir_share(
    spec: SharingSpec,
    secret: int,
    rng: random.Random,
    coeffs: Sequence[int] | None = None,
) -> dict[int, int]:
    """Shares f(a_i) of f(x) = secret + r_1 x + ... + r_t x^t.

    `coeffs` forces the t random coefficients; used by tests and enumeration.
    """
    f = spec.field
    _check_values(f, (secret,), "secret")
    if coeffs is None:
        coeffs = [rng.randrange(f.q) for _ in range(spec.t)]
    elif len(coeffs) != spec.t:
        raise SharingError(f"expected {spec.t} forced coefficients")
    else:
        _check_values(f, coeffs, "coefficient")
    poly = [secret, *coeffs]
    return {i: poly_eval(f, poly, spec.point(i)) for i in range(1, spec.n + 1)}


def shamir_reconstruct(spec: SharingSpec, subset: Mapping[int, int]) -> int:
    if len(subset) < spec.t + 1:
        raise ThresholdError(f"need at least {spec.t + 1} shares, got {len(subset)}")
    f = spec.field
    _check_values(f, subset.values(), "share")
    return interpolate(f, [spec.point(i) for i in subset], list(subset.values()))[0]


def rs_reconstruct(spec: SharingSpec, shares: Mapping[int, int], max_errors: int):
    """Error-correcting reconstruction tolerating up to `max_errors` bad shares.

    Returns the unique secret whose degree-<=t sharing agrees with at least
    n - max_errors of the given shares, or FAIL if none exists.  Gao's
    decoder: interpolate all n shares to g1, run the extended Euclidean
    algorithm on (prod (x - a_i), g1) until the remainder g has degree
    < (n + t + 1)/2, with g = u*prod + v*g1; the codeword polynomial is g/v.
    """
    e = max_errors
    n = spec.n
    k = spec.t + 1
    if len(shares) != n:
        raise SharingError("error-correcting reconstruction needs all n shares")
    if n < k + 2 * e:
        raise SharingError(f"n={n} too small for t={spec.t}, e={e}")
    f = spec.field
    _check_values(f, shares.values(), "share")
    xs = [spec.point(i) for i in sorted(shares)]
    ys = [shares[i] for i in sorted(shares)]

    r0 = [1]  # prod (x - a_i), built one root at a time
    for x in xs:
        r0 = _poly_sub(f, [0, *r0], [f.mul_int(x, c) for c in r0])
    r1 = _trim(interpolate(f, xs, ys))
    v0, v1 = [], [1]
    while 2 * (len(r1) - 1) >= n + k:
        quot, rem = _poly_divmod(f, r0, r1)
        r0, r1 = r1, rem
        v0, v1 = v1, _poly_sub(f, v0, _poly_mul(f, quot, v1))
    poly, rem = _poly_divmod(f, r1, v1)
    if rem or len(poly) > k:
        return FAIL
    if _agreement(f, xs, ys, poly) >= n - e:
        return poly[0] if poly else 0
    return FAIL


def rs_reconstruct_bruteforce(spec: SharingSpec, shares: Mapping[int, int], max_errors: int):
    """Independent oracle: try every (t+1)-subset and look for a polynomial
    consistent with at least n - max_errors shares.  Any two such polynomials
    agree on >= t+1 points and are therefore equal, so the answer is unique."""
    f = spec.field
    indices = sorted(shares)
    xs = [spec.point(i) for i in indices]
    ys = [shares[i] for i in indices]
    for subset in itertools.combinations(range(spec.n), spec.t + 1):
        poly = interpolate(f, [xs[i] for i in subset], [ys[i] for i in subset])
        if _agreement(f, xs, ys, poly) >= spec.n - max_errors:
            return poly[0]
    return FAIL


def _agreement(f: FieldSpec, xs, ys, poly) -> int:
    return sum(1 for x, y in zip(xs, ys) if poly_eval(f, poly, x) == y)


# Polynomials for the decoder: coefficient lists, lowest degree first, with
# no trailing zeros (the zero polynomial is []).


def _trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_sub(f: FieldSpec, a, b) -> list[int]:
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = f.sub_int(out[i], c)
    return _trim(out)


def _poly_mul(f: FieldSpec, a, b) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            out[i + j] = f.add_int(out[i + j], f.mul_int(c, d))
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
        if coef:
            for j in range(dd + 1):
                rem[k + j] = f.sub_int(rem[k + j], f.mul_int(coef, den[j]))
    return _trim(quot), _trim(rem[:dd])


# --- AMD code ---------------------------------------------------------------


@dataclass(frozen=True)
class AmdSpec:
    """Message length d over a field; tag is x^(d+2) + sum_i s_i x^i."""

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
    def delta(self) -> float:
        """Undetected-manipulation probability bound (d+1)/q."""
        return (self.d + 1) / self.field.q


@dataclass(frozen=True)
class AmdCodeword:
    s: tuple[int, ...]
    x: int
    tag: int


def _amd_tag(spec: AmdSpec, s: Sequence[int], x: int) -> int:
    f = spec.field
    tag = f.pow_int(x, spec.d + 2)
    xp = x
    for si in s:
        tag = f.add_int(tag, f.mul_int(si, xp))
        xp = f.mul_int(xp, x)
    return tag


def amd_encode(
    spec: AmdSpec,
    s: Sequence[int],
    rng: random.Random,
    x: int | None = None,
) -> AmdCodeword:
    if len(s) != spec.d:
        raise SharingError(f"message must have {spec.d} elements")
    f = spec.field
    _check_values(f, s, "message element")
    if x is None:
        x = rng.randrange(f.q)
    else:
        _check_values(f, (x,), "AMD randomness")
    return AmdCodeword(tuple(s), x, _amd_tag(spec, s, x))


def amd_decode(spec: AmdSpec, c: AmdCodeword):
    _check_values(spec.field, (*c.s, c.x, c.tag), "codeword element")
    if _amd_tag(spec, c.s, c.x) == c.tag:
        return c.s
    return FAIL


# --- Robust sharing: Shamir of the AMD codeword -----------------------------


@dataclass(frozen=True)
class RobustSharingSpec:
    amd: AmdSpec
    inner: SharingSpec

    def __post_init__(self):
        if self.amd.field is not self.inner.field:
            raise SharingError("AMD code and inner sharing must share one field")

    @property
    def delta(self) -> float:
        return self.amd.delta

    @property
    def share_len(self) -> int:
        return self.amd.d + 2


def robust_share(
    spec: RobustSharingSpec,
    secret: Sequence[int],
    rng: random.Random,
    coeff_matrix: Sequence[Sequence[int]] | None = None,
    x: int | None = None,
) -> dict[int, tuple[int, ...]]:
    """AMD-encode, then Shamir-share each of the d+2 codeword coordinates
    with an independent polynomial.  Share i is a (d+2)-vector."""
    cw = amd_encode(spec.amd, secret, rng, x=x)
    coords = [*cw.s, cw.x, cw.tag]
    per_coord = []
    for k, coord in enumerate(coords):
        forced = coeff_matrix[k] if coeff_matrix is not None else None
        per_coord.append(shamir_share(spec.inner, coord, rng, coeffs=forced))
    return {
        i: tuple(per_coord[k][i] for k in range(len(coords)))
        for i in range(1, spec.inner.n + 1)
    }


def robust_reconstruct(spec: RobustSharingSpec, subset: Mapping[int, Sequence[int]]):
    if len(subset) < spec.inner.t + 1:
        raise ThresholdError(f"need at least {spec.inner.t + 1} shares")
    width = spec.share_len
    coords = []
    for k in range(width):
        coords.append(
            shamir_reconstruct(spec.inner, {i: vec[k] for i, vec in subset.items()})
        )
    cw = AmdCodeword(tuple(coords[: spec.amd.d]), coords[-2], coords[-1])
    return amd_decode(spec.amd, cw)
