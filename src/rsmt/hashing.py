"""Strongly universal hash family h_{a,b}(x) = low_l_bits(a*x + b) over GF(2^m).

A member of the family is its key (a, b), the pair that travels on the wire.
The affine map (a, b) -> (a*x1 + b, a*x2 + b) is a bijection for x1 != x2, so
truncating both outputs to l bits leaves every tag pair with exactly
2^(2m-2l) preimages: the family is exactly 2^(-2l)-pairwise independent,
comfortably inside the 2^(1-2l) budget the protocol bounds assume.
`tag_rows` is the family's one evaluator: it gives a one-round protocol's
masked n x n tag matrix, or `rsmt verify`'s tags of every key, in one call
(SJST, hashing one input per key, inlines the product in rounds 2 and 3).
On fields with log/exp tables (m <= 16) each entry is one lookup in the tag
table and two xors, with no branch: the field's log of 0 indexes the zero
block of its exp table.  The tag table is the exp table itself at l = m,
otherwise the exp table masked to l bits, built at the first call for each
(field, l), never when a family is made.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from typing import Iterable, Sequence

from .field import FieldSpec


@dataclass(frozen=True)
class HashFamilySpec:
    """Family of maps from m-bit inputs to l-bit tags."""

    domain_bits: int
    range_bits: int
    field: FieldSpec = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if {type(self.domain_bits), type(self.range_bits)} != {int}:
            raise ValueError(f"need int sizes, got l={self.range_bits!r}, m={self.domain_bits!r}")
        if not 1 <= self.range_bits <= self.domain_bits:
            raise ValueError(f"need 1 <= range_bits <= domain_bits, "
                             f"got l={self.range_bits}, m={self.domain_bits}")
        object.__setattr__(self, "field", FieldSpec.binary(self.domain_bits))

    def sample(self, rng: random.Random) -> tuple[int, int]:
        """A uniform key (a, b)."""
        return rng.getrandbits(self.domain_bits), rng.getrandbits(self.domain_bits)

    def tag_rows(self, keys: Sequence[tuple[int, int]], xs: Sequence[int],
                 masks: Iterable[Sequence[int]]) -> list[list[int]]:
        """Row i is [h_{keys[i]}(x) ^ r for x, r in zip(xs, mask row i)]: the
        keys and inputs are range-checked once, and on table fields the
        inputs' logs are taken once, then one pass per key."""
        f, lm = self.field, (1 << self.range_bits) - 1
        coeffs = list(itertools.chain.from_iterable(keys))
        if coeffs and not (0 <= min(coeffs) and max(coeffs) < f.q):
            raise ValueError("hash coefficients outside the field")
        if xs and not (0 <= min(xs) and max(xs) < f.q):
            raise ValueError(f"input does not fit in {self.domain_bits} bits")
        log = f._log
        if log is None:
            mul = f.mul_int
            return [[(mul(a, x) ^ b) & lm ^ r for x, r in zip(xs, rs)]
                    for (a, b), rs in zip(keys, masks)]
        # One lookup per entry, not a branch per entry and per key on a zero
        # input or key: at n=16, GF(2^16), l=16 the matrix measured 38.5-39.0 us
        # against 44.8-46.5 us, and at n=7, GF(2^8), l=6 9.3-9.6 us against
        # 9.7-12.0 us (timeit min of three runs, 2-vCPU Xeon, Python 3.11.7).
        tab = _tag_table(f, self.range_bits)
        lxs = [log[x] for x in xs]
        return [[tab[la + lx] ^ b ^ r for lx, r in zip(lxs, rs)]
                for la, b, rs in zip([log[a] for a, _ in keys], [b & lm for _, b in keys], masks)]


@lru_cache(maxsize=32)  # a run tags with a few (field, l) pairs
def _tag_table(f: FieldSpec, ell: int):
    """The field's exp table masked to l bits, so entry log a + log x is
    low_l(a * x) for every a and x: at l = m the exp table itself, else a
    copy of its type filled with no list of ints."""
    exp = f._exp
    if ell == f.m:
        return exp
    tab = exp[:0]
    tab.extend(map(((1 << ell) - 1).__and__, exp))
    return tab
