"""Strongly universal hash family h_{a,b}(x) = low_l_bits(a*x + b) over GF(2^m).

A member of the family is its key (a, b), the pair that travels on the wire.
The affine map (a, b) -> (a*x1 + b, a*x2 + b) is a bijection for x1 != x2, so
truncating both outputs to l bits leaves every tag pair with exactly
2^(2m-2l) preimages: the family is exactly 2^(-2l)-pairwise independent,
comfortably inside the 2^(1-2l) budget the protocol bounds assume.
`tag_rows` is the family's one evaluator: it gives a one-round protocol's
masked n x n tag matrix, or `rsmt verify`'s tags of every key, in one call.
On fields with log/exp tables (m <= 16) each entry is one lookup in the
family's tag table and two xors; the table, low_l of the field's exp table
followed by a zero block that "log 0" indexes into, is built at the first
call for each (field, l), never when a family is made.
"""

from __future__ import annotations

import itertools
import random
import sys
from array import array
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
        if not 1 <= self.range_bits <= self.domain_bits:
            raise ValueError(
                f"need 1 <= range_bits <= domain_bits, "
                f"got l={self.range_bits}, m={self.domain_bits}"
            )
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
        # One `_tag_table` lookup per entry, with z standing for log 0, not a
        # branch per entry and per key on a zero input or key: at n=16,
        # GF(2^16), l=16 the matrix measured 38.5-39.0 us against 44.8-46.5
        # us, and at n=7, GF(2^8), l=6 9.3-9.6 us against 9.7-12.0 us
        # (timeit min of three runs, 2-vCPU Xeon, Python 3.11.7).
        tab, z = _tag_table(f, self.range_bits), 2 * (f.q - 1)
        lxs = [log[x] if x else z for x in xs]
        return [[tab[la + lx] ^ b ^ r for lx, r in zip(lxs, rs)]
                for la, b, rs in zip([log[a] if a else z for a, _ in keys],
                                     [b & lm for _, b in keys], masks)]


@lru_cache(maxsize=32)  # a run tags with a few (field, l) pairs
def _tag_table(f: FieldSpec, ell: int):
    """low_l(exp[k]) for k < z = 2(q - 1), then z + 1 zeros.  With z as the
    log of 0, entry log a + log x is low_l(a * x) for every a and x, because
    a sum with a z term lands in the zero block.  Built like the field's
    tables: a list up to GF(2^12); above, a zeroed array of the exp table's
    type whose byte planes are filled with the masked ones of the exp table,
    in C and with no list of 2(q - 1) ints."""
    exp, lm, z = f._exp, (1 << ell) - 1, 2 * (f.q - 1)
    if type(exp) is list:
        return [v & lm for v in exp] + [0] * (z + 1)
    size = exp.itemsize
    tab = array(exp.typecode, [0]) * (2 * z + 1)
    planes, raw = memoryview(tab).cast("B"), memoryview(exp).cast("B")
    for k, byte_mask in enumerate(lm.to_bytes(size, sys.byteorder)):
        mask = bytes(v & byte_mask for v in range(256))
        planes[k:size * z:size] = raw[k::size].tobytes().translate(mask)
    return tab
