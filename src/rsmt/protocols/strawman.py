"""Detection-free baseline protocol used to demonstrate why threshold
ceil(n/2) sharing alone cannot survive a rational adversary.

The sender Shamir-shares the message with threshold ceil(n/2) - 1 and sends
one share per channel.  The receiver interpolates every (t+1)-subset, keeps
the candidates with maximal agreement across all n shares, and outputs the
lexicographically first of them.  There is no tamper detection of any kind,
so an adversary that substitutes half the channels with a simulated sharing
of a random message makes the decoding ambiguous on purpose.
"""

from __future__ import annotations

import itertools
import math
import operator
import random

from ..config import check_keys, read_int
from ..field import LAGRANGE_CACHE_SIZE, FieldSpec, interpolate_at, ints_below
from ..sharing import SharingSpec, _share_rows
from .base import OneRoundProtocol, ProtocolError


class StrawmanProtocol(OneRoundProtocol):
    variant = "STRAWMAN"

    __slots__ = ("n", "field", "t", "sharing")

    def __init__(self, n: int, field: FieldSpec):
        t = (n + 1) // 2 - 1
        if t < 1:
            raise ProtocolError(f"n={n} leaves no sharing threshold")
        # each decode interpolates every (t+1)-subset: past the cache, every one
        # misses.  There are C(n, t+1) >= 2^n / (n+1) of them, over the cache from
        # n = 2 * its bit length on, so a larger n is refused without counting them.
        small = n < 2 * LAGRANGE_CACHE_SIZE.bit_length()
        subsets = math.comb(n, t + 1) if small else f"C({n}, {t + 1})"
        if not small or subsets > LAGRANGE_CACHE_SIZE:
            raise ProtocolError(f"n={n} makes a decode interpolate {subsets} subsets, over "
                                f"the {LAGRANGE_CACHE_SIZE} point sets the Lagrange cache holds")
        self.n = n
        self.field = field
        self.t = t
        self.sharing = SharingSpec(t=t, n=n, field=field)

    def encode(self, m, rng: random.Random) -> dict[int, int]:
        return strawman_send(self, m, rng)

    def decode(self, payloads, replaced):
        return strawman_receive(self, payloads, replaced), []

    def substitute(self, payload, rng: random.Random) -> int:
        return rng.randrange(self.field.q)

    def to_json(self) -> dict:
        return {"variant": "STRAWMAN", "n": self.n, "field": self.field.to_json()}

    @classmethod
    def from_json(cls, obj: dict) -> "StrawmanProtocol":
        check_keys(obj, "STRAWMAN", "variant", "n", "field")
        return cls(read_int(obj["n"], "n"), FieldSpec.from_json(obj["field"]))


def strawman_send(spec: StrawmanProtocol, m, rng: random.Random) -> dict[int, int]:
    spec.check_message(m)
    return dict(zip(range(1, spec.n + 1), _share_rows(spec.sharing, m, rng)[0]))


def strawman_receive(spec: StrawmanProtocol, payloads, replaced) -> tuple[int]:
    """The decoded message; a share in `replaced` outside the wire-value rule reads as 0."""
    f = spec.field
    xs = range(1, spec.n + 1)
    at = (0, *xs)  # the secret, then every channel's point
    ys = list(map(payloads.__getitem__, xs))
    for i in replaced:
        if not ints_below((ys[i - 1],), f.q, 1):
            ys[i - 1] = 0
    candidates = (interpolate_at(f, subset, [ys[i - 1] for i in subset], at)
                  for subset in itertools.combinations(xs, spec.t + 1))
    # maximal agreement with the shares; `max` keeps the lex-first subset on a tie
    best = max(candidates, key=lambda values: sum(map(operator.eq, values[1:], ys)))
    return (best[0],)
