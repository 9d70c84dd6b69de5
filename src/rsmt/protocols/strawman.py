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
import random

from ..field import FieldSpec, interpolate, poly_eval
from ..sharing import SharingSpec, shamir_share
from ..transport import SENDER_TO_RECEIVER
from .base import Protocol, ProtocolError, vector_in_field


class StrawmanProtocol(Protocol):
    variant = "STRAWMAN"
    uses_public = False

    __slots__ = ("n", "field", "t", "sharing")

    def __init__(self, n: int, field: FieldSpec):
        t = (n + 1) // 2 - 1
        if t < 1:
            raise ProtocolError(f"n={n} leaves no sharing threshold")
        self.n = n
        self.field = field
        self.t = t
        self.sharing = SharingSpec(t=t, n=n, field=field)

    def message_space_size(self) -> int:
        return self.field.q

    def sample_message(self, rng: random.Random) -> tuple[int]:
        return (rng.randrange(self.field.q),)

    def run(self, engine, m):
        payloads = strawman_send(self, m, engine.sender_rng)
        delivered = engine.send_round(SENDER_TO_RECEIVER, payloads)
        return strawman_receive(self, delivered)

    def to_json(self) -> dict:
        return {"variant": "STRAWMAN", "n": self.n, "field": self.field.to_json()}


def strawman_send(spec: StrawmanProtocol, m, rng: random.Random) -> dict[int, int]:
    f = spec.field
    if not vector_in_field(tuple(m), f.q, 1):
        raise ProtocolError(f"message must be a 1-vector over {f}")
    return shamir_share(spec.sharing, m[0], rng)


def strawman_receive(spec: StrawmanProtocol, payloads) -> tuple[int]:
    f = spec.field
    values = {}
    for i in range(1, spec.n + 1):
        v = payloads[i]
        values[i] = v if isinstance(v, int) and 0 <= v < f.q else 0
    xs = {i: spec.sharing.point(i) for i in values}
    best = None  # (agreement, poly) — maximal agreement, then lex-first
    for subset in itertools.combinations(sorted(values), spec.t + 1):
        poly = interpolate(f, [xs[i] for i in subset], [values[i] for i in subset])
        agreement = sum(1 for i in values if poly_eval(f, poly, xs[i]) == values[i])
        if best is None or agreement > best[0]:
            best = (agreement, poly)
    return (best[1][0],)
