"""Non-interactive transmission by robust secret sharing.

The sender robust-shares the message (tamper-evident encoding underneath a
threshold sharing) and sends share i over channel i.  The receiver
reconstructs from all n shares; if the tamper check rejects, it outputs FAIL
and declares detection on every channel — robustness detects manipulation but
cannot localize it.
"""

from __future__ import annotations

import random

from ..config import check_keys, read_ints
from ..field import FieldSpec, ints_below
from ..sharing import (FAIL, AmdSpec, RobustSharingSpec, SharingSpec, robust_reconstruct,
                       robust_share)
from .base import OneRoundProtocol, ProtocolError

# Cap on d * bits(q), checked before q^d is computed: report headers print q^d,
# and q^d < 2^(d * bits(q)) <= 2^14,000 < 10^4,300, the digits Python prints.
MAX_MESSAGE_BITS = 14_000


class RssProtocol(OneRoundProtocol):
    """Messages are d-vectors over the field; share i is a (d+2)-vector."""

    variant = "RSS"
    bound = "rss-delta"

    __slots__ = ("n", "t", "field", "d", "sharing")

    def __init__(self, sharing: RobustSharingSpec):
        bits = sharing.amd.d * sharing.inner.field.q.bit_length()
        if bits > MAX_MESSAGE_BITS:
            raise ProtocolError(f"d={sharing.amd.d} elements of {sharing.inner.field} make a "
                                f"{bits}-bit message, over the {MAX_MESSAGE_BITS}-bit limit")
        self.sharing = sharing
        self.n = sharing.inner.n
        self.t = sharing.inner.t
        self.field = sharing.inner.field
        self.d = sharing.amd.d

    def encode(self, m, rng: random.Random) -> dict[int, tuple[int, ...]]:
        return rss_send(self, m, rng)

    def decode(self, payloads, replaced):
        return rss_receive(self, payloads, replaced)

    def substitute(self, payload, rng: random.Random) -> tuple[int, ...]:
        return tuple(rng.randrange(self.field.q) for _ in range(self.sharing.share_len))

    def budget_problem(self, need) -> str | None:
        """`need` is the largest admissible detection-failure probability."""
        if self.sharing.delta > need:
            return (f"sharing failure rate {float(self.sharing.delta):.4f} above bound "
                    f"{float(need):.4f}")
        return None

    def to_json(self) -> dict:
        return {
            "variant": "RSS",
            "n": self.n,
            "t": self.t,
            "d": self.d,
            "field": self.field.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "RssProtocol":
        check_keys(obj, "RSS", "variant", "n", "t", "d", "field")
        n, t, d = read_ints(obj, "n", "t", "d")
        field = FieldSpec.from_json(obj["field"])
        return cls(RobustSharingSpec(AmdSpec(field, d), SharingSpec(t=t, n=n, field=field)))


def rss_send(spec: RssProtocol, m, rng: random.Random) -> dict[int, tuple[int, ...]]:
    return robust_share(spec.sharing, spec.check_message(m), rng)


def rss_receive(spec: RssProtocol, payloads, replaced):
    """Reconstruct from all n shares, testing only `replaced` against the
    wire-value rule; FAIL detects at every channel."""
    width = spec.sharing.share_len
    # a blocked or malformed share is undecodable: treat it as detection
    if all(ints_below(payloads[i], spec.field.q, width) for i in replaced):
        out = robust_reconstruct(spec.sharing, payloads)
        if out is not FAIL:
            return out, []
    return FAIL, list(range(1, spec.n + 1))
