"""Non-interactive transmission by robust secret sharing.

The sender robust-shares the message (tamper-evident encoding underneath a
threshold sharing) and sends share i over channel i.  The receiver
reconstructs from all n shares; if the tamper check rejects, it outputs FAIL
and declares detection on every channel — robustness detects manipulation but
cannot localize it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..field import FieldSpec, ints_below
from ..sharing import (FAIL, AmdSpec, RobustSharingSpec, SharingSpec, robust_reconstruct,
                       robust_share)
from .base import OneRoundProtocol, ProtocolError

# Cap on d * bits(q), checked before q^d is computed: report headers print q^d,
# and q^d < 2^(d * bits(q)) <= 2^14,000 < 10^4,300, the digits Python prints.
MAX_MESSAGE_BITS = 14_000


@dataclass(eq=False)
class RssProtocol(OneRoundProtocol):
    """Messages are d-vectors over the field; share i is a (d+2)-vector."""

    variant = "RSS"
    bound = "rss-delta"

    __slots__ = ("n", "t", "d", "field", "sharing")
    n: int
    t: int
    d: int
    field: FieldSpec

    def __post_init__(self):
        super().__post_init__()
        f, d = self.field, self.d
        self.sharing = RobustSharingSpec(AmdSpec(f, d), SharingSpec(t=self.t, n=self.n, field=f))
        bits = d * f.q.bit_length()
        if bits > MAX_MESSAGE_BITS:
            raise ProtocolError(f"d={d} elements of {f} make a "
                                f"{bits}-bit message, over the {MAX_MESSAGE_BITS}-bit limit")

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
