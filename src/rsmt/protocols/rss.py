"""Non-interactive transmission by robust secret sharing.

The sender robust-shares the message (tamper-evident encoding underneath a
threshold sharing) and sends share i over channel i.  The receiver
reconstructs from all n shares; if the tamper check rejects, it outputs FAIL
and declares detection on every channel — robustness detects manipulation but
cannot localize it.
"""

from __future__ import annotations

import random

from ..sharing import FAIL, RobustSharingSpec, robust_reconstruct, robust_share
from ..transport import SENDER_TO_RECEIVER
from .base import Protocol, ProtocolError, vector_in_field


class RssProtocol(Protocol):
    """Messages are d-vectors over the field; share i is a (d+2)-vector."""

    variant = "RSS"
    uses_public = False

    __slots__ = ("n", "sharing")

    def __init__(self, sharing: RobustSharingSpec):
        self.sharing = sharing
        self.n = sharing.inner.n

    @property
    def field(self):
        return self.sharing.inner.field

    @property
    def d(self) -> int:
        return self.sharing.amd.d

    def message_space_size(self) -> int:
        return self.field.q ** self.d

    def sample_message(self, rng: random.Random) -> tuple[int, ...]:
        return tuple(rng.randrange(self.field.q) for _ in range(self.d))

    def run(self, engine, m):
        payloads = rss_send(self, m, engine.sender_rng)
        delivered = engine.send_round(SENDER_TO_RECEIVER, payloads)
        output, detects = rss_receive(self, delivered)
        for i in detects:
            engine.emit_detect(i)
        return output

    def to_json(self) -> dict:
        return {
            "variant": "RSS",
            "n": self.n,
            "t": self.sharing.inner.t,
            "d": self.d,
            "field": self.field.to_json(),
        }


def rss_send(spec: RssProtocol, m, rng: random.Random) -> dict[int, tuple[int, ...]]:
    f = spec.field
    if not vector_in_field(tuple(m), f.q, spec.d):
        raise ProtocolError(f"message must be a {spec.d}-vector over {f}")
    return robust_share(spec.sharing, m, rng)


def rss_receive(spec: RssProtocol, payloads):
    """Reconstruct from all n shares; FAIL detects at every channel."""
    f = spec.field
    width = spec.sharing.share_len
    parsed = {}
    for i in range(1, spec.n + 1):
        p = payloads[i]
        if not vector_in_field(p if isinstance(p, tuple) else (), f.q, width):
            # blocked or malformed share: undecodable, treat as detection
            return FAIL, list(range(1, spec.n + 1))
        parsed[i] = p
    out = robust_reconstruct(spec.sharing, parsed)
    if out is FAIL:
        return FAIL, list(range(1, spec.n + 1))
    return out, []
