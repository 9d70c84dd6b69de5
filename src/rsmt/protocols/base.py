"""Common protocol interface.

A protocol instance is a fixed configuration (n, field, lengths, thresholds).
`run` drives one execution through a transport engine: the one channel round
(`engine.send_round`, sender to receiver) first, then any public rounds;
everything else is a pure helper so rounds can be unit-tested without a
transport.  Behaviour the game layer and the CLI need per protocol is a
method, not type dispatch at the call site: `from_json`, the inverse of
`to_json`; the payload rewrites an adversary can apply to its own channels
(`substitute` on every protocol, `frame_tags`/`frame_masks` and `widen_keys`
where the payload layout allows them); and `bound` (the
`game.bounds.requirement_table` row that provisions the protocol) with
`budget_problem`.  A method exists only on the classes that implement it, so
`hasattr` tells which attacks apply.  `OneRoundProtocol` is the base of RSS,
P1/P2/P3 and STRAWMAN: the sender's `encode` fills one sender-to-receiver
round and the receiver's `decode` returns the output and the channels it
detects.  Messages and payloads are judged by the one wire-value rule,
`rsmt.field.ints_below`, which a receiver tests only on the channels whose
delivered payload is not the very object `encode` built: the sender's
immutable payloads pass their own receiver's rule.
"""

from __future__ import annotations

import random

from ..field import ints_below


class ProtocolError(ValueError):
    pass


class Protocol:
    """Interface shared by every transmission protocol variant.

    Every protocol has `variant` (its config name), `n` (its channel count),
    `privacy_threshold` (the most channels whose joint view is independent
    of the message), `message_space_size()`, `sample_message(rng)`,
    `run(engine, m)` (the receiver's output, or FAIL), `substitute(payload,
    rng)` (the payload with its share-bearing part replaced by fresh uniform
    values, the rest kept), `to_json()` and the classmethod `from_json(obj)`,
    its inverse, which raises ConfigError on a key it does not read or a
    non-integer count.
    """

    bound: str | None = None  # requirement-table row; None: nothing to provision
    d = 1  # message length in field elements; SJST's k-bit message counts as one

    def budget_problem(self, need) -> str | None:
        """Why the configured tag length misses the required one, or None."""
        if self.ell < need:
            return f"configured ell={self.ell} below required {need}"
        return None


class OneRoundProtocol(Protocol):
    """One sender-to-receiver round carrying a d-vector over `field`.

    A subclass implements `encode(m, rng)`, the sender's payload for every
    channel, and `decode(payloads, replaced)`, which returns (message or
    FAIL, channels declared detected) and tests the wire-value rule on the
    channels in `replaced`: every channel, unless the caller sent them.
    The message is shared with threshold `t`, so no t channels learn it.
    """

    @property
    def privacy_threshold(self) -> int:
        return self.t

    def message_space_size(self) -> int:
        return self.field.q ** self.d

    def sample_message(self, rng: random.Random) -> tuple[int, ...]:
        return tuple(rng.randrange(self.field.q) for _ in range(self.d))

    def check_message(self, m) -> None:
        """Raise ProtocolError unless m is a d-vector over the field."""
        if not ints_below(tuple(m) if hasattr(m, "__iter__") else m, self.field.q, self.d):
            raise ProtocolError(f"message must be a {self.d}-vector over {self.field}")

    def run(self, engine, m):
        sent = self.encode(m, engine.honest_rng)
        delivered = engine.send_round(sent)
        output, detects = self.decode(delivered, [i for i in sent if delivered[i] is not sent[i]])
        for i in detects:
            engine.emit_detect(i)
        return output

