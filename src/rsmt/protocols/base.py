"""Common protocol interface.

A protocol instance is a fixed configuration (n, field, lengths, thresholds).
`run` drives one execution through a transport engine: the one channel round
(`engine.send_round`, sender to receiver) first, then any public rounds;
everything else is a pure helper so rounds can be unit-tested without a
transport.  A protocol is a dataclass of its config keys; `Protocol` holds
the one `to_json`, its inverse `from_json`, and a `__post_init__` that
refuses a count that is not an exact int.  Per-protocol behaviour is a
method, not type dispatch at the call site: the payload rewrites an
adversary can apply to its own channels (`substitute` on every protocol,
`frame_tags`/`frame_masks` and `widen_keys` where the payload layout allows
them); and `bound` (the `game.bounds.requirement_table` row that provisions
the protocol) with `budget_problem`.  A method exists only on the classes
that implement it, so `hasattr` tells which attacks apply.
`OneRoundProtocol` is the base of RSS, P1/P2/P3 and STRAWMAN: the sender's
`encode` fills one sender-to-receiver round and the receiver's `decode`
returns the output and the channels it detects.  Messages and payloads are
judged by the one wire-value rule, `rsmt.field.ints_below`, which a receiver
tests only on the channels whose delivered payload is not the very object
`encode` built: the sender's immutable payloads pass their own receiver's
rule.
"""

from __future__ import annotations

import random
from dataclasses import fields

from ..config import check_keys, read_int
from ..field import FieldSpec, ints_below

_TYPES = {"variant": str, "field": FieldSpec}  # any other config key is a count: an int


class ProtocolError(ValueError):
    pass


class Protocol:
    """Interface shared by every transmission protocol variant.

    Every protocol has `variant` (its config name), `n` (its channel count),
    `privacy_threshold` (the most channels whose joint view is independent
    of the message), `message_space_size()`, `sample_message(rng)`,
    `run(engine, m)` (the receiver's output, or FAIL) and `substitute(payload,
    rng)` (the payload with its share-bearing part replaced by fresh uniform
    values, the rest kept).
    """

    bound: str | None = None  # requirement-table row; None: nothing to provision
    d = 1  # message length in field elements; SJST's k-bit message counts as one

    def __post_init__(self):
        """ProtocolError naming a config key whose value is not of its exact type."""
        for key in self._keys():
            value, want = getattr(self, key), _TYPES.get(key, int)
            if type(value) is not want:
                raise ProtocolError(f"{key} must be of type {want.__name__}, got {value!r}")

    @classmethod
    def _keys(cls) -> list[str]:
        """The config keys in field order, `field` last: as JSON holds them."""
        return sorted((f.name for f in fields(cls)), key="field".__eq__)

    def to_json(self) -> dict:
        obj = {"variant": self.variant}
        for key in self._keys():
            obj[key] = self.field.to_json() if key == "field" else getattr(self, key)
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> Protocol:
        """ConfigError on a key it does not read or a bad value; KeyError on a missing key."""
        check_keys(obj, obj["variant"], "variant", *cls._keys())
        return cls(**{key: FieldSpec.from_json(obj[key]) if key == "field" else
                      obj[key] if key == "variant" else read_int(obj[key], key)
                      for key in cls._keys()})

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

    def check_message(self, m) -> tuple[int, ...]:
        """m as a tuple, the value a sender encodes; ProtocolError unless m
        is a tuple or list forming a d-vector over the field."""
        v = tuple(m) if type(m) is list else m
        if not ints_below(v, self.field.q, self.d):
            raise ProtocolError(f"message must be a {self.d}-vector over {self.field}")
        return v

    def run(self, engine, m):
        sent = self.encode(m, engine.honest_rng)
        delivered = engine.send_round(sent)
        output, detects = self.decode(delivered, [i for i in sent if delivered[i] is not sent[i]])
        for i in detects:
            engine.emit_detect(i)
        return output

