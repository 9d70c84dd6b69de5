"""Deterministic simulator of n parallel point-to-point channels plus an
authenticated public channel.

Every protocol opens with one channel round, sender to receiver, and sends
nothing else over the channels; any later rounds are public.  The engine
owns adversary interposition in that round: the sender's payloads are fixed
first, then every adversary (ascending id) gets a rushing look at its own
corrupted channels and may return replacements for them — and only them.
The public channel can never be altered, so a public round or a detection
declaration is recorded and delivered verbatim.  The engine that ran an
execution is its transcript: it keeps every round and detection.
Everything is a pure function of (protocol config, message, corruption
profile, strategy code, random streams).

Random streams, layout `RNG_STREAM`: `derive_streams(seed, ids)` makes one
stream for the honest parties (profile sampler, message sampler, sender,
receiver), `derive_rng(seed, "honest")`, then one per adversary id j,
`derive_rng(seed, f"adv-{j}")`, so no strategy holds the honest stream.  A
game run makes them once per block of `BLOCK_TRIALS` trials (see
`rsmt.game.play`), and each execution draws on from where the previous one
stopped.  Every seed and stream derives from `derive_seed`, the one hash.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from dataclasses import dataclass
from typing import Any, Mapping, NamedTuple

from .sharing import Marker

RNG_STREAM = "v3"
# Trials that share one set of streams; fixed by the stream version.
BLOCK_TRIALS = 256
SENDER_TO_RECEIVER = "s->r"
RECEIVER_TO_SENDER = "r->s"


class SimulationFault(RuntimeError):
    """A strategy or protocol broke the simulation contract."""


# The payload of a blocked channel.  Protocols treat it like any other
# malformed payload (length mismatch / tamper signal).
EMPTY = Marker("EMPTY")


def derive_seed(*parts) -> int:
    """The SHA-256 digest of the parts joined by ":", as an integer."""
    return int.from_bytes(hashlib.sha256(":".join(map(str, parts)).encode()).digest(), "big")


def derive_rng(seed: int, label: str) -> random.Random:
    """Independent, reproducible rng stream for one party."""
    return random.Random(derive_seed(seed, label))


class Streams(NamedTuple):
    """The honest parties' stream and each adversary id's own stream."""

    honest: random.Random
    adversaries: Mapping[int, random.Random]


def derive_streams(seed: int, adversary_ids) -> Streams:
    """The honest stream, then one stream per adversary id in the given order."""
    return Streams(derive_rng(seed, "honest"),
                   {j: derive_rng(seed, f"adv-{j}") for j in adversary_ids})


@dataclass(frozen=True)
class CorruptionProfile:
    """Disjoint channel ownership per adversary id 1..lambda; its sorted ids,
    channels and channel span, read in the channel round, are computed once."""

    assignments: Mapping[int, frozenset[int]]
    malicious_id: int | None = None

    def __post_init__(self):
        norm = {j: frozenset(chs) for j, chs in self.assignments.items()}
        object.__setattr__(self, "assignments", norm)
        seen: set[int] = set()
        for j, chs in norm.items():
            if j < 1:
                raise ValueError(f"adversary id {j} must be >= 1")
            if seen & chs:
                raise ValueError("corrupted channel sets must be disjoint")
            seen |= chs
        if self.malicious_id is not None and self.malicious_id not in norm:
            raise ValueError(f"malicious id {self.malicious_id} has no assignment")
        vars(self).update(adversary_ids=tuple(sorted(norm)),
                          sorted_channels={j: tuple(sorted(chs)) for j, chs in norm.items()},
                          _span=(min(seen, default=1), max(seen, default=0)))

    def validate_for(self, n: int) -> None:
        if 1 <= self._span[0] and self._span[1] <= n:
            return
        for j, chs in self.assignments.items():
            bad = [c for c in chs if not 1 <= c <= n]
            if bad:
                raise ValueError(f"adversary {j} corrupts nonexistent channels {bad}")


class AdversaryStrategy:
    """The callback a rational adversary implements.

    `observe_and_tamper` sees the channel round's payloads on its own
    corrupted channels (rushing) and returns replacements keyed by channel —
    a subset of its own channels only.  The adversary's guess of the message
    is uniform and scored in expectation (see `rsmt.game.utility`), so no
    callback makes it.
    """

    def observe_and_tamper(self, own_payloads, rng):
        return {}


@dataclass
class RoundRecord:
    index: int
    direction: str
    pre: dict[int, Any]
    post: dict[int, Any]
    public: Any = None


def _payload_json(p):
    if isinstance(p, Marker):  # EMPTY, FAIL
        return {p.name.lower(): True}
    if p is None or isinstance(p, str) or type(p) in (int, bool):
        return p
    if isinstance(p, (list, tuple)):
        return [_payload_json(v) for v in p]
    raise SimulationFault(f"payload {p!r} is not serializable")


class Engine:
    """Single-execution channel simulator handed to a protocol's run(), and
    the transcript of that execution: the rounds and detection events it
    records, plus the message and the receiver's output, which `execute`
    fills in."""

    def __init__(self, n: int, profile: CorruptionProfile, strategies, streams: Streams):
        profile.validate_for(n)
        missing = [j for j in profile.adversary_ids if j not in strategies]
        if missing:
            raise SimulationFault(f"no strategy for adversary ids {missing}")
        self.n = n
        self.profile = profile
        self.strategies = dict(strategies)
        self.honest_rng, self.adv_rngs = streams
        self.rounds: list[RoundRecord] = []
        self.detect_events: list[tuple[int, int]] = []
        self.message: Any = None
        self.receiver_output: Any = None

    def send_round(self, payloads: Mapping[int, Any]) -> dict[int, Any]:
        """Deliver the channel round, sender to receiver, which must be the
        execution's first round; returns post-tamper payloads."""
        if self.rounds:
            raise SimulationFault("a channel round must be the execution's first round")
        if payloads.keys() != _channel_set(self.n):
            raise SimulationFault("round must carry exactly one payload per channel")
        pre = dict(payloads)
        post = dict(pre)
        for j in self.profile.adversary_ids:
            own_pre = {c: pre[c] for c in self.profile.sorted_channels[j]}
            replacements = self.strategies[j].observe_and_tamper(own_pre, self.adv_rngs[j]) or {}
            if replacements and not own_pre.keys() >= set(replacements):
                raise SimulationFault(f"adversary {j} wrote to non-owned channels "
                                      f"{sorted(set(replacements).difference(own_pre))}")
            post.update(replacements)
        self.rounds.append(RoundRecord(0, SENDER_TO_RECEIVER, pre, post))
        return post

    def send_public(self, direction: str, payload: Any) -> Any:
        """Authenticated broadcast: delivered verbatim, seen by everyone."""
        self.rounds.append(RoundRecord(len(self.rounds), direction, {}, {}, public=payload))
        return payload

    def emit_detect(self, channel: int) -> None:
        if not 1 <= channel <= self.n:
            raise SimulationFault(f"DETECT references nonexistent channel {channel}")
        self.detect_events.append((channel, max(0, len(self.rounds) - 1)))

    def to_json(self) -> dict:
        return {
            "rounds": [
                {
                    "index": r.index,
                    "direction": r.direction,
                    "pre": {str(c): _payload_json(p) for c, p in r.pre.items()},
                    "post": {str(c): _payload_json(p) for c, p in r.post.items()},
                    "public": _payload_json(r.public),
                }
                for r in self.rounds
            ],
            "detect_events": [list(ev) for ev in self.detect_events],
            "receiver_output": _payload_json(self.receiver_output),
            "message": _payload_json(self.message),
        }

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))


@functools.lru_cache(maxsize=64)
def _channel_set(n: int) -> frozenset[int]:
    return frozenset(range(1, n + 1))


def execute(protocol, m, profile: CorruptionProfile, strategies, streams: Streams) -> Engine:
    """Run `protocol` on message m under the given corruption and strategies,
    drawing from `streams`.  Returns the engine that ran, which is the
    execution's transcript."""
    engine = Engine(protocol.n, profile, strategies, streams)
    engine.message = m
    engine.receiver_output = protocol.run(engine, m)
    return engine
