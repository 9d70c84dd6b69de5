"""Deterministic simulator of n parallel point-to-point channels plus an
optional authenticated public channel.

The engine owns round sequencing and adversary interposition: within a round
the honest party's payloads are fixed first, then every adversary (ascending
id) gets a rushing look at its own corrupted channels and may return
replacements for them — and only them.  The public channel is observable by
everyone and can never be altered, so the engine keeps one public history
for all adversaries; detection declarations of a public-channel protocol
join it where they are emitted.  The engine that ran an execution is its
transcript: it keeps every round and that history.  Everything is a pure
function of (protocol config, message, corruption profile, strategy code,
random streams).

Random streams, layout `RNG_STREAM`: `derive_streams(seed, ids)` makes one
stream for the honest parties (profile sampler, message sampler, sender,
receiver), `derive_rng(seed, "honest")`, then one per adversary id j,
`derive_rng(seed, f"adv-{j}")`, so no strategy holds the honest stream.  A
game run makes them once per block of `BLOCK_TRIALS` trials (see
`rsmt.game.play`), and each execution draws on from where the previous one
stopped; `execute` given a seed makes them for that one execution.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from dataclasses import dataclass
from typing import Any, Mapping, NamedTuple

from .sharing import FAIL

RNG_STREAM = "v3"
# Trials that share one set of streams; fixed by the stream version.
BLOCK_TRIALS = 256
SENDER_TO_RECEIVER = "s->r"
RECEIVER_TO_SENDER = "r->s"


class SimulationFault(RuntimeError):
    """A strategy or protocol broke the simulation contract."""


class _Empty:
    """Distinguished payload standing for a blocked channel.

    Protocols treat it like any other malformed payload (length mismatch /
    tamper signal); it is falsy so `if payload:` reads naturally.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "EMPTY"

    def __bool__(self):
        return False


EMPTY = _Empty()


def derive_rng(seed: int, label: str) -> random.Random:
    """Independent, reproducible rng stream for one party."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return random.Random(int.from_bytes(digest, "big"))


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
    """Disjoint channel ownership per adversary id 1..lambda; the sorted ids
    and channels and the channel span, read every round, are computed once."""

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

    def channels_of(self, j: int) -> frozenset[int]:
        return self.assignments[j]


class AdversaryStrategy:
    """The callback a rational adversary implements.

    `observe_and_tamper` sees the current round's payloads on its own
    corrupted channels (rushing) plus the public history so far, and returns
    replacements keyed by channel — a subset of its own channels only.  The
    adversary's guess of the message is uniform and scored in expectation
    (see `rsmt.game.utility`), so no callback makes it.
    """

    def observe_and_tamper(self, round_index, direction, own_payloads, public_history, rng):
        return {}


@dataclass
class RoundRecord:
    index: int
    direction: str
    pre: dict[int, Any]
    post: dict[int, Any]
    public: Any = None


def _payload_json(p):
    if p is EMPTY:
        return {"empty": True}
    if p is FAIL:
        return {"fail": True}
    if p is None or isinstance(p, str) or type(p) in (int, bool):
        return p
    if isinstance(p, (list, tuple)):
        return [_payload_json(v) for v in p]
    raise SimulationFault(f"payload {p!r} is not serializable")


class Engine:
    """Single-execution channel simulator handed to a protocol's run(), and
    the transcript of that execution: the rounds, detection events and
    public history it records, plus the message and the receiver's output,
    which `execute` fills in."""

    def __init__(self, n: int, profile: CorruptionProfile, strategies, streams: Streams,
                 uses_public: bool):
        profile.validate_for(n)
        missing = [j for j in profile.adversary_ids if j not in strategies]
        if missing:
            raise SimulationFault(f"no strategy for adversary ids {missing}")
        self.n = n
        self.profile = profile
        self.strategies = dict(strategies)
        self.uses_public = uses_public
        self.honest_rng, self.adv_rngs = streams
        self.rounds: list[RoundRecord] = []
        self.detect_events: list[tuple[int, int]] = []
        self.public_history: list[tuple[int, Any]] = []
        self.message: Any = None
        self.receiver_output: Any = None

    def send_round(self, direction: str, payloads: Mapping[int, Any]) -> dict[int, Any]:
        """Deliver one round of channel payloads; returns post-tamper payloads."""
        if payloads.keys() != _channel_set(self.n):
            raise SimulationFault("round must carry exactly one payload per channel")
        idx = len(self.rounds)
        pre = dict(payloads)
        post = dict(pre)
        for j in self.profile.adversary_ids:
            own_pre = {c: pre[c] for c in self.profile.sorted_channels[j]}
            replacements = self.strategies[j].observe_and_tamper(
                idx, direction, own_pre, list(self.public_history), self.adv_rngs[j]
            ) or {}
            if replacements and not own_pre.keys() >= set(replacements):
                raise SimulationFault(f"adversary {j} wrote to non-owned channels "
                                      f"{sorted(set(replacements).difference(own_pre))}")
            post.update(replacements)
        self.rounds.append(RoundRecord(idx, direction, pre, post))
        return post

    def send_public(self, direction: str, payload: Any) -> Any:
        """Authenticated broadcast: delivered verbatim, seen by everyone."""
        if not self.uses_public:
            raise SimulationFault("protocol has no public channel")
        idx = len(self.rounds)
        self.public_history.append((idx, payload))
        self.rounds.append(RoundRecord(idx, direction, {}, {}, public=payload))
        return payload

    def emit_detect(self, channel: int) -> None:
        if not 1 <= channel <= self.n:
            raise SimulationFault(f"DETECT references nonexistent channel {channel}")
        round_idx = max(0, len(self.rounds) - 1)
        event = (channel, round_idx)
        self.detect_events.append(event)
        if self.uses_public:
            # Detection declarations ride the authenticated channel, so every
            # adversary learns about them.
            self.public_history.append((round_idx, ("DETECT", channel)))

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


def execute(protocol, m, profile: CorruptionProfile, strategies,
            streams: Streams | int) -> Engine:
    """Run `protocol` on message m under the given corruption and strategies,
    drawing from `streams`; an int is a master seed, whose streams for the
    profile's adversaries `derive_streams` makes.  Returns the engine that
    ran, which is the execution's transcript."""
    if not isinstance(streams, Streams):
        streams = derive_streams(streams, profile.adversary_ids)
    engine = Engine(protocol.n, profile, strategies, streams, protocol.uses_public)
    engine.message = m
    engine.receiver_output = protocol.run(engine, m)
    return engine
