"""Deterministic simulator of n parallel point-to-point channels plus an
optional authenticated public channel.

The engine owns round sequencing and adversary interposition: within a round
the honest party's payloads are fixed first, then every adversary (ascending
id) gets a rushing look at its own corrupted channels and may return
replacements for them — and only them.  The public channel is observable by
everyone and can never be altered, so the engine keeps one public history
for all adversaries; detection declarations of a public-channel protocol
join it where they are emitted.  The finished transcript keeps that history,
and `view_of` derives an adversary's final view from it.  Everything is a
pure function of (protocol config, message, corruption profile, strategy
code, master seed).

Random streams, layout `RNG_STREAM`: the honest parties (profile sampler,
message sampler, sender, receiver) draw in execution order from one stream,
`derive_rng(seed, "honest")`; adversary j draws only from its own
`derive_rng(seed, f"adv-{j}")`, so no strategy holds the honest stream.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from dataclasses import dataclass, field as dc_field
from typing import Any, Mapping

from .sharing import FAIL

RNG_STREAM = "v1"
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


def derive_rng(master_seed: int, label: str) -> random.Random:
    """Independent, reproducible rng stream for one party."""
    digest = hashlib.sha256(f"{master_seed}:{label}".encode()).digest()
    return random.Random(int.from_bytes(digest, "big"))


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
    """Callbacks a rational adversary implements.

    `observe_and_tamper` sees the current round's payloads on its own
    corrupted channels (rushing) plus the public history so far, and returns
    replacements keyed by channel — a subset of its own channels only.
    `final_guess` maps the adversary's full view to a guessed message.
    """

    def observe_and_tamper(self, round_index, direction, own_payloads, public_history, rng):
        return {}

    def final_guess(self, view, rng):
        return None


@dataclass
class RoundRecord:
    index: int
    direction: str
    pre: dict[int, Any]
    post: dict[int, Any]
    public: Any = None


@dataclass(eq=False)
class AdversaryView:
    """Exactly what one adversary learns: its channels, nothing else.  Its
    `rounds` are cut from the transcript's records when first read."""

    channels: frozenset[int]
    public_history: list[tuple[int, Any]]
    records: list[RoundRecord] = dc_field(repr=False)

    @functools.cached_property
    def rounds(self) -> list[tuple[int, str, dict[int, Any], dict[int, Any]]]:
        own = sorted(self.channels)
        return [(r.index, r.direction, {c: r.pre[c] for c in own}, {c: r.post[c] for c in own})
                for r in self.records if r.pre]


@dataclass
class Transcript:
    rounds: list[RoundRecord]
    detect_events: list[tuple[int, int]]  # (channel, round index)
    receiver_output: Any
    adversary_outputs: dict[int, Any]
    message: Any = None
    public_history: list[tuple[int, Any]] = dc_field(default_factory=list)

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
            "adversary_outputs": {
                str(j): _payload_json(g) for j, g in self.adversary_outputs.items()
            },
            "message": _payload_json(self.message),
        }

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))


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
    """Single-execution channel simulator handed to a protocol's run()."""

    def __init__(self, n: int, profile: CorruptionProfile, strategies, master_seed: int,
                 uses_public: bool, honest_rng: random.Random | None = None):
        profile.validate_for(n)
        missing = [j for j in profile.adversary_ids if j not in strategies]
        if missing:
            raise SimulationFault(f"no strategy for adversary ids {missing}")
        self.n = n
        self.profile = profile
        self.strategies = dict(strategies)
        self.uses_public = uses_public
        # the sender's and receiver's stream; a game play passes the one its
        # message came from
        self.honest_rng = (derive_rng(master_seed, "honest") if honest_rng is None
                           else honest_rng)
        self.adv_rngs = {j: derive_rng(master_seed, f"adv-{j}") for j in profile.adversary_ids}
        self.rounds: list[RoundRecord] = []
        self.detect_events: list[tuple[int, int]] = []
        self.public_history: list[tuple[int, Any]] = []

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


@functools.lru_cache(maxsize=64)
def _channel_set(n: int) -> frozenset[int]:
    return frozenset(range(1, n + 1))


def execute(protocol, m, profile: CorruptionProfile, strategies, master_seed: int,
            honest_rng: random.Random | None = None) -> Transcript:
    """Run `protocol` on message m under the given corruption and strategies;
    the sender and receiver draw from `honest_rng`, by default a fresh honest
    stream of `master_seed`."""
    engine = Engine(protocol.n, profile, strategies, master_seed, protocol.uses_public,
                    honest_rng)
    output = protocol.run(engine, m)
    transcript = Transcript(engine.rounds, engine.detect_events, output, {}, m,
                            engine.public_history)
    for j in profile.adversary_ids:
        view = view_of(transcript, profile, j)
        transcript.adversary_outputs[j] = strategies[j].final_guess(view, engine.adv_rngs[j])
    return transcript


def view_of(transcript: Transcript, profile: CorruptionProfile, j: int) -> AdversaryView:
    """Adversary j's view of a finished transcript: its own channels in every
    round plus the whole public history, detection declarations included."""
    return AdversaryView(profile.channels_of(j), list(transcript.public_history),
                         transcript.rounds)
