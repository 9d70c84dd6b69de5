"""Deterministic simulator of n parallel point-to-point channels plus an
optional authenticated public channel.

The engine owns round sequencing and adversary interposition: within a round
the honest party's payloads are fixed first, then every adversary (ascending
id) gets a rushing look at its own corrupted channels and may return
replacements for them — and only them.  The public channel is observable by
everyone and can never be altered.  Everything is a pure function of
(protocol config, message, corruption profile, strategy code, master seed).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field as dc_field
from typing import Any, Mapping, Sequence

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
    """Disjoint channel ownership per adversary id 1..lambda."""

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

    def validate_for(self, n: int) -> None:
        for j, chs in self.assignments.items():
            bad = [c for c in chs if not 1 <= c <= n]
            if bad:
                raise ValueError(f"adversary {j} corrupts nonexistent channels {bad}")

    @property
    def adversary_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.assignments))

    def channels_of(self, j: int) -> frozenset[int]:
        return self.assignments[j]

    def owner_of(self, channel: int) -> int | None:
        for j, chs in self.assignments.items():
            if channel in chs:
                return j
        return None


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


class PassiveStrategy(AdversaryStrategy):
    """Never tampers; guesses a uniformly random message.

    The canonical harmless strategy the equilibrium is measured against.
    """

    __slots__ = ("message_sampler",)

    def __init__(self, message_sampler=None):
        self.message_sampler = message_sampler

    def final_guess(self, view, rng):
        if self.message_sampler is None:
            return None
        return self.message_sampler(rng)


@dataclass
class RoundRecord:
    index: int
    direction: str
    pre: dict[int, Any]
    post: dict[int, Any]
    public: Any = None


@dataclass
class AdversaryView:
    """Exactly what one adversary learns: its channels, nothing else."""

    channels: frozenset[int]
    rounds: list[tuple[int, str, dict[int, Any], dict[int, Any]]] = dc_field(default_factory=list)
    public_history: list[tuple[int, Any]] = dc_field(default_factory=list)


@dataclass
class Transcript:
    rounds: list[RoundRecord]
    detect_events: list[tuple[int, int]]  # (channel, round index)
    receiver_output: Any
    adversary_outputs: dict[int, Any]
    message: Any = None

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
    if p is None or isinstance(p, (int, str, bool)):
        return p
    if isinstance(p, (list, tuple)):
        return [_payload_json(v) for v in p]
    raise SimulationFault(f"payload {p!r} is not serializable")


class Engine:
    """Single-execution channel simulator handed to a protocol's run()."""

    def __init__(self, n: int, profile: CorruptionProfile, strategies, master_seed: int,
                 uses_public: bool):
        profile.validate_for(n)
        missing = set(profile.adversary_ids) - set(strategies)
        if missing:
            raise SimulationFault(f"no strategy for adversary ids {sorted(missing)}")
        self.n = n
        self.profile = profile
        self.strategies = dict(strategies)
        self.uses_public = uses_public
        self.sender_rng = derive_rng(master_seed, "sender")
        self.receiver_rng = derive_rng(master_seed, "receiver")
        self.adv_rngs = {j: derive_rng(master_seed, f"adv-{j}") for j in profile.adversary_ids}
        self.rounds: list[RoundRecord] = []
        self.detect_events: list[tuple[int, int]] = []
        self.views = {
            j: AdversaryView(profile.channels_of(j)) for j in profile.adversary_ids
        }
        self._round_index = 0

    def send_round(self, direction: str, payloads: Mapping[int, Any]) -> dict[int, Any]:
        """Deliver one round of channel payloads; returns post-tamper payloads."""
        if set(payloads) != set(range(1, self.n + 1)):
            raise SimulationFault("round must carry exactly one payload per channel")
        idx = self._round_index
        pre = dict(payloads)
        post = dict(pre)
        for j in self.profile.adversary_ids:
            own = self.profile.channels_of(j)
            own_pre = {c: pre[c] for c in sorted(own)}
            replacements = self.strategies[j].observe_and_tamper(
                idx, direction, own_pre, list(self.views[j].public_history), self.adv_rngs[j]
            ) or {}
            alien = set(replacements) - own
            if alien:
                raise SimulationFault(
                    f"adversary {j} wrote to non-owned channels {sorted(alien)}"
                )
            post.update(replacements)
            self.views[j].rounds.append(
                (idx, direction, own_pre, {c: post[c] for c in sorted(own)})
            )
        self.rounds.append(RoundRecord(idx, direction, pre, post))
        self._round_index += 1
        return post

    def send_public(self, direction: str, payload: Any) -> Any:
        """Authenticated broadcast: delivered verbatim, seen by everyone."""
        if not self.uses_public:
            raise SimulationFault("protocol has no public channel")
        idx = self._round_index
        for j in self.profile.adversary_ids:
            self.views[j].public_history.append((idx, payload))
        self.rounds.append(RoundRecord(idx, direction, {}, {}, public=payload))
        self._round_index += 1
        return payload

    def emit_detect(self, channel: int) -> None:
        if not 1 <= channel <= self.n:
            raise SimulationFault(f"DETECT references nonexistent channel {channel}")
        round_idx = max(0, self._round_index - 1)
        event = (channel, round_idx)
        self.detect_events.append(event)
        if self.uses_public:
            # Detection declarations ride the authenticated channel, so every
            # adversary learns about them.
            for j in self.profile.adversary_ids:
                self.views[j].public_history.append((round_idx, ("DETECT", channel)))


def execute(protocol, m, profile: CorruptionProfile, strategies, master_seed: int) -> Transcript:
    """Run `protocol` on message m under the given corruption and strategies."""
    engine = Engine(protocol.n, profile, strategies, master_seed, protocol.uses_public)
    output = protocol.run(engine, m)
    guesses = {}
    for j in profile.adversary_ids:
        guesses[j] = strategies[j].final_guess(engine.views[j], engine.adv_rngs[j])
    return Transcript(
        rounds=engine.rounds,
        detect_events=engine.detect_events,
        receiver_output=output,
        adversary_outputs=guesses,
        message=m,
    )


def view_of(transcript: Transcript, profile: CorruptionProfile, j: int,
            uses_public: bool = False) -> AdversaryView:
    """Reconstruct adversary j's view from a finished transcript."""
    own = profile.channels_of(j)
    view = AdversaryView(own)
    for r in transcript.rounds:
        if r.public is not None:
            view.public_history.append((r.index, r.public))
        if r.pre:
            view.rounds.append(
                (r.index, r.direction, {c: r.pre[c] for c in sorted(own)},
                 {c: r.post[c] for c in sorted(own)})
            )
    if uses_public:
        # Detection declarations ride the authenticated channel.
        for channel, round_idx in transcript.detect_events:
            view.public_history.append((round_idx, ("DETECT", channel)))
    return view
