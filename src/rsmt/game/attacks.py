"""Catalog of adversary strategies used for equilibrium falsification.

Every strategy guesses a uniformly random message (perfect privacy makes any
other guess rule pointless), which the utility table scores exactly, so the
strategies differ only in how they tamper.  What a deviation writes depends
on the protocol's payload layout, so the rewrites are protocol methods
(`substitute`, `frame_tags`, `frame_masks`, `widen_keys`) and each catalog
entry names the method it calls: an attack applies to exactly the protocols
that have it.  Strategies are stateless: all randomness comes from the rng
stream the transport hands them, so one instance can be reused across
trials.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from ..transport import EMPTY, AdversaryStrategy
from ..protocols import VARIANTS
from ..protocols.base import Protocol


def _method(protocol: Protocol, name: str):
    method = getattr(protocol, name, None)
    if method is None:
        raise ValueError(f"{protocol.variant} has no {name}")
    return method


class CatalogStrategy(AdversaryStrategy):
    """Base: a strategy against one protocol."""

    def __init__(self, protocol: Protocol):
        self.protocol = protocol


class PassiveGuess(CatalogStrategy):
    """Observes, never tampers: the profile the equilibrium is measured at."""


class BlockChannels(CatalogStrategy):
    """Replaces every owned payload with the blocked-channel marker."""

    def observe_and_tamper(self, round_index, direction, own_payloads, public_history, rng):
        return {c: EMPTY for c in own_payloads}


class Rewrite(CatalogStrategy):
    """Rewrites the owned payloads (the lowest `limit` channels, or all) with
    the protocol method `hook`, e.g. `substitute` for fresh shares or
    `frame_tags` for random cross-tags.  Every protocol sends one channel
    round, so this is the only round a strategy is asked about."""

    def __init__(self, protocol: Protocol, hook: str, limit: int | None = None):
        super().__init__(protocol)
        self.rewrite = _method(protocol, hook)
        self.limit = limit

    def observe_and_tamper(self, round_index, direction, own_payloads, public_history, rng):
        return {c: self.rewrite(own_payloads[c], rng) for c in sorted(own_payloads)[: self.limit]}


class SwapHalf(CatalogStrategy):
    """Runs the sender on a fresh uniform message and substitutes the owned
    channels with the simulated payloads, making the receiver's decode
    ambiguous between the real and the simulated sharing.  When n = 2t-1 the
    attack additionally blocks channel n (if owned) so the two candidate
    halves have equal size.  Needs the one-round `encode`."""

    def __init__(self, protocol: Protocol):
        super().__init__(protocol)
        self.encode = _method(protocol, "encode")

    def observe_and_tamper(self, round_index, direction, own_payloads, public_history, rng):
        p = self.protocol
        fake = self.encode(p.sample_message(rng), rng)
        out = {c: fake[c] for c in own_payloads}
        t = len(own_payloads)
        if p.n == 2 * t - 1 and p.n in own_payloads:
            out[p.n] = EMPTY
        return out


@dataclass(frozen=True)
class AttackCatalogEntry:
    name: str
    needs: str  # the protocol method the attack calls: it applies where that exists
    factory: Callable[[Protocol], AdversaryStrategy]


def _rewriting(name: str, hook: str, limit: int | None = None) -> AttackCatalogEntry:
    return AttackCatalogEntry(name, hook, lambda p: Rewrite(p, hook, limit))


CATALOG: tuple[AttackCatalogEntry, ...] = (
    AttackCatalogEntry("passive", "sample_message", PassiveGuess),
    AttackCatalogEntry("block-channel", "sample_message", BlockChannels),
    _rewriting("share-substitution", "substitute"),
    _rewriting("share-substitution-1", "substitute", limit=1),
    _rewriting("tag-framing", "frame_tags"),
    _rewriting("mask-framing", "frame_masks"),
    _rewriting("length-tamper", "widen_keys"),
    AttackCatalogEntry("swap-half", "encode", SwapHalf),
)


def catalog_for(variant: str, names: Sequence[str] | None = None):
    """The catalog entries that apply to `variant`, optionally only `names`,
    each of which must name a catalog attack that applies (else ValueError)."""
    entries = [e for e in CATALOG if hasattr(VARIANTS[variant], e.needs)]
    if names is None:
        return entries
    applicable = [e.name for e in entries]
    for name in names:
        if name not in applicable:
            known = name in [e.name for e in CATALOG]
            raise ValueError(f"attack {name!r} does not apply to {variant}" if known
                             else f"unknown attack {name!r}")
    return [e for e in entries if e.name in names]
