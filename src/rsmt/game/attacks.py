"""Catalog of adversary strategies used for equilibrium falsification.

Every strategy guesses a uniformly random message (perfect privacy makes any
other guess rule pointless) and differs only in how it tampers.  Strategies
are stateless: all randomness comes from the rng stream the transport hands
them, so one instance can be reused across trials.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from ..transport import EMPTY, AdversaryStrategy
from ..protocols.base import Protocol

LIST_VARIANTS = ("P1", "P2", "P3")


class RandomGuessStrategy(AdversaryStrategy):
    """Base: uniform final guess over the protocol's message space."""

    def __init__(self, protocol: Protocol):
        self.protocol = protocol

    def final_guess(self, view, rng):
        return self.protocol.sample_message(rng)


class PassiveGuess(RandomGuessStrategy):
    """Observes, never tampers: the profile the equilibrium is measured at."""


class BlockChannels(RandomGuessStrategy):
    """Replaces every owned payload with the blocked-channel marker."""

    def observe_and_tamper(self, round_index, direction, own_payloads, public_history, rng):
        return {c: EMPTY for c in own_payloads}


class SubstituteShares(RandomGuessStrategy):
    """Replaces the share-bearing component of owned payloads with fresh
    uniform values, leaving everything else intact."""

    def __init__(self, protocol: Protocol, limit: int | None = None):
        super().__init__(protocol)
        self.limit = limit  # tamper at most this many owned channels

    def observe_and_tamper(self, round_index, direction, own_payloads, public_history, rng):
        if round_index != 0:
            return {}
        p = self.protocol
        channels = sorted(own_payloads)
        if self.limit is not None:
            channels = channels[: self.limit]
        return {c: p.substitute(own_payloads[c], rng) for c in channels}


class TagFraming(RandomGuessStrategy):
    """Randomizes the cross-tags on owned channels, trying to make honest
    channels look tampered (list protocols only)."""

    component = 2  # position of the tags in a list-protocol payload

    def observe_and_tamper(self, round_index, direction, own_payloads, public_history, rng):
        p = self.protocol
        if p.variant not in LIST_VARIANTS or round_index != 0:
            return {}
        k = self.component
        return {
            c: (*payload[:k], tuple(rng.getrandbits(p.ell) for _ in payload[k]), *payload[k + 1:])
            for c, payload in own_payloads.items()
        }


class MaskFraming(TagFraming):
    """Randomizes the masks on owned channels — the dual framing attempt."""

    component = 3


class LengthTamper(RandomGuessStrategy):
    """Ships a key pair of the wrong width (public-discussion protocol),
    forcing the receiver's length check to flag the channel."""

    def observe_and_tamper(self, round_index, direction, own_payloads, public_history, rng):
        p = self.protocol
        if p.variant != "SJST" or round_index != 0:
            return {}
        # One extra bit on each component violates |r|=l, |R|=k.
        return {
            c: ((1 << p.ell) | rng.getrandbits(p.ell), (1 << p.k) | rng.getrandbits(p.k))
            for c in own_payloads
        }


class SwapHalf(RandomGuessStrategy):
    """Runs the sender on a fresh uniform message and substitutes the owned
    channels with the simulated payloads, making the receiver's decode
    ambiguous between the real and the simulated sharing.  When n = 2t-1 the
    attack additionally blocks channel n (if owned) so the two candidate
    halves have equal size.  Only meaningful without a public channel."""

    def observe_and_tamper(self, round_index, direction, own_payloads, public_history, rng):
        p = self.protocol
        if round_index != 0 or p.uses_public:
            return {}
        fake = p.encode(p.sample_message(rng), rng)
        out = {c: fake[c] for c in own_payloads}
        t = len(own_payloads)
        if p.n == 2 * t - 1 and p.n in own_payloads:
            out[p.n] = EMPTY
        return out


@dataclass(frozen=True)
class AttackCatalogEntry:
    name: str
    factory: Callable[[Protocol], AdversaryStrategy]
    variants: tuple[str, ...]  # applicable protocol variants


ALL_VARIANTS = ("SJST", "RSS", "P1", "P2", "P3", "STRAWMAN")

CATALOG: tuple[AttackCatalogEntry, ...] = (
    AttackCatalogEntry("passive", PassiveGuess, ALL_VARIANTS),
    AttackCatalogEntry("block-channel", BlockChannels, ALL_VARIANTS),
    AttackCatalogEntry("share-substitution", SubstituteShares, ALL_VARIANTS),
    AttackCatalogEntry(
        "share-substitution-1",
        lambda p: SubstituteShares(p, limit=1),
        ALL_VARIANTS,
    ),
    AttackCatalogEntry("tag-framing", TagFraming, LIST_VARIANTS),
    AttackCatalogEntry("mask-framing", MaskFraming, LIST_VARIANTS),
    AttackCatalogEntry("length-tamper", LengthTamper, ("SJST",)),
    AttackCatalogEntry("swap-half", SwapHalf, ("RSS", *LIST_VARIANTS, "STRAWMAN")),
)


def catalog_for(variant: str, names: Sequence[str] | None = None):
    entries = [e for e in CATALOG if variant in e.variants]
    if names is not None:
        wanted = set(names)
        unknown = wanted - {e.name for e in CATALOG}
        if unknown:
            raise ValueError(f"unknown attack names {sorted(unknown)}")
        entries = [e for e in entries if e.name in wanted]
    return entries
