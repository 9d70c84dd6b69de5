"""Three-round transmission over n channels plus an authenticated public
channel, with per-channel key pairs and hash-based tamper flags.

Round 1 (channels, S->R): fresh (r_i, R_i) per channel.
Round 2 (public, R->S):   length flags B and, per surviving channel, the key
                          (a, b) of a hash function h_i with offset
                          T'_i = r'_i xor h_i(R'_i).
Round 3 (public, S->R):   flags V marking channels whose offset disagrees with
                          the sender's own T_i = r_i xor h_i(R_i), plus the
                          ciphertext c = m xor XOR of the surviving R_i.
The receiver unmasks with its stored R'_i on channels with b_i = v_i = 0.
Between rounds the sender keeps its key dict {i: (r_i, R_i)} and the receiver
the dict {i: R'_i} of the channels it did not flag.

Channels flagged in B or V raise detection events; an undetected wrong output
requires a hash collision on some tampered channel, which happens with
probability at most (n-1) * 2^(1-l).
"""

from __future__ import annotations

import random

from ..config import check_keys, read_ints
from ..field import MAX_BINARY_M, ints_below
from ..hashing import HashFamilySpec
from ..transport import RECEIVER_TO_SENDER, SENDER_TO_RECEIVER
from .base import Protocol, ProtocolError


class SjstProtocol(Protocol):
    """Configuration: n channels, l tag bits, k key/message bits."""

    variant = "SJST"
    uses_public = True
    bound = "pd-tag-bits"

    __slots__ = ("n", "ell", "k", "family")

    def __init__(self, n: int, ell: int, k: int):
        if n < 1:
            raise ProtocolError("need n >= 1 channels")
        if not 1 <= ell <= k:
            raise ProtocolError(f"need 1 <= ell <= k, got ell={ell}, k={k}")
        if k > MAX_BINARY_M:
            raise ProtocolError(f"k={k} makes a {k}-bit hash domain, over the "
                                f"{MAX_BINARY_M}-bit limit")
        self.n = n
        self.ell = ell
        self.k = k
        self.family = HashFamilySpec(k, ell)

    def message_space_size(self) -> int:
        return 1 << self.k

    def sample_message(self, rng: random.Random) -> int:
        return rng.getrandbits(self.k)

    def run(self, engine, m: int):
        if not ints_below((m,), 1 << self.k, 1):
            raise ProtocolError(f"message must be a {self.k}-bit integer")
        keys, payloads = sjst_round1_sender(self, engine.honest_rng)
        delivered = engine.send_round(SENDER_TO_RECEIVER, payloads)
        pub2, kept, detects2 = sjst_round2_receiver(self, delivered, engine.honest_rng)
        engine.send_public(RECEIVER_TO_SENDER, pub2)
        for i in detects2:
            engine.emit_detect(i)
        pub3, detects3 = sjst_round3_sender(self, keys, pub2, m)
        engine.send_public(SENDER_TO_RECEIVER, pub3)
        for i in detects3:
            engine.emit_detect(i)
        return sjst_finalize_receiver(self, kept, pub3)

    def substitute(self, payload, rng: random.Random) -> tuple[int, int]:
        return (rng.getrandbits(self.ell), rng.getrandbits(self.k))

    def widen_keys(self, payload, rng: random.Random) -> tuple[int, int]:
        """A key pair one bit too wide in each part (|r| = l+1, |R| = k+1),
        which the receiver's length check flags."""
        return ((1 << self.ell) | rng.getrandbits(self.ell),
                (1 << self.k) | rng.getrandbits(self.k))

    def to_json(self) -> dict:
        return {"variant": "SJST", "n": self.n, "ell": self.ell, "k": self.k}

    @classmethod
    def from_json(cls, obj: dict) -> "SjstProtocol":
        check_keys(obj, "SJST", "variant", "n", "ell", "k")
        return cls(*read_ints(obj, "n", "ell", "k"))


def sjst_round1_sender(spec: SjstProtocol, rng: random.Random):
    """Fresh uniform key pair (r_i, R_i) on every channel.

    Returns (the sender's key dict, the channel payloads)."""
    keys = {
        i: (rng.getrandbits(spec.ell), rng.getrandbits(spec.k))
        for i in range(1, spec.n + 1)
    }
    return keys, dict(keys)


def sjst_round2_receiver(spec: SjstProtocol, payloads, rng: random.Random):
    """Flag malformed channels, commit hash offsets for the rest.

    The keys are drawn here, so their offsets skip the range check of
    `HashFamilySpec.tag_rows`: one field product per kept channel.
    Returns (public payload (B, H), the kept {i: R'_i}, detected channels).
    """
    b = []
    kept = {}
    h_entries = []
    detects = []
    r_limit, big_r_limit = 1 << spec.ell, 1 << spec.k
    family = spec.family
    sample, mul = family.sample, family.field.mul_int
    tag_mask = (1 << spec.ell) - 1
    for i in range(1, spec.n + 1):
        payload = payloads[i]
        # the rule of `rsmt.field.ints_below`, inline with a limit per part
        if not (type(payload) is tuple and len(payload) == 2 and type(r_i := payload[0]) is int
                and type(big_r_i := payload[1]) is int and 0 <= r_i < r_limit
                and 0 <= big_r_i < big_r_limit):
            b.append(1)
            h_entries.append(None)  # ABSENT
            detects.append(i)
            continue
        b.append(0)
        kept[i] = big_r_i
        key_a, key_b = sample(rng)
        h_entries.append((key_a, key_b, r_i ^ ((mul(key_a, big_r_i) ^ key_b) & tag_mask)))
    public = (tuple(b), tuple(h_entries))
    return public, kept, detects


def sjst_round3_sender(spec: SjstProtocol, keys: dict[int, tuple[int, int]], public, m: int):
    """Compare offsets, flag disagreements, mask the message.

    Each public key is range-checked as `HashFamilySpec.tag_rows` does, then
    hashes the sender's R_i with one field product.
    Returns (public payload (V, c), detected channels).
    """
    b, h_entries = public
    v = []
    detects = []
    mask = 0
    field = spec.family.field
    size, mul = field.q, field.mul_int
    tag_mask = (1 << spec.ell) - 1
    for i, flag, entry in zip(range(1, spec.n + 1), b, h_entries):
        if flag == 1:
            v.append(0)  # already flagged; V covers only surviving channels
            continue
        r_i, big_r_i = keys[i]
        key_a, key_b, offset = entry  # (a, b, T'_i)
        if not (0 <= key_a < size and 0 <= key_b < size):
            raise ValueError("hash coefficients outside the field")
        if r_i ^ ((mul(key_a, big_r_i) ^ key_b) & tag_mask) != offset:
            v.append(1)
            detects.append(i)
        else:
            v.append(0)
            mask ^= big_r_i
    return (tuple(v), m ^ mask), detects


def sjst_finalize_receiver(spec: SjstProtocol, kept: dict[int, int], public) -> int:
    """Unmask with the kept R'_i (channels with b_i = 0) where v_i = 0."""
    v, c = public
    mask = 0
    for i, big_r_i in kept.items():
        if v[i - 1] == 0:
            mask ^= big_r_i
    return c ^ mask
