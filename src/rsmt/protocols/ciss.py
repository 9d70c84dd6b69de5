"""One-round transmission with per-channel hashes and masked cross-tags.

Channel i carries its share s_i, a hash function h_i, the tags
T_{i,j} = h_i(ser(s_j)) xor r_{i,j} for every other channel j, and the masks
r_{j,i} that other channels' tags of s_i were blinded with.  Because each tag
and its mask travel on different channels, no single channel exposes an
unmasked function of another channel's share — privacy of the threshold
sharing is preserved exactly.

The receiver recomputes every tag and builds per-channel mismatch lists L_i.
The three variants differ in threshold and in how the lists drive the output:

  MINORITY ("P1", threshold floor((n-1)/2)): if a strict majority of lists
    coincide with some L, the channels in L are declared tampered and the
    message is rebuilt from shares outside L; otherwise FAIL.
  UNANIMOUS ("P2", threshold n-1): every mismatched pair (i, j) puts both
    endpoints into L; any non-empty L aborts with FAIL after declaring
    detection — a framing attempt self-incriminates.
  ROBUST ("P3", threshold floor((n-1)/3)): the majority list only drives
    detection; the message is rebuilt from all n shares through
    error-correcting reconstruction tolerating floor((n-1)/3) bad shares.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

from ..field import FieldSpec
from ..hashing import HashFamilySpec, HashFunction
from ..sharing import FAIL, SharingSpec, rs_reconstruct, shamir_reconstruct, shamir_share
from .base import OneRoundProtocol, ProtocolError, int_in_range, vector_in_field

P1 = "P1"
P2 = "P2"
P3 = "P3"


# variant -> (threshold t for n channels, requirement-table row)
_VARIANTS = {
    P1: (lambda n: (n - 1) // 2, "minority-tag-bits"),
    P2: (lambda n: n - 1, "unanimous-tag-bits"),
    P3: (lambda n: (n - 1) // 3, "robust-tag-bits"),
}


@dataclass(frozen=True)
class ChannelPayload:
    """Parsed content of one channel: (s_i, h_i, tags, masks)."""

    share: tuple[int, ...]
    hash_fn: HashFunction
    tags: dict[int, int]  # j -> T_{i,j}
    masks: dict[int, int]  # j -> r_{j,i}


class CissProtocol(OneRoundProtocol):
    """Shared configuration of the three list-checking variants."""

    __slots__ = ("variant", "n", "field", "d", "ell", "t", "sharing", "family", "bound")

    def __init__(self, variant: str, n: int, field: FieldSpec, d: int, ell: int):
        if variant not in _VARIANTS:
            raise ProtocolError(f"unknown variant {variant!r}")
        threshold, self.bound = _VARIANTS[variant]
        t = threshold(n)
        if t < 1:
            raise ProtocolError(f"{variant} with n={n} leaves no tolerable corruption")
        if d < 1:
            raise ProtocolError("message length d must be >= 1")
        domain_bits = d * field.elem_bits
        if not 1 <= ell <= domain_bits:
            raise ProtocolError(
                f"need 1 <= ell <= {domain_bits} (serialized share width), got {ell}"
            )
        self.variant = variant
        self.n = n
        self.field = field
        self.d = d
        self.ell = ell
        self.t = t
        self.sharing = SharingSpec(t=t, n=n, field=field)
        self.family = HashFamilySpec(domain_bits, ell)

    def serialize_share(self, share: tuple[int, ...]) -> int:
        bits = self.field.elem_bits
        acc = 0
        for idx, v in enumerate(share):
            acc |= v << (idx * bits)
        return acc

    def encode(self, m, rng: random.Random) -> dict[int, tuple]:
        return ciss_sender_encode(self, m, rng)

    def decode(self, payloads):
        return ciss_receiver_decode(self, payloads)

    def substitute(self, payload, rng: random.Random):
        _share, hcoef, tags, masks = payload
        return (tuple(rng.randrange(self.field.q) for _ in range(self.d)), hcoef, tags, masks)

    def to_json(self) -> dict:
        return {
            "variant": self.variant,
            "n": self.n,
            "d": self.d,
            "ell": self.ell,
            "field": self.field.to_json(),
        }


def ciss_sender_encode(
    spec: CissProtocol,
    m,
    rng: random.Random,
    coeff_matrix=None,
    hash_fns=None,
    mask_matrix=None,
) -> dict[int, tuple]:
    """Share, hash, and cross-tag the message.

    The keyword arguments force the sharing coefficients, per-channel hash
    functions, and the mask matrix r_{i,j}; tests and the exhaustive privacy
    harness use them to enumerate all protocol randomness.
    """
    spec.check_message(m)
    n = spec.n
    per_coord = []
    for k in range(spec.d):
        forced = coeff_matrix[k] if coeff_matrix is not None else None
        per_coord.append(shamir_share(spec.sharing, m[k], rng, coeffs=forced))
    shares = {i: tuple(per_coord[k][i] for k in range(spec.d)) for i in range(1, n + 1)}
    if hash_fns is None:
        hash_fns = {i: spec.family.sample(rng) for i in range(1, n + 1)}
    if mask_matrix is None:
        mask_matrix = {
            (i, j): rng.getrandbits(spec.ell)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if i != j
        }
    payloads = {}
    for i in range(1, n + 1):
        h = hash_fns[i]
        tags = tuple(
            h.evaluate(spec.serialize_share(shares[j])) ^ mask_matrix[(i, j)]
            for j in range(1, n + 1)
            if j != i
        )
        masks = tuple(mask_matrix[(j, i)] for j in range(1, n + 1) if j != i)
        payloads[i] = (shares[i], (h.a, h.b), tags, masks)
    return payloads


def _parse_all(spec: CissProtocol, payloads) -> dict[int, ChannelPayload]:
    """Parse every channel payload; malformed content degrades to zeros so a
    blocked or garbled channel behaves exactly like a zero-substituted one."""
    parsed = {}
    n = spec.n
    for i in range(1, n + 1):
        p = payloads[i]
        others = [j for j in range(1, n + 1) if j != i]
        ok = (
            isinstance(p, tuple)
            and len(p) == 4
            and vector_in_field(p[0], spec.field.q, spec.d)
            and isinstance(p[1], tuple)
            and len(p[1]) == 2
            and all(
                isinstance(c, int) and 0 <= c < (1 << spec.family.domain_bits)
                for c in p[1]
            )
            and isinstance(p[2], tuple)
            and len(p[2]) == n - 1
            and all(int_in_range(v, spec.ell) for v in p[2])
            and isinstance(p[3], tuple)
            and len(p[3]) == n - 1
            and all(int_in_range(v, spec.ell) for v in p[3])
        )
        if ok:
            parsed[i] = ChannelPayload(
                p[0],
                HashFunction(spec.family, *p[1]),
                dict(zip(others, p[2])),
                dict(zip(others, p[3])),
            )
        else:
            parsed[i] = ChannelPayload(
                (0,) * spec.d,
                HashFunction(spec.family, 0, 0),
                {j: 0 for j in others},
                {j: 0 for j in others},
            )
    return parsed


def mismatch_lists(spec: CissProtocol, parsed: dict[int, ChannelPayload]) -> dict[int, tuple]:
    """L_i = channels whose share fails channel i's tag check.

    T_{i,j} comes from channel i, while s_j and the mask r_{i,j} come from
    channel j, so forging a check on an honest pair needs a hash collision.
    """
    n = spec.n
    lists = {}
    for i in range(1, n + 1):
        pi = parsed[i]
        bad = []
        for j in range(1, n + 1):
            if j == i:
                continue
            pj = parsed[j]
            if pi.hash_fn.evaluate(spec.serialize_share(pj.share)) ^ pj.masks[i] != pi.tags[j]:
                bad.append(j)
        lists[i] = tuple(bad)
    return lists


def _majority_list(spec: CissProtocol, lists: dict[int, tuple]):
    counts = Counter(lists.values())
    best, cnt = counts.most_common(1)[0]
    if cnt >= spec.n // 2 + 1:
        return best
    return None


def _reconstruct_plain(spec: CissProtocol, parsed, channels):
    picked = sorted(channels)[: spec.t + 1]
    return tuple(
        shamir_reconstruct(spec.sharing, {i: parsed[i].share[k] for i in picked})
        for k in range(spec.d)
    )


def ciss_receiver_decode(spec: CissProtocol, payloads):
    """Returns (message or FAIL, detected channel list)."""
    parsed = _parse_all(spec, payloads)
    lists = mismatch_lists(spec, parsed)
    if spec.variant == P2:
        union: set[int] = set()
        for i, bad in lists.items():
            for j in bad:
                union.add(i)
                union.add(j)
        if union:
            return FAIL, sorted(union)
        return _reconstruct_plain(spec, parsed, range(1, spec.n + 1)), []

    majority = _majority_list(spec, lists)
    if majority is None:
        return FAIL, []
    if spec.variant == P1:
        good = [i for i in range(1, spec.n + 1) if i not in majority]
        if len(good) <= spec.t:
            return FAIL, list(majority)
        return _reconstruct_plain(spec, parsed, good), list(majority)

    # ROBUST variant: the list only drives detection; reconstruction uses all
    # n shares with error correction.
    out = []
    for k in range(spec.d):
        shares = {i: parsed[i].share[k] for i in range(1, spec.n + 1)}
        got = rs_reconstruct(spec.sharing, shares, max_errors=spec.t)
        if got is FAIL:
            return FAIL, list(majority)
        out.append(got)
    return tuple(out), list(majority)
