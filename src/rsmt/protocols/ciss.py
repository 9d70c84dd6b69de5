"""One-round transmission with per-channel hashes and masked cross-tags.

Channel i carries its share s_i, the key (a, b) of its hash function h_i,
the tags T_{i,j} = h_i(ser(s_j)) xor r_{i,j} for every other channel j, and
the masks r_{j,i} that other channels' tags of s_i were blinded with.
Because each tag and its mask travel on different channels, no single
channel exposes an unmasked function of another channel's share — privacy
of the threshold sharing is preserved exactly.

Sender and receiver each build the tag matrix in one `tag_rows` call; the
receiver compares it with the sent tags to build per-channel mismatch lists L_i.
A round in which no payload was replaced is the sender's own: its lists are
empty, and the receiver computes no tag for it.
Only a replaced payload is tested against the wire-value rule, and read as
all zeros if malformed: the sender draws every part of its own in range.
The three variants differ in threshold and in how the lists drive the output:

  MINORITY ("P1", threshold floor((n-1)/2)): if a strict majority of lists
    coincide with some L, the channels in L are declared tampered and the
    message is rebuilt from shares outside L; otherwise FAIL.
  UNANIMOUS ("P2", threshold n-1): every mismatched pair (i, j) puts both
    endpoints into L; any non-empty L aborts with FAIL after declaring
    detection — a framing attempt self-incriminates.
  ROBUST ("P3", threshold floor((n-1)/3)): the majority list only drives
    detection, and no list is declared without one; the message is rebuilt
    from all n shares through error-correcting reconstruction tolerating
    floor((n-1)/3) bad shares, so it is delivered whenever at most that
    many channels are tampered, majority or not.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, repeat
from operator import mul, ne

from ..field import MAX_BINARY_M, FieldSpec, ints_below
from ..hashing import HashFamilySpec
from ..sharing import FAIL, SharingSpec, _share_rows, rs_reconstruct, shamir_reconstruct
from .base import OneRoundProtocol, ProtocolError

P1 = "P1"
P2 = "P2"
P3 = "P3"


# variant -> (threshold t for n channels, requirement-table row)
_VARIANTS = {
    P1: (lambda n: (n - 1) // 2, "minority-tag-bits"),
    P2: (lambda n: n - 1, "unanimous-tag-bits"),
    P3: (lambda n: (n - 1) // 3, "robust-tag-bits"),
}

# Channel i's payload is (share, (a, b) of h_i, tags, masks); tags and masks
# list the other channels j != i in ascending order, at index `slot(i, j)`.
TAGS, MASKS = 2, 3


def slot(i: int, j: int) -> int:
    """Index of channel j in channel i's tags and masks."""
    return j - 1 - (j > i)


@dataclass(eq=False)
class CissProtocol(OneRoundProtocol):
    """Shared configuration of the three list-checking variants."""

    __slots__ = ("variant", "n", "field", "d", "ell", "t", "sharing", "family", "bound")
    variant: str
    n: int
    field: FieldSpec
    d: int
    ell: int

    def __post_init__(self):
        super().__post_init__()
        variant, n, d, ell, bits = self.variant, self.n, self.d, self.ell, self.field.elem_bits
        if variant not in _VARIANTS:
            raise ProtocolError(f"unknown variant {variant!r}")
        threshold, self.bound = _VARIANTS[variant]
        self.t = t = threshold(n)
        if t < 1:
            raise ProtocolError(f"{variant} with n={n} leaves no tolerable corruption")
        if d < 1:
            raise ProtocolError("message length d must be >= 1")
        domain_bits = d * bits
        if domain_bits > MAX_BINARY_M:
            raise ProtocolError(f"d={d} elements of {bits} bits make a "
                                f"{domain_bits}-bit hash domain, over the {MAX_BINARY_M}-bit limit")
        if not 1 <= ell <= domain_bits:
            raise ProtocolError(f"need 1 <= ell <= {domain_bits} (serialized share width), "
                                f"got {ell}")
        self.sharing = SharingSpec(t=t, n=n, field=self.field)
        self.family = HashFamilySpec(domain_bits, ell)

    def serialize_shares(self, shares) -> list[int]:
        """The hash input of each share: its elements packed into one int,
        element k at bit k * elem_bits."""
        weights = [1 << k * self.field.elem_bits for k in range(self.d)]
        return [sum(map(mul, share, weights)) for share in shares]

    def encode(self, m, rng: random.Random) -> dict[int, tuple]:
        return ciss_sender_encode(self, m, rng)

    def decode(self, payloads, replaced):
        return ciss_receiver_decode(self, payloads, replaced)

    def substitute(self, payload, rng: random.Random):
        _share, key, tags, masks = payload
        return (tuple(rng.randrange(self.field.q) for _ in range(self.d)), key, tags, masks)

    def frame_tags(self, payload, rng: random.Random):
        """`payload` with random cross-tags, trying to make honest channels
        look tampered."""
        return self._randomize(payload, TAGS, rng)

    def frame_masks(self, payload, rng: random.Random):
        """`payload` with random masks: the dual framing attempt."""
        return self._randomize(payload, MASKS, rng)

    def _randomize(self, payload, k: int, rng: random.Random):
        fresh = tuple(rng.getrandbits(self.ell) for _ in payload[k])
        return (*payload[:k], fresh, *payload[k + 1:])


def ciss_sender_encode(spec: CissProtocol, m, rng: random.Random) -> dict[int, tuple]:
    """Share, hash, and cross-tag the message.  The masks are drawn i-major
    into an n x n square, r_{i,j} at row i and column j; channel i's tags
    are row i of the tag matrix xor row i of the square, and its masks are
    column i of the square, each without the undrawn diagonal."""
    n = spec.n
    shares = list(zip(*_share_rows(spec.sharing, spec.check_message(m), rng)))
    keys = [spec.family.sample(rng) for _ in range(n)]
    # r_{i,j} for i != j, drawn i-major; the undrawn diagonal holds 0
    draws = list(map(rng.getrandbits, repeat(spec.ell, n * (n - 1))))
    for i in range(n):
        draws.insert(i * (n + 1), 0)
    square = list(zip(*[iter(draws)] * n))  # row i: r_{i,.}
    columns = list(zip(*square))  # column i: r_{.,i}
    rows = spec.family.tag_rows(keys, spec.serialize_shares(shares), square)
    payloads = {}
    for i, row in enumerate(rows):
        del row[i]
        payloads[i + 1] = (shares[i], keys[i], tuple(row), columns[i][:i] + columns[i][i + 1:])
    return payloads


def _parse_all(spec: CissProtocol, payloads, replaced) -> dict[int, tuple]:
    """Every channel's payload, where each channel in `replaced` is tested
    once and read as all zeros if malformed, like a zero-substituted one;
    the other payloads are the sender's and are read as they are."""
    limits, lengths = _shapes(spec)
    zero = tuple((0,) * length for length in lengths)
    return {**payloads, **{i: zero for i in replaced
                           if not _well_formed_payload(payloads[i], limits, lengths)}}


def _shapes(spec: CissProtocol) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The limits and the lengths of a payload's parts: share, key, tags, masks."""
    tag_limit, others = 1 << spec.ell, spec.n - 1
    return (spec.field.q, spec.family.field.q, tag_limit, tag_limit), (spec.d, 2, others, others)


def _well_formed_payload(p, limits, lengths) -> bool:
    """Whether p is a 4-tuple whose parts pass `ints_below` at their `_shapes`."""
    return type(p) is tuple and len(p) == 4 and all(map(ints_below, p, limits, lengths))


def mismatch_lists(spec: CissProtocol, parsed: dict[int, tuple], replaced) -> dict[int, tuple]:
    """L_i = channels whose share fails channel i's tag check.

    T_{i,j} comes from channel i, while s_j and the mask r_{i,j} come from
    channel j, so forging a check on an honest pair needs a hash collision.
    With the diagonal put back, channel j's masks are column j of the
    sender's mask square, so the rows r_{i,.} are their transpose.  A round
    with nothing in `replaced` is the sender's own, whose tags all check:
    its lists are empty and no tag is computed.
    """
    n = spec.n
    channels = range(1, n + 1)
    if not replaced:
        return dict.fromkeys(channels, ())
    payloads = [parsed[j] for j in channels]
    serialized = spec.serialize_shares([p[0] for p in payloads])
    rows = zip(*[p[MASKS][:j] + (0,) + p[MASKS][j:] for j, p in enumerate(payloads)])
    tagged = spec.family.tag_rows([p[1] for p in payloads], serialized, rows)
    lists = {}
    for i, p, expected, others in zip(channels, payloads, tagged, _others(n)):
        del expected[i - 1]
        sent = p[TAGS]
        lists[i] = () if tuple(expected) == sent else tuple(
            compress(others, map(ne, expected, sent)))
    return lists


@lru_cache(maxsize=32)
def _others(n: int) -> tuple[tuple[int, ...], ...]:
    """Entry i - 1 lists the channels j != i in ascending order."""
    return tuple((*range(1, i), *range(i + 1, n + 1)) for i in range(1, n + 1))


def _majority_list(spec: CissProtocol, lists: dict[int, tuple]):
    best, cnt = Counter(lists.values()).most_common(1)[0]
    return best if cnt >= spec.n // 2 + 1 else None


def _reconstruct_plain(spec: CissProtocol, parsed, channels):
    picked = sorted(channels)[: spec.t + 1]
    return tuple(
        shamir_reconstruct(spec.sharing, {i: parsed[i][0][k] for i in picked})
        for k in range(spec.d)
    )


def ciss_receiver_decode(spec: CissProtocol, payloads, replaced):
    """(message or FAIL, detected channel list), testing only `replaced`."""
    parsed = _parse_all(spec, payloads, replaced)
    lists = mismatch_lists(spec, parsed, replaced)
    if spec.variant == P2:
        union = {k for i, bad in lists.items() for j in bad for k in (i, j)}
        if union:
            return FAIL, sorted(union)
        return _reconstruct_plain(spec, parsed, range(1, spec.n + 1)), []

    majority = _majority_list(spec, lists)
    if spec.variant == P1:
        if majority is None:
            return FAIL, []
        # The channels whose lists agree on `majority` are not in it, so
        # more than t shares are left to rebuild from.
        good = [i for i in range(1, spec.n + 1) if i not in majority]
        return _reconstruct_plain(spec, parsed, good), list(majority)

    # ROBUST variant: the list drives detection (none without a majority) and
    # goes last, so the decoder's candidate comes from unflagged shares.
    detected = list(majority or ())
    order = [i for i in range(1, spec.n + 1) if i not in detected] + detected
    out = []
    for k in range(spec.d):
        shares = {i: parsed[i][0][k] for i in order}
        got = rs_reconstruct(spec.sharing, shares, max_errors=spec.t)
        if got is FAIL:
            return FAIL, detected
        out.append(got)
    return tuple(out), detected
