"""Exhaustive distribution checks at tiny parameters.

Every function enumerates ALL randomness relevant to the quantity under test
and returns an exact worst-case figure (statistical distance or failure
probability) as a fraction of integer counts — no sampling, no tolerance.
Used by the verification CLI and the acceptance suite; the parameter regimes
are deliberately tiny so each check finishes in seconds.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from fractions import Fraction

from .field import FieldSpec
from .hashing import HashFunction
from .protocols.ciss import CissProtocol
from .protocols.sjst import SjstProtocol
from .sharing import (
    FAIL,
    AmdCodeword,
    AmdSpec,
    RobustSharingSpec,
    SharingSpec,
    amd_decode,
    amd_encode,
    robust_share,
    shamir_share,
)

_NULL_RNG = random.Random(0)  # never consulted when all randomness is forced


class EnumerationTooLarge(ValueError):
    def __init__(self, size: int, limit: int):
        super().__init__(f"enumeration of {size} states exceeds limit {limit}")
        self.size = size
        self.limit = limit


def _check_size(size: int, limit: int = 5_000_000) -> None:
    if size > limit:
        raise EnumerationTooLarge(size, limit)


def _max_distance(dists: list[Counter], total: int) -> Fraction:
    """Worst pairwise total-variation distance between count distributions."""
    worst = Fraction(0)
    keys = set()
    for d in dists:
        keys |= set(d)
    for a, b in itertools.combinations(dists, 2):
        tv = Fraction(sum(abs(a[k] - b[k]) for k in keys), 2 * total)
        worst = max(worst, tv)
    return worst


def shamir_privacy_distance(field: FieldSpec, t: int, n: int) -> Fraction:
    """Exact worst-case distance between the joint distributions of any
    t-share subset for any two secrets, over all sharing polynomials."""
    spec = SharingSpec(t=t, n=n, field=field)
    q = field.q
    _check_size(q ** (t + 1) * n)
    worst = Fraction(0)
    for subset in itertools.combinations(range(1, n + 1), t):
        dists = []
        for secret in range(q):
            c = Counter()
            for coeffs in itertools.product(range(q), repeat=t):
                shares = shamir_share(spec, secret, _NULL_RNG, coeffs=coeffs)
                c[tuple(shares[i] for i in subset)] += 1
            dists.append(c)
        worst = max(worst, _max_distance(dists, q ** t))
    return worst


def amd_failure_max(field: FieldSpec, d: int) -> Fraction:
    """Exact max over messages and nonzero additive offsets of the
    probability (over encoding randomness) that a manipulated codeword
    decodes to a *different* valid message."""
    spec = AmdSpec(field, d)
    q = field.q
    _check_size(q ** d * q ** (d + 2) * q)
    worst = Fraction(0)
    for msg in itertools.product(range(q), repeat=d):
        for delta in itertools.product(range(q), repeat=d + 2):
            if all(v == 0 for v in delta):
                continue
            accepted = 0
            for x in range(q):
                cw = amd_encode(spec, msg, _NULL_RNG, x=x)
                tampered = AmdCodeword(
                    tuple(field.add_int(s, dv) for s, dv in zip(cw.s, delta[:d])),
                    field.add_int(cw.x, delta[d]),
                    field.add_int(cw.tag, delta[d + 1]),
                )
                out = amd_decode(spec, tampered)
                if out is not FAIL and out != msg:
                    accepted += 1
            worst = max(worst, Fraction(accepted, q))
    return worst


def rss_view_distance(spec: RobustSharingSpec, corrupted: frozenset[int]) -> Fraction:
    """Exact worst-case view distance for one corrupted subset, enumerating
    the full encoding randomness (AMD x and every sharing coefficient)."""
    inner = spec.inner
    q = inner.field.q
    d = spec.amd.d
    width = spec.share_len
    if len(corrupted) > inner.t:
        raise ValueError("corrupted set exceeds the sharing threshold")
    states = q ** (1 + width * inner.t)
    _check_size(states * q ** d)
    picked = sorted(corrupted)
    dists = []
    for msg in itertools.product(range(q), repeat=d):
        c = Counter()
        for x in range(q):
            for flat in itertools.product(range(q), repeat=width * inner.t):
                matrix = [flat[k * inner.t:(k + 1) * inner.t] for k in range(width)]
                shares = robust_share(spec, msg, _NULL_RNG, coeff_matrix=matrix, x=x)
                c[tuple(shares[i] for i in picked)] += 1
        dists.append(c)
    return _max_distance(dists, q ** (1 + width * inner.t))


def ciss_view_distance(spec: CissProtocol, corrupted: frozenset[int]) -> Fraction:
    """Exact worst-case view distance for one corrupted subset of the
    one-round list protocols.

    Enumerates exactly the randomness the corrupted payloads depend on: all
    sharing coefficients, the hash functions h_i for corrupted i, and every
    mask that either rides a corrupted channel or blinds a corrupted
    channel's tags.  All other randomness never enters the view, so fixing
    it does not change the view's marginal distribution.
    """
    if len(corrupted) > spec.t:
        raise ValueError("corrupted set exceeds the sharing threshold")
    n, q, d, t = spec.n, spec.field.q, spec.d, spec.t
    c_set = sorted(corrupted)
    others = [j for j in range(1, n + 1)]
    # masks in the view: r_{i,j} blinds T_{i,j} on corrupted i; r_{j,i} rides
    # corrupted channel i.
    mask_pairs = sorted(
        {(i, j) for i in c_set for j in others if j != i}
        | {(j, i) for i in c_set for j in others if j != i}
    )
    hash_states = (1 << (2 * spec.family.domain_bits)) ** len(c_set)
    mask_states = (1 << spec.ell) ** len(mask_pairs)
    coeff_states = q ** (d * t)
    total = coeff_states * hash_states * mask_states
    _check_size(total)
    dom = 1 << spec.family.domain_bits
    tag_mask = (1 << spec.ell) - 1
    dists = []
    for msg_vals in itertools.product(range(q), repeat=d):
        counts = Counter()
        for flat in itertools.product(range(q), repeat=d * t):
            per_coord = []
            for k in range(d):
                per_coord.append(shamir_share(
                    spec.sharing, msg_vals[k], _NULL_RNG, coeffs=flat[k * t:(k + 1) * t]
                ))
            ser = {
                j: spec.serialize_share(tuple(per_coord[k][j] for k in range(d)))
                for j in range(1, n + 1)
            }
            for hvals in itertools.product(range(dom), repeat=2 * len(c_set)):
                hashed = {}
                for idx, i in enumerate(c_set):
                    h = HashFunction(spec.family, hvals[2 * idx], hvals[2 * idx + 1])
                    for j in others:
                        if j != i:
                            hashed[(i, j)] = h.evaluate(ser[j])
                for mvals in itertools.product(range(tag_mask + 1), repeat=len(mask_pairs)):
                    masks = dict(zip(mask_pairs, mvals))
                    view = []
                    for idx, i in enumerate(c_set):
                        tags = tuple(
                            hashed[(i, j)] ^ masks[(i, j)] for j in others if j != i
                        )
                        rides = tuple(masks[(j, i)] for j in others if j != i)
                        view.append(
                            (ser[i], (hvals[2 * idx], hvals[2 * idx + 1]), tags, rides)
                        )
                    counts[tuple(view)] += 1
        dists.append(counts)
    return _max_distance(dists, total)


def sjst_view_distance(spec: SjstProtocol, corrupted: frozenset[int]) -> Fraction:
    """Exact worst-case view distance of a passive corrupted subset for the
    public-discussion protocol: corrupted channels' key pairs plus the whole
    public history (flags, hash commitments, offsets, ciphertext).

    Enumerates all sender keys and receiver hash choices; tractable only for
    n=2 with tiny l = k.
    """
    n, ell, k = spec.n, spec.ell, spec.k
    if len(corrupted) >= n:
        raise ValueError("corrupted set must leave at least one honest channel")
    key_states = (1 << (ell + k)) ** n
    hash_states = (1 << (2 * k)) ** n
    _check_size(key_states * hash_states * (1 << k))
    picked = sorted(corrupted)
    dists = []
    total = key_states * hash_states
    for m in range(1 << k):
        counts = Counter()
        for keys in itertools.product(
            range(1 << ell), range(1 << k), repeat=n
        ):
            r = {i: keys[2 * (i - 1)] for i in range(1, n + 1)}
            big_r = {i: keys[2 * (i - 1) + 1] for i in range(1, n + 1)}
            for hvals in itertools.product(range(1 << k), repeat=2 * n):
                h_entries = []
                mask = 0
                for i in range(1, n + 1):
                    h = HashFunction(spec.family, hvals[2 * (i - 1)], hvals[2 * (i - 1) + 1])
                    h_entries.append((h.a, h.b, r[i] ^ h.evaluate(big_r[i])))
                    mask ^= big_r[i]
                view = (
                    tuple((r[i], big_r[i]) for i in picked),
                    tuple(h_entries),
                    m ^ mask,
                )
                counts[view] += 1
        dists.append(counts)
    return _max_distance(dists, total)
