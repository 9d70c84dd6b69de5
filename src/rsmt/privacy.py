"""Exhaustive distribution checks at tiny parameters.

Every function enumerates ALL randomness relevant to the quantity under test
and returns an exact worst-case figure (statistical distance or failure
probability) as a fraction of integer counts — no sampling, no tolerance.
The sharing checks run the production `shamir_share`, `amd_encode` and
`robust_share` with a `ForcedDraws` stand-in for the rng, once per point of
range(q)^draws, so they see the draw path the simulator runs.
`CHECKS` fixes the parameters: it is the one table that `rsmt verify` prints
and the acceptance suite asserts.  The regimes are deliberately tiny so each
check finishes in seconds.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from typing import Callable, NamedTuple

from .field import FieldSpec
from .hashing import HashFamilySpec, offset_collision_prob_exhaustive
from .protocols.ciss import P1, CissProtocol
from .protocols.sjst import SjstProtocol
from .sharing import (
    FAIL,
    AmdSpec,
    RobustSharingSpec,
    SharingSpec,
    amd_decode,
    amd_encode,
    robust_share,
    shamir_share,
)


class ForcedDraws:
    """Stand-in for `random.Random` whose `randrange` returns the given
    values in order; drawing one more than given raises RuntimeError."""

    __slots__ = ("_values",)

    def __init__(self, values):
        self._values = iter(values)

    def randrange(self, stop: int) -> int:
        value = next(self._values, None)
        if value is None:
            raise RuntimeError("drew more random values than were forced")
        return value


def _every_draw(q: int, draws: int):
    """One `ForcedDraws` per point of range(q)^draws."""
    return map(ForcedDraws, itertools.product(range(q), repeat=draws))


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


def hash_pairs_uniform(family: HashFamilySpec) -> bool:
    """Whether every pair of distinct inputs is mapped onto each of the
    4^l tag pairs by exactly 2^(2m-2l) members of the family."""
    m, ell = family.domain_bits, family.range_bits
    for x1, x2 in itertools.permutations(range(1 << m), 2):
        counts = Counter((family.tag(key, x1), family.tag(key, x2))
                         for key in family.members())
        if len(counts) != 4 ** ell or set(counts.values()) != {1 << (2 * (m - ell))}:
            return False
    return True


def hash_offset_collision_max(family: HashFamilySpec) -> float:
    """Worst exact Pr[c1 ^ h(x1) == c2 ^ h(x2)] over distinct (x, c) pairs."""
    pairs = itertools.product(range(1 << family.domain_bits), range(1 << family.range_bits))
    return max(
        offset_collision_prob_exhaustive(family, x1, c1, x2, c2)
        for (x1, c1), (x2, c2) in itertools.permutations(pairs, 2)
    )


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
            for rng in _every_draw(q, t):
                shares = shamir_share(spec, secret, rng)
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
            for rng in _every_draw(q, 1):
                cw = amd_encode(spec, msg, rng)
                out = amd_decode(spec, tuple(map(field.add_int, cw, delta)))
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
        for rng in _every_draw(q, 1 + width * inner.t):  # x, then coefficients
            shares = robust_share(spec, msg, rng)
            c[tuple(shares[i] for i in picked)] += 1
        dists.append(c)
    return _max_distance(dists, states)


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
    tag_mask = (1 << spec.ell) - 1
    dists = []
    for msg_vals in itertools.product(range(q), repeat=d):
        counts = Counter()
        for rng in _every_draw(q, d * t):
            per_coord = [shamir_share(spec.sharing, msg_vals[k], rng) for k in range(d)]
            ser = {
                j: spec.serialize_share(tuple(per_coord[k][j] for k in range(d)))
                for j in range(1, n + 1)
            }
            for hkeys in itertools.product(spec.family.members(), repeat=len(c_set)):
                hashed = {}
                for i, key in zip(c_set, hkeys):
                    for j in others:
                        if j != i:
                            hashed[(i, j)] = spec.family.tag(key, ser[j])
                for mvals in itertools.product(range(tag_mask + 1), repeat=len(mask_pairs)):
                    masks = dict(zip(mask_pairs, mvals))
                    view = []
                    for i, key in zip(c_set, hkeys):
                        tags = tuple(
                            hashed[(i, j)] ^ masks[(i, j)] for j in others if j != i
                        )
                        rides = tuple(masks[(j, i)] for j in others if j != i)
                        view.append((ser[i], key, tags, rides))
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
            for hkeys in itertools.product(spec.family.members(), repeat=n):
                h_entries = []
                mask = 0
                for i, key in zip(range(1, n + 1), hkeys):
                    h_entries.append((*key, r[i] ^ spec.family.tag(key, big_r[i])))
                    mask ^= big_r[i]
                view = (
                    tuple((r[i], big_r[i]) for i in picked),
                    tuple(h_entries),
                    m ^ mask,
                )
                counts[view] += 1
        dists.append(counts)
    return _max_distance(dists, total)


class Check(NamedTuple):
    name: str
    bound: object  # as printed by `rsmt verify`
    run: Callable[[], tuple[object, bool]]  # -> (observed, ok)


def _at_most(name: str, bound, measure: Callable[[], object]) -> Check:
    def run():
        observed = measure()
        return observed, observed <= bound
    return Check(name, bound, run)


def _hash_checks(ell: int) -> tuple[Check, Check]:
    def pairs():
        ok = hash_pairs_uniform(HashFamilySpec(3, ell))
        return "uniform" if ok else "nonuniform", ok
    return (
        Check(f"hash-pair-counts(m=3,l={ell})", f"{2 ** (6 - 2 * ell)} per pair", pairs),
        _at_most(f"hash-offset-collision(m=3,l={ell})", 2.0 ** (1 - ell),
                 lambda: hash_offset_collision_max(HashFamilySpec(3, ell))),
    )


def _rss_view_worst() -> Fraction:
    gf4 = FieldSpec.binary(2)
    spec = RobustSharingSpec(AmdSpec(gf4, 1), SharingSpec(t=2, n=3, field=gf4))
    return max(rss_view_distance(spec, frozenset(c))
               for c in itertools.combinations((1, 2, 3), 2))


def _minority_view_worst() -> Fraction:
    spec = CissProtocol(P1, 3, FieldSpec.prime(5), 1, 2)
    return max(ciss_view_distance(spec, frozenset({c})) for c in (1, 2, 3))


CHECKS: tuple[Check, ...] = (
    *_hash_checks(1), *_hash_checks(2), *_hash_checks(3),
    *(_at_most(f"amd-failure(q={q},d=1)", Fraction(2, q),
               lambda q=q: amd_failure_max(FieldSpec.prime(q), 1)) for q in (5, 7)),
    _at_most("shamir-privacy(GF5,t=2,n=4)", 0,
             lambda: shamir_privacy_distance(FieldSpec.prime(5), 2, 4)),
    _at_most("rss-view(n=3,GF4,t=2)", 0, _rss_view_worst),
    _at_most("minority-view(n=3,GF5,l=2)", 0, _minority_view_worst),
)
