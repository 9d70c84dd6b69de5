"""Exhaustive distribution checks at tiny parameters.

Every function enumerates ALL randomness relevant to the quantity under test
and returns an exact worst-case figure (statistical distance or failure
probability) as a fraction of integer counts — no sampling, no tolerance.
The Shamir, RSS and SJST view checks go through one enumerator,
`view_distance`: it runs the production code (`shamir_share`,
`robust_share`, the three SJST rounds) once per secret and per point of the
product of the draws' ranges, with a `ForcedDraws` stand-in for the rng that
must serve exactly the draws the code makes, so each check sees the draw
path the simulator runs.  The AMD check drives `amd_encode` the same way.
`CHECKS` fixes the parameters: it is the one table that `rsmt verify` prints
and the acceptance suite asserts.  The regimes are deliberately tiny so each
check finishes in seconds.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import Callable, NamedTuple

from .field import FieldSpec
from .hashing import HashFamilySpec, offset_collision_prob_exhaustive
from .protocols.ciss import P1, CissProtocol
from .protocols.sjst import (
    SjstProtocol,
    sjst_round1_sender,
    sjst_round2_receiver,
    sjst_round3_sender,
)
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
    """Stand-in for `random.Random` that serves each `randrange(stop)` and
    `getrandbits(k)` with the next given value.  A value outside the range
    asked for, a draw past the last value, or (at `finish`) a value left
    undrawn raises RuntimeError."""

    __slots__ = ("_values",)

    def __init__(self, values):
        self._values = iter(values)

    def randrange(self, stop: int) -> int:
        value = next(self._values, None)
        if value is None:
            raise RuntimeError("drew more random values than were forced")
        if not 0 <= value < stop:
            raise RuntimeError(f"forced value {value} outside range({stop})")
        return value

    def getrandbits(self, k: int) -> int:
        return self.randrange(1 << k)

    def finish(self) -> None:
        if next(self._values, None) is not None:
            raise RuntimeError("drew fewer random values than were forced")


class EnumerationTooLarge(ValueError):
    pass


def _check_size(size: int, limit: int = 5_000_000) -> None:
    if size > limit:
        raise EnumerationTooLarge(f"enumeration of {size} states exceeds limit {limit}")


def _max_distance(dists: list[Counter], total: int) -> Fraction:
    """Worst pairwise total-variation distance between count distributions."""
    keys = set().union(*dists)
    return max((Fraction(sum(abs(a[k] - b[k]) for k in keys), 2 * total)
                for a, b in itertools.combinations(dists, 2)), default=Fraction(0))


def view_distance(secrets, radices, run, subsets) -> Fraction:
    """Exact worst-case distance, over the corrupted `subsets`, between the
    view distributions of any two `secrets`.

    `run(secret, rng)` returns (channel payloads, public messages).  It is
    called once per secret and per point of the product of range(r) for r in
    `radices`, with a `ForcedDraws` serving that point, which must be exactly
    the draws it makes.  A subset's view is the public messages plus its
    channels' payloads; every subset is counted in the same pass."""
    subsets = [sorted(s) for s in subsets]
    secrets = list(secrets)
    states = math.prod(radices)
    _check_size(len(secrets) * states)
    dists = [[Counter() for _ in secrets] for _ in subsets]
    for s, secret in enumerate(secrets):
        for point in itertools.product(*map(range, radices)):
            rng = ForcedDraws(point)
            payloads, public = run(secret, rng)
            rng.finish()
            for d, subset in zip(dists, subsets):
                d[s][(public, *(payloads[i] for i in subset))] += 1
    return max(_max_distance(d, states) for d in dists)


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
    return view_distance(range(field.q), [field.q] * t,
                         lambda secret, rng: (shamir_share(spec, secret, rng), None),
                         itertools.combinations(range(1, n + 1), t))


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
                cw = amd_encode(spec, msg, ForcedDraws((x,)))
                out = amd_decode(spec, tuple(map(field.add_int, cw, delta)))
                if out is not FAIL and out != msg:
                    accepted += 1
            worst = max(worst, Fraction(accepted, q))
    return worst


def rss_view_distance(spec: RobustSharingSpec, *corrupted) -> Fraction:
    """Exact worst-case view distance over the corrupted subsets, enumerating
    the full encoding randomness (AMD x, then every sharing coefficient)."""
    inner = spec.inner
    if any(len(c) > inner.t for c in corrupted):
        raise ValueError("corrupted set exceeds the sharing threshold")
    q = inner.field.q
    return view_distance(itertools.product(range(q), repeat=spec.amd.d),
                         [q] * (1 + spec.share_len * inner.t),
                         lambda msg, rng: (robust_share(spec, msg, rng), None), corrupted)


def ciss_view_distance(spec: CissProtocol, corrupted: frozenset[int]) -> Fraction:
    """Exact worst-case view distance for one corrupted subset of the
    one-round list protocols.

    Enumerates exactly the randomness the corrupted payloads depend on: all
    sharing coefficients, the hash functions h_i for corrupted i, and every
    mask that either rides a corrupted channel or blinds a corrupted
    channel's tags.  All other randomness never enters the view, so fixing
    it does not change the view's marginal distribution.

    Unlike the other view checks this does not go through `view_distance`:
    the sharing is drawn once per coefficient point and reused across every
    hash key and mask.  Running the production encoder once per state costs
    about 11 us (2 vCPU, Python 3.11), about 14 s over the 1,228,800 states
    of the `CHECKS` row, twice this loop's time.
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
        for rng in map(ForcedDraws, itertools.product(range(q), repeat=d * t)):
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
    public-discussion protocol: its channels' key pairs plus both public
    messages, (B, H) and (V, c).  Runs the three production rounds on one
    forced rng over every sender key and receiver hash key; tractable only
    for n=2 with tiny l = k."""
    n, ell, k = spec.n, spec.ell, spec.k
    if len(corrupted) >= n:
        raise ValueError("corrupted set must leave at least one honest channel")

    def run(m, rng):
        keys, payloads = sjst_round1_sender(spec, rng)
        pub2, _, _ = sjst_round2_receiver(spec, payloads, rng)
        pub3, _ = sjst_round3_sender(spec, keys, pub2, m)
        return payloads, (pub2, pub3)

    return view_distance(range(1 << k), [1 << ell, 1 << k] * n + [1 << k] * (2 * n),
                         run, [corrupted])


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


def _minority_view_worst() -> Fraction:
    spec = CissProtocol(P1, 3, FieldSpec.prime(5), 1, 2)
    return max(ciss_view_distance(spec, frozenset({c})) for c in (1, 2, 3))


CHECKS: tuple[Check, ...] = (
    *_hash_checks(1), *_hash_checks(2), *_hash_checks(3),
    *(_at_most(f"amd-failure(q={q},d=1)", Fraction(2, q),
               lambda q=q: amd_failure_max(FieldSpec.prime(q), 1)) for q in (5, 7)),
    _at_most("shamir-privacy(GF5,t=2,n=4)", 0,
             lambda: shamir_privacy_distance(FieldSpec.prime(5), 2, 4)),
    _at_most("rss-view(n=3,GF4,t=2)", 0, lambda f=FieldSpec.binary(2): rss_view_distance(
        RobustSharingSpec(AmdSpec(f, 1), SharingSpec(t=2, n=3, field=f)),
        *itertools.combinations((1, 2, 3), 2))),
    _at_most("minority-view(n=3,GF5,l=2)", 0, _minority_view_worst),
)
