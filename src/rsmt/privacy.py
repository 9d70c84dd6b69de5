"""Exhaustive distribution checks at tiny parameters.

Every function enumerates ALL randomness relevant to the quantity under test
and returns an exact worst-case figure (statistical distance or failure
probability) as a fraction of integer counts — no sampling, no tolerance.
The Shamir and RSS view checks (and the tests' SJST check) go through one
enumerator, `view_distance`: it runs the production code (`shamir_share`,
`robust_share`) once per secret and per point of the product of the draws'
ranges, with a `ForcedDraws` stand-in for the rng that
must serve exactly the draws the code makes, so each check sees the draw
path the simulator runs.  The AMD check drives `amd_encode` and the CISS
view check drives `ciss_sender_encode` the same way; the CISS check counts
the masks without drawing them (see `ciss_view_distance`).
`CHECKS` fixes the parameters: it is the one table that `rsmt verify` prints
and the acceptance suite asserts.  The regimes are deliberately tiny so each
check finishes in seconds.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from operator import itemgetter, sub
from typing import Callable, NamedTuple

from .field import FieldSpec
from .hashing import HashFamilySpec, offset_collision_prob_exhaustive
from .protocols.ciss import P1, TAGS, CissProtocol, ciss_sender_encode, slot
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
    """Worst pairwise total-variation distance between count distributions:
    0 at once when all equal the first (compared as dicts, in C)."""
    if all(dict.__eq__(d, dists[0]) for d in dists):
        return Fraction(0)
    keys = set().union(*dists)  # iterated twice per pair, in one fixed order

    def l1(a: Counter, b: Counter) -> int:
        zero = itertools.repeat(0)
        return sum(map(abs, map(sub, map(a.get, keys, zero), map(b.get, keys, zero))))

    return max((Fraction(l1(a, b), 2 * total) for a, b in itertools.combinations(dists, 2)),
               default=Fraction(0))


def _channels(subset, n: int) -> list[int]:
    """`subset` sorted, or ValueError naming a channel outside 1..n."""
    for c in subset:
        if not 1 <= c <= n:
            raise ValueError(f"channel {c} outside 1..{n}")
    return sorted(subset)


def view_distance(secrets, radices, run, subsets) -> Fraction:
    """Exact worst-case distance, over the corrupted `subsets`, between the
    view distributions of any two `secrets`.

    `run(secret, rng)` returns (channel payloads, public messages).  It is
    called once per secret and per point of the product of range(r) for r in
    `radices`, with a `ForcedDraws` serving that point, which must be exactly
    the draws it makes.  A subset's view is the public messages plus its
    channels' payloads.  The runs are made in chunks of 4096, and each
    subset counts its views of a chunk in one `Counter.update`."""
    subsets = [sorted(s) for s in subsets]
    if not subsets:
        raise ValueError("no corrupted subset to check")
    secrets = list(secrets)
    states = math.prod(radices)
    _check_size(len(secrets) * states)
    dists = [[Counter() for _ in secrets] for _ in subsets]
    for s, secret in enumerate(secrets):
        points = itertools.product(*map(range, radices))
        while chunk := list(itertools.islice(points, 4096)):
            runs = []
            for point in chunk:
                rng = ForcedDraws(point)
                runs.append(run(secret, rng))
                rng.finish()
            payloads, publics = zip(*runs)
            for d, subset in zip(dists, subsets):
                d[s].update(zip(publics, *(map(itemgetter(i), payloads) for i in subset)))
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
    corrupted = [_channels(c, inner.n) for c in corrupted]
    if any(len(c) > inner.t for c in corrupted):
        raise ValueError("corrupted set exceeds the sharing threshold")
    q = inner.field.q
    return view_distance(itertools.product(range(q), repeat=spec.amd.d),
                         [q] * (1 + spec.share_len * inner.t),
                         lambda msg, rng: (robust_share(spec, msg, rng), None), corrupted)


def ciss_view_distance(spec: CissProtocol, corrupted: frozenset[int]) -> Fraction:
    """Exact worst-case view distance for one corrupted subset of the
    one-round list protocols.

    Runs the production `ciss_sender_encode` once per message, per point of
    the sharing coefficients and per hash key of each corrupted channel.
    Every other draw (the honest channels' keys and all masks) is forced to
    0: the keys never enter the view, and the masks are counted here instead
    of drawn.  That count relies on the payload layout `ciss.py` documents:
    mask r_{a,b} enters the view only as T_{a,b} xor r_{a,b} in channel a's
    tags (when a is corrupted) and as r_{a,b} in channel b's masks (when b
    is corrupted), so with r_{a,b} = 0 the payload shows T_{a,b}.  Each view
    is packed one to one into an int: one bit field per view-relevant mask,
    holding what the mask's corrupted ends show, with the index of the
    mask-free part (the corrupted shares and keys) above them.
    `itertools.product` and `Counter.update` count every combination of the
    2^l values of each mask in C.
    """
    n, ell = spec.n, spec.ell
    c_set = _channels(corrupted, n)
    if len(c_set) > spec.t:
        raise ValueError("corrupted set exceeds the sharing threshold")
    channels = range(1, n + 1)
    radices = [spec.field.q] * (spec.d * spec.t)
    for i in channels:
        radices += [1 << spec.family.domain_bits if i in c_set else 1] * 2
    radices += [1] * (n * (n - 1))
    mask_pairs = [(a, b) for a in channels for b in channels
                  if a != b and (a in c_set or b in c_set)]
    states = math.prod(radices) * (1 << ell) ** len(mask_pairs)
    _check_size(spec.message_space_size() * states)  # every message, as in view_distance
    values = range(1 << ell)
    # bit offset of each pair's entry: l bits per corrupted end of the pair
    shifts = list(itertools.accumulate((ell * ((a in c_set) + (b in c_set))
                                        for a, b in mask_pairs), initial=0))
    bases = {}  # mask-free part -> its index, shared by every message
    dists = []
    for msg in itertools.product(range(spec.field.q), repeat=spec.d):
        counts = Counter()
        for point in itertools.product(*map(range, radices)):
            rng = ForcedDraws(point)
            payloads = ciss_sender_encode(spec, msg, rng)
            rng.finish()
            base = tuple(payloads[a][:2] for a in c_set)
            fields = [(bases.setdefault(base, len(bases)) << shifts[-1],)]
            for shift, (a, b) in zip(shifts, mask_pairs):
                if a not in c_set:
                    fields.append([r << shift for r in values])
                    continue
                tag = payloads[a][TAGS][slot(a, b)]
                if b in c_set:
                    fields.append([((tag ^ r) << ell | r) << shift for r in values])
                else:
                    fields.append([(tag ^ r) << shift for r in values])
            counts.update(map(sum, itertools.product(*fields)))
        dists.append(counts)
    return _max_distance(dists, states)


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
