import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rsmt.privacy

from rsmt.field import FieldSpec
from rsmt.hashing import HashFamilySpec
from rsmt.privacy import (
    EnumerationTooLarge,
    ForcedDraws,
    _channels,
    _max_distance,
    amd_failure_max,
    ciss_view_distance,
    hash_pairs_uniform,
    rss_view_distance,
    shamir_privacy_distance,
    view_distance,
)
from rsmt.protocols import CissProtocol, SjstProtocol
from rsmt.protocols.ciss import MASKS, P1, P2, TAGS, ciss_sender_encode, slot
from rsmt.protocols.sjst import sjst_round1_sender, sjst_round2_receiver, sjst_round3_sender
from rsmt.sharing import (
    AmdSpec,
    RobustSharingSpec,
    SharingSpec,
    amd_encode,
    robust_share,
    shamir_share,
)

GF4 = FieldSpec.binary(2)
GF5 = FieldSpec.prime(5)
GF7 = FieldSpec.prime(7)
GF256 = FieldSpec.binary(8)


# --- the forced-draw stand-in follows the production draw path ---------------

RSPEC = RobustSharingSpec(AmdSpec(GF256, 3), SharingSpec(t=3, n=5, field=GF256))
SHARERS = {
    # name: (call with an rng, number of randrange(q) draws it makes)
    "shamir_share": (lambda rng: shamir_share(RSPEC.inner, 200, rng), 3),
    "amd_encode": (lambda rng: amd_encode(RSPEC.amd, (7, 9, 11), rng), 1),
    "robust_share": (lambda rng: robust_share(RSPEC, (7, 9, 11), rng), 1 + 5 * 3),
}


@pytest.mark.parametrize("name", sorted(SHARERS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_forced_draws_reproduce_a_seeded_rng(name, seed):
    call, draws = SHARERS[name]
    replay = random.Random(seed)
    values = [replay.randrange(GF256.q) for _ in range(draws)]
    assert call(ForcedDraws(values)) == call(random.Random(seed))


@pytest.mark.parametrize("name", sorted(SHARERS))
def test_forced_draws_raise_when_the_code_draws_more(name):
    # with the test above: the code draws exactly `draws` values
    call, draws = SHARERS[name]
    with pytest.raises(RuntimeError):
        call(ForcedDraws([1] * (draws - 1)))


def _sjst_rounds_1_2(rng, spec=SjstProtocol(3, 5, 8)):
    keys, payloads = sjst_round1_sender(spec, rng)
    return keys, sjst_round2_receiver(spec, payloads, rng)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_forced_draws_reproduce_a_seeded_rng_through_sjst_rounds(seed):
    # the getrandbits path: (r_i, R_i) per channel, then a hash key (a, b) per channel
    replay = random.Random(seed)
    values = [replay.getrandbits(bits) for bits in [5, 8] * 3 + [8] * 6]
    assert _sjst_rounds_1_2(ForcedDraws(values)) == _sjst_rounds_1_2(random.Random(seed))


@pytest.mark.parametrize("draw, value", [("randrange", 5), ("randrange", -1),
                                         ("getrandbits", 8)])
def test_forced_value_out_of_range_raises(draw, value):
    with pytest.raises(RuntimeError):
        getattr(ForcedDraws([value]), draw)(5 if draw == "randrange" else 3)


def test_enumerator_raises_when_the_code_draws_fewer_than_forced():
    with pytest.raises(RuntimeError):
        view_distance(range(2), [2], lambda secret, rng: ({1: secret}, None), [{1}])


def test_a_view_that_carries_the_secret_has_distance_one():
    assert view_distance(range(3), [], lambda secret, rng: ({1: secret}, None), [{1}]) == 1
    # ... whether it rides a channel or the public messages
    assert view_distance(range(3), [3], lambda secret, rng: ({1: rng.randrange(3)}, secret),
                         [{1}]) == 1


def test_several_subsets_give_the_worst_single_subset():
    def run(secret, rng):  # channel 1 leaks, 2 is noise, 3 leaks half the time
        return {1: secret, 2: rng.randrange(2), 3: secret & rng.randrange(2)}, None
    single = [view_distance(range(2), [2, 2], run, [c]) for c in ({1}, {2}, {3})]
    assert single == [1, 0, Fraction(1, 2)]
    assert view_distance(range(2), [2, 2], run, [{2}, {3}]) == Fraction(1, 2)
    assert view_distance(range(2), [2, 2], run, [{1}, {2}, {3}]) == 1


def test_rss_view_over_several_subsets_is_the_worst_single_subset():
    spec = RobustSharingSpec(AmdSpec(GF4, 1), SharingSpec(t=1, n=3, field=GF4))
    subsets = [frozenset({1}), frozenset({2}), frozenset({3})]
    assert rss_view_distance(spec, *subsets) == max(
        rss_view_distance(spec, c) for c in subsets) == 0


def test_shamir_t_shares_reveal_nothing():
    # exact: every t-subset's joint distribution is secret-independent
    assert shamir_privacy_distance(GF5, 2, 4) == 0
    assert shamir_privacy_distance(GF5, 1, 3) == 0
    assert shamir_privacy_distance(GF4, 1, 3) == 0


def test_amd_failure_is_exactly_d_plus_1_over_q():
    assert amd_failure_max(GF5, 1) == Fraction(2, 5)
    assert amd_failure_max(GF7, 1) == Fraction(2, 7)


def test_amd_check_raises_when_the_encoder_draws_fewer_than_forced(monkeypatch):
    monkeypatch.setattr(rsmt.privacy, "amd_encode", lambda spec, s, rng: (*s, 0, 0))
    with pytest.raises(RuntimeError, match="drew fewer random values than were forced"):
        amd_failure_max(GF5, 1)


class _NoSlopeFamily(HashFamilySpec):
    """Only the a = 0 members: every input gets the same tag."""

    def members(self):
        return ((0, b) for b in range(1 << self.domain_bits))


def test_pair_uniformity_check_can_fail():
    assert hash_pairs_uniform(HashFamilySpec(3, 1))
    assert not hash_pairs_uniform(_NoSlopeFamily(3, 1))


def test_rss_view_is_independent_of_message():
    spec = RobustSharingSpec(AmdSpec(GF4, 1), SharingSpec(t=2, n=3, field=GF4))
    assert rss_view_distance(spec, frozenset({1, 2})) == 0
    assert rss_view_distance(spec, frozenset({3})) == 0


def test_rss_rejects_oversized_subset():
    spec = RobustSharingSpec(AmdSpec(GF4, 1), SharingSpec(t=2, n=3, field=GF4))
    with pytest.raises(ValueError):
        rss_view_distance(spec, frozenset({1, 2, 3}))


def test_ciss_view_is_independent_of_message():
    spec = CissProtocol(P1, 3, GF5, 1, 2)
    assert ciss_view_distance(spec, frozenset({2})) == 0


def _leaky(channel):
    """`ciss_sender_encode`, except that `channel` carries the message in
    place of its share whenever its hash key has a = 0."""
    def encode(spec, m, rng):
        payloads = ciss_sender_encode(spec, m, rng)
        _share, key, tags, masks = payloads[channel]
        if key[0] == 0:
            payloads[channel] = (tuple(m), key, tags, masks)
        return payloads
    return encode


def test_ciss_view_check_runs_the_production_encoder(monkeypatch):
    # the leak shows exactly when a = 0: with probability 2^-m, m = 2 bits
    monkeypatch.setattr(rsmt.privacy, "ciss_sender_encode", _leaky(1))
    spec = CissProtocol(P1, 3, GF4, 1, 1)
    assert ciss_view_distance(spec, frozenset({1})) == Fraction(1, 4)
    assert ciss_view_distance(spec, frozenset({2})) == 0


def test_ciss_view_of_two_channels_is_independent_of_message(monkeypatch):
    # r_{1,2} and r_{2,1} show on both of their ends
    spec = CissProtocol(P2, 3, GF4, 1, 1)
    assert ciss_view_distance(spec, frozenset({1, 2})) == 0
    monkeypatch.setattr(rsmt.privacy, "ciss_sender_encode", _leaky(1))
    assert ciss_view_distance(spec, frozenset({1, 2})) == Fraction(1, 4)


def _ciss_full_enumeration(spec, corrupted, encode) -> Fraction:
    """`view_distance` over `encode` with every draw the corrupted view
    depends on enumerated, masks included."""
    channels = range(1, spec.n + 1)
    radices = [spec.field.q] * (spec.d * spec.t)
    for i in channels:
        radices += [1 << spec.family.domain_bits if i in corrupted else 1] * 2
    radices += [1 << spec.ell if a in corrupted or b in corrupted else 1
                for a in channels for b in channels if a != b]
    return view_distance(itertools.product(range(spec.field.q), repeat=spec.d), radices,
                         lambda m, rng: (encode(spec, m, rng), None), [corrupted])


@pytest.mark.parametrize("encode, expected", [(ciss_sender_encode, 0),
                                              (_leaky(2), Fraction(1, 4))],
                         ids=["honest", "leaky"])
def test_ciss_view_check_equals_full_enumeration(monkeypatch, encode, expected):
    spec = CissProtocol(P1, 3, GF4, 1, 1)
    monkeypatch.setattr(rsmt.privacy, "ciss_sender_encode", encode)
    assert (ciss_view_distance(spec, frozenset({2}))
            == _ciss_full_enumeration(spec, frozenset({2}), encode) == expected)


def _ciss_all_masks(spec, corrupted, encode) -> Fraction:
    """The CISS view check with one bit field per mask that has a corrupted
    end, every value of each counted: `ciss_view_distance` before the masks
    with one corrupted end were factored out."""
    n, ell = spec.n, spec.ell
    c_set = sorted(corrupted)
    channels = range(1, n + 1)
    radices = [spec.field.q] * (spec.d * spec.t)
    for i in channels:
        radices += [1 << spec.family.domain_bits if i in c_set else 1] * 2
    radices += [1] * (n * (n - 1))
    mask_pairs = [(a, b) for a in channels for b in channels
                  if a != b and (a in c_set or b in c_set)]
    states = math.prod(radices) * (1 << ell) ** len(mask_pairs)
    values = range(1 << ell)
    shifts = list(itertools.accumulate((ell * ((a in c_set) + (b in c_set))
                                        for a, b in mask_pairs), initial=0))
    bases = {}
    dists = []
    for msg in itertools.product(range(spec.field.q), repeat=spec.d):
        counts = Counter()
        for point in itertools.product(*map(range, radices)):
            rng = ForcedDraws(point)
            payloads = encode(spec, msg, rng)
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


def _tag_carries_message(spec, m, rng):
    """`ciss_sender_encode` with T_{1,2} replaced by the message's low bit:
    channel 1 shows it xor r_{1,2}, and channel 2 shows r_{1,2}."""
    payloads = ciss_sender_encode(spec, m, rng)
    share, key, tags, masks = payloads[1]
    r12 = payloads[2][MASKS][slot(2, 1)]
    payloads[1] = (share, key, ((m[0] & 1) ^ r12, *tags[1:]), masks)
    return payloads


P1_GF5 = CissProtocol(P1, 3, GF5, 1, 2)
P2_GF4 = CissProtocol(P2, 3, GF4, 1, 1)
ALL_MASK_CASES = {
    # name: (spec, corrupted, encoder, distance)
    **{f"P1-GF5-{c}": (P1_GF5, frozenset({c}), ciss_sender_encode, 0) for c in (1, 2, 3)},
    "P2-GF4-12-honest": (P2_GF4, frozenset({1, 2}), ciss_sender_encode, 0),
    "P2-GF4-12-leaky": (P2_GF4, frozenset({1, 2}), _leaky(1), Fraction(1, 4)),
    "P2-GF4-12-tag": (P2_GF4, frozenset({1, 2}), _tag_carries_message, 1),
}


@pytest.mark.parametrize("case", sorted(ALL_MASK_CASES))
def test_ciss_view_check_equals_the_all_masks_count(monkeypatch, case):
    spec, corrupted, encode, expected = ALL_MASK_CASES[case]
    monkeypatch.setattr(rsmt.privacy, "ciss_sender_encode", encode)
    assert (ciss_view_distance(spec, corrupted)
            == _ciss_all_masks(spec, corrupted, encode) == expected)


def test_a_tag_padded_by_a_mask_with_one_corrupted_end_shows_nothing(monkeypatch):
    # the both-ends case above reads the low bit; one end alone sees a pad
    monkeypatch.setattr(rsmt.privacy, "ciss_sender_encode", _tag_carries_message)
    for c in (1, 2):
        assert (ciss_view_distance(P2_GF4, frozenset({c}))
                == _ciss_full_enumeration(P2_GF4, frozenset({c}), _tag_carries_message) == 0)


def test_ciss_view_check_rejects_a_tag_wider_than_l_bits(monkeypatch):
    # a wider tag would spill into the next bit field of the packed view
    def wide(spec, m, rng):
        payloads = ciss_sender_encode(spec, m, rng)
        share, key, tags, masks = payloads[1]
        payloads[1] = (share, key, (*tags[:-1], 1 << spec.ell), masks)
        return payloads

    monkeypatch.setattr(rsmt.privacy, "ciss_sender_encode", wide)
    with pytest.raises(RuntimeError, match=r"channel 1 shows a tag outside range\(4\)"):
        ciss_view_distance(P1_GF5, frozenset({1}))
    assert ciss_view_distance(P1_GF5, frozenset({2})) == 0  # channel 1 is not shown


def test_ciss_rejects_oversized_subset():
    spec = CissProtocol(P1, 3, GF5, 1, 2)
    with pytest.raises(ValueError):
        ciss_view_distance(spec, frozenset({1, 2}))


def sjst_view_distance(spec: SjstProtocol, corrupted: frozenset[int]) -> Fraction:
    """Exact worst-case view distance of a passive corrupted subset for the
    public-discussion protocol: its channels' key pairs plus both public
    messages, (B, H) and (V, c).  Runs the three production rounds on one
    forced rng over every sender key and receiver hash key; tractable only
    for n=2 with tiny l = k."""
    n, ell, k = spec.n, spec.ell, spec.k
    corrupted = _channels(corrupted, n)
    if len(corrupted) >= n:
        raise ValueError("corrupted set must leave at least one honest channel")

    def run(m, rng):
        keys, payloads = sjst_round1_sender(spec, rng)
        pub2, _, _ = sjst_round2_receiver(spec, payloads, rng)
        pub3, _ = sjst_round3_sender(spec, keys, pub2, m)
        return payloads, (pub2, pub3)

    return view_distance(range(1 << k), [1 << ell, 1 << k] * n + [1 << k] * (2 * n),
                         run, [corrupted])


def test_sjst_view_is_independent_of_message():
    spec = SjstProtocol(2, 2, 2)
    assert sjst_view_distance(spec, frozenset({1})) == 0


def test_sjst_requires_an_honest_channel():
    spec = SjstProtocol(2, 2, 2)
    with pytest.raises(ValueError):
        sjst_view_distance(spec, frozenset({1, 2}))


def test_enumeration_guard_trips_on_large_parameters():
    with pytest.raises(EnumerationTooLarge):
        shamir_privacy_distance(FieldSpec.binary(8), 4, 8)
    with pytest.raises(EnumerationTooLarge):
        ciss_view_distance(CissProtocol(P1, 5, FieldSpec.binary(8), 1, 8),
                           frozenset({1, 2}))
    with pytest.raises(EnumerationTooLarge):
        sjst_view_distance(SjstProtocol(3, 4, 8), frozenset({1}))


def test_ciss_guard_counts_every_message_before_encoding(monkeypatch):
    # 31 * 1024 * 16 = 507,904 states per message, 15,745,024 over the 31
    # messages: the guard must see the product, as `view_distance` does.
    def never(*args):
        raise AssertionError("encoded before the size guard")

    monkeypatch.setattr(rsmt.privacy, "ciss_sender_encode", never)
    with pytest.raises(EnumerationTooLarge, match="15745024"):
        ciss_view_distance(CissProtocol(P1, 3, FieldSpec.prime(31), 1, 1), frozenset({1}))


RSS3 = RobustSharingSpec(AmdSpec(GF4, 1), SharingSpec(t=1, n=3, field=GF4))
BAD_SUBSETS = {
    "ciss-4": (lambda: ciss_view_distance(CissProtocol(P1, 3, GF5, 1, 2), frozenset({4})),
               "channel 4 outside 1..3"),
    "ciss-0": (lambda: ciss_view_distance(CissProtocol(P1, 3, GF5, 1, 2), frozenset({0})),
               "channel 0 outside 1..3"),
    "sjst-3": (lambda: sjst_view_distance(SjstProtocol(2, 2, 2), frozenset({3})),
               "channel 3 outside 1..2"),
    "rss-7": (lambda: rss_view_distance(RSS3, frozenset({7})), "channel 7 outside 1..3"),
    "rss-none": (lambda: rss_view_distance(RSS3), "no corrupted subset"),
    "view-none": (lambda: view_distance(range(2), [], lambda s, rng: ({1: s}, None), []),
                  "no corrupted subset"),
}


@pytest.mark.parametrize("case", sorted(BAD_SUBSETS))
def test_bad_subsets_raise_a_named_error(case):
    call, message = BAD_SUBSETS[case]
    with pytest.raises(ValueError, match=message):
        call()


def test_view_distance_sees_only_the_public_messages_of_the_empty_subset():
    def pad(secret, rng):  # channel 1 carries a one-time pad of the secret
        return {1: rng.randrange(2) ^ secret}, None
    assert view_distance(range(2), [2], pad, [[], [1]]) == 0
    assert view_distance(range(2), [2], lambda s, rng: ({1: rng.randrange(2)}, s), [[]]) == 1


def _counts():
    return st.dictionaries(st.integers(0, 5), st.integers(1, 9), max_size=6).map(Counter)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(_counts(), max_size=4), st.integers(1, 60))
@example([], 1)
@example([Counter({0: 3})], 3)
@example([Counter({0: 2, 3: 1})] * 3, 3)  # all equal: the shortcut
@example([Counter({1: 4, 2: 4})] * 2 + [Counter({1: 8})], 8)  # equal, then one differs
@example([Counter({1: 8}), Counter({1: 4, 2: 4}), Counter({1: 4, 2: 4})], 8)
def test_max_distance_matches_the_pairwise_formula(dists, total):
    keys = set().union(*dists)
    reference = max((Fraction(sum(abs(a[k] - b[k]) for k in keys), 2 * total)
                     for a, b in itertools.combinations(dists, 2)), default=Fraction(0))
    assert _max_distance(dists, total) == reference
