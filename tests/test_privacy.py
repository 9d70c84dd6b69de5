import random
from fractions import Fraction

import pytest

from rsmt.field import FieldSpec
from rsmt.privacy import (
    EnumerationTooLarge,
    ForcedDraws,
    amd_failure_max,
    ciss_view_distance,
    rss_view_distance,
    shamir_privacy_distance,
    sjst_view_distance,
    view_distance,
)
from rsmt.protocols import CissProtocol, SjstProtocol
from rsmt.protocols.ciss import P1
from rsmt.protocols.sjst import sjst_round1_sender, sjst_round2_receiver
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


def test_ciss_rejects_oversized_subset():
    spec = CissProtocol(P1, 3, GF5, 1, 2)
    with pytest.raises(ValueError):
        ciss_view_distance(spec, frozenset({1, 2}))


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
