import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsmt.protocols import (
    SjstProtocol,
    sjst_finalize_receiver,
    sjst_round1_sender,
    sjst_round2_receiver,
    sjst_round3_sender,
)
from rsmt.protocols.base import ProtocolError
from rsmt.transport import EMPTY, AdversaryStrategy, CorruptionProfile, derive_streams, execute

SPEC = SjstProtocol(3, 4, 8)


def test_spec_validation():
    with pytest.raises(ProtocolError):
        SjstProtocol(0, 4, 8)
    with pytest.raises(ProtocolError):
        SjstProtocol(3, 9, 8)  # ell > k
    with pytest.raises(ProtocolError):
        SjstProtocol(3, 0, 8)


def test_a_key_wider_than_the_widest_binary_field_is_a_protocol_error():
    with pytest.raises(ProtocolError, match="k=40 makes a 40-bit hash domain, over the "
                       "32-bit limit"):
        SjstProtocol(3, 8, 40)
    assert SjstProtocol(3, 8, 32).family.domain_bits == 32


def test_round1_key_widths_and_determinism():
    keys, payloads = sjst_round1_sender(SPEC, random.Random(1))
    assert set(payloads) == {1, 2, 3}
    assert keys == payloads
    for r, big_r in payloads.values():
        assert 0 <= r < 16 and 0 <= big_r < 256
    again, _ = sjst_round1_sender(SPEC, random.Random(1))
    assert keys == again


def test_round1_keys_cover_space():
    # independence smoke test: all 16 r-values occur over many draws
    seen = set()
    rng = random.Random(2)
    for _ in range(200):
        _, payloads = sjst_round1_sender(SPEC, rng)
        seen.update(r for r, _ in payloads.values())
    assert seen == set(range(16))


def test_round2_well_formed_payloads():
    _, payloads = sjst_round1_sender(SPEC, random.Random(3))
    public, kept, detects = sjst_round2_receiver(SPEC, payloads, random.Random(4))
    b, h_entries = public
    assert b == (0, 0, 0)
    assert detects == []
    assert kept == {i: big_r for i, (_, big_r) in payloads.items()}
    # offsets recompute against an independent oracle: h_{a,b}(x) is the low
    # 4 bits of a*x + b over GF(2^8)
    gf = SPEC.family.field
    for i in range(1, 4):
        a, hb, t_prime = h_entries[i - 1]
        r_i, big_r_i = payloads[i]
        assert t_prime == r_i ^ ((gf.mul_int(a, big_r_i) ^ hb) & 0xF)


class _Int(int):
    """An int subclass: an int to `isinstance`, but not a wire value."""


@pytest.mark.parametrize("bad", [
    EMPTY, (1,), (16, 0), (0, 256), (1, 2, 3), "xx", None,
    (True, 0), (0, True), (-1, 0), (16, 256), (_Int(16), 0), [1, 2], (1.0, 2),
])
def test_round2_flags_malformed_payload(bad):
    _, payloads = sjst_round1_sender(SPEC, random.Random(5))
    payloads[2] = bad
    public, kept, detects = sjst_round2_receiver(SPEC, payloads, random.Random(6))
    b, h_entries = public
    assert b == (0, 1, 0)
    assert h_entries[1] is None  # ABSENT
    assert detects == [2]
    assert 2 not in kept


def test_round2_flags_in_range_int_subclass():
    _, payloads = sjst_round1_sender(SPEC, random.Random(5))
    payloads[2] = (_Int(3), _Int(200))
    public, kept, detects = sjst_round2_receiver(SPEC, payloads, random.Random(6))
    assert public[0] == (0, 1, 0)
    assert detects == [2]
    assert 2 not in kept


def _well_formed_round1(payload) -> bool:
    """The wire-value rule written out as an oracle: a pair of exact ints
    (no bool, no other int subclass), r of `ell` bits and R of `k` bits."""
    return (type(payload) is tuple and len(payload) == 2
            and all(type(x) is int and 0 <= x < 1 << bits
                    for x, bits in zip(payload, (SPEC.ell, SPEC.k))))


class _CountingRandom(random.Random):
    def getrandbits(self, k):
        self.draws += 1
        return super().getrandbits(k)


_ROUND1_PAYLOADS = st.one_of(
    st.tuples(st.integers(-2, 17), st.integers(-2, 257)),
    st.tuples(st.booleans(), st.integers(0, 255)),
    st.tuples(st.integers(0, 15), st.booleans()),
    st.tuples(st.integers(0, 15).map(_Int), st.integers(0, 300).map(_Int)),
    st.lists(st.integers(0, 15), min_size=2, max_size=2),
    st.tuples(st.floats(0, 15), st.integers(0, 255)),
    st.tuples(st.integers(0, 15)),
    st.tuples(st.integers(0, 15), st.integers(0, 255), st.integers(0, 255)),
    st.just(EMPTY), st.none(), st.text(max_size=2),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(payloads=st.lists(_ROUND1_PAYLOADS, min_size=3, max_size=3))
def test_round2_flags_exactly_what_the_per_channel_test_rejects(payloads):
    rng = _CountingRandom(9)
    rng.draws = 0
    public, kept, detects = sjst_round2_receiver(SPEC, dict(enumerate(payloads, 1)), rng)
    flags = [int(not _well_formed_round1(p)) for p in payloads]
    assert list(public[0]) == flags
    assert detects == [i for i, flag in enumerate(flags, 1) if flag]
    assert sorted(kept) == [i for i, flag in enumerate(flags, 1) if not flag]
    assert rng.draws == 2 * len(kept)  # one hash key (a, b) per kept channel


def test_round3_no_tampering():
    keys, payloads = sjst_round1_sender(SPEC, random.Random(7))
    public2, kept, _ = sjst_round2_receiver(SPEC, payloads, random.Random(8))
    m = 0xAB
    public3, detects = sjst_round3_sender(SPEC, keys, public2, m)
    v, c = public3
    assert v == (0, 0, 0)
    assert detects == []
    mask = 0
    for _, big_r in keys.values():
        mask ^= big_r
    assert c == m ^ mask
    assert sjst_finalize_receiver(SPEC, kept, public3) == m


def test_round3_flags_offset_tamper_deterministically():
    # Same R but different r: T differs by the r-offset, always caught.
    keys, payloads = sjst_round1_sender(SPEC, random.Random(9))
    r2, big_r2 = payloads[2]
    payloads[2] = (r2 ^ 0b0101, big_r2)
    public2, kept, _ = sjst_round2_receiver(SPEC, payloads, random.Random(10))
    public3, detects = sjst_round3_sender(SPEC, keys, public2, 0)
    assert public3[0][1] == 1
    assert detects == [2]


def test_round3_key_substitution_detection_rate():
    # Replacing R_2 escapes the flag only on a hash collision: rate ~ 2^-ell.
    misses = 0
    trials = 4000
    rng = random.Random(11)
    for _ in range(trials):
        keys, payloads = sjst_round1_sender(SPEC, rng)
        payloads[2] = (rng.getrandbits(4), rng.getrandbits(8))
        public2, kept, _ = sjst_round2_receiver(SPEC, payloads, rng)
        public3, detects = sjst_round3_sender(SPEC, keys, public2, 0)
        if public3[0][1] == 0:
            misses += 1
    # expected miss rate 2^-4 = 0.0625; 3 sigma ~ 0.0115
    assert abs(misses / trials - 2**-4) < 0.012


def test_flagged_channels_excluded_symmetrically():
    # A tampered-and-flagged channel drops out on both sides: m still arrives.
    rng = random.Random(12)
    for _ in range(300):
        m = rng.getrandbits(8)
        keys, payloads = sjst_round1_sender(SPEC, rng)
        payloads[1] = EMPTY  # length-flagged
        r3, big_r3 = payloads[3]
        payloads[3] = (r3 ^ 1, big_r3)  # offset-flagged (deterministic)
        public2, kept, _ = sjst_round2_receiver(SPEC, payloads, rng)
        public3, _ = sjst_round3_sender(SPEC, keys, public2, m)
        assert sjst_finalize_receiver(SPEC, kept, public3) == m


class _SubstituteKeys(AdversaryStrategy):
    def __init__(self, channels):
        self.channels = channels

    def observe_and_tamper(self, own_payloads, rng):
        return {
            c: (rng.getrandbits(SPEC.ell), rng.getrandbits(SPEC.k))
            for c in self.channels if c in own_payloads
        }


def test_end_to_end_undetected_wrong_rate_bounded():
    # Full engine runs: wrong output needs an offset collision on a tampered
    # channel; with 2 tampered channels the rate is ~ 1-(1-2^-4)^2 <= 2*2^-3.
    prof = CorruptionProfile({1: frozenset({1, 2})})
    strat = _SubstituteKeys((1, 2))
    wrong = 0
    trials = 3000
    for seed in range(trials):
        m = random.Random(seed).getrandbits(8)
        tr = execute(SPEC, m, prof, {1: strat}, derive_streams(seed, prof.adversary_ids))
        if tr.receiver_output != m:
            wrong += 1
    expected = 1 - (1 - 2**-4) ** 2
    bound = (SPEC.n - 1) * 2 ** (1 - SPEC.ell)
    assert expected <= bound
    sigma = (expected * (1 - expected) / trials) ** 0.5
    assert wrong / trials <= bound + 3 * sigma


def test_message_space_and_sampling():
    assert SPEC.message_space_size() == 256
    vals = {SPEC.sample_message(random.Random(s)) for s in range(200)}
    assert all(0 <= v < 256 for v in vals)
    with pytest.raises(ProtocolError):
        prof = CorruptionProfile({1: frozenset()})
        execute(SPEC, 256, prof, {1: AdversaryStrategy()}, derive_streams(0, prof.adversary_ids))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(kl=st.integers(1, 32).flatmap(lambda k: st.tuples(st.just(k), st.integers(1, k))),
       n=st.integers(1, 5), seed=st.integers(0, 2 ** 32), data=st.data())
def test_rounds_2_and_3_hash_as_the_family_does(kl, n, seed, data):
    # table fields (k <= 16) and shift-and-reduce ones alike; tiny k makes
    # collisions, so round 3 passes some substituted channels and flags others
    k, ell = kl
    spec = SjstProtocol(n, ell, k)
    fam = spec.family
    keys, payloads = sjst_round1_sender(spec, random.Random(seed))
    rng = random.Random(seed + 1)
    for i in data.draw(st.sets(st.integers(1, n))):
        payloads[i] = (rng.getrandbits(ell), rng.getrandbits(k))
    public2, _, _ = sjst_round2_receiver(spec, payloads, random.Random(seed + 2))
    entries = public2[1]

    def tag(key, x):  # the family's h_{a,b}(x), by `mul_int`
        return (fam.field.mul_int(key[0], x) ^ key[1]) & ((1 << ell) - 1)

    for i, (a, b, offset) in enumerate(entries, 1):
        r, big_r = payloads[i]
        assert offset == r ^ tag((a, b), big_r)
    _, detects = sjst_round3_sender(spec, keys, public2, 0)
    assert detects == [i for i, (r, big_r) in keys.items()
                       if r ^ tag(entries[i - 1][:2], big_r) != entries[i - 1][2]]
    a, b, offset = entries[0]
    for bad in ((1 << k, b), (a, -1)):
        with pytest.raises(ValueError):
            sjst_round3_sender(spec, keys, (public2[0], ((*bad, offset), *entries[1:])), 0)
