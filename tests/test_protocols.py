import copy
import itertools
import pickle
import random
from operator import attrgetter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rsmt.field import MAX_BINARY_M, FieldSpec, interpolate, ints_below, poly_eval
from rsmt.privacy import ForcedDraws
from rsmt.protocols import (
    CissProtocol,
    RssProtocol,
    SjstProtocol,
    StrawmanProtocol,
    ciss_receiver_decode,
    ciss_sender_encode,
    mismatch_lists,
    rss_receive,
    rss_send,
    sjst_round1_sender,
    sjst_round2_receiver,
    strawman_receive,
    strawman_send,
)
from rsmt.protocols.base import ProtocolError
from rsmt.protocols import ciss
from rsmt.protocols.ciss import P1, P2, P3, _parse_all
from rsmt.sharing import (FAIL, AmdSpec, RobustSharingSpec, SharingError, SharingSpec,
                          shamir_reconstruct, shamir_share)
from rsmt.transport import EMPTY, AdversaryStrategy, CorruptionProfile, execute

GF7 = FieldSpec.prime(7)
GF256 = FieldSpec.binary(8)

RSS = RssProtocol(RobustSharingSpec(AmdSpec(GF7, 1), SharingSpec(t=1, n=3, field=GF7)))
PROTO1 = CissProtocol(P1, 5, GF256, 1, 8)
PROTO2 = CissProtocol(P2, 4, GF256, 1, 8)
PROTO3 = CissProtocol(P3, 7, GF256, 1, 8)


# --- robust-sharing protocol -------------------------------------------------


def test_rss_roundtrip():
    rng = random.Random(0)
    for _ in range(100):
        m = RSS.sample_message(rng)
        out, detects = rss_receive(RSS, rss_send(RSS, m, rng))
        assert out == m and detects == []


def test_rss_single_tamper_detects_at_all_channels():
    rng = random.Random(1)
    fails = 0
    trials = 1000
    for _ in range(trials):
        m = RSS.sample_message(rng)
        payloads = rss_send(RSS, m, rng)
        vec = list(payloads[2])
        vec[0] = (vec[0] + 1 + rng.randrange(6)) % 7
        payloads[2] = tuple(vec)
        out, detects = rss_receive(RSS, payloads)
        if out is FAIL:
            fails += 1
            assert detects == [1, 2, 3]  # no localization
        else:
            assert detects == []
    # detection probability >= 1 - (d+1)/q = 5/7, with sampling slack
    assert fails / trials >= 1 - RSS.sharing.delta - 0.05


def test_rss_blocked_channel_fails():
    rng = random.Random(2)
    payloads = rss_send(RSS, (4,), rng)
    payloads[1] = EMPTY
    out, detects = rss_receive(RSS, payloads)
    assert out is FAIL and detects == [1, 2, 3]


def test_rss_message_validation():
    with pytest.raises(ProtocolError):
        rss_send(RSS, (9,), random.Random(0))
    with pytest.raises(ProtocolError):
        rss_send(RSS, (1, 2), random.Random(0))


@pytest.mark.parametrize("proto", [StrawmanProtocol(3, FieldSpec.binary(4)), RSS,
                                   PROTO1, PROTO2, PROTO3], ids=attrgetter("variant"))
@pytest.mark.parametrize("m", [5, None, 2.5], ids=repr)
def test_encode_rejects_a_message_that_is_not_a_sequence(proto, m):
    with pytest.raises(ProtocolError, match="message must be a 1-vector"):
        proto.encode(m, random.Random(0))


@pytest.mark.parametrize("bad", [True, False, -1, 256, 2.0], ids=repr)
@pytest.mark.parametrize("k", [0, 1])
def test_ciss_sender_encode_rejects_a_bad_element_before_drawing(bad, k):
    # ForcedDraws with no values: a draw before the check would raise RuntimeError
    m = [7, 7]
    m[k] = bad
    with pytest.raises(ProtocolError):
        ciss_sender_encode(CissProtocol(P1, 5, GF256, 2, 8), tuple(m), ForcedDraws(()))


# --- list protocols: shared structure ----------------------------------------


def test_threshold_formulas():
    assert PROTO1.t == 2  # (5-1)//2
    assert PROTO2.t == 3  # 4-1
    assert PROTO3.t == 2  # (7-1)//3
    with pytest.raises(ProtocolError):
        CissProtocol(P3, 3, GF256, 1, 8)  # floor(2/3) = 0
    with pytest.raises(ProtocolError):
        CissProtocol(P1, 5, GF256, 1, 9)  # ell > serialized share width
    with pytest.raises(ProtocolError, match="unknown variant 'P9'"):
        CissProtocol("P9", 5, GF256, 1, 8)


@pytest.mark.parametrize("field, d, bits", [(FieldSpec.binary(16), 3, 48),
                                            (FieldSpec.prime(65521), 3, 48),
                                            (FieldSpec.binary(17), 2, 34)],
                         ids=["GF(2^16)-d3", "GF(65521)-d3", "GF(2^17)-d2"])
def test_a_hash_domain_beyond_the_widest_binary_field_is_a_protocol_error(field, d, bits):
    with pytest.raises(ProtocolError, match=f"d={d} elements of {field.elem_bits} bits make "
                       f"a {bits}-bit hash domain, over the {MAX_BINARY_M}-bit limit"):
        CissProtocol(P1, 5, field, d, 8)
    # one element fewer fits
    assert CissProtocol(P1, 5, field, d - 1, 8).family.domain_bits == (d - 1) * field.elem_bits


def test_encode_structure_and_tag_oracle():
    rng = random.Random(3)
    payloads = ciss_sender_encode(PROTO1, (99,), rng)
    assert set(payloads) == {1, 2, 3, 4, 5}
    parsed = _parse_all(PROTO1, payloads)
    assert parsed == payloads  # well-formed payloads are read as they are
    # every cross check passes when untampered
    for i, bad in mismatch_lists(PROTO1, parsed).items():
        assert bad == ()
    # independent recomputation of one tag: T_{1,3} is entry 1 of channel 1's
    # tags (others 2, 3, 4, 5), its mask r_{1,3} entry 0 of channel 3's masks
    # (others 1, 2, 4, 5)
    # with h_{a,b}(x) = low 8 bits of a*x + b over GF(2^8)
    (_, (a, b), tags1, _), (share3, _, _, masks3) = parsed[1], parsed[3]
    h = GF256.mul_int(a, PROTO1.serialize_share(share3)) ^ b
    assert tags1[1] == h ^ masks3[0]


def test_parse_reads_malformed_payloads_as_zeros():
    payloads = ciss_sender_encode(PROTO1, (99,), random.Random(5))
    share, (a, b), tags, masks = payloads[1]
    zero = ((0,), (0, 0), (0,) * 4, (0,) * 4)
    for bad in (EMPTY, (share, (a, b), tags), (share, (True, b), tags, masks),
                (share, (a, b), tags[:3], masks), (share, (a, b), tags, (256,) * 4),
                ((256,), (a, b), tags, masks)):
        parsed = _parse_all(PROTO1, {**payloads, 1: bad})
        assert parsed[1] == zero
        assert parsed[2] == payloads[2]
    wide = 1 << 8  # one bit too wide for the 8-bit keys, tags and masks
    for bad in ((share, (a, b), (False, *tags[1:]), masks),  # a bool
                (share, (a, b), tags, (-1, *masks[1:])),  # a negative value
                ((-1,), (a, b), tags, masks),
                (share, (a, wide), tags, masks),
                (share, (a, b), (*tags[:3], wide), masks),
                (share, (a, b), tags, (wide, *masks[1:])),
                (share, (a, b), (*tags[:3], _Int(wide)), masks),  # an int subclass
                (share, (_Int(-1), b), tags, masks),
                (share, (a, b), list(tags), masks),  # a list instead of a tuple
                (share, (a, b), tags, list(masks)),
                ([*share], (a, b), tags, masks),
                (share, [a, b], tags, masks),
                [share, (a, b), tags, masks],
                (share, (a, b), tags, masks, masks),  # a wrong length
                (share, (a, b, b), tags, masks),
                ((*share, 0), (a, b), tags, masks),
                (share, (a, b), (*tags, 0), masks),
                (share, (a, b), tags, masks[:3]),
                (share, (a, b), tags, (1.0, *masks[1:])),
                (share, (a, b), tags, (None, *masks[1:]))):
        parsed = _parse_all(PROTO1, {**payloads, 1: bad})
        assert parsed[1] == zero, bad
        assert parsed[2] == payloads[2]


class _Int(int):
    pass


def test_parse_reads_int_subclass_values_as_zeros():
    payloads = ciss_sender_encode(PROTO1, (99,), random.Random(5))
    share, (a, b), tags, masks = payloads[1]
    sub = ((_Int(share[0]),), (_Int(a), b), (*tags[:3], _Int(tags[3])),
           tuple(map(_Int, masks)))
    parsed = _parse_all(PROTO1, {**payloads, 1: sub})
    assert parsed[1] == ((0,), (0, 0), (0,) * 4, (0,) * 4)
    assert parsed[2] == payloads[2]


def _exact_ints_below(v, limit: int, length: int) -> bool:
    """The wire-value rule, written out element by element as an oracle:
    a tuple of `length` exact ints (no bool, no other int subclass) in
    [0, limit)."""
    return (type(v) is tuple and len(v) == length
            and all(type(x) is int and 0 <= x < limit for x in v))


def _well_formed_channel(proto, p) -> bool:
    return (type(p) is tuple and len(p) == 4
            and _exact_ints_below(p[0], proto.field.q, proto.d)
            and _exact_ints_below(p[1], proto.family.field.q, 2)
            and _exact_ints_below(p[2], 1 << proto.ell, proto.n - 1)
            and _exact_ints_below(p[3], 1 << proto.ell, proto.n - 1))


def _garble(kind: str, payload, wide: int):
    """`payload` spoiled one way: blocked, a bool, an int subclass, a
    negative or too-wide value, a list, or a wrong length."""
    share, key, tags, masks = payload
    return {
        "good": payload,
        "empty": EMPTY,
        "bool": (share, key, (True, *tags[1:]), masks),
        "subclass": (share, key, tags, (*masks[:-1], _Int(masks[-1]))),
        "negative": (share, key, tags, (-1, *masks[1:])),
        "wide": (share, (key[0], wide), tags, masks),
        "list": (share, key, list(tags), masks),
        "short": (share, key, tags[:-1], masks),
        "long": (*payload, masks),
    }[kind]


_KINDS = ("good", "empty", "bool", "subclass", "negative", "wide", "list", "short", "long")


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(proto=st.sampled_from([PROTO1, PROTO2, PROTO3]),
       kinds=st.lists(st.sampled_from(_KINDS), min_size=7, max_size=7),
       seed=st.integers(0, 2 ** 32))
# rounds of 4-tuples only, one or two of them malformed
@example(proto=PROTO3, kinds=["good"] * 6 + ["subclass"], seed=1)
@example(proto=PROTO3, kinds=["good", "good", "bool"] + ["good"] * 4, seed=2)
@example(proto=PROTO3, kinds=["negative"] + ["good"] * 5 + ["wide"], seed=3)
@example(proto=PROTO1, kinds=["good", "list", "short"] + ["good"] * 4, seed=4)
@example(proto=PROTO2, kinds=["good", "good", "good", "wide"] + ["good"] * 3, seed=5)
def test_parse_all_equals_the_per_channel_test(proto, kinds, seed):
    payloads = ciss_sender_encode(proto, (seed % 256,), random.Random(seed))
    wide = proto.family.field.q
    got = {i: _garble(kind, p, wide) for (i, p), kind in zip(payloads.items(), kinds)}
    n = proto.n
    zero = ((0,), (0, 0), (0,) * (n - 1), (0,) * (n - 1))
    assert _parse_all(proto, got) == {i: p if _well_formed_channel(proto, p) else zero
                                      for i, p in got.items()}


def test_parse_all_tests_the_round_once_then_each_payload_at_most_once(monkeypatch):
    proto = CissProtocol(P3, 16, FieldSpec.binary(16), 1, 16)
    payloads = ciss_sender_encode(proto, (7,), random.Random(1))
    calls = []

    def counted(name):
        test = getattr(ciss, name)
        monkeypatch.setattr(ciss, name, lambda *args: calls.append(name) or test(*args))

    counted("_well_formed")
    counted("_well_formed_payload")
    zero = ((0,), (0, 0), (0,) * 15, (0,) * 15)
    wide = proto.family.field.q
    rounds = [(payloads, payloads)]
    for bad in ([3], [2, 15], [1, 2, 3, 4]):
        got = {**payloads, **{i: _garble("wide", payloads[i], wide) for i in bad}}
        rounds.append((got, {**payloads, **{i: zero for i in bad}}))
    blocked = {**payloads, **{i: EMPTY for i in range(1, 5)}}
    rounds.append((blocked, {**payloads, **{i: zero for i in range(1, 5)}}))
    for got, want in rounds:
        calls.clear()
        assert _parse_all(proto, got) == want
        assert calls[0] == "_well_formed" and calls.count("_well_formed") == 1
        # a clean round is read on the whole-round test alone
        assert calls.count("_well_formed_payload") == (0 if got is payloads else 16)


def test_serialize_share_packs_elements():
    spec = CissProtocol(P1, 3, GF256, 2, 8)
    assert spec.serialize_share((0xAB, 0xCD)) == 0xCDAB


@pytest.mark.parametrize("proto", [PROTO1, PROTO2, PROTO3])
def test_list_protocol_roundtrip(proto):
    rng = random.Random(4)
    for _ in range(50):
        m = proto.sample_message(rng)
        out, detects = ciss_receiver_decode(proto, ciss_sender_encode(proto, m, rng))
        assert out == m and detects == []


# --- minority variant --------------------------------------------------------


def test_p1_single_share_tamper_detected_and_corrected():
    rng = random.Random(5)
    hits = 0
    trials = 500
    for _ in range(trials):
        m = PROTO1.sample_message(rng)
        payloads = ciss_sender_encode(PROTO1, m, rng)
        share, h, tags, masks = payloads[3]
        payloads[3] = (((share[0] + 1 + rng.randrange(255)) % 256,), h, tags, masks)
        out, detects = ciss_receiver_decode(PROTO1, payloads)
        if out == m and detects == [3]:
            hits += 1
    # The analytical rate is >= 1 - (n+1)^2 * 2^-(ell+1) at the configured ell;
    # at ell=8 that is ~0.93, use a conservative floor.
    assert hits / trials >= 0.9


def test_p1_framing_minority_cannot_implicate_honest():
    # Tampering only tags/masks on 2 of 5 channels: the honest majority lists
    # are computed from honest data, so no honest channel is ever detected.
    rng = random.Random(6)
    for _ in range(200):
        m = PROTO1.sample_message(rng)
        payloads = ciss_sender_encode(PROTO1, m, rng)
        for c in (1, 2):
            share, h, tags, masks = payloads[c]
            payloads[c] = (
                share,
                h,
                tuple(rng.getrandbits(8) for _ in tags),
                tuple(rng.getrandbits(8) for _ in masks),
            )
        out, detects = ciss_receiver_decode(PROTO1, payloads)
        # a rare mask collision can break the majority and force FAIL, but an
        # honest channel must never be implicated, and any delivered message
        # is the right one
        assert all(c in (1, 2) for c in detects)
        if out is not FAIL:
            assert out == m


def test_p1_no_majority_fails():
    # Hand-build five pairwise different lists via targeted tag corruption.
    rng = random.Random(7)
    m = PROTO1.sample_message(rng)
    payloads = ciss_sender_encode(PROTO1, m, rng)
    for c in range(1, 6):
        share, h, tags, masks = payloads[c]
        flipped = list(tags)
        flipped[(c - 1) % 4] ^= 1  # each channel accuses a different peer
        payloads[c] = (share, h, tuple(flipped), masks)
    out, detects = ciss_receiver_decode(PROTO1, payloads)
    assert out is FAIL and detects == []


def test_p1_malformed_payload_behaves_like_zero_substitution():
    rng = random.Random(8)
    m = PROTO1.sample_message(rng)
    payloads = ciss_sender_encode(PROTO1, m, rng)
    payloads[2] = EMPTY
    out, detects = ciss_receiver_decode(PROTO1, payloads)
    assert out == m
    assert 2 in detects


# --- unanimous variant -------------------------------------------------------


def test_p2_tag_tamper_self_incriminates():
    rng = random.Random(9)
    m = PROTO2.sample_message(rng)
    payloads = ciss_sender_encode(PROTO2, m, rng)
    share, h, tags, masks = payloads[1]
    flipped = list(tags)
    flipped[0] ^= 1  # breaks the check of pair (1, 2)
    payloads[1] = (share, h, tuple(flipped), masks)
    out, detects = ciss_receiver_decode(PROTO2, payloads)
    assert out is FAIL
    assert detects == [1, 2]


def test_p2_share_tamper_detected_with_hash_probability():
    rng = random.Random(10)
    caught = 0
    trials = 500
    for _ in range(trials):
        m = PROTO2.sample_message(rng)
        payloads = ciss_sender_encode(PROTO2, m, rng)
        share, h, tags, masks = payloads[2]
        payloads[2] = (((share[0] + 1 + rng.randrange(255)) % 256,), h, tags, masks)
        out, detects = ciss_receiver_decode(PROTO2, payloads)
        if out is FAIL and 2 in detects:
            caught += 1
    # per honest checking channel the miss rate is ~2^-8
    assert caught / trials >= 1 - 3 * 2**-8 - 0.03


# --- robust variant ----------------------------------------------------------


def test_p3_corrects_up_to_capacity():
    rng = random.Random(11)
    for _ in range(100):
        m = PROTO3.sample_message(rng)
        payloads = ciss_sender_encode(PROTO3, m, rng)
        for c in (1, 5):  # t* = 2 = floor((7-1)/3) corruptions
            share, h, tags, masks = payloads[c]
            payloads[c] = ((rng.randrange(256),), h, tags, masks)
        out, detects = ciss_receiver_decode(PROTO3, payloads)
        assert out == m


def test_p3_beyond_capacity_can_fail():
    # 3 > floor((n-1)/3) corrupted shares on a consistent fake sharing of a
    # different message: decode must not return the original silently as long
    # as the error-correcting reconstructor gives up or detection fires.
    rng = random.Random(12)
    outcomes = set()
    for _ in range(100):
        m = (1,)
        payloads = ciss_sender_encode(PROTO3, m, rng)
        for c in (1, 2, 3):
            share, h, tags, masks = payloads[c]
            payloads[c] = ((rng.randrange(256),), h, tags, masks)
        out, detects = ciss_receiver_decode(PROTO3, payloads)
        outcomes.add("fail" if out is FAIL else ("ok" if out == m else "wrong"))
    assert "fail" in outcomes  # the give-up branch is exercised


@pytest.mark.parametrize("proto", [RSS, PROTO1, PROTO2, PROTO3])
def test_engine_passive_correctness(proto):
    prof = CorruptionProfile({1: frozenset({1})})
    for seed in range(30):
        m = proto.sample_message(random.Random(seed))
        tr = execute(proto, m, prof, {1: AdversaryStrategy()}, seed)
        assert tr.receiver_output == m
        assert tr.detect_events == []


# --- detection-free strawman -------------------------------------------------


def test_strawman_roundtrip_and_threshold():
    p = StrawmanProtocol(4, FieldSpec.binary(4))
    assert p.t == 1
    rng = random.Random(13)
    for _ in range(100):
        m = p.sample_message(rng)
        assert strawman_receive(p, strawman_send(p, m, rng)) == m


def test_strawman_prefers_max_agreement():
    p = StrawmanProtocol(4, FieldSpec.binary(4))
    rng = random.Random(14)
    m = (7,)
    payloads = strawman_send(p, m, rng)
    payloads[4] = (payloads[4] + 1) % 16  # one bad share, three consistent
    assert strawman_receive(p, payloads) == m


def test_strawman_n_is_bounded_by_the_subsets_one_decode_interpolates():
    # C(12, 6) = 924 subsets fit the 1,024 Lagrange cache entries; C(13, 7) =
    # 1,716 would miss it on every subset of every decode
    assert StrawmanProtocol(12, GF256).t == 5
    with pytest.raises(ProtocolError, match="n=13 makes a decode interpolate 1716 subsets, "
                       "over the 1024 point sets the Lagrange cache holds"):
        StrawmanProtocol(13, GF256)


def _strawman_receive_by_polynomials(p, payloads):
    """Reference STRAWMAN decoder: interpolate every (t+1)-subset to its
    coefficients, Horner-evaluate them at all n points, keep the lex-first
    polynomial of maximal agreement and output its constant term."""
    f = p.field
    values = {i: payloads[i] if ints_below((payloads[i],), f.q, 1) else 0
              for i in range(1, p.n + 1)}
    best = None
    for subset in itertools.combinations(sorted(values), p.t + 1):
        poly = interpolate(f, subset, [values[i] for i in subset])
        agreement = sum(1 for i in values if poly_eval(f, poly, i) == values[i])
        if best is None or agreement > best[0]:
            best = (agreement, poly)
    return (best[1][0],)


@st.composite
def _strawman_rounds(draw):
    """A STRAWMAN round: honest, with some shares rewritten (to field
    values, out-of-range ints or non-ints), or with a swap-half substitution
    of a sharing of a second message, which ties when the halves are equal."""
    field = draw(st.sampled_from([FieldSpec.prime(11), FieldSpec.binary(4),
                                  FieldSpec.binary(8)]))
    p = StrawmanProtocol(draw(st.integers(3, 9)), field)
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    payloads = strawman_send(p, p.sample_message(rng), rng)
    kind = draw(st.sampled_from(["honest", "rewrite", "swap-half"]))
    if kind == "rewrite":
        value = st.one_of(st.integers(0, field.q - 1), st.integers(field.q, 2 * field.q),
                          st.sampled_from([-1, True, 1.0, "1", None]))
        for c in draw(st.sets(st.integers(1, p.n), max_size=p.n)):
            payloads[c] = draw(value)
    elif kind == "swap-half":
        fake = strawman_send(p, p.sample_message(rng), rng)
        owned = draw(st.sets(st.integers(1, p.n), min_size=p.n // 2, max_size=p.n // 2))
        payloads.update({c: fake[c] for c in owned})
    return p, payloads


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_strawman_rounds())
@example((StrawmanProtocol(4, FieldSpec.binary(4)), {1: 3, 2: 5, 3: 9, 4: 12}))
def test_strawman_receive_equals_the_subset_polynomial_decoder(case):
    p, payloads = case
    assert strawman_receive(p, payloads) == _strawman_receive_by_polynomials(p, payloads)


# --- copying -------------------------------------------------------------------


# Where each variant holds a FieldSpec.
FIELD_PATHS = {"SJST": ["family.field"], "RSS": ["field", "sharing.inner.field"],
               "STRAWMAN": ["field", "sharing.field"],
               **dict.fromkeys([P1, P2, P3], ["field", "family.field", "sharing.field"])}


@pytest.mark.parametrize("proto", [
    SjstProtocol(3, 4, 8), RSS, PROTO1, PROTO2, PROTO3,
    StrawmanProtocol(4, FieldSpec.binary(4)),
], ids=lambda p: p.variant)
@pytest.mark.parametrize("clone", [lambda p: pickle.loads(pickle.dumps(p)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_protocols_survive_pickle_and_deepcopy(proto, clone):
    twin = clone(proto)
    assert twin.to_json() == proto.to_json()
    for path in FIELD_PATHS[proto.variant]:
        # the interned field itself, not a second copy of its tables
        assert attrgetter(path)(twin) is attrgetter(path)(proto)
    if hasattr(proto, "encode"):
        m = proto.sample_message(random.Random(6))
        assert twin.encode(m, random.Random(5)) == proto.encode(m, random.Random(5))


# --- the wire-value rule, on every receiver -------------------------------------


GF16 = FieldSpec.binary(4)
RULE_PROTOCOLS = [
    SjstProtocol(3, 4, 8), PROTO1, CissProtocol(P2, 4, GF16, 2, 5), PROTO3,
    RssProtocol(RobustSharingSpec(AmdSpec(GF16, 1), SharingSpec(t=1, n=3, field=GF16))),
    StrawmanProtocol(3, GF16),
]


def _positions(proto) -> list[tuple[tuple[int, ...], int]]:
    """(path, limit) of every value in one channel's payload: the path
    indexes into the payload, the limit is a power of two."""
    if proto.variant == "SJST":
        return [((0,), 1 << proto.ell), ((1,), 1 << proto.k)]
    if proto.variant == "RSS":
        return [((k,), proto.field.q) for k in range(proto.sharing.share_len)]
    if proto.variant == "STRAWMAN":
        return [((), proto.field.q)]
    parts = [(proto.d, proto.field.q), (2, proto.family.field.q),
             (proto.n - 1, 1 << proto.ell), (proto.n - 1, 1 << proto.ell)]
    return [((part, k), limit) for part, (length, limit) in enumerate(parts)
            for k in range(length)]


def _replace(payload, path, value):
    if not path:
        return value
    head, *rest = path
    return (*payload[:head], _replace(payload[head], rest, value), *payload[head + 1:])


def _at(payload, path):
    for k in path:
        payload = payload[k]
    return payload


_NOT_WIRE_VALUES = {
    "bool": lambda x, limit: st.booleans(),
    "int-subclass": lambda x, limit: st.just(_Int(x)),
    "float": lambda x, limit: st.just(float(x)),
    "negative": lambda x, limit: st.integers(-(1 << 70), -1),
    "one-bit-too-wide": lambda x, limit: st.just(x | limit),
}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(proto=st.sampled_from(RULE_PROTOCOLS), kind=st.sampled_from(sorted(_NOT_WIRE_VALUES)),
       seed=st.integers(0, 2 ** 32), data=st.data())
def test_every_receiver_reads_a_value_outside_the_rule_as_malformed(proto, kind, seed, data):
    rng = random.Random(seed)
    if proto.variant == "SJST":
        payloads = sjst_round1_sender(proto, rng)[1]
    else:
        payloads = proto.encode(proto.sample_message(rng), rng)
    c = data.draw(st.integers(1, proto.n), label="channel")
    path, limit = data.draw(st.sampled_from(_positions(proto)), label="position")
    value = data.draw(_NOT_WIRE_VALUES[kind](_at(payloads[c], path), limit), label="value")
    bad = {**payloads, c: _replace(payloads[c], path, value)}
    if proto.variant == "SJST":
        public, kept, detects = sjst_round2_receiver(proto, bad, random.Random(seed))
        assert public[0][c - 1] == 1 and c in detects and c not in kept
    elif proto.variant == "RSS":
        assert rss_receive(proto, bad) == (FAIL, list(range(1, proto.n + 1)))
    elif proto.variant == "STRAWMAN":
        assert strawman_receive(proto, bad) == strawman_receive(proto, {**payloads, c: 0})
    else:
        zero = ((0,) * proto.d, (0, 0), (0,) * (proto.n - 1), (0,) * (proto.n - 1))
        assert _parse_all(proto, bad) == {**payloads, c: zero}
    # the sharing layer takes the value for no element of a field of that size
    sharing = SharingSpec(t=1, n=3, field=FieldSpec.binary(limit.bit_length() - 1))
    with pytest.raises(SharingError):
        shamir_share(sharing, value, rng)
    with pytest.raises(SharingError):
        shamir_reconstruct(sharing, {1: value, 2: 0})
