import copy
import json
import pickle
import random

import pytest

import rsmt.game.play
import rsmt.transport
from rsmt.field import FieldSpec
from rsmt.game import Rewrite, play_game, run_trials, witness_table
from rsmt.protocols import CissProtocol, RssProtocol, SjstProtocol, StrawmanProtocol
from rsmt.protocols.ciss import P1, P2, P3
from rsmt.sharing import FAIL, AmdSpec, RobustSharingSpec, SharingSpec
from rsmt.transport import (
    EMPTY,
    AdversaryStrategy,
    CorruptionProfile,
    SimulationFault,
    derive_rng,
    execute,
    view_of,
)

GF256 = FieldSpec.binary(8)
PROTO = CissProtocol(P1, 5, GF256, 1, 8)


def _seen(view):
    """What a view shows: views define no `==` of their own."""
    return view.channels, view.rounds, view.public_history


def test_empty_is_falsy_singleton():
    assert not EMPTY
    assert repr(EMPTY) == "EMPTY"
    assert EMPTY is type(EMPTY)()


def test_derive_rng_deterministic_and_label_separated():
    assert derive_rng(7, "sender").random() == derive_rng(7, "sender").random()
    assert derive_rng(7, "sender").random() != derive_rng(7, "receiver").random()
    assert derive_rng(7, "adv-1").random() != derive_rng(8, "adv-1").random()


# --- the random-stream layout (RNG_STREAM v1) -------------------------------


STREAM_PROTOCOLS = {
    "SJST": SjstProtocol(3, 4, 8),
    "P1": PROTO,
    "P3": CissProtocol(P3, 7, GF256, 1, 8),
    "RSS": RssProtocol(RobustSharingSpec(AmdSpec(FieldSpec.prime(7), 1),
                                         SharingSpec(t=1, n=3, field=FieldSpec.prime(7)))),
    "STRAWMAN": StrawmanProtocol(4, FieldSpec.binary(4)),
}


def _record_derivations(monkeypatch):
    """Every stream derived from now on, as (label, rng), wherever the
    caller looked `derive_rng` up."""
    made = []

    def recording(master_seed, label):
        rng = derive_rng(master_seed, label)
        made.append((label, rng))
        return rng

    monkeypatch.setattr(rsmt.transport, "derive_rng", recording)
    monkeypatch.setattr(rsmt.game.play, "derive_rng", recording)
    return made


class _DrawsAndRecords(AdversaryStrategy):
    """Substitutes its first channel's payload with the protocol's own
    rewrite, and keeps every rng it is handed."""

    def __init__(self, protocol):
        self.protocol = protocol
        self.rngs = []

    def observe_and_tamper(self, round_index, direction, own_payloads, public_history, rng):
        self.rngs.append(rng)
        if round_index or not own_payloads:
            return {}
        c = min(own_payloads)
        return {c: self.protocol.substitute(own_payloads[c], rng)}

    def final_guess(self, view, rng):
        self.rngs.append(rng)
        return None


@pytest.mark.parametrize("variant", sorted(STREAM_PROTOCOLS))
def test_a_trial_derives_one_honest_stream_and_one_per_adversary(monkeypatch, variant):
    protocol = STREAM_PROTOCOLS[variant]
    made = _record_derivations(monkeypatch)
    prof = CorruptionProfile({1: frozenset({1}), 2: frozenset({2})})
    strategies = {1: _DrawsAndRecords(protocol), 2: _DrawsAndRecords(protocol)}
    run_trials(protocol, prof, strategies, witness_table(protocol.message_space_size()), 4, 3)
    assert [label for label, _ in made] == ["honest", "adv-1", "adv-2"] * 4
    honest = {id(rng) for label, rng in made if label == "honest"}
    for j, strategy in strategies.items():
        assert strategy.rngs and not honest & set(map(id, strategy.rngs))
        own = {id(rng) for label, rng in made if label == f"adv-{j}"}
        assert set(map(id, strategy.rngs)) <= own


class _DrawsNothingVisible(AdversaryStrategy):
    """Draws from its own stream and tampers with nothing."""

    def observe_and_tamper(self, round_index, direction, own_payloads, public_history, rng):
        rng.getrandbits(64)
        return {}


def test_sjst_transcript_replays_from_the_honest_stream():
    protocol, seed = SjstProtocol(3, 4, 8), 41
    prof = CorruptionProfile({1: frozenset({2})})
    _, tr = play_game(protocol, prof, {1: _DrawsNothingVisible()}, seed)
    # the honest stream by hand: message, round-1 pairs (r_i, R_i), then the
    # round-2 keys (a_i, b_i), ascending channel
    rng = derive_rng(seed, "honest")
    m = rng.getrandbits(8)
    pairs = {i: (rng.getrandbits(4), rng.getrandbits(8)) for i in (1, 2, 3)}
    hash_keys = [(rng.getrandbits(8), rng.getrandbits(8)) for _ in (1, 2, 3)]
    gf = FieldSpec.binary(8)
    offsets = tuple((a, b, r ^ ((gf.mul_int(a, big_r) ^ b) & 0xF))
                    for (a, b), (r, big_r) in zip(hash_keys, pairs.values()))
    assert tr.message == m
    assert tr.rounds[0].pre == tr.rounds[0].post == pairs
    assert tr.rounds[1].public == ((0, 0, 0), offsets)
    assert tr.rounds[2].public == ((0, 0, 0), m ^ pairs[1][1] ^ pairs[2][1] ^ pairs[3][1])
    assert tr.receiver_output == m and tr.detect_events == []


def test_callable_profile_draws_first_from_the_honest_stream():
    states = []

    def sampler(rng):
        states.append(rng.getstate())
        return CorruptionProfile({1: frozenset({rng.randrange(1, 4)})})

    protocol = SjstProtocol(3, 4, 8)
    _, tr = play_game(protocol, sampler, {1: AdversaryStrategy()}, 9)
    rng = derive_rng(9, "honest")
    assert states == [rng.getstate()]
    rng.randrange(1, 4)
    assert tr.message == rng.getrandbits(8)


def test_profile_validation():
    with pytest.raises(ValueError):
        CorruptionProfile({1: {1, 2}, 2: {2, 3}})  # overlap
    with pytest.raises(ValueError):
        CorruptionProfile({0: {1}})
    with pytest.raises(ValueError):
        CorruptionProfile({1: {1}}, malicious_id=2)
    prof = CorruptionProfile({2: {4}, 1: {1, 3}})
    assert prof.adversary_ids == (1, 2)
    with pytest.raises(ValueError):
        prof.validate_for(3)  # channel 4 does not exist


def test_validate_for_names_the_channels_outside_one_to_n():
    with pytest.raises(ValueError, match=r"^adversary 1 corrupts nonexistent channels \[0\]$"):
        CorruptionProfile({1: {0, 2}}).validate_for(3)
    with pytest.raises(ValueError, match=r"^adversary 2 corrupts nonexistent channels \[4\]$"):
        CorruptionProfile({1: {1}, 2: {3, 4}}).validate_for(3)
    CorruptionProfile({1: {1, 3}}).validate_for(3)
    CorruptionProfile({1: frozenset()}).validate_for(1)


@pytest.mark.parametrize("clone", [lambda p: pickle.loads(pickle.dumps(p)), copy.deepcopy])
def test_profile_survives_pickle_and_deepcopy(clone):
    prof = CorruptionProfile({3: {5, 4}, 1: {2}}, malicious_id=3)
    got = clone(prof)
    assert got == prof
    assert repr(got) == repr(prof)
    assert got.adversary_ids == (1, 3)
    assert got.sorted_channels == {1: (2,), 3: (4, 5)}
    with pytest.raises(ValueError):
        got.validate_for(4)


def test_passive_execution_delivers_message():
    prof = CorruptionProfile({1: frozenset({1, 2})})
    m = (123,)
    tr = execute(PROTO, m, prof, {1: AdversaryStrategy()}, 5)
    assert tr.receiver_output == m
    assert tr.detect_events == []
    assert tr.message == m


def test_same_seed_identical_transcripts():
    prof = CorruptionProfile({1: frozenset({1, 2})})
    a = execute(PROTO, (9,), prof, {1: AdversaryStrategy()}, 77)
    b = execute(PROTO, (9,), prof, {1: AdversaryStrategy()}, 77)
    assert a.to_json_str() == b.to_json_str()
    c = execute(PROTO, (9,), prof, {1: AdversaryStrategy()}, 78)
    assert a.to_json_str() != c.to_json_str()


class _WritesElsewhere(AdversaryStrategy):
    def observe_and_tamper(self, round_index, direction, own_payloads, public_history, rng):
        return {5: EMPTY}  # channel 5 is not owned


def test_writing_non_owned_channel_faults():
    prof = CorruptionProfile({1: frozenset({1, 2})})
    with pytest.raises(SimulationFault,
                       match=r"^adversary 1 wrote to non-owned channels \[5\]$"):
        execute(PROTO, (0,), prof, {1: _WritesElsewhere()}, 1)


def test_missing_strategy_faults():
    prof = CorruptionProfile({1: frozenset({1}), 3: frozenset({3}), 2: frozenset({2})})
    with pytest.raises(SimulationFault, match=r"^no strategy for adversary ids \[2, 3\]$"):
        execute(PROTO, (0,), prof, {1: AdversaryStrategy()}, 1)


class _SeesHonest(AdversaryStrategy):
    """Asserts rushing: the observed payload equals the honest pre-tamper one."""

    def __init__(self):
        self.seen = []

    def observe_and_tamper(self, round_index, direction, own_payloads, public_history, rng):
        self.seen.append(dict(own_payloads))
        return {}


def test_rushing_adversary_sees_pretamper_payloads():
    prof = CorruptionProfile({1: frozenset({2, 4})})
    strat = _SeesHonest()
    tr = execute(PROTO, (55,), prof, {1: strat}, 3)
    assert strat.seen[0] == {c: tr.rounds[0].pre[c] for c in (2, 4)}


class _Blocks(AdversaryStrategy):
    def observe_and_tamper(self, round_index, direction, own_payloads, public_history, rng):
        return {c: EMPTY for c in own_payloads}


def test_uncorrupted_channels_deliver_verbatim():
    prof = CorruptionProfile({1: frozenset({1})})
    tr = execute(PROTO, (8,), prof, {1: _Blocks()}, 2)
    r = tr.rounds[0]
    assert r.post[1] is EMPTY
    for c in range(2, 6):
        assert r.post[c] == r.pre[c]


def test_view_of_matches_corruption():
    prof = CorruptionProfile({1: frozenset({3}), 2: frozenset()})
    tr = execute(PROTO, (1,), prof, {1: AdversaryStrategy(), 2: AdversaryStrategy()}, 9)
    v1 = view_of(tr, prof, 1)
    assert [set(pre) for _, _, pre, _ in v1.rounds] == [{3}]
    v2 = view_of(tr, prof, 2)
    assert v2.rounds[0][2] == {}  # corrupts nothing: no channel payloads
    assert v2.public_history == []  # no public channel in this protocol


def test_public_channel_is_shared_and_detects_ride_it():
    sjst = SjstProtocol(3, 4, 8)
    prof = CorruptionProfile({1: frozenset({2})})
    tr = execute(sjst, 200, prof, {1: _Blocks()}, 4)
    # blocking channel 2 trips the length check: flagged and detected
    assert (2, 1) in tr.detect_events
    v = view_of(tr, prof, 1)
    assert any(p == ("DETECT", 2) for _, p in v.public_history)
    # flags round is public: B has the flag bit set for channel 2
    b_flags = next(p for _, p in v.public_history if isinstance(p, tuple) and p[0] == (0, 1, 0))
    assert b_flags[0][1] == 1


class _BlocksAndKeepsView(_Blocks):
    def __init__(self):
        self.views = []

    def final_guess(self, view, rng):
        self.views.append(view)
        return None


def test_final_view_is_view_of_with_detects_in_emission_order():
    sjst = SjstProtocol(3, 4, 8)
    prof = CorruptionProfile({1: frozenset({2})})
    strat = _BlocksAndKeepsView()
    tr = execute(sjst, 200, prof, {1: strat}, 4)
    (seen,) = strat.views
    assert _seen(seen) == _seen(view_of(tr, prof, 1))
    # the DETECT for channel 2 follows round 1's flags and precedes round 2
    assert [(i, p if p[0] == "DETECT" else "pub") for i, p in seen.public_history] == [
        (1, "pub"), (1, ("DETECT", 2)), (2, "pub")
    ]


def test_public_send_requires_public_protocol():
    from rsmt.transport import Engine

    prof = CorruptionProfile({1: frozenset({1})})
    eng = Engine(3, prof, {1: AdversaryStrategy()}, 1, uses_public=False)
    with pytest.raises(SimulationFault):
        eng.send_public("s->r", (1, 2))
    with pytest.raises(SimulationFault):
        eng.emit_detect(9)


def test_transcript_json_serializes_payload_kinds():
    prof = CorruptionProfile({1: frozenset({1})})
    tr = execute(PROTO, (3,), prof, {1: _Blocks()}, 6)
    blob = tr.to_json()
    assert blob["rounds"][0]["post"]["1"] == {"empty": True}
    assert blob["message"] == [3]
    assert isinstance(tr.to_json_str(), str)


class _Int(int):
    pass


class _SendsValue(AdversaryStrategy):
    """Puts `value` in place of channel 1's first mask."""

    def __init__(self, value):
        self.value = value

    def observe_and_tamper(self, round_index, direction, own_payloads, public_history, rng):
        share, key, tags, masks = own_payloads[1]
        return {1: (share, key, tags, (self.value, *masks[1:]))}


@pytest.mark.parametrize("value", [_Int(3), 3.0], ids=["int-subclass", "float"])
def test_transcript_refuses_a_value_that_is_not_a_wire_value(value):
    # the receiver reads the payload as malformed, so the transcript must not
    # show the value as a valid int either
    prof = CorruptionProfile({1: frozenset({1})})
    tr = execute(PROTO, (3,), prof, {1: _SendsValue(value)}, 6)
    with pytest.raises(SimulationFault, match="is not serializable"):
        tr.to_json()
    assert execute(PROTO, (3,), prof, {1: _SendsValue(3)}, 6).to_json()["message"] == [3]


def test_failed_delivery_transcript_serializes():
    p2 = CissProtocol(P2, 4, GF256, 1, 8)
    prof = CorruptionProfile({1: frozenset({1})})
    tr = execute(p2, (5,), prof, {1: Rewrite(p2, "substitute")}, 3)
    assert tr.receiver_output is FAIL
    assert json.loads(tr.to_json_str())["receiver_output"] == {"fail": True}


class _ReadsRounds(AdversaryStrategy):
    def final_guess(self, view, rng):
        assert [pre for _, _, pre, _ in view.rounds] != []
        return rng.getrandbits(8)


class _KeepsViewUnread(AdversaryStrategy):
    def __init__(self):
        self.views = []

    def final_guess(self, view, rng):
        self.views.append(view)
        return rng.getrandbits(8)


@pytest.mark.parametrize("protocol", [PROTO, SjstProtocol(4, 4, 8)])
def test_views_are_cut_on_demand(protocol):
    prof = CorruptionProfile({1: frozenset({3, 1}), 2: frozenset({2})})
    m = protocol.sample_message(random.Random(1))
    unread = _KeepsViewUnread()
    tr = execute(protocol, m, prof, {1: unread, 2: _Blocks()}, 12)
    read = execute(protocol, m, prof, {1: _ReadsRounds(), 2: _Blocks()}, 12)
    # reading the rounds or not changes no guess and no transcript
    assert tr.adversary_outputs[1] == read.adversary_outputs[1]
    assert tr.to_json_str() == read.to_json_str()
    # a view first read after execute returned equals view_of's
    (view,) = unread.views
    assert "rounds" not in vars(view)
    assert _seen(view) == _seen(view_of(tr, prof, 1))
    assert view.rounds == [(r.index, r.direction, {1: r.pre[1], 3: r.pre[3]},
                            {1: r.post[1], 3: r.post[3]}) for r in tr.rounds if r.pre]
    assert _seen(view) != _seen(view_of(tr, prof, 2))
