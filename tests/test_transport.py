import copy
import itertools
import json
import pickle
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rsmt.transport
from rsmt.field import FieldSpec
from rsmt.game import Rewrite, catalog_for, play_game, plays, run_trials, witness_table
from rsmt.protocols import VARIANTS, CissProtocol, RssProtocol, SjstProtocol, StrawmanProtocol
from rsmt.protocols.ciss import P1, P2, P3
from rsmt.sharing import FAIL, Marker
from rsmt.transport import (
    BLOCK_TRIALS,
    EMPTY,
    AdversaryStrategy,
    CorruptionProfile,
    Engine,
    SimulationFault,
    derive_rng,
    derive_streams,
    execute,
)

GF256 = FieldSpec.binary(8)
PROTO = CissProtocol(P1, 5, GF256, 1, 8)


def test_empty_is_falsy_singleton():
    assert not EMPTY
    assert repr(EMPTY) == "EMPTY"
    assert EMPTY is type(EMPTY)("EMPTY")


@pytest.mark.parametrize("clone", [lambda v: pickle.loads(pickle.dumps(v)), copy.copy,
                                   copy.deepcopy], ids=["pickle", "copy", "deepcopy"])
@pytest.mark.parametrize("marker,name", [(FAIL, "FAIL"), (EMPTY, "EMPTY")], ids=["FAIL", "EMPTY"])
def test_a_marker_is_falsy_prints_its_name_and_survives_pickle_and_copy(marker, name, clone):
    assert not marker
    assert repr(marker) == str(marker) == name
    assert clone(marker) is marker
    assert clone({"payload": marker})["payload"] is marker


def test_there_are_two_markers_and_no_third():
    assert list(Marker) == [FAIL, EMPTY]
    with pytest.raises(ValueError):
        Marker("nope")


def test_derive_rng_deterministic_and_label_separated():
    assert derive_rng(7, "sender").random() == derive_rng(7, "sender").random()
    assert derive_rng(7, "sender").random() != derive_rng(7, "receiver").random()
    assert derive_rng(7, "adv-1").random() != derive_rng(8, "adv-1").random()


# --- the random-stream layout (RNG_STREAM v3) -------------------------------


STREAM_PROTOCOLS = {
    "SJST": SjstProtocol(3, 4, 8),
    "P1": PROTO,
    "P3": CissProtocol(P3, 7, GF256, 1, 8),
    "RSS": RssProtocol(3, 1, 1, FieldSpec.prime(7)),
    "STRAWMAN": StrawmanProtocol(4, FieldSpec.binary(4)),
}


def _record_derivations(monkeypatch):
    """Every stream derived from now on, as (label, rng), wherever the
    caller looked `derive_rng` up."""
    made = []

    def recording(seed, label):
        rng = derive_rng(seed, label)
        made.append((label, rng))
        return rng

    monkeypatch.setattr(rsmt.transport, "derive_rng", recording)
    return made


class _DrawsAndRecords(AdversaryStrategy):
    """Substitutes its first channel's payload with the protocol's own
    rewrite, and keeps every rng it is handed."""

    def __init__(self, protocol):
        self.protocol = protocol
        self.rngs = []

    def observe_and_tamper(self, own_payloads, rng):
        self.rngs.append(rng)
        if not own_payloads:
            return {}
        c = min(own_payloads)
        return {c: self.protocol.substitute(own_payloads[c], rng)}


@pytest.mark.parametrize("variant", sorted(STREAM_PROTOCOLS))
def test_a_block_derives_one_honest_stream_and_one_per_adversary(monkeypatch, variant):
    protocol = STREAM_PROTOCOLS[variant]
    made = _record_derivations(monkeypatch)
    prof = CorruptionProfile({1: frozenset({1}), 2: frozenset({2})})
    strategies = {1: _DrawsAndRecords(protocol), 2: _DrawsAndRecords(protocol)}
    trials = 2 * BLOCK_TRIALS + 1  # two full blocks and one trial of a third
    run_trials(protocol, prof, strategies, witness_table(protocol.message_space_size()),
               trials, 3)
    assert [label for label, _ in made] == ["honest", "adv-1", "adv-2"] * 3
    honest = {id(rng) for label, rng in made if label == "honest"}
    for j, strategy in strategies.items():
        assert len(strategy.rngs) >= trials and not honest & set(map(id, strategy.rngs))
        own = [id(rng) for label, rng in made if label == f"adv-{j}"]
        # the strategy is handed block 0's stream, then block 1's, then block 2's
        assert [k for k, _ in itertools.groupby(map(id, strategy.rngs))] == own


class _DrawsNothingVisible(AdversaryStrategy):
    """Draws from its own stream and tampers with nothing."""

    def observe_and_tamper(self, own_payloads, rng):
        rng.getrandbits(64)
        return {}


_PREFIX_TRIALS = (1, BLOCK_TRIALS - 1, BLOCK_TRIALS, BLOCK_TRIALS + 1, 2 * BLOCK_TRIALS + 1)


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(_PREFIX_TRIALS), st.sampled_from(_PREFIX_TRIALS),
       st.integers(0, 2**32))
def test_a_shorter_run_is_a_prefix_of_a_longer_one(t1, t2, seed):
    t1, t2 = sorted((t1, t2))
    protocol = SjstProtocol(3, 2, 8)  # 2-bit tags: substitution often goes unseen
    prof = CorruptionProfile({1: frozenset({1}), 2: frozenset({2})})
    strategies = {1: Rewrite(protocol, "substitute"), 2: _DrawsNothingVisible()}
    table = witness_table(protocol.message_space_size())

    def played(trials):
        run = plays(protocol, prof, strategies, seed)
        return [(o, tr.to_json_str()) for o, tr in itertools.islice(run, trials)]

    longer = played(t2)
    assert played(t1) == longer[:t1]
    counted = run_trials(protocol, prof, strategies, table, t1, seed).counts
    assert counted == Counter(o for o, _ in longer[:t1])


def test_sjst_transcript_replays_from_the_honest_stream():
    protocol, seed = SjstProtocol(3, 4, 8), 41
    prof = CorruptionProfile({1: frozenset({2})})
    _, tr = play_game(protocol, prof, {1: _DrawsNothingVisible()},
                      derive_streams(seed, (1,)))
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
    tr = execute(PROTO, m, prof, {1: AdversaryStrategy()}, derive_streams(5, prof.adversary_ids))
    assert tr.receiver_output == m
    assert tr.detect_events == []
    assert tr.message == m


def test_same_seed_identical_transcripts():
    prof = CorruptionProfile({1: frozenset({1, 2})})
    a = execute(PROTO, (9,), prof, {1: AdversaryStrategy()},
                derive_streams(77, prof.adversary_ids))
    b = execute(PROTO, (9,), prof, {1: AdversaryStrategy()},
                derive_streams(77, prof.adversary_ids))
    assert a.to_json_str() == b.to_json_str()
    c = execute(PROTO, (9,), prof, {1: AdversaryStrategy()},
                derive_streams(78, prof.adversary_ids))
    assert a.to_json_str() != c.to_json_str()


class _WritesElsewhere(AdversaryStrategy):
    def observe_and_tamper(self, own_payloads, rng):
        return {5: EMPTY}  # channel 5 is not owned


def test_writing_non_owned_channel_faults():
    prof = CorruptionProfile({1: frozenset({1, 2})})
    with pytest.raises(SimulationFault,
                       match=r"^adversary 1 wrote to non-owned channels \[5\]$"):
        execute(PROTO, (0,), prof, {1: _WritesElsewhere()}, derive_streams(1, prof.adversary_ids))


def test_missing_strategy_faults():
    prof = CorruptionProfile({1: frozenset({1}), 3: frozenset({3}), 2: frozenset({2})})
    with pytest.raises(SimulationFault, match=r"^no strategy for adversary ids \[2, 3\]$"):
        execute(PROTO, (0,), prof, {1: AdversaryStrategy()}, derive_streams(1, prof.adversary_ids))


class _SeesHonest(AdversaryStrategy):
    """Asserts rushing: the observed payload equals the honest pre-tamper one."""

    def __init__(self):
        self.seen = []

    def observe_and_tamper(self, own_payloads, rng):
        self.seen.append(dict(own_payloads))
        return {}


def test_rushing_adversary_sees_pretamper_payloads():
    prof = CorruptionProfile({1: frozenset({2, 4})})
    strat = _SeesHonest()
    tr = execute(PROTO, (55,), prof, {1: strat}, derive_streams(3, prof.adversary_ids))
    assert strat.seen[0] == {c: tr.rounds[0].pre[c] for c in (2, 4)}


class _Blocks(AdversaryStrategy):
    def observe_and_tamper(self, own_payloads, rng):
        return {c: EMPTY for c in own_payloads}


def test_uncorrupted_channels_deliver_verbatim():
    prof = CorruptionProfile({1: frozenset({1})})
    tr = execute(PROTO, (8,), prof, {1: _Blocks()}, derive_streams(2, prof.adversary_ids))
    r = tr.rounds[0]
    assert r.post[1] is EMPTY
    for c in range(2, 6):
        assert r.post[c] == r.pre[c]


class _Records(AdversaryStrategy):
    """Tampers with nothing and keeps what each call was shown."""

    def __init__(self):
        self.calls = []

    def observe_and_tamper(self, own_payloads, rng):
        self.calls.append(dict(own_payloads))
        return {}


def test_each_adversary_is_shown_only_its_own_channels():
    prof = CorruptionProfile({1: frozenset({3}), 2: frozenset()})
    strategies = {1: _Records(), 2: _Records()}
    tr = execute(PROTO, (1,), prof, strategies, derive_streams(9, prof.adversary_ids))
    # one channel round, shown once to each adversary
    assert strategies[1].calls == [{3: tr.rounds[0].pre[3]}]
    assert strategies[2].calls == [{}]  # corrupts nothing


def test_public_channel_is_shared_and_detects_ride_it():
    sjst = SjstProtocol(3, 4, 8)
    prof = CorruptionProfile({1: frozenset({2})})
    tr = execute(sjst, 200, prof, {1: _Blocks()}, derive_streams(4, prof.adversary_ids))
    # blocking channel 2 trips the length check: flagged and detected, and
    # the DETECT for channel 2 follows round 1's flags and precedes round 2
    assert [(r.index, r.direction) for r in tr.rounds if r.public is not None] == [
        (1, "r->s"), (2, "s->r")
    ]
    assert tr.detect_events == [(2, 1)]
    # flags round is public: B has the flag bit set for channel 2
    assert tr.rounds[1].public[0] == (0, 1, 0)


class _PublicThenChannel:
    """A protocol that sends a channel round, a public round, a DETECT of
    channel 2, another public round, then a second channel round."""

    n = 3

    def run(self, engine, m):
        engine.send_round({1: m, 2: m, 3: m})
        engine.send_public("r->s", "flags")
        engine.emit_detect(2)
        engine.send_public("s->r", "opened")
        return engine.send_round({1: m, 2: m + 1, 3: m})[1]


def test_a_second_channel_round_is_a_simulation_fault():
    prof = CorruptionProfile({1: frozenset({1, 3}), 2: frozenset({2})})
    strategies = {1: _Records(), 2: _Records()}
    with pytest.raises(SimulationFault,
                       match=r"^a channel round must be the execution's first round$"):
        execute(_PublicThenChannel(), 5, prof, strategies, derive_streams(4, prof.adversary_ids))
    # only the first channel round reached the adversaries
    assert strategies[1].calls == [{1: 5, 3: 5}]
    assert strategies[2].calls == [{2: 5}]


def test_a_detect_of_a_nonexistent_channel_is_a_simulation_fault():
    prof = CorruptionProfile({1: frozenset({1})})
    eng = Engine(3, prof, {1: AdversaryStrategy()}, derive_streams(1, (1,)))
    with pytest.raises(SimulationFault, match=r"^DETECT references nonexistent channel 9$"):
        eng.emit_detect(9)


@pytest.mark.parametrize("variant", sorted(STREAM_PROTOCOLS))
def test_every_protocol_tampers_only_in_its_first_round(variant):
    # the strategy callback is shown one round, so every protocol must send
    # its channel payloads in round 0, sender to receiver, and nothing but
    # public rounds after it
    assert {type(p) for p in STREAM_PROTOCOLS.values()} == set(VARIANTS.values())
    protocol = STREAM_PROTOCOLS[variant]
    prof = CorruptionProfile({1: frozenset({1}), 2: frozenset({2})})
    for entry in catalog_for(protocol.variant):
        for seed in range(3):
            m = protocol.sample_message(random.Random(seed))
            strategies = {1: entry.factory(protocol), 2: AdversaryStrategy()}
            first, *rest = execute(protocol, m, prof, strategies,
                                   derive_streams(seed, prof.adversary_ids)).rounds
            assert (first.index, first.direction, first.public) == (0, "s->r", None)
            assert first.pre.keys() == first.post.keys() == set(range(1, protocol.n + 1))
            assert [r.index for r in rest] == list(range(1, len(rest) + 1))
            assert all(r.pre == r.post == {} and r.public is not None for r in rest)


class _DropsChannel:
    """A protocol whose one round leaves out its last channel."""

    n = 3

    def run(self, engine, m):
        return engine.send_round({1: m, 2: m})


def test_a_round_without_every_channel_is_a_simulation_fault():
    prof = CorruptionProfile({1: frozenset({1})})
    with pytest.raises(SimulationFault, match="exactly one payload per channel"):
        execute(_DropsChannel(), 1, prof, {1: AdversaryStrategy()},
                derive_streams(0, prof.adversary_ids))


def test_transcript_json_serializes_payload_kinds():
    prof = CorruptionProfile({1: frozenset({1})})
    tr = execute(PROTO, (3,), prof, {1: _Blocks()}, derive_streams(6, prof.adversary_ids))
    blob = tr.to_json()
    assert set(blob) == {"rounds", "detect_events", "receiver_output", "message"}
    assert blob["rounds"][0]["post"]["1"] == {"empty": True}
    assert blob["message"] == [3]
    assert isinstance(tr.to_json_str(), str)


class _Int(int):
    pass


class _SendsValue(AdversaryStrategy):
    """Puts `value` in place of channel 1's first mask."""

    def __init__(self, value):
        self.value = value

    def observe_and_tamper(self, own_payloads, rng):
        share, key, tags, masks = own_payloads[1]
        return {1: (share, key, tags, (self.value, *masks[1:]))}


@pytest.mark.parametrize("value", [_Int(3), 3.0], ids=["int-subclass", "float"])
def test_transcript_refuses_a_value_that_is_not_a_wire_value(value):
    # the receiver reads the payload as malformed, so the transcript must not
    # show the value as a valid int either
    prof = CorruptionProfile({1: frozenset({1})})
    tr = execute(PROTO, (3,), prof, {1: _SendsValue(value)}, derive_streams(6, prof.adversary_ids))
    with pytest.raises(SimulationFault, match="is not serializable"):
        tr.to_json()
    assert execute(PROTO, (3,), prof, {1: _SendsValue(3)},
                   derive_streams(6, prof.adversary_ids)).to_json()["message"] == [3]


def test_failed_delivery_transcript_serializes():
    p2 = CissProtocol(P2, 4, GF256, 1, 8)
    prof = CorruptionProfile({1: frozenset({1})})
    tr = execute(p2, (5,), prof, {1: Rewrite(p2, "substitute")},
                 derive_streams(3, prof.adversary_ids))
    assert tr.receiver_output is FAIL
    assert json.loads(tr.to_json_str())["receiver_output"] == {"fail": True}
