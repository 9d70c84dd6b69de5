import random

import pytest

from rsmt.field import FieldSpec
from rsmt.protocols import CissProtocol, RssProtocol, SjstProtocol, StrawmanProtocol
from rsmt.protocols.ciss import P1, P2, P3
from rsmt.sharing import AmdSpec, RobustSharingSpec, SharingSpec
from rsmt.transport import CorruptionProfile
from rsmt.game import (
    BlockChannels,
    LengthTamper,
    MaskFraming,
    PassiveGuess,
    SubstituteShares,
    SwapHalf,
    TagFraming,
    UtilityError,
    UtilityTable,
    WITNESS_BASE,
    catalog_for,
    derive_u_values,
    estimate_utility,
    nash_catalog_check,
    play_game,
    run_trials,
    trial_seed,
    witness_table,
)

GF256 = FieldSpec.binary(8)
PROTO1 = CissProtocol(P1, 5, GF256, 1, 8)
TABLE = witness_table(PROTO1.message_space_size())
PROF = CorruptionProfile({1: frozenset({1, 2})})


# --- utility model -----------------------------------------------------------


def test_witness_table_derives_3210():
    u = derive_u_values(TABLE)
    assert (u["u1"], u["u2"], u["u3"], u["u4"]) == (3.0, 2.0, 1.0, 0.0)
    TABLE.validate_strictly_timid()


def test_guess_dependent_table_mixes_at_uniform_rate():
    base = {(g, s, d): WITNESS_BASE[(0, s, d)] + 2 * g for (g, s, d) in WITNESS_BASE}
    table = UtilityTable(base=base, message_space_size=2)
    u = derive_u_values(table)
    # |M|=2: u = base(0,s,d) + 1
    assert (u["u1"], u["u2"], u["u3"], u["u4"]) == (4.0, 3.0, 2.0, 1.0)


def test_table_validation_names_violations():
    bad = dict(WITNESS_BASE)
    bad[(0, 1, 0)] = 5.0  # success pays more than failure
    bad[(1, 1, 0)] = 5.0
    with pytest.raises(UtilityError, match="strictly more"):
        UtilityTable(base=bad, message_space_size=4).validate_timid()
    bad2 = dict(WITNESS_BASE)
    bad2[(0, 0, 1)] = 4.0  # detection pays
    bad2[(1, 0, 1)] = 4.0
    with pytest.raises(UtilityError):
        UtilityTable(base=bad2, message_space_size=4).validate_timid()
    with pytest.raises(UtilityError):
        UtilityTable(base=WITNESS_BASE, message_space_size=1)
    with pytest.raises(UtilityError):
        UtilityTable(base={}, message_space_size=4)


def test_multi_adversary_double_primed_values():
    table = witness_table(16, bonus=0.4)
    u = derive_u_values(table, lam=3)
    assert u["u3pp"] == pytest.approx(u["u3p"] + 0.8)
    assert u["u1p"] == u["u1"]
    table.validate_multi(3)
    with pytest.raises(UtilityError):
        witness_table(16).validate_multi(3)  # bonus must be positive
    with pytest.raises(UtilityError):
        # a bonus so large that all-others-detected beats undetected failure
        witness_table(16, bonus=1.0).validate_multi(3)


def test_table_json_roundtrip():
    table = witness_table(64, bonus=0.5)
    again = UtilityTable.from_json(table.to_json())
    assert again == table


# --- game execution ----------------------------------------------------------


def test_all_passive_yields_u_values():
    outcome, utils, transcript = play_game(
        PROTO1, PROF, {1: PassiveGuess(PROTO1)}, TABLE, 123
    )
    assert outcome.suc == 1 and outcome.detect[1] == 0
    # utility is base(guess, 1, 0): 2.0 for the witness table either way
    assert utils[1] == 2.0
    # replaying the same seed reproduces everything
    o2, u2, t2 = play_game(PROTO1, PROF, {1: PassiveGuess(PROTO1)}, TABLE, 123)
    assert (o2, u2) == (outcome, utils)
    assert t2.to_json_str() == transcript.to_json_str()


def test_random_guess_rate_near_uniform():
    # tiny message space so the rate is measurable
    p = StrawmanProtocol(4, FieldSpec.binary(4))
    prof = CorruptionProfile({1: frozenset({1})})
    stats = run_trials(p, prof, {1: PassiveGuess(p)}, witness_table(16), 5000, 3)
    # Pr[guess] = 1/16 = 0.0625; 3 sigma ~ 0.0103
    assert abs(stats.guess_rate[1] - 1 / 16) < 0.011
    assert stats.suc_rate == 1.0


def test_passive_mean_equals_u2_exactly():
    mean, ci = estimate_utility(PROTO1, PROF, {1: PassiveGuess(PROTO1)}, TABLE, 1, 500, 9)
    assert mean == 2.0 and ci == 0.0  # suc=1, detect=0 deterministically


def test_trial_seeds_are_distinct():
    seeds = {trial_seed(5, i) for i in range(1000)}
    assert len(seeds) == 1000


def test_multi_adversary_bonus_applied():
    # adversary 2 passive, adversary 1 substitutes and gets detected:
    # 2's payoff gains the bonus for 1's detection.
    table = witness_table(PROTO1.message_space_size(), bonus=0.25)
    prof = CorruptionProfile({1: frozenset({1}), 2: frozenset({3})})
    strategies = {1: SubstituteShares(PROTO1), 2: PassiveGuess(PROTO1)}
    outcome, utils, _ = play_game(PROTO1, prof, strategies, table, 17)
    assert outcome.detect == {1: 1, 2: 0}
    assert utils[2] == table.base[(outcome.guess[2], 1, 0)] + 0.25
    assert utils[1] == table.base[(outcome.guess[1], 1, 1)]


def test_detect_attribution_requires_tampering():
    # the list protocol localizes: a passive co-adversary is never implicated
    prof = CorruptionProfile({1: frozenset({1, 2}), 2: frozenset({3})})
    strategies = {1: SubstituteShares(PROTO1), 2: PassiveGuess(PROTO1)}
    caught = 0
    for seed in range(50):
        outcome, _, _ = play_game(PROTO1, prof, strategies, TABLE, seed)
        assert outcome.detect[2] == 0
        caught += outcome.detect[1]
    assert caught > 45  # tamperer itself escapes only on hash collisions


def test_rss_detection_is_global():
    # robust sharing detects without localizing: when the tamperer trips the
    # check, every channel (and hence every adversary) is flagged
    rss = RssProtocol(
        RobustSharingSpec(AmdSpec(GF256, 1), SharingSpec(t=2, n=5, field=GF256))
    )
    prof = CorruptionProfile({1: frozenset({1, 2}), 2: frozenset({3})})
    strategies = {1: SubstituteShares(rss), 2: PassiveGuess(rss)}
    table = witness_table(rss.message_space_size())
    flagged_both = 0
    for seed in range(50):
        outcome, _, _ = play_game(rss, prof, strategies, table, seed)
        if outcome.detect[1]:
            assert outcome.detect[2] == 1
            flagged_both += 1
    assert flagged_both > 40  # detection fires with probability 1 - 2/257


# --- attack catalog ----------------------------------------------------------


def test_catalog_selection():
    names = {e.name for e in catalog_for("P1")}
    assert {"passive", "share-substitution", "tag-framing", "mask-framing",
            "block-channel", "swap-half"} <= names
    assert "length-tamper" not in names
    assert any(e.name == "length-tamper" for e in catalog_for("SJST"))
    with pytest.raises(ValueError):
        catalog_for("P1", ["no-such-attack"])


def test_substitution_limit():
    prof = CorruptionProfile({1: frozenset({1, 2})})
    stats = run_trials(PROTO1, prof, {1: SubstituteShares(PROTO1, limit=1)}, TABLE, 100, 5)
    assert stats.detect_rate[1] > 0.9
    assert stats.suc_rate > 0.9  # single error is always corrected via lists


def test_p3_wide_substitution_on_one_channel_always_delivers():
    # n = 13 is past the sizes where a subset search could hide a decoder
    # that gives up on a bad share among the first t+1.
    p3 = CissProtocol(P3, 13, FieldSpec.binary(8), 1, 8)
    for channel in (1, 7, 13):
        prof = CorruptionProfile({1: frozenset({channel})})
        stats = run_trials(p3, prof, {1: SubstituteShares(p3)},
                           witness_table(p3.message_space_size()), 100, channel)
        assert stats.suc_rate == 1.0


def test_length_tamper_always_detected():
    sjst = SjstProtocol(3, 4, 8)
    prof = CorruptionProfile({1: frozenset({2})})
    stats = run_trials(sjst, prof, {1: LengthTamper(sjst)}, witness_table(256), 200, 6)
    assert stats.detect_rate[1] == 1.0
    assert stats.suc_rate == 1.0  # flagged channel excluded on both sides


def test_framing_attacks_never_beat_passive():
    prof = CorruptionProfile({1: frozenset({1, 2})})
    # randomizing own tags only perturbs the framer's own list: harmless,
    # undetected, exactly the passive payoff
    tag = run_trials(PROTO1, prof, {1: TagFraming(PROTO1)}, TABLE, 300, 8)
    assert tag.utility_mean[1] == pytest.approx(2.0)
    assert tag.detect_rate[1] == 0.0
    # randomizing own masks breaks honest channels' checks OF the framer:
    # self-incrimination, strictly worse than passive
    mask = run_trials(PROTO1, prof, {1: MaskFraming(PROTO1)}, TABLE, 300, 8)
    assert mask.detect_rate[1] > 0.95
    assert mask.utility_mean[1] < 1.0


def test_swap_half_blocks_last_channel_when_odd():
    p = CissProtocol(P1, 5, GF256, 1, 8)  # n = 5 = 2*3 - 1
    prof = CorruptionProfile({1: frozenset({3, 4, 5})})
    from rsmt.transport import execute, EMPTY

    m = p.sample_message(random.Random(0))
    tr = execute(p, m, prof, {1: SwapHalf(p)}, 4)
    assert tr.rounds[0].post[5] is EMPTY


# --- equilibrium falsification ----------------------------------------------


def test_nash_report_shape_and_passive_rows():
    rows = nash_catalog_check(PROTO1, PROF, TABLE, 300, 2)
    assert {r.attack for r in rows} == {e.name for e in catalog_for("P1")}
    passive_row = next(r for r in rows if r.attack == "passive")
    assert passive_row.mean == pytest.approx(2.0)
    assert not passive_row.flag
    assert all(len(r.as_csv_fields()) == 8 for r in rows)


def test_nash_zero_flags_at_required_ell():
    rows = nash_catalog_check(PROTO1, PROF, TABLE, 500, 13)
    assert not any(r.flag for r in rows)


def test_nash_flags_detection_free_protocol():
    # the strawman with a table rewarding disruption: substitution must flag
    p = StrawmanProtocol(4, FieldSpec.binary(4))
    base = {}
    for g in (0, 1):
        base[(g, 0, 0)] = 10.0
        base[(g, 1, 0)] = 0.4
        base[(g, 0, 1)] = 1.0
        base[(g, 1, 1)] = 0.0
    table = UtilityTable(base=base, message_space_size=16)
    prof = CorruptionProfile({1: frozenset({1, 2})})
    rows = nash_catalog_check(p, prof, table, 500, 21)
    flagged = {r.attack for r in rows if r.flag}
    assert "share-substitution" in flagged or "swap-half" in flagged
