import hashlib
import math
import random
import statistics
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsmt.field import FieldSpec
from rsmt.protocols import CissProtocol, RssProtocol, SjstProtocol, StrawmanProtocol
from rsmt.protocols.ciss import P1, P2, P3
from rsmt.sharing import AmdSpec, RobustSharingSpec, SharingSpec
from rsmt.transport import CorruptionProfile
from rsmt.game import (
    BlockChannels,
    GameStats,
    PassiveGuess,
    Rewrite,
    SwapHalf,
    UtilityError,
    UtilityTable,
    WITNESS_BASE,
    catalog_for,
    derive_u_values,
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
    outcome, transcript = play_game(PROTO1, PROF, {1: PassiveGuess(PROTO1)}, 123)
    assert outcome.suc == 1 and outcome.detect == frozenset()
    # utility is base(guess, 1, 0): 2.0 for the witness table either way
    assert GameStats(Counter({outcome: 1}), (1,), TABLE).utility_mean == {1: 2.0}
    # replaying the same seed reproduces everything
    o2, t2 = play_game(PROTO1, PROF, {1: PassiveGuess(PROTO1)}, 123)
    assert o2 == outcome
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
    stats = run_trials(PROTO1, PROF, {1: PassiveGuess(PROTO1)}, TABLE, 500, 9)
    # suc=1, detect=0 deterministically
    assert stats.utility_mean[1] == 2.0 and stats.utility_ci95[1] == 0.0


@pytest.mark.parametrize("trials", [0, -1])
def test_run_trials_rejects_no_trials(trials):
    with pytest.raises(ValueError, match="trials must be >= 1"):
        run_trials(PROTO1, PROF, {1: PassiveGuess(PROTO1)}, TABLE, trials, 9)


def test_trial_seeds_are_distinct():
    seeds = {trial_seed(5, i) for i in range(1000)}
    assert len(seeds) == 1000


def test_multi_adversary_bonus_applied():
    # adversary 2 passive, adversary 1 substitutes and gets detected:
    # 2's payoff gains the bonus for 1's detection.
    table = witness_table(PROTO1.message_space_size(), bonus=0.25)
    prof = CorruptionProfile({1: frozenset({1}), 2: frozenset({3})})
    strategies = {1: Rewrite(PROTO1, "substitute"), 2: PassiveGuess(PROTO1)}
    outcome, _ = play_game(PROTO1, prof, strategies, 17)
    assert outcome.suc == 1 and outcome.detect == {1}
    stats = GameStats(Counter({outcome: 1}), (1, 2), table)
    assert stats.utility_mean[2] == table.base[(int(2 in outcome.guess), 1, 0)] + 0.25
    assert stats.utility_mean[1] == table.base[(int(1 in outcome.guess), 1, 1)]


def test_detect_attribution_requires_tampering():
    # the list protocol localizes: a passive co-adversary is never implicated
    prof = CorruptionProfile({1: frozenset({1, 2}), 2: frozenset({3})})
    strategies = {1: Rewrite(PROTO1, "substitute"), 2: PassiveGuess(PROTO1)}
    caught = 0
    for seed in range(50):
        outcome, _ = play_game(PROTO1, prof, strategies, seed)
        assert 2 not in outcome.detect
        caught += 1 in outcome.detect
    assert caught > 45  # tamperer itself escapes only on hash collisions


def test_rss_detection_is_global():
    # robust sharing detects without localizing: when the tamperer trips the
    # check, every channel (and hence every adversary) is flagged
    rss = RssProtocol(
        RobustSharingSpec(AmdSpec(GF256, 1), SharingSpec(t=2, n=5, field=GF256))
    )
    prof = CorruptionProfile({1: frozenset({1, 2}), 2: frozenset({3})})
    strategies = {1: Rewrite(rss, "substitute"), 2: PassiveGuess(rss)}
    flagged_both = 0
    for seed in range(50):
        outcome, _ = play_game(rss, prof, strategies, seed)
        if 1 in outcome.detect:
            assert 2 in outcome.detect
            flagged_both += 1
    assert flagged_both > 40  # detection fires with probability 1 - 2/257


# --- statistics from outcome counts ------------------------------------------


STRAWMAN = StrawmanProtocol(4, FieldSpec.binary(4))
# Test 08's table: undetected failure pays best; 0.4 is not dyadic.
STRAWMAN_TABLE = UtilityTable(
    base={(g, s, d): {(0, 0): 10.0, (1, 0): 0.4, (0, 1): 1.0, (1, 1): 0.0}[(s, d)]
          for g in (0, 1) for s in (0, 1) for d in (0, 1)},
    message_space_size=16,
)


def random_pair_profile(rng):
    return CorruptionProfile({1: frozenset(rng.sample(range(1, 5), 2))})


def per_trial_oracle(protocol, profile, strategies, table, trials, master_seed):
    """Utility mean and CI scored one play at a time, in exact arithmetic."""
    samples = {j: [] for j in strategies}
    for idx in range(trials):
        outcome, _ = play_game(protocol, profile, strategies, trial_seed(master_seed, idx))
        for j, payoffs in samples.items():
            d = int(j in outcome.detect)
            payoffs.append(Fraction(table.payoff(
                int(j in outcome.guess), outcome.suc, d, len(outcome.detect) - d)))
    mean = {j: float(statistics.mean(x)) for j, x in samples.items()}
    ci = {j: 1.96 * math.sqrt(statistics.pvariance(x) / trials) for j, x in samples.items()}
    return mean, ci


@pytest.mark.parametrize("protocol, profile, strategies, table", [
    (PROTO1, CorruptionProfile({1: frozenset({1}), 2: frozenset({3})}),
     {1: Rewrite(PROTO1, "substitute"), 2: PassiveGuess(PROTO1)},
     witness_table(PROTO1.message_space_size(), bonus=0.1)),
    (STRAWMAN, random_pair_profile, {1: SwapHalf(STRAWMAN)}, STRAWMAN_TABLE),
], ids=["p1-two-adversaries-bonus-0.1", "strawman-callable-profile"])
def test_statistics_equal_exact_per_trial_oracle(protocol, profile, strategies, table):
    trials = 400
    stats = run_trials(protocol, profile, strategies, table, trials, 31)
    assert sum(stats.counts.values()) == stats.trials == trials
    mean, ci = per_trial_oracle(protocol, profile, strategies, table, trials, 31)
    assert stats.utility_mean == mean
    assert stats.utility_ci95 == ci


def test_counts_cover_every_trial_and_give_the_rates():
    prof = CorruptionProfile({1: frozenset({1}), 2: frozenset({3})})
    strategies = {1: Rewrite(PROTO1, "substitute"), 2: PassiveGuess(PROTO1)}
    stats = run_trials(PROTO1, prof, strategies, TABLE, 200, 4)
    outcomes = [play_game(PROTO1, prof, strategies, trial_seed(4, i))[0] for i in range(200)]
    assert stats.counts == Counter(outcomes)
    assert stats.suc_rate == sum(o.suc for o in outcomes) / 200
    for j in (1, 2):
        assert stats.guess_rate[j] == sum(j in o.guess for o in outcomes) / 200
        assert stats.detect_rate[j] == sum(j in o.detect for o in outcomes) / 200


_payoffs = st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.tuples(_payoffs, _payoffs, _payoffs, _payoffs), st.integers(0, 2**32))
def test_passive_cell_never_flags_against_passive_baseline(cells, seed):
    # Guess-indifferent, mostly non-dyadic payoffs over a 4-message space:
    # a passive cell splits its trials between guessed and missed outcomes
    # with the same payoff, and the split differs from the baseline's.  The
    # two means must still tie exactly.
    protocol = StrawmanProtocol(3, FieldSpec.binary(2))
    by_cell = dict(zip([(0, 0), (1, 0), (0, 1), (1, 1)], cells))
    table = UtilityTable(
        base={(g, s, d): by_cell[(s, d)] for g in (0, 1) for s in (0, 1) for d in (0, 1)},
        message_space_size=4,
    )
    prof = CorruptionProfile({1: frozenset({1})})
    rows = nash_catalog_check(protocol, prof, table, 40, seed, attack_names=["passive"])
    assert [r.flag for r in rows] == [False]
    assert rows[0].mean == by_cell[(1, 0)] and rows[0].ci95 == 0.0


# --- attack catalog ----------------------------------------------------------


COMMON = ["passive", "block-channel", "share-substitution", "share-substitution-1"]
LIST = COMMON + ["tag-framing", "mask-framing", "swap-half"]


@pytest.mark.parametrize("variant, names", [
    ("SJST", COMMON + ["length-tamper"]),
    ("RSS", COMMON + ["swap-half"]),
    ("P1", LIST),
    ("P2", LIST),
    ("P3", LIST),
    ("STRAWMAN", COMMON + ["swap-half"]),
])
def test_catalog_for_every_variant(variant, names):
    assert [e.name for e in catalog_for(variant)] == names


def test_catalog_selection():
    assert [e.name for e in catalog_for("P1", ["swap-half", "passive"])] == ["passive", "swap-half"]
    with pytest.raises(ValueError):
        catalog_for("P1", ["no-such-attack"])


@pytest.mark.parametrize("build", [
    lambda: Rewrite(SjstProtocol(3, 4, 8), "frame_tags"),
    lambda: Rewrite(SjstProtocol(3, 4, 8), "frame_masks"),
    lambda: Rewrite(PROTO1, "widen_keys"),
    lambda: SwapHalf(SjstProtocol(3, 4, 8)),
], ids=["tags-on-sjst", "masks-on-sjst", "widen-on-p1", "swap-on-sjst"])
def test_attack_needs_its_protocol_method(build):
    with pytest.raises(ValueError, match="has no"):
        build()


def test_substitution_limit():
    prof = CorruptionProfile({1: frozenset({1, 2})})
    stats = run_trials(PROTO1, prof, {1: Rewrite(PROTO1, "substitute", limit=1)}, TABLE, 100, 5)
    assert stats.detect_rate[1] > 0.9
    assert stats.suc_rate > 0.9  # single error is always corrected via lists


def test_p3_wide_substitution_on_one_channel_always_delivers():
    # n = 13 is past the sizes where a subset search could hide a decoder
    # that gives up on a bad share among the first t+1.
    p3 = CissProtocol(P3, 13, FieldSpec.binary(8), 1, 8)
    for channel in (1, 7, 13):
        prof = CorruptionProfile({1: frozenset({channel})})
        stats = run_trials(p3, prof, {1: Rewrite(p3, "substitute")},
                           witness_table(p3.message_space_size()), 100, channel)
        assert stats.suc_rate == 1.0


def test_length_tamper_always_detected():
    sjst = SjstProtocol(3, 4, 8)
    prof = CorruptionProfile({1: frozenset({2})})
    stats = run_trials(sjst, prof, {1: Rewrite(sjst, "widen_keys")}, witness_table(256), 200, 6)
    assert stats.detect_rate[1] == 1.0
    assert stats.suc_rate == 1.0  # flagged channel excluded on both sides


def test_framing_attacks_never_beat_passive():
    prof = CorruptionProfile({1: frozenset({1, 2})})
    # randomizing own tags only perturbs the framer's own list: harmless,
    # undetected, exactly the passive payoff
    tag = run_trials(PROTO1, prof, {1: Rewrite(PROTO1, "frame_tags")}, TABLE, 300, 8)
    assert tag.utility_mean[1] == pytest.approx(2.0)
    assert tag.detect_rate[1] == 0.0
    # randomizing own masks breaks honest channels' checks OF the framer:
    # self-incrimination, strictly worse than passive
    mask = run_trials(PROTO1, prof, {1: Rewrite(PROTO1, "frame_masks")}, TABLE, 300, 8)
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


# --- fixed-seed pin at the paper's wide setting ------------------------------


P3_WIDE = CissProtocol(P3, 16, FieldSpec.binary(16), 1, 16)
P3_WIDE_PROFILE = CorruptionProfile({1: frozenset({1, 2, 3, 4}), 2: frozenset({5})},
                                    malicious_id=1)
# (suc, guessing ids, detected ids) -> trials, per P3 catalog attack, at
# 30 trials and master seed 2026; slot 2 stays passive on channel 5.
P3_WIDE_GOLDEN = {
    "passive": {(1, (), ()): 30},
    "block-channel": {(1, (), (1,)): 30},
    "share-substitution": {(1, (), (1,)): 30},
    "share-substitution-1": {(1, (), (1,)): 30},
    "tag-framing": {(1, (), ()): 30},
    "mask-framing": {(1, (), (1,)): 30},
    "swap-half": {(1, (), (1,)): 30},
}
# SHA-256 over every transcript's JSON, attacks in catalog order: pins each
# payload, draw and decode, not only the outcome cells.
P3_WIDE_TRANSCRIPTS = "fac35f262c70489a58cb830321c37599aece54013aed49c60ff62683ede141bb"


def test_p3_wide_fixed_seed_counts_and_transcripts_are_golden():
    table = witness_table(P3_WIDE.message_space_size())
    digest = hashlib.sha256()
    got = {}
    for entry in catalog_for(P3):
        stats = run_trials(P3_WIDE, P3_WIDE_PROFILE,
                           {1: entry.factory(P3_WIDE), 2: PassiveGuess(P3_WIDE)}, table, 30,
                           2026, on_transcript=lambda i, o, t: digest.update(
                               t.to_json_str().encode()))
        got[entry.name] = {(o.suc, tuple(sorted(o.guess)), tuple(sorted(o.detect))): c
                           for o, c in stats.counts.items()}
    assert got == P3_WIDE_GOLDEN
    assert digest.hexdigest() == P3_WIDE_TRANSCRIPTS


# --- fixed-seed pin of the sjst_sweep setting -------------------------------


SJST_SWEEP_PROFILE = CorruptionProfile({1: frozenset({1, 2})})
# (n, attack) -> ((suc, guessing ids, detected ids) -> trials at 200 trials
# and master seed 2026, SHA-256 of trial 0's transcript JSON), for SJST with
# k = l = 8 under every SJST catalog attack.
SJST_SWEEP_GOLDEN = {
    (3, "passive"): ({(1, (), ()): 200},
                     "fce49e7a84e70f0f45415587c6c7ad74a40c117ad2496f2105805c74c6692907"),
    (3, "block-channel"): ({(1, (), (1,)): 200},
                           "07d21126dbe9283d179ff86e8b521e91839b00b2d7669cd45fe94369b7543cbd"),
    (3, "share-substitution"): ({(0, (), (1,)): 2, (1, (), (1,)): 198},
                                "330637cbdcbaf63054c396c0a79a18fb3c530866987b656f9d21a2ed084e7429"),
    (3, "share-substitution-1"): ({(0, (), ()): 1, (1, (), (1,)): 198, (1, (1,), (1,)): 1},
                                  "14073bbb3f32677b79adbbcf6414fa835edf5f47052d0a9d308dec08f4405bd7"),
    (3, "length-tamper"): ({(1, (), (1,)): 200},
                           "34a4e7d6bc55a8e75d757f24b42ede909a3064456f8e66c9f9747b3c5b5a7c8a"),
    (8, "passive"): ({(1, (), ()): 200},
                     "ff815fd3fe519964b91606602564a98ffab9e84410b50cfcca782b1009823cce"),
    (8, "block-channel"): ({(1, (), (1,)): 200},
                           "f3d5268bfc1f9719c6aac66f5a3d82170ed345b0609c2822be508214b47b30d8"),
    (8, "share-substitution"): ({(0, (), (1,)): 2, (1, (), (1,)): 198},
                                "c35241b7c9d4136ebd65e25a68a4fc5244763836b36d7b9ef378dcea37a353d9"),
    (8, "share-substitution-1"): ({(0, (), ()): 1, (1, (), (1,)): 198, (1, (1,), (1,)): 1},
                                  "ca799aa171badff83e34d2c341c8c392a7a68c247f1522bae7dd733af43558b6"),
    (8, "length-tamper"): ({(1, (), (1,)): 200},
                           "f27bb73bfb1e24e810db602ae90ffb27a4f49ca415adc46bf1ef97a5e0ac9d70"),
    (16, "passive"): ({(1, (), ()): 200},
                      "aa2ab02bf86d7c892598632364653084542fdf29a5e9cc528143cac749b8aab0"),
    (16, "block-channel"): ({(1, (), (1,)): 200},
                            "65fd6e8f4ad94dc22d8e082b374062ced932180fec22321f6b146984448f7a40"),
    (16, "share-substitution"): ({(0, (), (1,)): 2, (1, (), (1,)): 198},
                                 "5f712dc6c960d381eb2a301122ec646e9f3b5d82bf085dd1a15f539af24841fe"),
    (16, "share-substitution-1"): ({(0, (), ()): 2, (1, (), (1,)): 197, (1, (1,), (1,)): 1},
                                   "96220eea3055cbce0b422e8ffbb8b23d58e1758dd00b8424b52fae694e748504"),
    (16, "length-tamper"): ({(1, (), (1,)): 200},
                            "b307df7cab7843af7c63bf0afb2fc27d4512691c854c954eca5cec875721e279"),
}


@pytest.mark.parametrize("n", [3, 8, 16])
def test_sjst_sweep_fixed_seed_counts_and_first_transcript_are_golden(n):
    protocol = SjstProtocol(n, 8, 8)
    table = witness_table(protocol.message_space_size())
    for entry in catalog_for("SJST"):
        first = []
        stats = run_trials(protocol, SJST_SWEEP_PROFILE, {1: entry.factory(protocol)}, table,
                           200, 2026, on_transcript=lambda i, o, t: first.append(t) if i == 0
                           else None)
        counts = {(o.suc, tuple(sorted(o.guess)), tuple(sorted(o.detect))): c
                  for o, c in stats.counts.items()}
        digest = hashlib.sha256(first[0].to_json_str().encode()).hexdigest()
        assert (counts, digest) == SJST_SWEEP_GOLDEN[n, entry.name], entry.name
