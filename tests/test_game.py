import hashlib
import itertools
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
from rsmt.transport import BLOCK_TRIALS, CorruptionProfile, derive_streams
from rsmt.game import (
    BlockChannels,
    GameStats,
    PassiveGuess,
    Rewrite,
    SwapHalf,
    UtilityError,
    UtilityTable,
    WITNESS_BASE,
    block_seed,
    catalog_for,
    derive_u_values,
    nash,
    nash_catalog_check,
    play_game,
    plays,
    run_cell,
    run_trials,
    witness_table,
)

from block_walk import walk_trials

GF256 = FieldSpec.binary(8)
PROTO1 = CissProtocol(P1, 5, GF256, 1, 8)
TABLE = witness_table(PROTO1.message_space_size())
PROF = CorruptionProfile({1: frozenset({1, 2})})


# --- utility model -----------------------------------------------------------


def test_witness_table_derives_3210():
    u = derive_u_values(TABLE)
    assert (u["u1"], u["u2"], u["u3"], u["u4"]) == (3.0, 2.0, 1.0, 0.0)
    TABLE.validate()  # and u2 > u3: strictly timid


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
        UtilityTable(base=bad, message_space_size=4).validate()
    bad2 = dict(WITNESS_BASE)
    bad2[(0, 0, 1)] = 4.0  # detection pays
    bad2[(1, 0, 1)] = 4.0
    with pytest.raises(UtilityError):
        UtilityTable(base=bad2, message_space_size=4).validate()
    with pytest.raises(UtilityError):
        UtilityTable(base=WITNESS_BASE, message_space_size=1)
    with pytest.raises(UtilityError):
        UtilityTable(base={}, message_space_size=4)


def test_multi_adversary_double_primed_values():
    table = witness_table(16, bonus=0.4)
    u = derive_u_values(table, lam=3)
    assert u["u3pp"] == pytest.approx(u["u3"] + 0.8)
    assert set(u) == {f"u{i}{pp}" for i in range(1, 5) for pp in ("", "pp")}
    # one key set at every lam: with no other adversary the bonus adds nothing
    single = derive_u_values(table)
    assert set(single) == set(u)
    assert all(single[f"u{i}pp"] == single[f"u{i}"] == u[f"u{i}"] for i in range(1, 5))
    table.validate(3)
    witness_table(16).validate()  # one adversary: no bonus needed
    with pytest.raises(UtilityError, match="positive bonus"):
        witness_table(16).validate(3)
    with pytest.raises(UtilityError, match=r"u1' <= max\(u2', u3''\)"):
        # a bonus so large that all-others-detected beats undetected failure
        witness_table(16, bonus=1.0).validate(3)


def test_table_json_roundtrip():
    table = witness_table(64, bonus=0.5)
    again = UtilityTable.from_json(table.to_json())
    assert again == table


# --- game execution ----------------------------------------------------------


def test_all_passive_yields_u_values():
    outcome, transcript = play_game(PROTO1, PROF, {1: PassiveGuess(PROTO1)},
                                    derive_streams(123, (1,)))
    assert outcome.suc == 1 and outcome.detect == frozenset()
    # utility is payoff(1, 0) = u2: 2.0 for the witness table
    assert GameStats(Counter({outcome: 1}), (1,), TABLE).utility_mean == {1: 2.0}
    # replaying the same seed reproduces everything
    o2, t2 = play_game(PROTO1, PROF, {1: PassiveGuess(PROTO1)}, derive_streams(123, (1,)))
    assert o2 == outcome
    assert t2.to_json_str() == transcript.to_json_str()


def test_guess_rate_is_exactly_uniform():
    p = StrawmanProtocol(4, FieldSpec.binary(4))
    prof = CorruptionProfile({1: frozenset({1}), 2: frozenset({2})})
    stats = run_trials(p, prof, {1: PassiveGuess(p), 2: SwapHalf(p)}, witness_table(16), 50, 3)
    assert stats.guess_rate == {1: 1 / 16, 2: 1 / 16}


def test_a_guess_sensitive_table_adds_exactly_one_over_m():
    # base(1,s,d) = base(0,s,d) + 1: a uniform guess pays 1 with probability
    # 1/|M|, in every outcome, so the mean rises by exactly 1/|M| and the
    # spread of the utility does not change
    prof = CorruptionProfile({1: frozenset({1}), 2: frozenset({3})})
    strategies = {1: Rewrite(PROTO1, "substitute", limit=1), 2: PassiveGuess(PROTO1)}
    witness = witness_table(PROTO1.message_space_size(), bonus=0.1)
    sensitive = UtilityTable({(g, s, d): v + g for (g, s, d), v in witness.base.items()},
                             PROTO1.message_space_size(), witness.others_detected_bonus)
    counts = run_trials(PROTO1, prof, strategies, witness, 300, 8).counts
    assert len(counts) > 1  # substitution is caught, and sometimes missed
    plain, guessing = (GameStats(counts, (1, 2), table) for table in (witness, sensitive))
    for j in (1, 2):
        (mean, var), (mean_g, var_g) = plain._moments[j], guessing._moments[j]
        assert (mean_g, var_g) == (mean + Fraction(1, PROTO1.message_space_size()), var)
    assert guessing.utility_ci95 == plain.utility_ci95


def test_passive_mean_equals_u2_exactly():
    stats = run_trials(PROTO1, PROF, {1: PassiveGuess(PROTO1)}, TABLE, 500, 9)
    # suc=1, detect=0 deterministically
    assert stats.utility_mean[1] == 2.0 and stats.utility_ci95[1] == 0.0


@pytest.mark.parametrize("trials", [0, -1])
def test_run_trials_rejects_no_trials(trials):
    with pytest.raises(ValueError, match="trials must be >= 1"):
        run_trials(PROTO1, PROF, {1: PassiveGuess(PROTO1)}, TABLE, trials, 9)


def test_block_seeds_are_distinct():
    seeds = {block_seed(5, b) for b in range(1000)}
    assert len(seeds) == 1000


def test_multi_adversary_bonus_applied():
    # adversary 2 passive, adversary 1 substitutes and gets detected:
    # 2's payoff gains the bonus for 1's detection.
    table = witness_table(PROTO1.message_space_size(), bonus=0.25)
    prof = CorruptionProfile({1: frozenset({1}), 2: frozenset({3})})
    strategies = {1: Rewrite(PROTO1, "substitute"), 2: PassiveGuess(PROTO1)}
    outcome, _ = play_game(PROTO1, prof, strategies, derive_streams(17, (1, 2)))
    assert outcome.suc == 1 and outcome.detect == {1}
    stats = GameStats(Counter({outcome: 1}), (1, 2), table)
    assert stats.utility_mean == {1: WITNESS_BASE[(0, 1, 1)], 2: WITNESS_BASE[(0, 1, 0)] + 0.25}


def test_detect_attribution_requires_tampering():
    # the list protocol localizes: a passive co-adversary is never implicated
    prof = CorruptionProfile({1: frozenset({1, 2}), 2: frozenset({3})})
    strategies = {1: Rewrite(PROTO1, "substitute"), 2: PassiveGuess(PROTO1)}
    caught = 0
    for seed in range(50):
        outcome, _ = play_game(PROTO1, prof, strategies, derive_streams(seed, (1, 2)))
        assert 2 not in outcome.detect
        caught += 1 in outcome.detect
    assert caught > 45  # tamperer itself escapes only on hash collisions


def test_rss_detection_is_global():
    # robust sharing detects without localizing: when the tamperer trips the
    # check, every channel (and hence every adversary) is flagged
    rss = RssProtocol(5, 2, 1, GF256)
    prof = CorruptionProfile({1: frozenset({1, 2}), 2: frozenset({3})})
    strategies = {1: Rewrite(rss, "substitute"), 2: PassiveGuess(rss)}
    flagged_both = 0
    for seed in range(50):
        outcome, _ = play_game(rss, prof, strategies, derive_streams(seed, (1, 2)))
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


def per_trial_oracle(protocol, profile, strategies, table, trials, master_seed):
    """Utility mean and CI scored one play at a time with `table.payoff`, in
    exact arithmetic."""
    samples = {j: [] for j in strategies}
    for outcome, _ in walk_trials(protocol, profile, strategies, trials, master_seed):
        for j, payoffs in samples.items():
            d = int(j in outcome.detect)
            payoffs.append(table.payoff(outcome.suc, d, len(outcome.detect) - d))
    mean = {j: float(statistics.mean(x)) for j, x in samples.items()}
    ci = {j: 1.96 * math.sqrt(statistics.pvariance(x) / trials) for j, x in samples.items()}
    return mean, ci


@pytest.mark.parametrize("protocol, profile, strategies, table", [
    (PROTO1, CorruptionProfile({1: frozenset({1}), 2: frozenset({3})}),
     {1: Rewrite(PROTO1, "substitute"), 2: PassiveGuess(PROTO1)},
     witness_table(PROTO1.message_space_size(), bonus=0.1)),
    (STRAWMAN, CorruptionProfile({1: frozenset({2, 4})}), {1: SwapHalf(STRAWMAN)},
     STRAWMAN_TABLE),
], ids=["p1-two-adversaries-bonus-0.1", "strawman-fixed-pair"])
def test_statistics_equal_exact_per_trial_oracle(protocol, profile, strategies, table):
    trials = BLOCK_TRIALS + 144  # a full block and part of the next
    stats = run_trials(protocol, profile, strategies, table, trials, 31)
    assert sum(stats.counts.values()) == stats.trials == trials
    mean, ci = per_trial_oracle(protocol, profile, strategies, table, trials, 31)
    assert stats.utility_mean == mean
    assert stats.utility_ci95 == ci


def test_counts_cover_every_trial_and_give_the_rates():
    prof = CorruptionProfile({1: frozenset({1}), 2: frozenset({3})})
    strategies = {1: Rewrite(PROTO1, "substitute"), 2: PassiveGuess(PROTO1)}
    trials = BLOCK_TRIALS + 44  # a full block and part of the next
    stats = run_trials(PROTO1, prof, strategies, TABLE, trials, 4)
    outcomes = [o for o, _ in walk_trials(PROTO1, prof, strategies, trials, 4)]
    assert stats.counts == Counter(outcomes)
    assert stats.suc_rate == sum(o.suc for o in outcomes) / trials
    for j in (1, 2):
        assert stats.guess_rate[j] == 1 / PROTO1.message_space_size()
        assert stats.detect_rate[j] == sum(j in o.detect for o in outcomes) / trials


_payoffs = st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.tuples(_payoffs, _payoffs, _payoffs, _payoffs), st.integers(0, 2**32))
def test_passive_row_reads_the_exact_passive_value_and_zero_ci95(cells, seed):
    # Guess-indifferent, mostly non-dyadic payoffs over a 4-message space:
    # every passive trial delivers undetected, so the `passive` row reads
    # base(1, 0) exactly, with ci95 0, and does not flag.
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


@pytest.mark.parametrize("names, message", [
    (["passive", "length-tamper"], "attack 'length-tamper' does not apply to P1"),
    (["no-such-attack"], "unknown attack 'no-such-attack'"),
    ([["passive"]], r"unknown attack \['passive'\]"),
    (["passive", "passive", "block-channel"], "attack 'passive' listed twice"),
])
def test_every_bad_attack_name_is_a_value_error(names, message):
    # the rule the config reader applies, enforced by the catalog itself
    with pytest.raises(ValueError, match=message):
        catalog_for("P1", names)
    with pytest.raises(ValueError, match=message):
        nash_catalog_check(PROTO1, PROF, TABLE, 1, 0, attack_names=names)


@pytest.mark.parametrize("profile, names, message", [
    (CorruptionProfile({}), None, "needs at least one adversary in the profile"),
    (PROF, [], "needs at least one attack; attack_names is empty"),
], ids=["no-adversary", "no-attack"])
def test_nash_check_names_a_run_with_no_adversary_or_no_attack(monkeypatch, profile, names,
                                                               message):
    # before: an IndexError from `passive_seed`, and a passive run with no rows
    def no_cell(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(nash, "run_cell", no_cell)
    with pytest.raises(ValueError, match=f"^nash_catalog_check {message}$"):
        nash_catalog_check(PROTO1, profile, TABLE, 1, 0, attack_names=names)


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


# Small fields and short tags make tag collisions, and with them rounds
# whose mismatch lists have no majority, common.
_SMALL_FIELDS = [FieldSpec.binary(m) for m in (3, 4, 5, 8)] + [FieldSpec.prime(p) for p in (7, 17)]


@st.composite
def _p3_attacked(draw):
    """P3 over (n, field, d, l) with one adversary owning 1..t channels."""
    field = draw(st.sampled_from(_SMALL_FIELDS))
    n = draw(st.integers(4, min(13, field.q - 1)))
    d = draw(st.integers(1, 2))
    p3 = CissProtocol(P3, n, field, d, draw(st.integers(1, min(4, d * field.elem_bits))))
    channels = draw(st.sets(st.integers(1, n), min_size=1, max_size=p3.t))
    return p3, CorruptionProfile({1: frozenset(channels)})


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_p3_attacked(), st.integers(0, 2**32))
def test_p3_delivers_under_every_catalog_attack_up_to_t_channels(case, seed):
    # P3 reconstructs from all n shares with error correction, so whether
    # the mismatch lists agree on a majority must not decide delivery.
    p3, prof = case
    table = witness_table(p3.message_space_size())
    for entry in catalog_for(P3):
        stats = run_cell(p3, prof, table, 12, seed, {1: entry.name})
        assert stats.suc_rate == 1.0, entry.name


@st.composite
def _p1_attacked(draw):
    """P1 at 32 tag bits, so a tag collision has probability 2^-32, over n
    and a 32-bit share, with one adversary owning 1..t channels."""
    field, d = draw(st.sampled_from([(FieldSpec.binary(8), 4), (FieldSpec.binary(16), 2)]))
    p1 = CissProtocol(P1, draw(st.integers(3, 9)), field, d, 32)
    channels = draw(st.sets(st.integers(1, p1.n), min_size=1, max_size=p1.t))
    return p1, CorruptionProfile({1: frozenset(channels)})


@settings(max_examples=14, deadline=None, derandomize=True, database=None)
@given(_p1_attacked(), st.integers(0, 2**32))
def test_p1_delivers_under_every_catalog_attack_up_to_t_channels(case, seed):
    # P1 keeps the share of every channel whose tags a majority accepts: at
    # most t tampered channels cannot outvote the honest ones
    p1, prof = case
    table = witness_table(p1.message_space_size())
    for entry in catalog_for(P1):
        stats = run_cell(p1, prof, table, 12, seed, {1: entry.name})
        assert stats.suc_rate == 1.0, entry.name


def _within_three_sigma(rate: float, bound: float, trials: int) -> bool:
    """rate <= bound + 3 sigma of a Bernoulli(bound) mean over `trials`."""
    p = min(bound, 1.0)
    return rate <= bound + 3 * math.sqrt(p * (1 - p) / trials)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 6), st.integers(1, 4), st.data())
def test_sjst_undetected_wrong_rate_stays_within_its_bound(n, ell, data):
    # a substituted channel escapes its round-3 check only on an offset
    # collision, so wrong and unflagged output has rate at most (n-1) 2^(1-l)
    sjst = SjstProtocol(n, ell, 8)
    prof = CorruptionProfile({1: frozenset(data.draw(
        st.sets(st.integers(1, n), min_size=1, max_size=n - 1)))})
    trials = 500
    stats = run_cell(sjst, prof, witness_table(sjst.message_space_size()), trials,
                     data.draw(st.integers(0, 2**32)), {1: "share-substitution"})
    rate = stats.rate(lambda o: not o.suc and 1 not in o.detect)
    assert _within_three_sigma(rate, (n - 1) * 2.0 ** (1 - ell), trials)


# (field, d) with d + 2 not a multiple of the characteristic, as the AMD code needs
_RSS_FIELDS = [(FieldSpec.prime(p), d) for p in (5, 7) for d in (1, 2)] + [(FieldSpec.binary(4), 1)]


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(_RSS_FIELDS), st.data())
def test_rss_undetected_wrong_rate_stays_within_its_bound(field_d, data):
    # substituting at most t shares adds an offset the AMD code misses with
    # probability at most (d+1)/q
    field, d = field_d
    n = data.draw(st.integers(2, min(6, field.q - 1)))
    t = data.draw(st.integers(1, n - 1))
    rss = RssProtocol(n, t, d, field)
    prof = CorruptionProfile({1: frozenset(data.draw(
        st.sets(st.integers(1, n), min_size=1, max_size=t)))})
    trials = 500
    stats = run_cell(rss, prof, witness_table(rss.message_space_size()), trials,
                     data.draw(st.integers(0, 2**32)), {1: "share-substitution"})
    rate = stats.rate(lambda o: not o.suc and 1 not in o.detect)
    assert _within_three_sigma(rate, (d + 1) / field.q, trials)


@st.composite
def _any_protocol(draw):
    """Every variant over its parameters: (n, field, d, l), or (n, k, l)
    for SJST."""
    variant = draw(st.sampled_from(["SJST", "RSS", P1, P2, P3, "STRAWMAN"]))
    if variant == "SJST":
        k = draw(st.integers(1, 16))
        return SjstProtocol(draw(st.integers(1, 8)), draw(st.integers(1, k)), k)
    field = draw(st.sampled_from(_SMALL_FIELDS))
    low = {"RSS": 2, P1: 3, P2: 2, P3: 4, "STRAWMAN": 3}[variant]
    n = draw(st.integers(low, min(10, field.q - 1)))
    if variant == "STRAWMAN":
        return StrawmanProtocol(n, field)
    d = draw(st.integers(1, 3))
    if variant == "RSS":
        d = d if (d + 2) % field.p else d + 1
        return RssProtocol(n, draw(st.integers(1, n - 1)), d, field)
    return CissProtocol(variant, n, field, d, draw(st.integers(1, min(6, d * field.elem_bits))))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_any_protocol(), st.data())
def test_passive_runs_deliver_and_flag_nothing(protocol, data):
    channels = data.draw(st.sets(st.integers(1, protocol.n), min_size=1))
    prof = CorruptionProfile({1: frozenset(channels)})
    run = plays(protocol, prof, {1: PassiveGuess(protocol)}, data.draw(st.integers(0, 2**32)))
    for outcome, engine in itertools.islice(run, 8):
        assert outcome.suc and engine.detect_events == []


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
    tr = execute(p, m, prof, {1: SwapHalf(p)}, derive_streams(4, prof.adversary_ids))
    assert tr.rounds[0].post[5] is EMPTY


# --- equilibrium falsification ----------------------------------------------


def test_nash_report_shape_and_passive_rows():
    rows = nash_catalog_check(PROTO1, PROF, TABLE, 300, 2)
    assert {r.attack for r in rows} == {e.name for e in catalog_for("P1")}
    passive_row = next(r for r in rows if r.attack == "passive")
    assert passive_row.mean == pytest.approx(2.0)
    assert not passive_row.flag
    assert all(len(r.as_csv_fields()) == 8 for r in rows)


@pytest.mark.parametrize("assignments, attacks, calls", [
    ({1: {1, 2}}, None, 7),
    ({1: {1, 2}, 2: {3}}, None, 13),
    ({1: {1, 2}}, ["share-substitution"], 2),
], ids=["p1-catalog", "p1-two-adversaries", "p1-one-attack"])
def test_nash_runs_the_all_passive_profile_once(monkeypatch, assignments, attacks, calls):
    # One all-passive run is the baseline and every id's `passive` row; it is
    # run when `attacks` omits `passive` too, on the first id's `passive` seed.
    made = []

    def counting(protocol, profile, table, trials, master_seed, deviations=None):
        made.append((master_seed, deviations))
        return run_cell(protocol, profile, table, trials, master_seed, deviations)

    monkeypatch.setattr(nash, "run_cell", counting)
    prof = CorruptionProfile({j: frozenset(chans) for j, chans in assignments.items()})
    rows = nash_catalog_check(PROTO1, prof, TABLE, 20, 9, attack_names=attacks)
    assert len(made) == calls
    assert [seed for seed, deviations in made if not deviations] == [
        nash.passive_seed(9, prof)] == [nash.cell_seed(9, 1, "passive")]
    assert len(rows) == len(prof.adversary_ids) * len(catalog_for("P1", attacks))


def test_run_cell_plays_the_named_deviation_against_passive_others():
    prof = CorruptionProfile({1: frozenset({1}), 2: frozenset({2})})
    strategies = {1: PassiveGuess(PROTO1), 2: Rewrite(PROTO1, "substitute")}
    cell = run_cell(PROTO1, prof, TABLE, 60, 17, {2: "share-substitution"})
    assert cell == run_trials(PROTO1, prof, strategies, TABLE, 60, 17)
    baseline = run_cell(PROTO1, prof, TABLE, 60, 17)
    assert baseline == run_trials(PROTO1, prof, {1: PassiveGuess(PROTO1), 2: PassiveGuess(PROTO1)},
                                  TABLE, 60, 17)
    with pytest.raises(ValueError, match="'length-tamper' does not apply to P1"):
        run_cell(PROTO1, prof, TABLE, 1, 17, {1: "length-tamper"})
    with pytest.raises(ValueError, match="adversary 3, who is not in the profile"):
        run_cell(PROTO1, prof, TABLE, 1, 17, {3: "passive"})


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
# (suc, detected ids) -> trials, per P3 catalog attack, at
# 30 trials and master seed 2026; slot 2 stays passive on channel 5.
P3_WIDE_GOLDEN = {
    "passive": {(1, ()): 30},
    "block-channel": {(1, (1,)): 30},
    "share-substitution": {(1, (1,)): 30},
    "share-substitution-1": {(1, (1,)): 30},
    "tag-framing": {(1, ()): 30},
    "mask-framing": {(1, (1,)): 30},
    "swap-half": {(1, (1,)): 30},
}
# SHA-256 over every transcript's JSON, attacks in catalog order: pins each
# payload, draw and decode, not only the outcome cells.
P3_WIDE_TRANSCRIPTS = "5f95577183e8b2a3ea5ad8e27bb467a6898ccc248e02568e10d2c1706a8915d0"


def test_p3_wide_fixed_seed_counts_and_transcripts_are_golden():
    table = witness_table(P3_WIDE.message_space_size())
    digest = hashlib.sha256()
    got = {}
    for entry in catalog_for(P3):
        strategies = {1: entry.factory(P3_WIDE), 2: PassiveGuess(P3_WIDE)}
        run = list(itertools.islice(plays(P3_WIDE, P3_WIDE_PROFILE, strategies, 2026), 30))
        for _, engine in run:
            digest.update(engine.to_json_str().encode())
        counts = Counter(o for o, _ in run)
        assert run_trials(P3_WIDE, P3_WIDE_PROFILE, strategies, table, 30, 2026).counts == counts
        got[entry.name] = {(o.suc, tuple(sorted(o.detect))): c for o, c in counts.items()}
    assert got == P3_WIDE_GOLDEN
    assert digest.hexdigest() == P3_WIDE_TRANSCRIPTS


# --- fixed-seed pin of the sjst_sweep setting -------------------------------


SJST_SWEEP_PROFILE = CorruptionProfile({1: frozenset({1, 2})})
# (n, attack) -> ((suc, detected ids) -> trials at 200 trials and master
# seed 2026, SHA-256 of trial 0's transcript JSON), for SJST with k = l = 8
# under every SJST catalog attack.
SJST_SWEEP_GOLDEN = {
    (3, "passive"): ({(1, ()): 200},
                     "571dc186b5eb65faf66ae26999485450b668e3e8e16cf1396267b3270f74fe39"),
    (3, "block-channel"): ({(1, (1,)): 200},
                           "e990094d8c0be3d1285681ed4425148c22a9df0a3de349427069cac0fa5117e4"),
    (3, "share-substitution"): ({(0, (1,)): 1, (1, (1,)): 199},
                                "190a18a2311738ee6e6213ae048e021ea853287ff087cb3caea396fc86ea6d7d"),
    (3, "share-substitution-1"): ({(0, ()): 1, (1, (1,)): 199},
                                  "5e536e000cbd0191df3bce737f14276a0ef0992547198ce98893a45af1f10f67"),
    (3, "length-tamper"): ({(1, (1,)): 200},
                           "2760a296e1ce921f4506fb755a052ec6253347185dc1b39a62f3481fb1d1f776"),
    (8, "passive"): ({(1, ()): 200},
                     "ff910af1569b41c4213f13e0b7363f7dece85fca02326004543ad0fc16c86249"),
    (8, "block-channel"): ({(1, (1,)): 200},
                           "25233c061d5a85ccb736fb9498931e6badfa4b0312f0dcaf445c0350d8d3ea04"),
    (8, "share-substitution"): ({(0, (1,)): 1, (1, (1,)): 199},
                                "d23a3e9501adde6a6aa50fc7e4250bd09f2d6973d08287260f3f55b5266f10bc"),
    (8, "share-substitution-1"): ({(0, ()): 1, (1, (1,)): 199},
                                  "3ce73f5f44b0d790d763b27c11434892e4d2cd1c502306a26d1701eeb4e8552d"),
    (8, "length-tamper"): ({(1, (1,)): 200},
                           "06270de6c56a584d10aa7ef52ea131ca7664f4838ab0fb699f61157f3b98fb49"),
    (16, "passive"): ({(1, ()): 200},
                      "0fd333e59ad368abdb7f74dcc6fd6833a4f704b45c710545959e1af9b4a73414"),
    (16, "block-channel"): ({(1, (1,)): 200},
                            "6749f1dd9646c56b69446e133f224ac11e13a137883f374f4b5daf496d874a04"),
    (16, "share-substitution"): ({(0, (1,)): 2, (1, (1,)): 198},
                                 "ea90504ca6655041db654c6be4e6126f3161ea3d911eed45d892cc31255ac16f"),
    (16, "share-substitution-1"): ({(0, ()): 1, (1, (1,)): 199},
                                   "470bff7c631451ae142fb4c0c0b2ecf676e6d45c2798b7189c9171e36224ff29"),
    (16, "length-tamper"): ({(1, (1,)): 200},
                            "5af08d222e4239194b5278049da76fbc095a9ee1dcfdec8a2fc344a8970fa49b"),
}


@pytest.mark.parametrize("n", [3, 8, 16])
def test_sjst_sweep_fixed_seed_counts_and_first_transcript_are_golden(n):
    protocol = SjstProtocol(n, 8, 8)
    table = witness_table(protocol.message_space_size())
    for entry in catalog_for("SJST"):
        strategies = {1: entry.factory(protocol)}
        run = list(itertools.islice(plays(protocol, SJST_SWEEP_PROFILE, strategies, 2026), 200))
        outcomes = Counter(o for o, _ in run)
        assert run_trials(protocol, SJST_SWEEP_PROFILE, strategies, table, 200,
                          2026).counts == outcomes
        counts = {(o.suc, tuple(sorted(o.detect))): c for o, c in outcomes.items()}
        digest = hashlib.sha256(run[0][1].to_json_str().encode()).hexdigest()
        assert (counts, digest) == SJST_SWEEP_GOLDEN[n, entry.name], entry.name
