"""Acceptance suite: one criterion per test, each printing a pass/fail line.

Every statistical check states its bound and uses a 3-sigma binomial
tolerance at the stated trial count; enumeration checks are exact.
"""

import itertools
import math
import random
from collections import Counter

from rsmt.field import FieldSpec
from rsmt.game import (
    GameStats,
    PassiveGuess,
    SwapHalf,
    UtilityTable,
    catalog_for,
    derive_u_values,
    nash_catalog_check,
    plays,
    run_cell,
    witness_table,
)
from rsmt.game.bounds import (
    required_delta_rss,
    required_ell_p1,
    required_ell_p2,
    required_ell_pd,
)
from rsmt.privacy import CHECKS
from rsmt.protocols import CissProtocol, RssProtocol, SjstProtocol, StrawmanProtocol
from rsmt.protocols.ciss import P1, P2, P3
from rsmt.sharing import SharingSpec, rs_reconstruct, shamir_share
from rsmt.transport import CorruptionProfile

from block_walk import walk_trials
from rs_oracle import rs_reconstruct_bruteforce


def report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"acceptance {num:02d} {name}: {status} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def three_sigma(p: float, trials: int) -> float:
    return 3.0 * math.sqrt(p * (1.0 - p) / trials)


def run_checks(num: int, name: str, prefixes: tuple[str, ...], count: int) -> None:
    """Run the rows of the `rsmt verify` table whose names start with one of
    `prefixes` (there must be `count` of them) and report them as one
    criterion."""
    rows = [c for c in CHECKS if c.name.startswith(prefixes)]
    assert len(rows) == count, [c.name for c in rows]
    ok = True
    detail = []
    for check in rows:
        observed, passed = check.run()
        ok = ok and passed
        detail.append(f"{check.name}: {observed} vs {check.bound}")
    report(num, name, ok, "; ".join(detail))


def test_01_hash_family_exactness():
    run_checks(1, "hash-family-exactness", ("hash-pair-counts", "hash-offset-collision"), 6)


def test_02_amd_exhaustive_security():
    run_checks(2, "amd-manipulation-bound", ("amd-failure",), 2)


def test_03_shamir_perfect_privacy():
    run_checks(3, "shamir-2-share-privacy", ("shamir-privacy",), 1)


def test_04_error_correcting_reconstruction():
    spec = SharingSpec(t=1, n=4, field=FieldSpec.prime(7))
    rng = random.Random(404)
    ok = True
    checked = 0
    for _ in range(100):
        secret = rng.randrange(7)
        shares = shamir_share(spec, secret, rng)
        for pos in range(1, 5):
            for delta in range(1, 7):
                bad = dict(shares)
                bad[pos] = (bad[pos] + delta) % 7
                got = rs_reconstruct(spec, bad, 1)
                oracle = rs_reconstruct_bruteforce(spec, bad, 1)
                checked += 1
                if got != secret or got != oracle:
                    ok = False
    report(4, "error-correcting-reconstruction", ok,
           f"{checked} single-error patterns, decoder == oracle == secret")


def test_05_sjst_reliability_bound():
    spec = SjstProtocol(3, 8, 8)
    profile = CorruptionProfile({1: frozenset({1, 2})})
    trials = 1_000_000
    bound = (spec.n - 1) * 2.0 ** (1 - spec.ell)  # 2^-7
    stats = run_cell(spec, profile, witness_table(spec.message_space_size()), trials, 505,
                     {1: "share-substitution"})
    rate = stats.rate(lambda o: not o.suc)
    limit = bound + three_sigma(bound, trials)
    report(5, "pd-undetected-wrong-rate", rate <= limit,
           f"rate {rate:.6f} <= 2^-7 + 3sigma = {limit:.6f} at {trials} trials")


def test_06_minority_detection_bound():
    spec = CissProtocol(P1, 5, FieldSpec.binary(16), 1, 16)
    profile = CorruptionProfile({1: frozenset({3})})
    trials = 100_000
    stats = run_cell(spec, profile, witness_table(spec.message_space_size()), trials, 606,
                     {1: "share-substitution"})
    rate = stats.rate(lambda o: o.suc and 1 in o.detect)
    miss = (spec.n + 1) ** 2 * 2.0 ** -(spec.ell + 1)
    floor = 1.0 - miss - three_sigma(miss, trials)
    report(6, "minority-correct-and-detected", rate >= floor,
           f"rate {rate:.6f} >= {floor:.6f} at {trials} trials")


def test_07_equilibrium_catalog_zero_flags():
    gf256 = FieldSpec.binary(8)
    gf251 = FieldSpec.prime(251)
    configs = [
        ("SJST", SjstProtocol(3, 2, 8), CorruptionProfile({1: frozenset({1, 2})})),
        ("RSS",
         RssProtocol(3, 1, 1, gf251),
         CorruptionProfile({1: frozenset({1})})),
        ("P1", CissProtocol(P1, 5, gf256, 1, 5),
         CorruptionProfile({1: frozenset({1, 2})})),
        ("P2", CissProtocol(P2, 4, gf256, 1, 1),
         CorruptionProfile({1: frozenset({1, 2, 3})})),
        ("P3", CissProtocol(P3, 7, gf256, 1, 6),
         CorruptionProfile({1: frozenset({1, 2})})),
    ]
    # each configured tag budget meets its calculator at the 3/2/1/0 values
    assert configs[0][1].ell >= required_ell_pd(3, 2, 1, 0, 2)
    assert configs[1][1].sharing.delta <= required_delta_rss(3, 2, 1)
    assert configs[2][1].ell >= required_ell_p1(3, 2, 0, 5)
    assert configs[3][1].ell >= required_ell_p2(3, 2, 1)
    assert configs[4][1].ell >= required_ell_p1(3, 2, 0, 7)
    flagged = []
    cells = 0
    for label, proto, profile in configs:
        table = witness_table(proto.message_space_size())
        rows = nash_catalog_check(proto, profile, table, 10_000, 707)
        cells += len(rows)
        flagged += [f"{label}:{r.attack}" for r in rows if r.flag]
    report(7, "passive-equilibrium-catalog", not flagged,
           f"{cells} cells at 10000 trials, flags: {flagged or 'none'}")


def test_08_no_detection_protocol_is_exploitable():
    proto = StrawmanProtocol(4, FieldSpec.binary(4))
    base = {}
    for g in (0, 1):
        base[(g, 0, 0)] = 10.0  # undetected failure pays best
        base[(g, 1, 0)] = 0.4   # u2 < (1/2)(1 - 1/16) * u3
        base[(g, 0, 1)] = 1.0
        base[(g, 1, 1)] = 0.0
    table = UtilityTable(base=base, message_space_size=16)
    u = derive_u_values(table)
    assert u["u2"] < 0.5 * (1 - 1 / 16) * u["u3"]

    def profile_factory(rng):
        return CorruptionProfile({1: frozenset(rng.sample(range(1, 5), 2))})

    trials = 100_000
    outcomes = walk_trials(proto, profile_factory, {1: SwapHalf(proto)}, trials, 808)
    stats = GameStats(Counter(o for o, _ in outcomes), (1,), table)
    suc_limit = 0.5 * (1 + 1 / 16) + three_sigma(0.5 * (1 + 1 / 16), trials)
    ok_suc = stats.suc_rate <= suc_limit
    gain = stats.utility_mean[1] - u["u2"]
    ok_util = gain > stats.utility_ci95[1]
    report(8, "no-detection-exploitability", ok_suc and ok_util,
           f"suc {stats.suc_rate:.4f} <= {suc_limit:.4f}; "
           f"utility {stats.utility_mean[1]:.3f} beats u2={float(u['u2'])} "
           f"by {gain:.3f} > ci {stats.utility_ci95[1]:.3f}")


def test_09_protocol_view_privacy():
    run_checks(9, "protocol-view-privacy", ("rss-view", "minority-view"), 2)


def test_10_bound_calculator_regression():
    got = (
        required_ell_pd(3, 2, 1, 0, 2, alpha=1.0),
        required_ell_p1(3, 2, 0, 5),
        required_delta_rss(3, 2, 1),
        required_ell_p2(3, 2, 1),
    )
    want = (2, 5, 0.5, 1)
    report(10, "bound-calculator-regression", got == want,
           f"(pd, minority, delta, unanimous) = {got} == {want}")


def test_11_robust_mixed_model_reliability(tmp_path):
    proto = CissProtocol(P3, 7, FieldSpec.binary(16), 1, 16)
    profile = CorruptionProfile(
        {1: frozenset({1, 2}), 2: frozenset({3})}, malicious_id=1
    )
    attacks = catalog_for(P3)
    per_attack = 100_000 // len(attacks)
    total = failures = 0
    dump = tmp_path / "failed_transcripts.jsonl"
    with dump.open("w") as fh:
        for entry in attacks:
            strategies = {1: entry.factory(proto), 2: PassiveGuess(proto)}
            run = plays(proto, profile, strategies, 1100 + attacks.index(entry))
            for outcome, engine in itertools.islice(run, per_attack):
                if not outcome.suc:
                    failures += 1
                    fh.write(f'{{"attack":"{entry.name}","transcript":'
                             + engine.to_json_str() + "}\n")
            total += per_attack
    rate = 1.0 - failures / total
    report(11, "robust-mixed-model-reliability", rate >= 0.999,
           f"delivery rate {rate:.5f} >= 0.999 over {total} trials "
           f"({len(attacks)} malicious strategies); failures dumped to {dump.name}")
