"""Monte-Carlo execution of the transmission game.

A single play samples a uniform message, runs the protocol under a corruption
profile and per-adversary strategies, and scores the outcome with a utility
table.  Estimators aggregate independent plays under derived per-trial seeds,
so results are reproducible from (config, master_seed) alone and partial sums
merge associatively.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

from ..transport import CorruptionProfile, Transcript, derive_rng, execute
from .utility import Outcome, UtilityTable


def trial_seed(master_seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{master_seed}:trial:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _resolve_profile(profile, master_seed: int) -> CorruptionProfile:
    """A profile may be fixed or a callable sampling one per trial (used by
    attacks that pick a uniformly random corrupted subset)."""
    if callable(profile):
        return profile(derive_rng(master_seed, "profile"))
    return profile


def outcome_of(transcript: Transcript, profile: CorruptionProfile) -> Outcome:
    m = transcript.message
    suc = int(transcript.receiver_output == m)
    detected_channels = {ch for ch, _ in transcript.detect_events}
    guess = {}
    detect = {}
    for j in profile.adversary_ids:
        guess[j] = int(transcript.adversary_outputs.get(j) == m)
        detect[j] = int(bool(profile.channels_of(j) & detected_channels))
    return Outcome(suc=suc, guess=guess, detect=detect)


def utilities_of(outcome: Outcome, table: UtilityTable) -> dict[int, float]:
    total_detected = sum(outcome.detect.values())
    return {
        j: table.payoff(
            outcome.guess[j],
            outcome.suc,
            outcome.detect[j],
            others_detected=total_detected - outcome.detect[j],
        )
        for j in outcome.guess
    }


def play_game(protocol, profile, strategies, table: UtilityTable, master_seed: int):
    """One play: returns (Outcome, per-adversary utility sample, Transcript)."""
    resolved = _resolve_profile(profile, master_seed)
    m = protocol.sample_message(derive_rng(master_seed, "message"))
    transcript = execute(protocol, m, resolved, strategies, master_seed)
    outcome = outcome_of(transcript, resolved)
    return outcome, utilities_of(outcome, table), transcript


@dataclass
class GameStats:
    trials: int
    utility_mean: dict[int, float]
    utility_ci95: dict[int, float]
    suc_rate: float
    guess_rate: dict[int, float]
    detect_rate: dict[int, float]


def run_trials(protocol, profile, strategies, table: UtilityTable, trials: int,
               master_seed: int, on_transcript=None) -> GameStats:
    """Aggregate statistics over independent plays.

    `on_transcript(index, outcome, transcript)` lets callers dump transcripts
    of interest (e.g. failed deliveries) without rerunning.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    ids = None
    sums: dict[int, float] = {}
    sq_sums: dict[int, float] = {}
    suc_count = 0
    guess_counts: dict[int, int] = {}
    detect_counts: dict[int, int] = {}
    for idx in range(trials):
        outcome, utils, transcript = play_game(
            protocol, profile, strategies, table, trial_seed(master_seed, idx)
        )
        if ids is None:
            ids = sorted(utils)
            sums = {j: 0.0 for j in ids}
            sq_sums = {j: 0.0 for j in ids}
            guess_counts = {j: 0 for j in ids}
            detect_counts = {j: 0 for j in ids}
        suc_count += outcome.suc
        for j in ids:
            sums[j] += utils[j]
            sq_sums[j] += utils[j] * utils[j]
            guess_counts[j] += outcome.guess[j]
            detect_counts[j] += outcome.detect[j]
        if on_transcript is not None:
            on_transcript(idx, outcome, transcript)
    means = {j: sums[j] / trials for j in ids}
    ci = {}
    for j in ids:
        var = max(0.0, sq_sums[j] / trials - means[j] ** 2)
        ci[j] = 1.96 * math.sqrt(var / trials)
    return GameStats(
        trials=trials,
        utility_mean=means,
        utility_ci95=ci,
        suc_rate=suc_count / trials,
        guess_rate={j: guess_counts[j] / trials for j in ids},
        detect_rate={j: detect_counts[j] / trials for j in ids},
    )

