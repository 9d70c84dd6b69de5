"""Monte-Carlo execution of the transmission game.

A single play samples a uniform message, runs the protocol under a corruption
profile and per-adversary strategies, and records its Outcome: delivery and
who was detected.  Every adversary's guess is uniform and scored exactly by
the utility table, so no play draws one.  A run is the iterator `plays`, and
`run_trials` counts how its first T plays ended.  Its plays go in blocks of
`BLOCK_TRIALS`: block b makes its streams once, from `block_seed(master_seed,
b)`, and its plays draw from them in turn, so trial i is block i // B at
offset i % B and replaying it re-runs the up to B - 1 trials before it in its
block.  Results are reproducible from (config, master_seed) alone, a run's
first T trials are those of any longer run, and the counts of trial ranges
that start and end at block boundaries merge by Counter addition.  Rates and
utility statistics derive from the counts; utility mean and variance are
computed exactly.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from ..transport import (BLOCK_TRIALS, CorruptionProfile, Engine, Streams, derive_seed,
                         derive_streams, execute)
from .attacks import catalog_for
from .utility import Outcome, UtilityTable


def block_seed(master_seed: int, block: int) -> int:
    return derive_seed(master_seed, "block", block) >> 192  # the digest's top 64 bits


def outcome_of(engine: Engine) -> Outcome:
    """How the execution that `engine` ran ended."""
    profile, events = engine.profile, engine.detect_events
    detected_channels = {ch for ch, _ in events} if events else None
    return Outcome(
        suc=int(engine.receiver_output == engine.message),
        detect=frozenset(j for j in profile.adversary_ids if not profile.assignments[j].isdisjoint(
            detected_channels)) if events else frozenset(),
    )


def play_game(protocol, profile: CorruptionProfile, strategies, streams: Streams):
    """One play: (Outcome, the engine that ran it).  The message, the sender
    and the receiver draw in that order from `streams.honest`."""
    engine = execute(protocol, protocol.sample_message(streams.honest), profile, strategies,
                     streams)
    return outcome_of(engine), engine


def plays(protocol, profile: CorruptionProfile, strategies, master_seed: int):
    """Every play of a run in order, as `play_game` returns it: block b makes
    its streams once, from `block_seed(master_seed, b)`, one per id of
    `strategies`, and its `BLOCK_TRIALS` plays draw from them in turn."""
    ids = tuple(sorted(strategies))
    for block in itertools.count():
        streams = derive_streams(block_seed(master_seed, block), ids)
        for _ in range(BLOCK_TRIALS):
            yield play_game(protocol, profile, strategies, streams)


@dataclass
class GameStats:
    """How many trials ended in each Outcome; every statistic derives from
    these counts, per adversary id in `ids`, scored with `table`."""

    counts: Counter
    ids: tuple[int, ...]
    table: UtilityTable

    @property
    def trials(self) -> int:
        return sum(self.counts.values())

    def rate(self, event) -> float:
        """Fraction of trials whose Outcome satisfies `event`."""
        return sum(c for o, c in self.counts.items() if event(o)) / self.trials

    @property
    def suc_rate(self) -> float:
        return self.rate(lambda o: o.suc)

    @property
    def guess_rate(self) -> dict[int, float]:
        """The exact rate of a uniform guess, 1/|M|, for each id."""
        return dict.fromkeys(self.ids, 1 / self.table.message_space_size)

    @property
    def detect_rate(self) -> dict[int, float]:
        return {j: self.rate(lambda o: j in o.detect) for j in self.ids}

    @cached_property
    def _moments(self) -> dict[int, tuple[Fraction, Fraction]]:
        """Exact (mean, variance) of each adversary's utility."""
        n = self.trials
        out = {}
        for j in self.ids:
            payoff = {o: self.table.payoff(o.suc, int(j in o.detect), len(o.detect - {j}))
                      for o in self.counts}
            mean = sum(c * payoff[o] for o, c in self.counts.items()) / n
            out[j] = mean, sum(c * (payoff[o] - mean) ** 2 for o, c in self.counts.items()) / n
        return out

    @property
    def utility_mean(self) -> dict[int, float]:
        return {j: float(mean) for j, (mean, _) in self._moments.items()}

    @property
    def utility_ci95(self) -> dict[int, float]:
        return {j: 1.96 * math.sqrt(var / self.trials)
                for j, (_, var) in self._moments.items()}


def run_trials(protocol, profile: CorruptionProfile, strategies, table: UtilityTable,
               trials: int, master_seed: int) -> GameStats:
    """The outcome counts of the first `trials` plays of a run.  `strategies`
    maps each adversary id to its strategy; statistics are reported for
    those ids."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    run = plays(protocol, profile, strategies, master_seed)
    counts = Counter(outcome for outcome, _ in itertools.islice(run, trials))
    return GameStats(counts, tuple(sorted(strategies)), table)


def run_cell(protocol, profile: CorruptionProfile, table: UtilityTable, trials: int,
             master_seed: int, deviations=None) -> GameStats:
    """`run_trials` on one cell of the equilibrium test: adversary j plays
    the catalog attack named `deviations[j]` and every other adversary of
    `profile` is passive (no `deviations`: the all-passive run).  A
    name that does not apply to the protocol is `catalog_for`'s ValueError."""
    names = dict.fromkeys(profile.adversary_ids, "passive")
    for j, name in (deviations or {}).items():
        if j not in names:
            raise ValueError(f"deviation for adversary {j}, who is not in the profile")
        names[j] = name
    strategies = {j: catalog_for(protocol.variant, [name])[0].factory(protocol)
                  for j, name in names.items()}
    return run_trials(protocol, profile, strategies, table, trials, master_seed)
