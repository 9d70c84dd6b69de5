"""Catalog-based equilibrium falsification.

For each adversary slot and each applicable catalog attack, estimate the
deviating adversary's utility while everyone else stays passive, and flag any
estimate that exceeds the all-passive baseline beyond the combined confidence
intervals.  This falsifies, never proves: a clean report says "no violation
found among these attacks and trials".
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

from .attacks import PassiveGuess, catalog_for
from .play import run_trials
from .utility import UtilityTable


@dataclass(frozen=True)
class ReportRow:
    protocol: str
    adversary: int
    attack: str
    trials: int
    mean: float
    ci95: float
    threshold: float
    flag: bool

    def as_csv_fields(self) -> list[str]:
        return [
            self.protocol,
            str(self.adversary),
            self.attack,
            str(self.trials),
            f"{self.mean:.6f}",
            f"{self.ci95:.6f}",
            f"{self.threshold:.6f}",
            "1" if self.flag else "0",
        ]


CSV_COLUMNS = ["protocol", "adversary", "attack", "trials", "mean", "ci95", "threshold", "flag"]


def cell_seed(master_seed: int, j: int, attack: str) -> int:
    """Master seed of adversary j's run under `attack`; (0, "baseline") is
    the all-passive baseline's."""
    digest = hashlib.sha256(f"{master_seed}:nash:{j}:{attack}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def nash_catalog_check(protocol, profile, table: UtilityTable, trials: int,
                       master_seed: int, attack_names=None) -> list[ReportRow]:
    entries = catalog_for(protocol.variant, attack_names)
    ids = profile.adversary_ids
    passive = {j: PassiveGuess(protocol) for j in ids}
    baseline = run_trials(protocol, profile, passive, table, trials,
                          cell_seed(master_seed, 0, "baseline"))
    rows = []
    for j in ids:
        base_mean = baseline.utility_mean[j]
        base_ci = baseline.utility_ci95[j]
        for entry in entries:
            strategies = dict(passive)
            strategies[j] = entry.factory(protocol)
            stats = run_trials(protocol, profile, strategies, table, trials,
                               cell_seed(master_seed, j, entry.name))
            threshold = base_mean + math.hypot(base_ci, stats.utility_ci95[j])
            rows.append(ReportRow(
                protocol=protocol.variant,
                adversary=j,
                attack=entry.name,
                trials=trials,
                mean=stats.utility_mean[j],
                ci95=stats.utility_ci95[j],
                threshold=threshold,
                flag=stats.utility_mean[j] > threshold,
            ))
    return rows
