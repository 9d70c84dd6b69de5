"""Catalog-based equilibrium falsification.

For each adversary slot and each applicable catalog attack, estimate the
deviating adversary's utility while everyone else stays passive, and flag any
estimate above the one all-passive run's, which is every slot's `passive` row,
beyond the combined confidence intervals.  This falsifies, never proves: a
clean report says "no violation found among these attacks and trials".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from ..transport import derive_seed
from .attacks import catalog_for
from .play import run_cell
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
        return [self.protocol, str(self.adversary), self.attack, str(self.trials),
                *(f"{v:.6f}" for v in (self.mean, self.ci95, self.threshold)),
                "1" if self.flag else "0"]


CSV_COLUMNS = [f.name for f in fields(ReportRow)]


def cell_seed(master_seed: int, j: int, attack: str) -> int:
    """Master seed of adversary j's run under `attack`: the digest's top 64 bits."""
    return derive_seed(master_seed, "nash", j, attack) >> 192


def passive_seed(master_seed: int, profile) -> int:
    """Master seed of the one all-passive run: the first adversary's `passive` row."""
    return cell_seed(master_seed, profile.adversary_ids[0], "passive")


def nash_catalog_check(protocol, profile, table: UtilityTable, trials: int,
                       master_seed: int, attack_names=None) -> list[ReportRow]:
    if not profile.adversary_ids:
        raise ValueError("nash_catalog_check needs at least one adversary in the profile")
    entries = catalog_for(protocol.variant, attack_names)
    if not entries:
        raise ValueError("nash_catalog_check needs at least one attack; attack_names is empty")
    passive = run_cell(protocol, profile, table, trials, passive_seed(master_seed, profile))
    rows = []
    for j in profile.adversary_ids:
        for entry in entries:
            stats = passive if entry.name == "passive" else run_cell(
                protocol, profile, table, trials, cell_seed(master_seed, j, entry.name),
                {j: entry.name})
            mean, ci95 = stats.utility_mean[j], stats.utility_ci95[j]
            threshold = passive.utility_mean[j] + math.hypot(passive.utility_ci95[j], ci95)
            rows.append(ReportRow(protocol.variant, j, entry.name, trials, mean=mean, ci95=ci95,
                                  threshold=threshold, flag=mean > threshold))
    return rows
