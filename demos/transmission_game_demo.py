"""
Playing the transmission game
=============================

A sender pushes a message over five parallel channels while an adversary
controlling two of them decides whether to tamper.  Against the
cheater-identifying protocol, every active attack either gets corrected
or gets the adversary's channels flagged -- so staying passive maximizes
a detection-averse adversary's payoff.
"""

from rsmt.field import FieldSpec
from rsmt.game import nash_catalog_check, run_cell, witness_table
from rsmt.protocols import CissProtocol
from rsmt.protocols.ciss import P1
from rsmt.transport import CorruptionProfile

# n = 5 channels, minority threshold t = 2, one field element per message,
# 5 tag bits -- the minimum the bound calculator demands for these payoffs.
protocol = CissProtocol(P1, 5, FieldSpec.binary(8), 1, 5)
profile = CorruptionProfile({1: frozenset({1, 2})})

# Payoffs 3/2/1/0 for the four (delivered, detected) outcomes: failure is
# preferred to delivery, but being detected is worse than anything.
table = witness_table(protocol.message_space_size())

# --- the all-passive profile: the baseline of every catalog row --------------
stats = run_cell(protocol, profile, table, 2000, 1)
print(f"passive: utility {stats.utility_mean[1]:.3f}, "
      f"delivery {stats.suc_rate:.3f}, detection {stats.detect_rate[1]:.3f}")

# --- an active deviation -----------------------------------------------------
# Substituting both owned shares: the honest majority cross-checks expose
# the forgery, the decoder reconstructs from the clean channels, and the
# adversary ends up detected with payoff ~0.
stats = run_cell(protocol, profile, table, 2000, 1, {1: "share-substitution"})
print(f"substitution: utility {stats.utility_mean[1]:.3f}, "
      f"delivery {stats.suc_rate:.3f}, detection {stats.detect_rate[1]:.3f}")

# --- the whole catalog -------------------------------------------------------
# No catalog deviation beats the passive payoff: zero equilibrium flags.
print("\nattack              mean   ci95   flag")
for row in nash_catalog_check(protocol, profile, table, 2000, 7):
    print(f"{row.attack:<18} {row.mean:6.3f} {row.ci95:6.3f}   {int(row.flag)}")
