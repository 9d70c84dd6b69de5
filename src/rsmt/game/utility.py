"""Outcome and utility model for the transmission game.

One game run produces the global bit suc and, per adversary j, the bit
detect_j.  A utility table assigns a base payoff, held as an exact
`Fraction`, to each (guess, suc, detect_self) triple; in the multi-adversary
model every *other* adversary that gets detected adds a fixed bonus.  Every
adversary guesses m uniformly, which succeeds with probability exactly
1/|M| whatever it saw, so `UtilityTable.payoff` scores the guess in
expectation rather than drawing it.  The derived values u_1..u_4 are those
payoffs for the four (suc, detect) combinations:

    u_1: suc=0, detect=0     u_2: suc=1, detect=0
    u_3: suc=0, detect=1     u_4: suc=1, detect=1

A timid adversary satisfies u_1 > max{u_2, u_3} and min{u_2, u_3} > u_4; a
strictly timid one additionally has u_2 > u_3 (`required_delta_rss` checks
that where the RSS budget needs it).  With bonus b and lam
adversaries, the primed values equal the unprimed ones (no others detected)
and u''_i = u'_i + b*(lam - 1) (all others detected).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, NamedTuple

from ..config import read_int, read_number, read_object


class UtilityError(ValueError):
    pass


class Outcome(NamedTuple):
    """One trial's result: the suc bit and the ids of the adversaries that
    were detected.  Hashable, so a run is a Counter of outcomes."""

    suc: int
    detect: frozenset[int]


@dataclass(frozen=True)
class UtilityTable:
    """base[(guess, suc, detect_self)] -> payoff; bonus per other detected."""

    base: Mapping[tuple[int, int, int], Fraction]
    message_space_size: int
    others_detected_bonus: Fraction = Fraction(0)

    def __post_init__(self):
        table = {key: Fraction(v) for key, v in self.base.items()}
        expected = {(g, s, d) for g in (0, 1) for s in (0, 1) for d in (0, 1)}
        if set(table) != expected:
            raise UtilityError("base table must cover all (guess, suc, detect) triples")
        object.__setattr__(self, "base", table)
        object.__setattr__(self, "others_detected_bonus", Fraction(self.others_detected_bonus))
        if self.message_space_size < 2:
            raise UtilityError("message space must have at least 2 elements")
        if self.others_detected_bonus < 0:
            raise UtilityError("others-detected bonus must be >= 0")

    def payoff(self, suc: int, detect_self: int, others_detected: int = 0) -> Fraction:
        """Expected payoff of a uniform guess, right with probability 1/|M|."""
        hit = Fraction(1, self.message_space_size)
        guessed, missed = self.base[(1, suc, detect_self)], self.base[(0, suc, detect_self)]
        return hit * guessed + (1 - hit) * missed + self.others_detected_bonus * others_detected

    def validate_timid(self) -> None:
        """Raise naming the violated inequality unless the table is timid.  As
        0 < 1/|M| < 1, these imply u1 > max(u2, u3) and min(u2, u3) > u4."""
        b = self.base
        for s in (0, 1):
            for d in (0, 1):
                if b[(1, s, d)] < b[(0, s, d)]:
                    raise UtilityError(f"base(1,{s},{d}) < base(0,{s},{d}): payoff must not decrease in guess")
        for g in (0, 1):
            for d in (0, 1):
                if not b[(g, 0, d)] > b[(g, 1, d)]:
                    raise UtilityError(f"base({g},0,{d}) <= base({g},1,{d}): breaking delivery must pay strictly more")
            for s in (0, 1):
                if not b[(g, s, 0)] > b[(g, s, 1)]:
                    raise UtilityError(f"base({g},{s},0) <= base({g},{s},1): detection must cost strictly")

    def validate_multi(self, lam: int) -> None:
        self.validate_timid()
        if lam < 2:
            raise UtilityError("multi-adversary model needs lam >= 2")
        if not self.others_detected_bonus > 0:
            raise UtilityError("multi-adversary model needs a positive bonus")
        u = derive_u_values(self, lam=lam)
        if not u["u1"] > max(u["u2"], u["u3pp"]):
            raise UtilityError("derived u1' <= max(u2', u3'')")

    def to_json(self) -> dict:
        return {
            "base": {f"{g}{s}{d}": float(v) for (g, s, d), v in sorted(self.base.items())},
            "message_space_size": self.message_space_size,
            "others_detected_bonus": float(self.others_detected_bonus),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "UtilityTable":
        base = {tuple(int(ch) for ch in key): read_number(v, f"base {key}")
                for key, v in read_object(obj["base"], "base").items()}
        return cls(
            base=base,
            message_space_size=read_int(obj["message_space_size"], "message_space_size"),
            others_detected_bonus=read_number(obj.get("others_detected_bonus", 0),
                                              "others_detected_bonus"),
        )


def derive_u_values(table: UtilityTable, lam: int = 1) -> dict[str, Fraction]:
    """`table.payoff` per (suc, detect) cell: u1..u4 with no other adversary
    detected (the primed values), and u1pp..u4pp with all lam - 1 others
    detected (equal to u1..u4 at lam = 1).
    """
    cells = {"u1": (0, 0), "u2": (1, 0), "u3": (0, 1), "u4": (1, 1)}
    return ({k: table.payoff(s, d) for k, (s, d) in cells.items()}
            | {f"{k}pp": table.payoff(s, d, lam - 1) for k, (s, d) in cells.items()})


# Guess-indifferent witness table: derived u values are exactly (3, 2, 1, 0).
WITNESS_BASE = {
    (0, 0, 0): 3.0, (1, 0, 0): 3.0,
    (0, 1, 0): 2.0, (1, 1, 0): 2.0,
    (0, 0, 1): 1.0, (1, 0, 1): 1.0,
    (0, 1, 1): 0.0, (1, 1, 1): 0.0,
}


def witness_table(message_space_size: int = 256, bonus: float = 0.0) -> UtilityTable:
    return UtilityTable(
        base=WITNESS_BASE,
        message_space_size=message_space_size,
        others_detected_bonus=bonus,
    )
