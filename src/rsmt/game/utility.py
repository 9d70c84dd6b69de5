"""Outcome and utility model for the transmission game.

One game run produces, per adversary j, the bits (guess_j, detect_j) and the
global bit suc.  A utility table assigns a base payoff to each (guess, suc,
detect_self) triple; in the multi-adversary model every *other* adversary
that gets detected adds a fixed bonus.  The derived values u_1..u_4 are the
expected payoffs at the uniform-guess rate 1/|M| for the four (suc, detect)
combinations:

    u_1: suc=0, detect=0     u_2: suc=1, detect=0
    u_3: suc=0, detect=1     u_4: suc=1, detect=1

A timid adversary satisfies u_1 > max{u_2, u_3} and min{u_2, u_3} > u_4; a
strictly timid one additionally has u_2 > u_3.  With bonus b and lam
adversaries, the primed values equal the unprimed ones (no others detected)
and u''_i = u'_i + b*(lam - 1) (all others detected).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple

from ..config import read_int, read_number, read_object


class UtilityError(ValueError):
    pass


class Outcome(NamedTuple):
    """One trial's result: the suc bit and the ids of the adversaries that
    guessed m and that were detected.  Hashable, so a run is a Counter of
    outcomes."""

    suc: int
    guess: frozenset[int]
    detect: frozenset[int]


@dataclass(frozen=True)
class UtilityTable:
    """base[(guess, suc, detect_self)] -> payoff; bonus per other detected."""

    base: Mapping[tuple[int, int, int], float]
    message_space_size: int
    others_detected_bonus: float = 0.0

    def __post_init__(self):
        table = dict(self.base)
        expected = {(g, s, d) for g in (0, 1) for s in (0, 1) for d in (0, 1)}
        if set(table) != expected:
            raise UtilityError("base table must cover all (guess, suc, detect) triples")
        object.__setattr__(self, "base", table)
        if self.message_space_size < 2:
            raise UtilityError("message space must have at least 2 elements")
        if self.others_detected_bonus < 0:
            raise UtilityError("others-detected bonus must be >= 0")

    def payoff(self, guess: int, suc: int, detect_self: int, others_detected: int = 0) -> float:
        return self.base[(guess, suc, detect_self)] + self.others_detected_bonus * others_detected

    def validate_timid(self) -> None:
        """Raise naming the violated inequality unless the table is timid."""
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
        u = derive_u_values(self)
        if not u["u1"] > max(u["u2"], u["u3"]):
            raise UtilityError("derived u1 <= max(u2, u3)")
        if not min(u["u2"], u["u3"]) > u["u4"]:
            raise UtilityError("derived min(u2, u3) <= u4")

    def validate_strictly_timid(self) -> None:
        self.validate_timid()
        u = derive_u_values(self)
        if not u["u2"] > u["u3"]:
            raise UtilityError("derived u2 <= u3: not strictly timid")

    def validate_multi(self, lam: int) -> None:
        self.validate_timid()
        if lam < 2:
            raise UtilityError("multi-adversary model needs lam >= 2")
        if not self.others_detected_bonus > 0:
            raise UtilityError("multi-adversary model needs a positive bonus")
        u = derive_u_values(self, lam=lam)
        if not u["u1p"] > max(u["u2p"], u["u3pp"]):
            raise UtilityError("derived u1' <= max(u2', u3'')")

    def to_json(self) -> dict:
        return {
            "base": {f"{g}{s}{d}": v for (g, s, d), v in sorted(self.base.items())},
            "message_space_size": self.message_space_size,
            "others_detected_bonus": self.others_detected_bonus,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "UtilityTable":
        base = {}
        for key, v in read_object(obj["base"], "base").items():
            g, s, d = (int(ch) for ch in key)
            base[(g, s, d)] = float(read_number(v, f"base {key}"))
        return cls(
            base=base,
            message_space_size=read_int(obj["message_space_size"], "message_space_size"),
            others_detected_bonus=float(read_number(obj.get("others_detected_bonus", 0.0),
                                                    "others_detected_bonus")),
        )


def derive_u_values(table: UtilityTable, lam: int = 1) -> dict[str, float]:
    """Expected payoffs at uniform-guess rate 1/|M| per (suc, detect) cell.

    With lam > 1, the primed values coincide with the unprimed ones (no other
    adversary detected) and the double-primed ones add bonus*(lam-1) (all
    others detected).
    """
    inv_m = 1.0 / table.message_space_size

    def u(s, d):
        return inv_m * table.base[(1, s, d)] + (1 - inv_m) * table.base[(0, s, d)]

    out = {"u1": u(0, 0), "u2": u(1, 0), "u3": u(0, 1), "u4": u(1, 1)}
    if lam > 1:
        extra = table.others_detected_bonus * (lam - 1)
        out.update(
            u1p=out["u1"], u2p=out["u2"], u3p=out["u3"], u4p=out["u4"],
            u1pp=out["u1"] + extra, u2pp=out["u2"] + extra,
            u3pp=out["u3"] + extra, u4pp=out["u4"] + extra,
        )
    return out


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
