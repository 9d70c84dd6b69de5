"""Calculators for the tag-length / detection-probability requirements that
make the passive profile an equilibrium, one per protocol family.

Each function takes the derived u values (see game.utility) and returns the
minimal integer tag length l (at least 1), or the maximal admissible
detection-failure probability delta, an exact Fraction.  `requirement_table`
evaluates all of them for one configuration; `rsmt bounds` prints it and each
protocol names the row (`Protocol.bound`) that `rsmt simulate` checks it
against.
"""

from __future__ import annotations

from fractions import Fraction


class BoundError(ValueError):
    pass


def _ceil_log2(r: Fraction) -> int:
    """The least integer e with 2^e >= r > 0, exactly."""
    e = r.numerator.bit_length() - r.denominator.bit_length()  # 2^(e-1) < r < 2^(e+1)
    return e if Fraction(2) ** e >= r else e + 1


def required_ell_pd(u1: float, u2: float, u3: float, u4: float, t: int,
                    alpha: float | None = None) -> int:
    """Tag bits for the public-discussion protocol against a timid t-adversary.

    l >= max{1 + log2 t + log2((u3-u4)/(u2-u4-alpha)),
             1 + (1/t) log2((u1-u3)/alpha)}  for a free alpha in (0, u2-u4),
    decided exactly as 2^(l-1) >= t(u3-u4)/(u2-u4-alpha) and
    2^(t(l-1)) >= (u1-u3)/alpha on the inputs' exact values.
    For strictly timid tables, alpha = u2-u3 recovers the shortcut form.
    """
    if t < 1:
        raise BoundError("t must be >= 1")
    if alpha is None:
        alpha = (u2 - u4) / 2
    e1, e2, e3, e4, a = map(Fraction, (u1, u2, u3, u4, alpha))
    if not 0 < a < e2 - e4:
        raise BoundError(f"alpha={alpha} outside (0, u2-u4)=(0, {float(u2 - u4)})")
    if not (e3 > e4 and e1 > e3):
        raise BoundError("need u1 > u3 > u4")
    term1 = 1 + _ceil_log2(t * (e3 - e4) / (e2 - e4 - a))
    term2 = 1 - (-_ceil_log2((e1 - e3) / a) // t)
    return max(1, term1, term2)


def required_delta_rss(u1: float, u2: float, u3: float) -> Fraction:
    """Maximal detection-failure probability for the robust-sharing protocol
    against a strictly timid adversary: delta <= (u2-u3)/(u1-u3), exactly."""
    e1, e2, e3 = map(Fraction, (u1, u2, u3))
    if not e2 > e3:
        raise BoundError("inapplicable: requires u2 > u3 (strictly timid)")
    if not e1 > e3:
        raise BoundError("requires u1 > u3")
    return (e2 - e3) / (e1 - e3)


def required_ell_rss(u1: float, u2: float, u3: float, d: int) -> int:
    """Field bits so that the robust sharing's (d+1)/q failure rate meets
    required_delta_rss: l >= log2(d+1) + log2((u1-u3)/(u2-u3)), decided
    exactly as 2^l >= (d+1)(u1-u3)/(u2-u3)."""
    return max(1, _ceil_log2((d + 1) / required_delta_rss(u1, u2, u3)))


def required_ell_p1(u1: float, u2: float, u4: float, n: int) -> int:
    """Minority-threshold list protocol:
    l >= log2((u1-u4)/(u2-u4)) + 2 log2(n+1) - 1, decided exactly as
    2^(l+1) >= (n+1)^2 (u1-u4)/(u2-u4)."""
    e1, e2, e4 = map(Fraction, (u1, u2, u4))
    if not (e1 >= e2 > e4):
        raise BoundError("need u1 >= u2 > u4")
    return max(1, _ceil_log2((n + 1) ** 2 * (e1 - e4) / (e2 - e4)) - 1)


def required_ell_p2(u1p: float, u2p: float, u3pp: float) -> int:
    """Unanimous-threshold protocol: l >= log2((u1'-u3'')/(u2'-u3'')),
    decided exactly as 2^l >= (u1'-u3'')/(u2'-u3'').  The paper prints this
    bound with a "- 1", one bit short: a substituted share passes the one
    honest tag check on it with probability exactly 2^-l, so substitution
    pays while 2^l < (u1'-u3'')/(u2'-u3'')."""
    e1, e2, e3 = map(Fraction, (u1p, u2p, u3pp))
    if not (e1 >= e2 > e3):
        raise BoundError("need u1' >= u2' > u3''")
    return max(1, _ceil_log2((e1 - e3) / (e2 - e3)))


def required_ell_p3(u_prime: tuple[float, float, float],
                    u_dprime: tuple[float, float, float], n: int) -> int:
    """Robust mixed-model protocol: the minority-protocol formula maximized
    over the primed and double-primed (u1*, u2*, u4*) triples."""
    return max(
        required_ell_p1(u1, u2, u4, n) for (u1, u2, u4) in (u_prime, u_dprime)
    )


def requirement_table(u: dict[str, Fraction], lam: int, n: int, d: int, ts: list[int],
                      alpha: float | None = None) -> dict[str, tuple[str, object]]:
    """Every family's requirement as row name -> (inputs, value); value is
    the calculator's result, or the BoundError it raised (inputs "-").

    `u` is `derive_u_values(table, lam)` and `ts` holds each adversary's
    corruption budget, at least one.  The pd row is the largest
    `required_ell_pd` over k = 1..max(ts), since an adversary with t channels
    can substitute on any k <= t of them.  The primed values equal the plain
    ones; with lam = 1 the double-primed ones do too."""
    u1, u2, u3, u4 = (u[f"u{i}"] for i in range(1, 5))
    u1pp, u2pp, u3pp, u4pp = (u[f"u{i}pp"] for i in range(1, 5))
    rows: dict[str, tuple[str, object]] = {}

    def row(name, inputs, calc, *args):
        try:
            rows[name] = (inputs, calc(*args))
        except BoundError as exc:
            rows[name] = ("-", exc)

    g1, g2, g3, g4 = (f"{float(x):g}" for x in (u1, u2, u3, u4))
    row("pd-tag-bits", f"u=({g1};{g2};{g3};{g4}) t={';'.join(map(str, ts))} alpha={alpha}",
        lambda: max(required_ell_pd(u1, u2, u3, u4, k, alpha) for k in range(1, max(ts) + 1)))
    row("rss-delta", f"u=({g1};{g2};{g3})", required_delta_rss, u1, u2, u3)
    row("rss-field-bits", f"d={d}", required_ell_rss, u1, u2, u3, d)
    row("minority-tag-bits", f"n={n}", required_ell_p1, u1, u2, u4, n)
    row("unanimous-tag-bits", "multi" if lam > 1 else "single",
        required_ell_p2, u1, u2, u3pp)
    row("robust-tag-bits", f"n={n}",
        required_ell_p3, (u1, u2, u4), (u1pp, u2pp, u4pp), n)
    return rows
