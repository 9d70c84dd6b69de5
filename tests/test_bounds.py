import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rsmt.game import UtilityError, UtilityTable, derive_u_values, witness_table
from rsmt.game.bounds import (
    BoundError,
    required_delta_rss,
    required_ell_p1,
    required_ell_p2,
    required_ell_p3,
    required_ell_pd,
    required_ell_rss,
    requirement_table,
)

# the 3/2/1/0 witness values used throughout
U1, U2, U3, U4 = 3.0, 2.0, 1.0, 0.0


# --- public-discussion bound -------------------------------------------------


def test_pd_frozen_witness_value():
    # t=2, default alpha=(u2-u4)/2=1:
    #   term1 = 1 + log2(2) + log2(1/1) = 2
    #   term2 = 1 + (1/2) log2(2)      = 1.5
    assert required_ell_pd(U1, U2, U3, U4, 2) == 2


def test_pd_alpha_tradeoff():
    # small alpha shrinks term1 but inflates term2 and vice versa
    assert required_ell_pd(U1, U2, U3, U4, 2, alpha=0.5) == 2
    assert required_ell_pd(U1, U2, U3, U4, 2, alpha=1.5) == 3
    with pytest.raises(BoundError):
        required_ell_pd(U1, U2, U3, U4, 2, alpha=0.0)
    with pytest.raises(BoundError):
        required_ell_pd(U1, U2, U3, U4, 2, alpha=2.0)  # = u2-u4


def test_pd_monotone_in_t():
    ells = [required_ell_pd(U1, U2, U3, U4, t) for t in range(1, 9)]
    assert ells == sorted(ells)
    assert ells[0] >= 1


def test_pd_exceeds_both_terms():
    # the returned integer really satisfies both constraint terms
    for t in range(1, 7):
        alpha = (U2 - U4) / 2
        ell = required_ell_pd(U1, U2, U3, U4, t, alpha=alpha)
        term1 = 1 + math.log2(t) + math.log2((U3 - U4) / (U2 - U4 - alpha))
        term2 = 1 + (1 / t) * math.log2((U1 - U3) / alpha)
        assert ell >= term1 - 1e-9 and ell >= term2 - 1e-9


def test_pd_rejects_degenerate_tables():
    with pytest.raises(BoundError):
        required_ell_pd(U1, U2, U4, U4, 2)  # u3 == u4
    with pytest.raises(BoundError):
        required_ell_pd(U1, U2, U3, U4, 0)


def test_pd_multi_maximizes_over_budgets():
    u = derive_u_values(witness_table(256))
    ells = {t: required_ell_pd(U1, U2, U3, U4, t) for t in (1, 2, 3)}
    assert ells[3] > ells[1]
    for ts in ([1, 2, 3], [3, 1], [2]):
        inputs, value = requirement_table(u, 1, 5, 1, ts)["pd-tag-bits"]
        assert value == max(ells[t] for t in ts)
        assert f"t={';'.join(map(str, ts))} " in inputs


# --- robust-sharing bound ----------------------------------------------------


def test_rss_frozen_values():
    assert required_delta_rss(U1, U2, U3) == 0.5
    # d=1: log2(2) + log2(2) = 2 bits
    assert required_ell_rss(U1, U2, U3, 1) == 2
    # d=3: log2(4) + log2(2) = 3 bits
    assert required_ell_rss(U1, U2, U3, 3) == 3


def test_rss_requires_strict_timidity():
    with pytest.raises(BoundError):
        required_delta_rss(U1, U3, U3)  # u2 == u3


def test_calculators_name_the_order_they_need():
    with pytest.raises(BoundError, match="requires u1 > u3"):
        required_delta_rss(1.0, 2.0, 1.5)  # u2 > u3, but u1 <= u3
    with pytest.raises(BoundError, match="need u1 >= u2 > u4"):
        required_ell_p1(1.0, 2.0, 0.0, 5)  # u1 < u2


def test_rss_delta_scales():
    # doubling the failure gap halves the admissible delta
    assert required_delta_rss(5.0, U2, U3) == 0.25


# --- list-protocol bounds ----------------------------------------------------


def test_p1_frozen_value_and_monotone_in_n():
    assert required_ell_p1(U1, U2, U4, 5) == 5
    ells = [required_ell_p1(U1, U2, U4, n) for n in range(3, 12)]
    assert ells == sorted(ells)


def test_p1_meets_formula():
    for n in (3, 5, 9):
        ell = required_ell_p1(U1, U2, U4, n)
        bound = math.log2((U1 - U4) / (U2 - U4)) + 2 * math.log2(n + 1) - 1
        assert bound - 1e-9 <= ell < bound + 1


def test_p2_floors_at_one():
    # log2(1/1) = 0 when u1' = u2', floored to the minimum of one tag bit
    assert required_ell_p2(U2, U2, U3) == 1
    assert required_ell_p2(U1, U2, U3) == 1  # log2(2/1)
    assert required_ell_p2(3.0, 2.0, 1.8) == 3  # 2^3 >= 1.2/0.2 = 6 > 2^2
    with pytest.raises(BoundError):
        required_ell_p2(U1, U3, U2)  # u2' <= u3''


def test_p3_maximizes_over_value_triples():
    assert required_ell_p3((U1, U2, U4), (3.0, 2.0, 1.4), 7) == 7
    # with a zero bonus the double-primed triple equals the primed one and the
    # bound degenerates to the single-adversary formula
    assert required_ell_p3((U1, U2, U4), (U1, U2, U4), 5) == required_ell_p1(
        U1, U2, U4, 5
    )


# --- derived-value plumbing --------------------------------------------------


def test_bounds_compose_with_witness_table():
    u = derive_u_values(witness_table(16, bonus=0.4), lam=3)
    assert required_ell_pd(u["u1"], u["u2"], u["u3"], u["u4"], 2) == 2
    ell = required_ell_p3(
        (u["u1"], u["u2"], u["u4"]), (u["u1pp"], u["u2pp"], u["u4pp"]), 7
    )
    assert ell >= required_ell_p1(u["u1"], u["u2"], u["u4"], 7)


# --- exact comparisons --------------------------------------------------------


def test_p1_float_edge_needs_the_next_bit():
    # 2^(l+1) >= 16 * u1 with u1 a hair above 2 first holds at l = 5; a
    # float bound within 1e-12 of 4 once let l = 4 through.
    assert required_ell_p1(2.0000000000002, 1, 0, 3) == 5


def _least_ell(holds) -> int:
    """Brute-force oracle: the smallest l >= 1 with holds(l)."""
    ell = 1
    while not holds(ell):
        ell += 1
    return ell


def _near_powers():
    """Floats near small powers of two, where a float log2 rounds."""
    return st.builds(lambda k, ulps: math.ldexp(1.0, k) * (1 + ulps * 2.0 ** -52),
                     st.integers(-3, 8), st.integers(-4, 4))


_values = st.one_of(st.floats(-50, 50, allow_nan=False), _near_powers())
_gaps = st.one_of(st.floats(1e-6, 100), _near_powers())


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_values, _gaps, _gaps, _gaps, st.integers(1, 20), st.integers(1, 5), st.integers(1, 5))
@example(0.0, 0.5, 0.5, 1.0000000000002, 3, 1, 1)  # u1 a hair above 2, as above
def test_each_calculator_returns_the_least_ell_of_its_exact_inequality(u4, g3, g2, g1, n, d, t):
    u3, u2 = u4 + g3, u4 + g3 + g2
    u1 = u2 + g1
    e1, e2, e3, e4 = map(Fraction, (u1, u2, u3, u4))
    assume(e1 > e2 > e3 > e4)
    two = Fraction(2)
    assert required_ell_p1(u1, u2, u4, n) == _least_ell(
        lambda ell: two ** (ell + 1) >= (n + 1) ** 2 * (e1 - e4) / (e2 - e4))
    assert required_ell_p2(u1, u2, u3) == _least_ell(
        lambda ell: two ** ell >= (e1 - e3) / (e2 - e3))
    assert required_ell_rss(u1, u2, u3, d) == _least_ell(
        lambda ell: two ** ell >= (d + 1) * (e1 - e3) / (e2 - e3))
    for alpha in (None, (u2 - u4) / 3):
        a = Fraction((u2 - u4) / 2 if alpha is None else alpha)
        assume(0 < a < e2 - e4)
        assert required_ell_pd(u1, u2, u3, u4, t, alpha) == _least_ell(
            lambda ell: two ** (ell - 1) >= t * (e3 - e4) / (e2 - e4 - a)
            and two ** (t * (ell - 1)) >= (e1 - e3) / a)


# --- exact utility tables ----------------------------------------------------


_step = st.integers(-2, 20)


@st.composite
def _tables(draw):
    """(base table in tenths, |M|, bonus in tenths): each (suc, detect) cell is
    a guess-0 payoff plus a guess increment, drawn near the timid order so
    that both verdicts of `validate` occur at every lam."""
    low = draw(st.integers(0, 20))
    at0 = {(1, 1): low, (0, 1): low + draw(_step), (1, 0): low + draw(_step)}
    at0[(0, 0)] = max(at0.values()) + draw(_step)
    rise = {cell: draw(_step) for cell in at0}
    base = {(g, s, d): (at0[(s, d)] + g * rise[(s, d)]) / 10 for (s, d) in at0 for g in (0, 1)}
    size = draw(st.sampled_from([2, 3, 5, 7, 10, 256]))
    return base, size, draw(st.integers(0, 30)) / 10


def _exact_u(base, size, bonus, lam):
    """u1..u4 and u1pp..u4pp mixed in Fractions from the exact base values."""
    w = Fraction(1, size)
    plain = {f"u{i}": w * Fraction(base[(1, s, d)]) + (1 - w) * Fraction(base[(0, s, d)])
             for i, (s, d) in enumerate([(0, 0), (1, 0), (0, 1), (1, 1)], 1)}
    return plain | {f"{k}pp": v + Fraction(bonus) * (lam - 1) for k, v in plain.items()}


def _outcome(calc, *args):
    try:
        return calc(*args)
    except BoundError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_tables(), st.integers(1, 3), st.integers(3, 9), st.integers(1, 3),
       st.sampled_from([[1], [1, 2], [2, 3]]))
def test_exact_tables_validate_and_bound_on_their_fraction_values(drawn, lam, n, d, ts):
    base, size, bonus = drawn
    table = UtilityTable(base, size, bonus)
    cells = [(s, d) for s in (0, 1) for d in (0, 1)]
    timid = (all(base[(1, s, d)] >= base[(0, s, d)] for s, d in cells)
             and all(base[(g, 0, d)] > base[(g, 1, d)] for g, d in cells)
             and all(base[(g, s, 0)] > base[(g, s, 1)] for g, s in cells))
    u, derived = _exact_u(base, size, bonus, lam), derive_u_values(table, lam)
    assert derived == u
    try:
        table.validate(lam)
        accepted = True
    except UtilityError:
        accepted = False
    admissible = lam < 2 or (Fraction(bonus) > 0 and u["u1"] > max(u["u2"], u["u3pp"]))
    assert accepted == (timid and admissible)
    if timid:  # what the base-table checks imply for the derived values
        assert u["u1"] > max(u["u2"], u["u3"]) and min(u["u2"], u["u3"]) > u["u4"]
    rows = requirement_table(derived, lam, n, d, ts)
    pd = [_outcome(required_ell_pd, u["u1"], u["u2"], u["u3"], u["u4"], t) for t in ts]
    errors = [e for e in pd if isinstance(e, str)]
    expected = {
        "pd-tag-bits": errors[0] if errors else max(pd),
        "rss-delta": _outcome(required_delta_rss, u["u1"], u["u2"], u["u3"]),
        "rss-field-bits": _outcome(required_ell_rss, u["u1"], u["u2"], u["u3"], d),
        "minority-tag-bits": _outcome(required_ell_p1, u["u1"], u["u2"], u["u4"], n),
        "unanimous-tag-bits": _outcome(required_ell_p2, u["u1"], u["u2"], u["u3pp"]),
        "robust-tag-bits": _outcome(required_ell_p3, (u["u1"], u["u2"], u["u4"]),
                                    (u["u1pp"], u["u2pp"], u["u4pp"]), n),
    }
    got = {name: str(value) if isinstance(value, BoundError) else value
           for name, (_, value) in rows.items()}
    assert got == expected
