import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rsmt.game import derive_u_values, witness_table
from rsmt.game.bounds import (
    BoundError,
    required_delta_rss,
    required_ell_p1,
    required_ell_p2,
    required_ell_p3,
    required_ell_pd,
    required_ell_pd_multi,
    required_ell_rss,
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
    assert required_ell_pd_multi(U1, U2, U3, U4, [1, 2, 3]) == required_ell_pd(
        U1, U2, U3, U4, 3
    )
    with pytest.raises(BoundError):
        required_ell_pd_multi(U1, U2, U3, U4, [])


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
    # log2(2/1) - 1 = 0, floored to the minimum of one tag bit
    assert required_ell_p2(U1, U2, U3) == 1
    assert required_ell_p2(3.0, 2.0, 1.8) == 2
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
        lambda ell: two ** (ell + 1) >= (e1 - e3) / (e2 - e3))
    assert required_ell_rss(u1, u2, u3, d) == _least_ell(
        lambda ell: two ** ell >= (d + 1) * (e1 - e3) / (e2 - e3))
    for alpha in (None, (u2 - u4) / 3):
        a = Fraction((u2 - u4) / 2 if alpha is None else alpha)
        assume(0 < a < e2 - e4)
        assert required_ell_pd(u1, u2, u3, u4, t, alpha) == _least_ell(
            lambda ell: two ** (ell - 1) >= t * (e3 - e4) / (e2 - e4 - a)
            and two ** (t * (ell - 1)) >= (e1 - e3) / a)
