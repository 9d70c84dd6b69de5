import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsmt import sharing
from rsmt.field import FieldSpec, poly_eval
from rsmt.game.attacks import catalog_for
from rsmt.game.play import run_cell
from rsmt.game.utility import witness_table
from rsmt.privacy import ForcedDraws
from rsmt.protocols import CissProtocol
from rsmt.protocols.ciss import P3
from rsmt.sharing import (
    FAIL,
    AmdSpec,
    RobustSharingSpec,
    SharingError,
    SharingSpec,
    ThresholdError,
    amd_decode,
    amd_encode,
    robust_reconstruct,
    robust_share,
    rs_reconstruct,
    shamir_reconstruct,
    shamir_share,
)
from rsmt.transport import CorruptionProfile

from rs_oracle import rs_reconstruct_bruteforce

GF7 = FieldSpec.prime(7)
GF5 = FieldSpec.prime(5)
GF16 = FieldSpec.binary(4)


def test_fail_is_falsy_singleton():
    assert not FAIL
    assert repr(FAIL) == "FAIL"
    assert FAIL is type(FAIL)("FAIL")


def test_spec_validation():
    with pytest.raises(SharingError):
        SharingSpec(t=3, n=3, field=GF7)
    with pytest.raises(SharingError):
        SharingSpec(t=0, n=3, field=GF7)
    with pytest.raises(SharingError):
        SharingSpec(t=1, n=7, field=GF7)  # only 6 nonzero points
    with pytest.raises(SharingError):
        SharingSpec(t=1, n=2, field=FieldSpec.binary(1))  # GF(2) has one nonzero point
    # refused before any table is sized from them (t=True shared at threshold 1)
    for t, n in [(True, 3), (1.0, 3), (1, 3.0), (1, True), ("1", 3)]:
        with pytest.raises(SharingError, match="t and n must be ints"):
            SharingSpec(t=t, n=n, field=GF16)


@pytest.mark.parametrize("f, n", [(GF7, 3), (GF7, 6), (GF16, 15), (FieldSpec.binary(8), 16)])
def test_vanishing_polynomial_has_roots_one_to_n(f, n):
    spec = SharingSpec(t=1, n=n, field=f)
    assert len(spec.vanishing) == n + 1 and spec.vanishing[-1] == 1
    roots = [x for x in range(f.q) if poly_eval(f, spec.vanishing, x) == 0]
    assert roots == list(range(1, n + 1))
    assert spec.vanishing is spec.vanishing  # built once per spec


def test_shamir_share_frozen_example():
    # f(x) = 5 + 3x over GF(7): f(1)=1, f(2)=4, f(3)=0
    spec = SharingSpec(t=1, n=3, field=GF7)
    shares = shamir_share(spec, 5, ForcedDraws([3]))
    assert shares == {1: 1, 2: 4, 3: 0}


def test_shamir_reconstruct_from_any_pair():
    spec = SharingSpec(t=1, n=3, field=GF7)
    shares = shamir_share(spec, 5, ForcedDraws([3]))
    for pair in itertools.combinations(shares, 2):
        subset = {i: shares[i] for i in pair}
        assert shamir_reconstruct(spec, subset) == 5


def test_shamir_reconstruct_needs_t_plus_one():
    spec = SharingSpec(t=1, n=3, field=GF7)
    shares = shamir_share(spec, 5, random.Random(0))
    with pytest.raises(ThresholdError):
        shamir_reconstruct(spec, {1: shares[1]})


def test_shamir_roundtrip_random():
    rng = random.Random(2)
    for f in (GF7, GF16, FieldSpec.binary(8)):
        for _ in range(50):
            n = rng.randrange(3, min(9, f.q))
            t = rng.randrange(1, n)
            spec = SharingSpec(t=t, n=n, field=f)
            secret = rng.randrange(f.q)
            shares = shamir_share(spec, secret, rng)
            picked = rng.sample(sorted(shares), t + 1)
            assert shamir_reconstruct(spec, {i: shares[i] for i in picked}) == secret


def test_shamir_privacy_exhaustive():
    # t=1 over GF(5): any single share is uniform regardless of the secret.
    spec = SharingSpec(t=1, n=3, field=GF5)
    for i in (1, 2, 3):
        dists = []
        for secret in range(5):
            c = Counter(
                shamir_share(spec, secret, ForcedDraws([r]))[i] for r in range(5)
            )
            dists.append(c)
        assert all(d == dists[0] for d in dists)
        assert set(dists[0].values()) == {1}


def test_shamir_pair_leaks_with_t1():
    # Sanity check on the harness: t+1 shares together DO determine the secret.
    spec = SharingSpec(t=1, n=3, field=GF5)
    seen = {
        (
            shamir_share(spec, s, ForcedDraws([r]))[1],
            shamir_share(spec, s, ForcedDraws([r]))[2],
        ): s
        for s in range(5)
        for r in range(5)
    }
    assert len(seen) == 25  # distinct secrets never produce the same share pair


def test_rs_reconstruct_frozen_example():
    # f(x) = 5 + 3x over GF(7), n=4: shares (1, 4, 0, 3); corrupt share 3.
    spec = SharingSpec(t=1, n=4, field=GF7)
    shares = {1: 1, 2: 4, 3: 6, 4: 3}
    assert rs_reconstruct(spec, shares, max_errors=1) == 5
    assert rs_reconstruct_bruteforce(spec, shares, max_errors=1) == 5


def test_rs_reconstruct_zero_errors():
    spec = SharingSpec(t=1, n=3, field=GF7)
    shares = shamir_share(spec, 2, random.Random(1))
    assert rs_reconstruct(spec, shares, max_errors=0) == 2
    shares[2] = (shares[2] + 1) % 7
    assert rs_reconstruct(spec, shares, max_errors=0) is FAIL


def test_rs_reconstruct_requires_capacity():
    spec = SharingSpec(t=2, n=4, field=GF7)
    shares = shamir_share(spec, 1, random.Random(0))
    with pytest.raises(SharingError):
        rs_reconstruct(spec, shares, max_errors=1)  # needs n >= t+1+2e = 5
    with pytest.raises(SharingError):
        rs_reconstruct(spec, {1: shares[1]}, max_errors=0)


@pytest.mark.parametrize("bad", [-1, True, 1.0, None])
def test_rs_reconstruct_rejects_a_bad_max_errors(bad):
    spec = SharingSpec(t=1, n=4, field=GF7)
    shares = shamir_share(spec, 5, random.Random(0))
    with pytest.raises(SharingError):
        rs_reconstruct(spec, shares, max_errors=bad)


def test_rs_reconstruct_corrects_up_to_e_errors():
    rng = random.Random(3)
    spec = SharingSpec(t=2, n=8, field=GF16)
    for _ in range(200):
        secret = rng.randrange(16)
        shares = shamir_share(spec, secret, rng)
        bad = rng.sample(sorted(shares), rng.randrange(0, 3))  # e <= 2
        for i in bad:
            shares[i] = (shares[i] + rng.randrange(1, 16)) % 16
        assert rs_reconstruct(spec, shares, max_errors=2) == secret


def test_rs_reconstruct_matches_bruteforce_on_garbage():
    # Arbitrary share vectors: both decoders must agree exactly, incl. FAIL.
    rng = random.Random(4)
    spec = SharingSpec(t=1, n=5, field=GF7)
    for _ in range(300):
        shares = {i: rng.randrange(7) for i in range(1, 6)}
        got = rs_reconstruct(spec, shares, max_errors=1)
        want = rs_reconstruct_bruteforce(spec, shares, max_errors=1)
        assert got is want or got == want


def test_rs_reconstruct_matches_bruteforce_exhaustive_tiny():
    # GF(5), t=1, n=4, e=1: all 5^4 share vectors.
    spec = SharingSpec(t=1, n=4, field=GF5)
    for vals in itertools.product(range(5), repeat=4):
        shares = {i + 1: v for i, v in enumerate(vals)}
        got = rs_reconstruct(spec, shares, max_errors=1)
        want = rs_reconstruct_bruteforce(spec, shares, max_errors=1)
        assert got is want or got == want


def test_out_of_range_values_raise():
    spec = SharingSpec(t=1, n=3, field=GF7)
    with pytest.raises(SharingError):
        shamir_share(spec, 7, random.Random(0))
    with pytest.raises(SharingError):
        shamir_reconstruct(spec, {1: 1, 2: 9})
    with pytest.raises(SharingError):
        shamir_reconstruct(spec, {0: 1, 2: 4})  # share indices are points 1..n
    with pytest.raises(SharingError):
        rs_reconstruct(SharingSpec(t=1, n=4, field=GF7), {1: 1, 2: 4, 3: 0, 4: 7}, 1)
    with pytest.raises(SharingError):
        amd_encode(AmdSpec(GF7, 1), [8], random.Random(0))
    with pytest.raises(SharingError):
        amd_decode(AmdSpec(GF7, 1), (1, 2, 7))
    with pytest.raises(SharingError):
        rs_reconstruct(SharingSpec(t=1, n=4, field=GF7), {0: 1, 1: 1, 2: 4, 3: 0}, 1)
    with pytest.raises(SharingError):
        robust_share(RSPEC, [7], random.Random(0))
    with pytest.raises(SharingError):
        robust_reconstruct(RSPEC, {1: (0, 0, 7), 2: (0, 0, 0)})
    # a bool is not a field element, nor a share index
    with pytest.raises(SharingError, match="secret True is not an element"):
        shamir_share(spec, True, random.Random(0))
    with pytest.raises(SharingError, match="share False is not an element"):
        shamir_reconstruct(spec, {1: 1, 2: False})
    with pytest.raises(SharingError, match="share indices"):
        shamir_reconstruct(spec, {True: 1, 2: 4})
    with pytest.raises(SharingError):
        rs_reconstruct(SharingSpec(t=1, n=4, field=GF7), {1: 1, 2: 4, 3: True, 4: 0}, 1)
    with pytest.raises(SharingError):
        amd_encode(AmdSpec(GF7, 1), [True], random.Random(0))
    with pytest.raises(SharingError):
        robust_reconstruct(RSPEC, {1: (0, 0, False), 2: (0, 0, 0)})


@pytest.mark.parametrize("bad", [True, False, -1, 7], ids=repr)
def test_sharing_entry_points_reject_a_bad_element_before_drawing(bad):
    # ForcedDraws with no values: a draw before the check would raise RuntimeError
    spec = SharingSpec(t=1, n=3, field=GF7)
    with pytest.raises(SharingError, match="is not an element"):
        shamir_share(spec, bad, ForcedDraws(()))
    wide = RobustSharingSpec(AmdSpec(GF7, 3), spec)
    for k in range(3):
        secret = [1, 2, 3]
        secret[k] = bad
        with pytest.raises(SharingError, match="message element"):
            robust_share(wide, secret, ForcedDraws(()))


# Prime fields, and binary fields with log/exp tables (m <= 16) and with
# shift-and-reduce products (m > 16).
_SHARE_FIELDS = {
    "prime": st.sampled_from([GF5, GF7, FieldSpec.prime(13), FieldSpec.prime(65537)]),
    "table": st.sampled_from([FieldSpec.binary(2), GF16, FieldSpec.binary(8),
                              FieldSpec.binary(16)]),
    "shift": st.integers(17, 32).map(FieldSpec.binary),
}


@st.composite
def _share_tape(draw, fields, width, max_n=8):
    """(spec, tape of t coefficients for each of `width` secrets)."""
    f = draw(fields)
    n = draw(st.integers(2, min(max_n, f.q - 1)))
    t = draw(st.integers(1, n - 1))
    tape = draw(st.lists(st.integers(0, f.q - 1), min_size=width * t, max_size=width * t))
    return SharingSpec(t=t, n=n, field=f), tape


@pytest.mark.parametrize("kind", sorted(_SHARE_FIELDS))
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_shamir_share_evaluates_the_drawn_polynomial(kind, data):
    spec, tape = data.draw(_share_tape(_SHARE_FIELDS[kind], 1))
    secret = data.draw(st.integers(0, spec.field.q - 1))
    rng = ForcedDraws(tape)
    shares = shamir_share(spec, secret, rng)
    rng.finish()
    poly = [secret, *tape]
    assert shares == {i: poly_eval(spec.field, poly, i) for i in range(1, spec.n + 1)}


@pytest.mark.parametrize("kind", sorted(_SHARE_FIELDS))
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_robust_share_evaluates_each_coordinate_polynomial(kind, data):
    f = data.draw(_SHARE_FIELDS[kind])
    d = data.draw(st.integers(1, 3).filter(lambda d: (d + 2) % f.p))
    spec, tape = data.draw(_share_tape(st.just(f), d + 2))
    amd = AmdSpec(f, d)
    message = tuple(data.draw(st.lists(st.integers(0, f.q - 1), min_size=d, max_size=d)))
    x = data.draw(st.integers(0, f.q - 1))
    rng = ForcedDraws([x, *tape])
    shares = robust_share(RobustSharingSpec(amd, spec), message, rng)
    rng.finish()
    codeword = amd_encode(amd, message, ForcedDraws([x]))
    t = spec.t
    polys = [[c, *tape[k * t:(k + 1) * t]] for k, c in enumerate(codeword)]
    assert shares == {i: tuple(poly_eval(f, poly, i) for poly in polys)
                      for i in range(1, spec.n + 1)}


def _assert_rows_evaluate(spec, secret, message, x, tape):
    """`shamir_share` of `secret` with coefficients tape[:t], and
    `robust_share` of `message` with AMD x and then the whole tape, equal
    per-point `poly_eval` of the drawn polynomials and use up their draws."""
    f, t, points = spec.field, spec.t, range(1, spec.n + 1)
    rng = ForcedDraws(tape[:t])
    assert shamir_share(spec, secret, rng) == {
        i: poly_eval(f, [secret, *tape[:t]], i) for i in points}
    rng.finish()
    amd = AmdSpec(f, len(message))
    rng = ForcedDraws([x, *tape])
    shares = robust_share(RobustSharingSpec(amd, spec), message, rng)
    rng.finish()
    polys = [[c, *tape[k * t:(k + 1) * t]]
             for k, c in enumerate(amd_encode(amd, message, ForcedDraws([x])))]
    assert shares == {i: tuple(poly_eval(f, poly, i) for poly in polys) for i in points}


# Every binary field that admits a sharing (GF(2) has one nonzero point), so
# every lane width and every split of the coefficients into table bytes, with
# up to 31 lanes.
@pytest.mark.parametrize("m", range(2, 33))
@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_binary_share_rows_evaluate_the_drawn_polynomials(m, data):
    f = FieldSpec.binary(m)
    d = data.draw(st.sampled_from([1, 3]), label="d")  # d + 2 odd
    spec, tape = data.draw(_share_tape(st.just(f), d + 2, max_n=31))
    element = st.integers(0, f.q - 1)
    _assert_rows_evaluate(spec, data.draw(element), data.draw(st.tuples(*[element] * d)),
                          data.draw(element), tape)


@pytest.mark.parametrize("m", [7, 8, 9, 15, 16, 17, 24, 25, 32])
def test_binary_share_rows_at_byte_boundaries_and_widest_n(m):
    f = FieldSpec.binary(m)
    n = min(31, f.q - 1)
    rng = random.Random(m)
    for t in (1, n // 2, n - 1):
        # all-ones draws set every bit of every table byte; zeros set none
        for draw in (lambda: f.q - 1, lambda: 0, lambda: rng.randrange(f.q)):
            tape = [draw() for _ in range(3 * t)]
            _assert_rows_evaluate(SharingSpec(t=t, n=n, field=f), draw(), (draw(),), draw(), tape)


def test_share_tables_are_built_once_per_spec(monkeypatch):
    calls = []
    pow_int = FieldSpec.pow_int
    monkeypatch.setattr(FieldSpec, "pow_int",
                        lambda self, a, e: calls.append((a, e)) or pow_int(self, a, e))
    spec = SharingSpec(t=5, n=16, field=FieldSpec.binary(20))
    wide = RobustSharingSpec(AmdSpec(spec.field, 1), spec)
    shamir_share(spec, 3, random.Random(1))
    assert len(calls) == 5 * 16  # the powers i^j that the tables pack
    tables = spec.byte_tables
    shamir_share(spec, 4, random.Random(2))
    robust_share(wide, (5,), random.Random(3))
    assert len(calls) == 5 * 16 and spec.byte_tables is tables


@pytest.mark.parametrize("n", [13, 16, 31])
def test_rs_reconstruct_wide_errors_in_every_position_class(n):
    # P3's parameters: t = floor((n-1)/3), up to e = t errors, placed among
    # the first t+1 shares, among the rest, and across both.
    f = FieldSpec.binary(8)
    t = (n - 1) // 3
    spec = SharingSpec(t=t, n=n, field=f)
    head, rest = list(range(1, t + 2)), list(range(t + 2, n + 1))
    rng = random.Random(n)
    for errors in range(t + 1):
        for where in ("inside", "outside", "mixed"):
            if where == "mixed" and errors < 2:
                continue
            for _ in range(4):
                if where == "mixed":
                    k = rng.randrange(1, errors)
                else:
                    k = errors if where == "inside" else 0
                bad = rng.sample(head, k) + rng.sample(rest, errors - k)
                secret = rng.randrange(f.q)
                shares = shamir_share(spec, secret, rng)
                for i in bad:
                    shares[i] ^= rng.randrange(1, f.q)
                assert rs_reconstruct(spec, shares, max_errors=t) == secret, (where, bad)


_ORACLE_FIELDS = (FieldSpec.prime(11), FieldSpec.prime(13), GF16)


@st.composite
def _decoding_params(draw):
    f = draw(st.sampled_from(_ORACLE_FIELDS))
    n = draw(st.integers(2, min(10, f.q - 1)))
    t = draw(st.integers(1, n - 1))
    e = draw(st.integers(0, (n - t - 1) // 2))
    return SharingSpec(t=t, n=n, field=f), e


def _assert_matches_oracle(spec, shares, e):
    # The oracle reads the shares in index order; the decoder's candidate
    # comes from the first t+1 in the mapping's order, which must not matter.
    got = rs_reconstruct(spec, shares, max_errors=e)
    want = rs_reconstruct_bruteforce(spec, shares, max_errors=e)
    assert got is want or got == want


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_decoding_params(), st.data())
def test_rs_reconstruct_matches_bruteforce_on_random_vectors(params, data):
    spec, e = params
    values = st.integers(0, spec.field.q - 1)
    shares = {i: data.draw(values) for i in data.draw(st.permutations(range(1, spec.n + 1)))}
    _assert_matches_oracle(spec, shares, e)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_decoding_params(), st.data())
def test_rs_reconstruct_matches_bruteforce_on_codewords_plus_errors(params, data):
    # Up to e + 2 errors, so both the correctable and the FAIL side show.
    spec, e = params
    f = spec.field
    coeffs = data.draw(st.lists(st.integers(0, f.q - 1), min_size=spec.t + 1,
                                max_size=spec.t + 1))
    shares = shamir_share(spec, coeffs[0], ForcedDraws(coeffs[1:]))
    bad = data.draw(st.sets(st.integers(1, spec.n), max_size=min(spec.n, e + 2)))
    for i in bad:
        shares[i] = f.add_int(shares[i], data.draw(st.integers(1, f.q - 1)))
    order = data.draw(st.permutations(range(1, spec.n + 1)))
    _assert_matches_oracle(spec, {i: shares[i] for i in order}, e)


@pytest.mark.parametrize("errors", range(6))
@settings(max_examples=3, deadline=None, derandomize=True, database=None)
@given(coeffs=st.lists(st.integers(0, 2 ** 16 - 1), min_size=6, max_size=6), data=st.data())
def test_rs_reconstruct_matches_bruteforce_at_p3_wide_parameters(errors, coeffs, data):
    # GF(2^16), n = 16, t = 5: every error count the decoder must correct,
    # with the shares in a drawn order, the bad ones last (the candidate
    # through the first t+1 passes) and the bad ones first (it fails, and
    # Gao's decoder runs)
    spec = SharingSpec(t=5, n=16, field=FieldSpec.binary(16))
    shares = shamir_share(spec, coeffs[0], ForcedDraws(coeffs[1:]))
    bad = data.draw(st.lists(st.integers(1, 16), min_size=errors, max_size=errors, unique=True))
    for i in bad:
        shares[i] ^= data.draw(st.integers(1, 2 ** 16 - 1))
    good = [i for i in data.draw(st.permutations(range(1, 17))) if i not in bad]
    for order in (good + bad, bad + good):
        assert rs_reconstruct(spec, {i: shares[i] for i in order}, max_errors=5) == coeffs[0]
    _assert_matches_oracle(spec, shares, 5)


def test_p3_wide_receiver_decodes_every_catalog_attack_without_gao(monkeypatch):
    # P3 lists the channels outside its majority list first, so under every
    # catalog attack on channels {1..4} the candidate codeword passes and the
    # Euclid loop (`_poly_divmod`) never runs.
    calls = []
    divmod_ = sharing._poly_divmod
    monkeypatch.setattr(sharing, "_poly_divmod", lambda *a: calls.append(a) or divmod_(*a))
    protocol = CissProtocol(P3, 16, FieldSpec.binary(16), 1, 16)
    profile = CorruptionProfile({1: frozenset({1, 2, 3, 4})}, malicious_id=1)
    table = witness_table(protocol.message_space_size())
    for entry in catalog_for(P3):
        stats = run_cell(protocol, profile, table, 20, 2026, {1: entry.name})
        assert stats.suc_rate == 1.0, entry.name
    assert calls == []


# --- AMD code ---------------------------------------------------------------


def test_amd_spec_validation():
    with pytest.raises(SharingError):
        AmdSpec(GF7, 0)
    with pytest.raises(SharingError):
        AmdSpec(GF5, 3)  # d+2 = 5 vanishes in characteristic 5
    for d in (True, 1.0, "1"):  # d=True had delta 1/8 over GF(2^4)
        with pytest.raises(SharingError, match="d must be an int"):
            AmdSpec(GF16, d)


def test_amd_delta_values():
    assert AmdSpec(GF5, 1).delta == Fraction(2, 5)
    assert AmdSpec(GF7, 1).delta == Fraction(2, 7)
    assert AmdSpec(FieldSpec.binary(2), 1).delta == Fraction(1, 2)


def test_amd_encode_frozen_example():
    # tag = x^3 + s1*x with s = (3,), x = 2 over GF(7): 8 + 6 = 0
    spec = AmdSpec(GF7, 1)
    cw = amd_encode(spec, [3], ForcedDraws([2]))
    assert cw == (3, 2, 0)
    assert amd_decode(spec, cw) == (3,)


def test_amd_roundtrip_random():
    rng = random.Random(5)
    for f, d in ((GF7, 1), (GF16, 3), (FieldSpec.prime(11), 3)):
        spec = AmdSpec(f, d)
        for _ in range(100):
            s = [rng.randrange(f.q) for _ in range(d)]
            assert amd_decode(spec, amd_encode(spec, s, rng)) == tuple(s)


def test_amd_wrong_length_rejected():
    with pytest.raises(SharingError):
        amd_encode(AmdSpec(GF7, 2), [1], random.Random(0))
    for codeword in ((1, 2), (1, 2, 3, 4)):
        with pytest.raises(SharingError):
            amd_decode(AmdSpec(GF7, 1), codeword)


def test_amd_manipulation_bound_exhaustive():
    # For every message and every nonzero additive offset, the fraction of
    # encoding randomness x that leaves the tampered word valid is <= (d+1)/q.
    spec = AmdSpec(GF5, 1)
    for s in range(5):
        for ds, dx, dt in itertools.product(range(5), repeat=3):
            if (ds, dx, dt) == (0, 0, 0):
                continue
            accepted = 0
            for x in range(5):
                _, _, tag = amd_encode(spec, [s], ForcedDraws([x]))
                tampered = ((s + ds) % 5, (x + dx) % 5, (tag + dt) % 5)
                if amd_decode(spec, tampered) is not FAIL:
                    accepted += 1
            assert Fraction(accepted, 5) <= spec.delta


# --- Robust sharing ---------------------------------------------------------

RSPEC = RobustSharingSpec(AmdSpec(GF7, 1), SharingSpec(t=1, n=3, field=GF7))


def test_robust_spec_validation():
    with pytest.raises(SharingError):
        RobustSharingSpec(AmdSpec(GF7, 1), SharingSpec(t=1, n=3, field=GF5))
    assert RSPEC.share_len == 3
    assert RSPEC.delta == Fraction(2, 7)


def test_robust_roundtrip():
    rng = random.Random(6)
    for _ in range(100):
        secret = [rng.randrange(7)]
        shares = robust_share(RSPEC, secret, rng)
        assert all(len(v) == 3 for v in shares.values())
        picked = rng.sample(sorted(shares), 2)
        assert robust_reconstruct(RSPEC, {i: shares[i] for i in picked}) == tuple(secret)


def test_robust_reconstruct_needs_t_plus_one():
    shares = robust_share(RSPEC, [1], random.Random(0))
    with pytest.raises(ThresholdError):
        robust_reconstruct(RSPEC, {1: shares[1]})


def test_robust_reconstruct_rejects_share_vectors_of_the_wrong_length():
    shares = robust_share(RSPEC, [1], random.Random(0))
    assert RSPEC.share_len == 3
    for bad in (shares[1][:2], shares[1] + (1,)):
        with pytest.raises(SharingError, match="share vectors must have length 3"):
            robust_reconstruct(RSPEC, {1: bad, 2: shares[2]})


def test_robust_privacy_exhaustive():
    # t=1: the distribution of any single share vector is identical for all
    # secrets.  Enumerate all randomness: x and one coefficient per coordinate.
    dists = []
    for secret in range(7):
        c = Counter()
        for x in range(7):
            for r0 in range(7):
                for r1 in range(7):
                    for r2 in range(7):
                        shares = robust_share(RSPEC, [secret], ForcedDraws([x, r0, r1, r2]))
                        c[shares[2]] += 1
        dists.append(c)
    assert all(d == dists[0] for d in dists)


def test_robust_tamper_detection_rate():
    # One tampered share vector inside the reconstruction subset: accepting a
    # secret different from the original must stay within delta = 2/7 (plus
    # sampling slack).  Decoding back to the original secret is harmless.
    rng = random.Random(7)
    trials = 2000
    wrong = 0
    for _ in range(trials):
        secret = [rng.randrange(7)]
        shares = robust_share(RSPEC, secret, rng)
        offset = [rng.randrange(7) for _ in range(3)]
        if all(o == 0 for o in offset):
            offset[0] = 1 + rng.randrange(6)
        tampered = tuple((v + o) % 7 for v, o in zip(shares[2], offset))
        out = robust_reconstruct(RSPEC, {1: shares[1], 2: tampered})
        if out is not FAIL and out != tuple(secret):
            wrong += 1
    assert wrong / trials <= RSPEC.delta + 0.03
