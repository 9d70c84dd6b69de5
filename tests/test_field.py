import random
import signal

import pytest

from rsmt.field import (
    DEFAULT_BINARY_POLYS,
    FieldError,
    FieldSpec,
    interpolate,
    poly_eval,
)
from rsmt.protocols import SjstProtocol

GF7 = FieldSpec.prime(7)
GF8 = FieldSpec.binary(3)  # x^3 + x + 1


def test_prime_requires_prime():
    with pytest.raises(FieldError):
        FieldSpec.prime(6)
    with pytest.raises(FieldError):
        FieldSpec.prime(1)


def test_binary_rejects_reducible_poly():
    with pytest.raises(FieldError):
        FieldSpec("binary", m=3, poly=0b1111)  # x^3+x^2+x+1 = (x+1)(x^2+1)


def test_binary_rejects_large_m():
    with pytest.raises(FieldError):
        FieldSpec.binary(33)
    with pytest.raises(FieldError):
        FieldSpec.binary(0)


def test_binary_without_default_poly_rejects_m_above_32_at_once():
    # The range check must run before the irreducible-polynomial search,
    # which for m = 64 would not finish; the alarm turns a hang into a failure.
    def hang(signum, frame):
        raise TimeoutError("FieldSpec.binary(64) did not fail fast")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(5)
    try:
        with pytest.raises(FieldError):
            FieldSpec.binary(64)
        with pytest.raises(FieldError):
            SjstProtocol(3, 8, 64)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_default_polys_are_irreducible():
    for m in DEFAULT_BINARY_POLYS:
        spec = FieldSpec.binary(m)
        assert spec.poly == DEFAULT_BINARY_POLYS[m]


def test_spec_table_matches_docs():
    assert FieldSpec.binary(3).poly == 0xB
    assert FieldSpec.binary(8).poly == 0x11B
    assert FieldSpec.binary(16).poly == 0x1100B


def test_specs_are_interned():
    assert FieldSpec.prime(7) is GF7
    assert FieldSpec.binary(3) is GF8


def test_add_examples():
    assert GF7.add_int(5, 4) == 2
    assert GF8.add_int(0b101, 0b011) == 0b110
    assert GF7.add_int(0, 3) == 3
    assert GF7.sub_int(2, 4) == 5


def test_mul_examples():
    assert GF7.mul_int(3, 5) == 1
    # x * x^2 = x^3 = x + 1 under x^3 + x + 1
    assert GF8.mul_int(0b010, 0b100) == 0b011
    assert GF8.mul_int(1, 0b110) == 0b110


def test_inv_examples():
    assert GF7.inv_int(1) == 1
    # brute-force oracle scans
    inv3 = next(b for b in range(1, 7) if (3 * b) % 7 == 1)
    assert GF7.inv_int(3) == inv3 == 5
    inv_x = next(b for b in range(1, 8) if GF8.mul_int(0b010, b) == 1)
    assert GF8.inv_int(0b010) == inv_x == 0b101


def test_inv_zero_raises():
    with pytest.raises(ZeroDivisionError):
        GF7.inv_int(0)
    with pytest.raises(ZeroDivisionError):
        GF8.inv_int(0)


@pytest.mark.parametrize("spec", [GF7, GF8, FieldSpec.binary(8), FieldSpec.prime(251)])
def test_field_axioms_random(spec):
    rng = random.Random(7)
    for _ in range(10_000):
        a, b, c = (rng.randrange(spec.q) for _ in range(3))
        assert spec.add_int(a, b) == spec.add_int(b, a)
        assert spec.mul_int(a, b) == spec.mul_int(b, a)
        assert spec.add_int(spec.add_int(a, b), c) == spec.add_int(a, spec.add_int(b, c))
        assert spec.mul_int(spec.mul_int(a, b), c) == spec.mul_int(a, spec.mul_int(b, c))
        assert spec.mul_int(a, spec.add_int(b, c)) == spec.add_int(
            spec.mul_int(a, b), spec.mul_int(a, c)
        )


@pytest.mark.parametrize("spec", [GF7, GF8, FieldSpec.binary(8), FieldSpec.prime(251)])
def test_inverses_exhaustive_small(spec):
    assert spec.q <= 2**8
    for a in range(1, spec.q):
        assert spec.mul_int(a, spec.inv_int(a)) == 1


def test_untabled_binary_field_axioms():
    # m=17 has no log/exp tables; exercise the shift-and-reduce path.
    big = FieldSpec.binary(17)
    rng = random.Random(3)
    for _ in range(200):
        a, b = rng.randrange(1, big.q), rng.randrange(1, big.q)
        assert big.mul_int(a, b) == big.mul_int(b, a)
        assert big.mul_int(a, big.inv_int(a)) == 1


def test_poly_eval_examples():
    assert poly_eval(GF7, [4], 6) == 4
    assert poly_eval(GF7, [5, 3], 2) == 4
    assert poly_eval(GF7, [5, 3], 3) == 0
    assert poly_eval(GF7, [], 3) == 0


def test_poly_degree():
    # Points on a polynomial of lower degree interpolate to zero high
    # coefficients: the result has exactly len(points) entries.
    assert interpolate(GF7, [1, 2, 3], [4, 4, 4]) == [4, 0, 0]
    assert interpolate(GF7, [1, 2, 3], [0, 0, 0]) == [0, 0, 0]
    assert interpolate(GF7, [1, 2, 3], [1, 2, 3]) == [0, 1, 0]


def test_interpolate_examples():
    p = interpolate(GF7, [0], [4])
    assert p == [4]
    assert poly_eval(GF7, p, 5) == 4
    assert interpolate(GF7, [1, 2], [1, 4]) == [5, 3]
    # x^2 over GF(8) through x = 1, 2, 3
    ys = [GF8.mul_int(x, x) for x in (1, 2, 3)]
    assert interpolate(GF8, [1, 2, 3], ys) == [0, 0, 1]


def test_interpolate_duplicate_x_raises():
    with pytest.raises(FieldError):
        interpolate(GF7, [1, 1], [1, 2])
    with pytest.raises(FieldError):
        interpolate(GF7, [], [])
    with pytest.raises(FieldError):
        interpolate(GF7, [1, 2], [1])


def test_interpolate_roundtrip_random():
    rng = random.Random(11)
    for spec in (GF7, FieldSpec.binary(8), FieldSpec.binary(17), FieldSpec.prime(251)):
        for _ in range(100):
            k = rng.randrange(1, 8 if spec.q > 7 else 5)
            coeffs = [rng.randrange(spec.q) for _ in range(k)]
            xs = rng.sample(range(spec.q), k)
            ys = [poly_eval(spec, coeffs, x) for x in xs]
            assert interpolate(spec, xs, ys) == coeffs


def test_interpolate_eval_identity_exhaustive_gf5():
    GF5 = FieldSpec.prime(5)
    for k in (1, 2, 3):
        xs = list(range(k))
        for idx in range(5**k):
            coeffs = []
            v = idx
            for _ in range(k):
                coeffs.append(v % 5)
                v //= 5
            ys = [poly_eval(GF5, coeffs, x) for x in xs]
            assert interpolate(GF5, xs, ys) == coeffs


def test_json_roundtrip():
    for spec in (GF7, FieldSpec.binary(8), FieldSpec.binary(16)):
        assert FieldSpec.from_json(spec.to_json()) is spec
    assert FieldSpec.from_json({"kind": "binary", "m": 8, "poly": "0x11B"}) is FieldSpec.binary(8)
    assert FieldSpec.from_json({"kind": "prime", "p": 7}) is GF7
    with pytest.raises(FieldError):
        FieldSpec.from_json({"kind": "nope"})
