import ast
import copy
import pickle
import random
import signal
from array import array
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rsmt
from rsmt.field import (
    _LIST_MAX_M,
    _PRIME_LIMIT,
    _TABLE_MAX_M,
    DEFAULT_BINARY_POLYS,
    FieldError,
    FieldSpec,
    _is_prime,
    _lagrange_rows,
    interpolate,
    interpolate_at,
    interpolate_at_zero,
    poly_eval,
)
from rsmt.protocols import SjstProtocol
from rsmt.protocols.base import ProtocolError

GF7 = FieldSpec.prime(7)
GF8 = FieldSpec.binary(3)  # x^3 + x + 1


@contextmanager
def _within(seconds: int, what: str):
    """Run the block under an alarm that turns a hang into a failure."""
    def hang(signum, frame):
        raise TimeoutError(f"{what} did not finish within {seconds} s")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_prime_requires_prime():
    with pytest.raises(FieldError):
        FieldSpec.prime(6)
    with pytest.raises(FieldError):
        FieldSpec.prime(1)


def trial_division_is_prime(n: int) -> bool:
    """The primality oracle: divide by 2 and every odd number up to sqrt(n)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.integers(-3, 10**5 - 1))
def test_is_prime_equals_trial_division(n):
    assert _is_prime(n) == trial_division_is_prime(n)


def test_prime_decides_large_p_at_once():
    with _within(1, "FieldSpec.prime on p near 2^61"):
        for p in (2**61 - 1, 10**18 + 3):
            assert FieldSpec.prime(p).q == p
        # 10^18 + 1 = (10^6 + 1)(10^12 - 10^6 + 1); the other is a strong
        # pseudoprime to each of the twelve prime bases 2..37
        for p in (10**18 + 1, 399165290221 * 798330580441):
            with pytest.raises(FieldError):
                FieldSpec.prime(p)


def test_prime_refuses_p_at_or_above_the_limit_of_the_test():
    for p in (_PRIME_LIMIT, _PRIME_LIMIT + 2, 2**127 - 1):
        with pytest.raises(FieldError, match=str(_PRIME_LIMIT)):
            FieldSpec.prime(p)


def test_binary_rejects_reducible_poly():
    with pytest.raises(FieldError):
        FieldSpec("binary", m=3, poly=0b1111)  # x^3+x^2+x+1 = (x+1)(x^2+1)


@pytest.mark.parametrize("m, poly", [(2, -4), (8, -0x11B), (2, -7)])
def test_binary_refuses_a_negative_poly_by_name(m, poly):
    # A negative mask is no GF(2) polynomial: -4 and -0x11b once looped in the
    # trial division, and -7 built a GF(4) whose mul_int(3, 3) was -4.
    with _within(2, f"FieldSpec.binary({m}, {poly:#x})"):
        with pytest.raises(FieldError, match=f"poly {poly:#x} is not irreducible of degree {m}"):
            FieldSpec.binary(m, poly)


def test_binary_rejects_large_m():
    with pytest.raises(FieldError):
        FieldSpec.binary(33)
    with pytest.raises(FieldError):
        FieldSpec.binary(0)
    with pytest.raises(FieldError, match="extension degree m=0 out of range"):
        FieldSpec("binary", m=0, poly=0x3)  # the constructor checks it too


def test_field_constructor_names_an_unknown_kind():
    with pytest.raises(FieldError, match="unknown field kind 'ternary'"):
        FieldSpec("ternary")


def test_binary_without_default_poly_rejects_m_above_32_at_once():
    # The range check must run before the irreducible-polynomial search,
    # which for m = 64 would not finish.
    with _within(5, "FieldSpec.binary(64)"):
        with pytest.raises(FieldError):
            FieldSpec.binary(64)
        with pytest.raises(ProtocolError, match="k=64 makes a 64-bit hash domain"):
            SjstProtocol(3, 8, 64)


def test_binary_without_a_poly_searches_once_per_degree(monkeypatch):
    # m = 24 has no default poly, and every search starts at x^24 + 1
    test, first = rsmt.field._gf2_irreducible, (1 << 24) | 1
    searches = []

    def counted(poly, m):
        searches.append(poly == first)
        return test(poly, m)

    monkeypatch.setattr(rsmt.field, "_gf2_irreducible", counted)
    rsmt.field.smallest_irreducible_poly.cache_clear()
    specs = [FieldSpec.binary(24) for _ in range(3)]
    assert sum(searches) == 1
    assert specs[0] is specs[1] is specs[2]


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


@pytest.mark.parametrize("m", range(1, _TABLE_MAX_M + 1))
def test_tables_agree_with_shift_and_reduce(m):
    # lists up to the cut, compact arrays above it
    spec = FieldSpec.binary(m)
    assert type(spec._exp) is type(spec._log) is (list if m <= _LIST_MAX_M else array)
    rng = random.Random(m)
    for a, b in [(0, 1), (1, 0), (spec.q - 1, spec.q - 1),
                 *((rng.randrange(spec.q), rng.randrange(spec.q)) for _ in range(300))]:
        assert spec.mul_int(a, b) == spec._clmul_reduce(a, b)
        if a:
            assert spec._clmul_reduce(a, spec.inv_int(a)) == 1


@pytest.mark.parametrize("clone", [lambda f: pickle.loads(pickle.dumps(f)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_array_backed_field_clones_to_the_interned_object(clone):
    spec = FieldSpec.binary(_LIST_MAX_M + 1)
    assert type(spec._exp) is array
    assert clone(spec) is spec
    assert clone(FieldSpec.binary(16)) is FieldSpec.binary(16)


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
    with pytest.raises(FieldError):
        interpolate_at_zero(GF7, [1, 2], [1])


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


# --- properties against plain references -------------------------------------


def reference_interpolate(spec, xs, ys):
    """Newton divided differences element by element, inverting every
    difference afresh: O(k^2) field operations and no shared state."""
    k = len(xs)
    c = list(ys)
    for j in range(1, k):
        for i in range(k - 1, j - 1, -1):
            c[i] = spec.mul_int(spec.sub_int(c[i], c[i - 1]),
                                spec.inv_int(spec.sub_int(xs[i], xs[i - j])))
    coeffs = [0] * k
    coeffs[0] = c[k - 1]
    for i in range(k - 2, -1, -1):
        for d in range(k - 1 - i, 0, -1):
            coeffs[d] = spec.sub_int(coeffs[d - 1], spec.mul_int(coeffs[d], xs[i]))
        coeffs[0] = spec.sub_int(c[i], spec.mul_int(coeffs[0], xs[i]))
    return coeffs


_FIELDS = [FieldSpec.prime(p) for p in (2, 3, 7, 251, 65521)] + [
    FieldSpec.binary(m) for m in (1, 2, 3, 8, 16, 17, 32)]


@st.composite
def _points(draw):
    spec = draw(st.sampled_from(_FIELDS))
    elem = st.integers(0, spec.q - 1)
    xs = draw(st.lists(elem, min_size=1, max_size=min(spec.q, 12), unique=True))
    return spec, xs, draw(st.lists(elem, min_size=len(xs), max_size=len(xs)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_points())
def test_interpolate_equals_reference(case):
    spec, xs, ys = case
    assert interpolate(spec, xs, ys) == reference_interpolate(spec, xs, ys)
    # a repeated point set goes through the cached inverse differences
    assert interpolate(spec, xs, ys) == reference_interpolate(spec, xs, ys)
    assert interpolate_at_zero(spec, xs, ys) == reference_interpolate(spec, xs, ys)[0]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_points(), st.data())
def test_interpolate_at_equals_the_reference_polynomial_at_each_point(case, data):
    spec, xs, ys = case
    at = data.draw(st.lists(st.integers(0, spec.q - 1), max_size=6))
    coeffs = reference_interpolate(spec, xs, ys)
    want = [poly_eval(spec, coeffs, a) for a in at]
    assert interpolate_at(spec, xs, ys, at) == want
    assert interpolate_at(spec, tuple(xs), ys, tuple(at)) == want  # a cached row set
    assert interpolate_at(spec, xs, ys, xs) == ys


def test_interpolate_at_needs_one_y_per_x():
    with pytest.raises(FieldError):
        interpolate_at(GF7, [1, 2], [1], [0])
    with pytest.raises(FieldError):
        interpolate_at(GF7, [1, 1], [1, 2], [0])


@pytest.mark.parametrize("spec", _FIELDS, ids=repr)
def test_interpolate_again_after_the_caller_changes_the_result(spec):
    xs = list(range(min(spec.q, 4)))
    ys = [(3 * x + 1) % spec.q for x in xs]
    got = interpolate(spec, xs, ys)
    got[0] ^= 1
    got.append(5)
    assert interpolate(spec, xs, ys) == reference_interpolate(spec, xs, ys)
    ys[0] = 0  # the first row added is scaled by 0
    got = interpolate(spec, xs, ys)
    got[:] = []
    assert interpolate(spec, xs, ys) == reference_interpolate(spec, xs, ys)


def test_interpolate_after_the_row_cache_evicts():
    spec, rng = FieldSpec.binary(8), random.Random(7)
    point_sets = list({tuple(rng.sample(range(1, spec.q), rng.randrange(2, 6)))
                       for _ in range(1100)})
    assert len(point_sets) > 1024
    for _ in range(2):  # on the second cycle too, each set misses the cache
        misses = _lagrange_rows.cache_info().misses
        for xs in point_sets:
            ys = [rng.randrange(spec.q) for _ in xs]
            assert interpolate(spec, xs, ys) == reference_interpolate(spec, xs, ys)
    assert _lagrange_rows.cache_info().misses - misses == len(point_sets)


def _table_reads(node, scope=()):
    """The enclosing class.function of each `_exp` or `_log` read under node,
    as an attribute or a string constant (getattr)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _table_reads(child, (*scope, child.name))
            continue
        name = (child.attr if isinstance(child, ast.Attribute)
                else child.value if isinstance(child, ast.Constant) else None)
        if name in ("_exp", "_log"):
            yield ".".join(scope)
        yield from _table_reads(child, scope)


def test_only_field_and_tag_rows_read_the_tables():
    # Whether and how a field keeps log/exp tables is `rsmt.field`'s choice;
    # `tag_rows` looks up its logs and `_tag_table` builds the hash family's
    # tag table from the exp table (see `tag_rows`' comment), and anything
    # else, the sharing layer's byte tables included, goes through the
    # field's operations.
    root = Path(rsmt.__file__).parent
    reads = {(str(path.relative_to(root)), scope)
             for path in sorted(root.rglob("*.py")) if path != root / "field.py"
             for scope in _table_reads(ast.parse(path.read_text()))}
    assert reads == {("hashing.py", "HashFamilySpec.tag_rows"), ("hashing.py", "_tag_table")}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_points(), st.data())
def test_poly_eval_equals_power_sum(case, data):
    spec, coeffs, _ = case
    x = data.draw(st.integers(0, spec.q - 1))
    want = 0
    for i, c in enumerate(coeffs):
        want = spec.add_int(want, spec.mul_int(c, spec.pow_int(x, i)))
    assert poly_eval(spec, coeffs, x) == want


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_points(), st.data())
def test_mul_row_equals_mul_int(case, data):
    spec, xs, ys = case
    a = data.draw(st.one_of(st.just(0), st.integers(0, spec.q - 1)))
    assert spec.mul_row(a, xs, ys) == [spec.add_int(spec.mul_int(a, x), y)
                                       for x, y in zip(xs, ys)]
