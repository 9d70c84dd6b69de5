import itertools
import math
import random
import tracemalloc
from array import array
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsmt.field import _LIST_MAX_M, _TABLE_MAX_M, FieldSpec
from rsmt.hashing import HashFamilySpec, _tag_table
from rsmt.privacy import EnumerationTooLarge, _runs, hash_offset_collision_max
from rsmt.protocols import CissProtocol

from in_time import in_time

FAM3 = HashFamilySpec(3, 3)


def _oracle(fam, key, x):
    """h_{a,b}(x) by the field's `mul_int`: the reference `tag_rows` must equal."""
    a, b = key
    return (fam.field.mul_int(a, x) ^ b) & ((1 << fam.range_bits) - 1)


def test_range_must_fit_domain():
    with pytest.raises(ValueError):
        HashFamilySpec(3, 4)
    with pytest.raises(ValueError):
        HashFamilySpec(3, 0)


@pytest.mark.parametrize("domain_bits, range_bits", [(3, True), (True, 1), (3.0, 2), (3, "2")])
def test_family_sizes_must_be_exact_ints(domain_bits, range_bits):
    # In a child: without the check, a bool or float size reaches the field
    # cache and can replace a field there for the rest of the process.
    def refuse():
        with pytest.raises(ValueError, match="need int sizes"):
            HashFamilySpec(domain_bits, range_bits)

    in_time(refuse, limit=5)


def test_a_str_family_size_is_refused():
    # In this process: a str cannot reach the field cache, check or no check.
    with pytest.raises(ValueError, match="need int sizes, got l='2', m=3"):
        HashFamilySpec(3, "2")


def test_sample_deterministic_by_seed():
    h1 = FAM3.sample(random.Random(42))
    h2 = FAM3.sample(random.Random(42))
    assert h1 == h2
    h3 = FAM3.sample(random.Random(43))
    assert h1 != h3  # holds for these seeds; collision prob 2^-6


def test_distinct_seeds_mostly_distinct():
    fam = HashFamilySpec(8, 8)
    collisions = 0
    prev = None
    for seed in range(2000):
        key = fam.sample(random.Random(seed))
        if key == prev:
            collisions += 1
        prev = key
    # pairwise collision probability is 2^-16; 2000 draws make >=3 collisions
    # astronomically unlikely
    assert collisions <= 2


def test_sample_uniformity_chi_square():
    rng = random.Random(1)
    counts = Counter()
    trials = 100_000
    for _ in range(trials):
        counts[FAM3.sample(rng)] += 1
    cells = 64
    expected = trials / cells
    chi2 = sum((counts[key] - expected) ** 2 / expected for key in
               ((a, b) for a in range(8) for b in range(8)))
    # 63 dof: 99.9th percentile is ~103
    assert chi2 < 110


def test_sample_draws_a_then_b():
    rng = random.Random(7)
    want = (rng.getrandbits(3), rng.getrandbits(3))
    assert FAM3.sample(random.Random(7)) == want


def _tag(fam, key, x):
    """One tag, through `tag_rows`."""
    return fam.tag_rows([key], [x], [[0]])[0][0]


def test_identity_member():
    assert FAM3.tag_rows([(1, 0)], range(8), [[0] * 8]) == [list(range(8))]


def test_evaluate_matches_field_mul_oracle():
    gf8 = FieldSpec.binary(3)
    assert _tag(FAM3, (0b010, 0b001), 0b100) == gf8.mul_int(0b010, 0b100) ^ 0b001 == 0b010
    rng = random.Random(5)
    fam = HashFamilySpec(8, 5)
    keys = [fam.sample(rng) for _ in range(50)]
    xs = [rng.randrange(256) for _ in range(10)]
    assert fam.tag_rows(keys, xs, itertools.repeat([0] * 10)) == [
        [_oracle(fam, key, x) for x in xs] for key in keys]


def test_evaluate_pure_and_width_checked():
    key = FAM3.sample(random.Random(0))
    assert _tag(FAM3, key, 5) == _tag(FAM3, key, 5)
    for bad_key, x in (((0, 0), 8), ((0, 0), -1), ((8, 0), 1), ((0, 8), 1), ((-1, 0), 1)):
        with pytest.raises(ValueError):
            _tag(FAM3, bad_key, x)


def test_members_are_every_key_once():
    # the keys `rsmt verify`'s hash checks draw: `sample` on every forced point
    assert list(_runs([8, 8], FAM3.sample)) == [(a, b) for a in range(8) for b in range(8)]


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_strong_universality_exhaustive(ell):
    fam = HashFamilySpec(3, ell)
    expected = 2 ** (2 * 3 - 2 * ell)
    for x1 in range(8):
        for x2 in range(8):
            if x1 == x2:
                continue
            counts = Counter((_oracle(fam, key, x1), _oracle(fam, key, x2))
                             for key in itertools.product(range(8), repeat=2))
            for y1 in range(1 << ell):
                for y2 in range(1 << ell):
                    assert counts[(y1, y2)] == expected


@pytest.mark.parametrize("ell", [1, 3])
def test_family_gamma_matches_enumeration(ell):
    fam = HashFamilySpec(3, ell)
    worst = 0
    for x1 in range(8):
        for x2 in range(x1 + 1, 8):
            counts = Counter((_oracle(fam, key, x1), _oracle(fam, key, x2))
                             for key in itertools.product(range(8), repeat=2))
            worst = max(worst, max(counts.values()) / 64)
    assert worst == 2.0 ** (-2 * ell)
    # the coarser budget the protocols assume, with slack
    assert worst <= 2.0 ** (1 - 2 * ell)


def _offset_collision_prob(fam, x1, c1, x2, c2):
    """Pr over every key of c1 ^ h(x1) == c2 ^ h(x2), by the oracle."""
    keys = list(itertools.product(range(1 << fam.domain_bits), repeat=2))
    hits = sum(_oracle(fam, key, x1) ^ c1 == _oracle(fam, key, x2) ^ c2 for key in keys)
    return hits / len(keys)


def test_offset_collision_same_input():
    assert _offset_collision_prob(FAM3, 3, 0, 3, 1) == 0.0


def test_offset_collision_distinct_inputs():
    for ell in (1, 2, 3):
        assert hash_offset_collision_max(HashFamilySpec(3, ell)) == 2.0 ** -ell


def test_offset_collision_bound_exhaustive():
    fam = HashFamilySpec(3, 2)
    bound = 2.0 ** (1 - 2)
    worst = 0.0
    for x1 in range(8):
        for x2 in range(8):
            for c1 in range(4):
                for c2 in range(4):
                    if (x1, c1) == (x2, c2):
                        continue
                    p = _offset_collision_prob(fam, x1, c1, x2, c2)
                    assert p <= bound
                    worst = max(worst, p)
    # the per-pair enumeration agrees with the worst value `rsmt verify` reports
    assert worst == hash_offset_collision_max(fam)


def test_offset_collision_refuses_a_family_too_large_to_enumerate():
    with pytest.raises(EnumerationTooLarge):
        hash_offset_collision_max(HashFamilySpec(16, 8))


# --- the tag matrix -----------------------------------------------------------

_TABLES = {"list": (1, _LIST_MAX_M), "array": (_LIST_MAX_M + 1, _TABLE_MAX_M),
           "untabled": (_TABLE_MAX_M + 1, 32)}


@st.composite
def _family_keys_inputs(draw, tables):
    """A family whose field keeps its log/exp tables as `tables` says, keys,
    a row of inputs and a row of masks per key, with zeros likely."""
    m = draw(st.integers(*_TABLES[tables]))
    # l = m (no bit dropped) half the time
    fam = HashFamilySpec(m, draw(st.one_of(st.just(m), st.integers(1, m))))
    elem = st.one_of(st.just(0), st.integers(0, (1 << m) - 1))
    keys = draw(st.lists(st.tuples(elem, elem), max_size=6))
    xs = draw(st.lists(elem, max_size=12))
    mask = st.one_of(st.just(0), st.integers(0, (1 << fam.range_bits) - 1))
    masks = [draw(st.lists(mask, min_size=len(xs), max_size=len(xs))) for _ in keys]
    return fam, keys, xs, masks


@pytest.mark.parametrize("tables", list(_TABLES))
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_tag_rows_equal_tag_per_entry(tables, data):
    fam, keys, xs, masks = data.draw(_family_keys_inputs(tables))
    exp = fam.field._exp
    assert type(exp) is {"list": list, "array": array, "untabled": type(None)}[tables]
    if exp is not None:
        assert type(_tag_table(fam.field, fam.range_bits)) is type(exp)
    assert fam.tag_rows(keys, xs, masks) == [[_oracle(fam, key, x) ^ r for x, r in zip(xs, rs)]
                                             for key, rs in zip(keys, masks)]


@pytest.mark.parametrize("tables", list(_TABLES))
@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(data=st.data(), which=st.sampled_from(["a", "b", "x"]), negative=st.booleans())
def test_tag_rows_and_tag_reject_out_of_range(tables, data, which, negative):
    fam, keys, xs, masks = data.draw(_family_keys_inputs(tables))
    bad = -1 if negative else 1 << fam.domain_bits
    a, b, x = (bad if which == c else 0 for c in "abx")
    with pytest.raises(ValueError):
        _tag(fam, (a, b), x)
    with pytest.raises(ValueError):
        fam.tag_rows([*keys, (a, b)], [*xs, x], [*masks, [0] * (len(xs) + 1)])


def test_tag_table_is_the_exp_table_masked_to_l_bits():
    for m, ell in ((3, 3), (8, 5), (12, 12), (12, 7), (13, 13), (14, 9), (16, 16), (16, 8),
                   (16, 1)):
        f = FieldSpec.binary(m)
        tab = _tag_table(f, ell)
        assert type(tab) is type(f._exp)
        assert list(tab) == [v & (1 << ell) - 1 for v in f._exp]
        assert (tab is f._exp) == (ell == m)  # no bit dropped: the exp table itself


def test_tag_table_is_built_at_first_use_once_per_field_and_length():
    _tag_table.cache_clear()
    proto = CissProtocol("P3", 16, FieldSpec.binary(16), 1, 16)
    fam = HashFamilySpec(16, 16)
    assert _tag_table.cache_info().currsize == 0  # not when a family is made
    payloads = proto.encode((7,), random.Random(0))
    assert _tag_table.cache_info().misses == 1
    assert proto.decode(payloads, range(1, 17)) == ((7,), [])
    fam.tag_rows([(3, 4)], [5], [[0]])  # another family of the same field and l
    assert _tag_table.cache_info()[:2] == (2, 1)  # (hits, misses)
    HashFamilySpec(16, 8).tag_rows([(3, 4)], [5], [[0]])
    assert _tag_table.cache_info()[:2] == (2, 2)


@pytest.mark.parametrize("ell", [16, 9, 8, 1])
def test_tag_table_at_gf_2_16_is_built_in_under_2_mb(ell):
    # through a list of 4(q - 1) + 1 ints the build would peak near 2.8 MB at
    # l = 8 and 4.9 MB at l = 9; at l = 16 it builds nothing
    f = FieldSpec.binary(16)
    _tag_table.cache_clear()
    tracemalloc.start()
    try:
        tab = _tag_table(f, ell)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert type(tab) is array and peak < 2_000_000
