from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omatroid.errors import CapabilityError, InputError
from omatroid.groundset import (
    GroundSet,
    SubsetMask,
    _key_bits,
    format_subset_key,
    mask_elements,
    mask_of_elements,
    masks_of_size,
    parse_int,
    parse_subset_key,
)


def test_ground_set_bounds():
    assert GroundSet(0).n == 0
    assert GroundSet(24).full_mask == (1 << 24) - 1
    with pytest.raises(CapabilityError):
        GroundSet(25)
    with pytest.raises(InputError):
        GroundSet(-1)


def test_subset_basics():
    g = GroundSet(5)
    s = g.subset([4, 1])
    assert s.bits == 0b01001
    assert s.elements() == (1, 4)
    assert list(s) == [1, 4]
    assert 4 in s and 2 not in s
    assert len(s) == 2
    assert s.to_json() == [1, 4]


def test_subset_validation():
    g = GroundSet(3)
    with pytest.raises(InputError):
        g.subset([0])
    with pytest.raises(InputError):
        g.subset([4])
    assert g.subset([1, 1]).bits == 0b1  # duplicates collapse, sets have no multiplicity
    with pytest.raises(InputError):
        SubsetMask(g, 1 << 3)


def test_mask_helpers():
    assert mask_elements(0) == ()
    assert mask_elements(0b1101) == (1, 3, 4)
    assert mask_of_elements([3, 1]) == 0b101
    assert mask_of_elements([]) == 0


@pytest.mark.parametrize("bits", [-1, -6, 1.5, "3", None])
def test_mask_elements_refuses_a_bad_mask(bits):
    # -1 has no highest bit: a walk down its bits would never end
    with pytest.raises(InputError):
        mask_elements(bits)


@pytest.mark.parametrize("elements", [[0], [-3], [True, 2], [1.0], ["1"]])
def test_mask_of_elements_refuses_a_bad_element(elements):
    # 0 and -3 would shift by a negative count, and True is no element label
    with pytest.raises(InputError):
        mask_of_elements(elements)


def test_masks_of_size_is_colex():
    assert masks_of_size(4, 2) == (0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100)
    assert masks_of_size(3, 0) == (0,)
    with pytest.raises(InputError):
        masks_of_size(3, 4)
    for n in range(8):
        for r in range(n + 1):
            ms = masks_of_size(n, r)
            assert len(ms) == comb(n, r)
            assert list(ms) == sorted(ms)
            assert all(m.bit_count() == r for m in ms)


def test_subset_keys():
    g = GroundSet(4)
    assert parse_subset_key("", g).bits == 0
    assert parse_subset_key("1,3", g).bits == 0b101
    assert parse_subset_key("3,1", g).bits == 0b101
    with pytest.raises(InputError):
        parse_subset_key("1,1", g)
    with pytest.raises(InputError):
        parse_subset_key("0", g)
    with pytest.raises(InputError):
        parse_subset_key("5", g)
    with pytest.raises(InputError):
        parse_subset_key("a", g)
    assert format_subset_key(g.subset([2, 4])) == "2,4"
    assert format_subset_key(g.subset([])) == ""


def test_key_roundtrip_everywhere():
    g = GroundSet(4)
    for bits in range(1 << 4):
        s = SubsetMask(g, bits)
        assert parse_subset_key(format_subset_key(s), g) == s


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 24).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1))), st.randoms())
def test_key_bits_roundtrip(n_bits, rng):
    # bits -> key -> bits on every ground-set size, and a key lists its elements in any order
    n, bits = n_bits
    key = format_subset_key(SubsetMask(GroundSet(n), bits))
    assert _key_bits(key, n) == bits == parse_subset_key(key, GroundSet(n)).bits
    elements = list(mask_elements(bits))
    rng.shuffle(elements)
    assert _key_bits(",".join(map(str, elements)), n) == bits


@given(st.integers(-(10**40), 10**40))
def test_parse_int_reads_what_str_writes(k):
    assert parse_int(str(k)) == k


@pytest.mark.parametrize("text", ["1_0", "+2", " 3", "3 ", "01", "-0", "\u0661", "\u0661\u0662",
                                  "", "-", "--1", "1.0", "0x1", "\u00b2", "1 0"])
def test_parse_int_refuses_every_other_spelling(text):
    # int() reads the first eight of these; each names an integer only as int() reads it
    with pytest.raises(ValueError):
        parse_int(text)


@pytest.mark.parametrize("key,message", [
    ("a", "bad subset key 'a'"),
    ("1,,2", "bad subset key '1,,2'"),
    ("1,a,1", "bad subset key '1,a,1'"),
    ("1,1", "duplicate element 1 in subset key '1,1'"),
    ("9,1,1", "duplicate element 1 in subset key '9,1,1'"),
    ("5", "element 5 is outside 1..4"),
    ("0,5", "element 0 is outside 1..4"),
    ("-1", "element -1 is outside 1..4"),
    # int() reads each of these as a number, but a key spells its elements one way only
    ("1_0", "bad subset key '1_0'"),
    ("+2", "bad subset key '+2'"),
    (" 3", "bad subset key ' 3'"),
    ("3 ", "bad subset key '3 '"),
    ("01", "bad subset key '01'"),
    ("-0", "bad subset key '-0'"),
    ("\u0661", "bad subset key '\u0661'"),
])
def test_subset_key_messages(key, message):
    # a malformed key is refused before a duplicate, and a duplicate before a range error
    for parse in (lambda: _key_bits(key, 4), lambda: parse_subset_key(key, GroundSet(4))):
        with pytest.raises(InputError) as info:
            parse()
        assert str(info.value) == message
