from math import comb

import pytest

from omatroid.errors import CapabilityError, InputError
from omatroid.groundset import (
    GroundSet,
    SubsetMask,
    format_subset_key,
    mask_elements,
    mask_of_elements,
    masks_of_size,
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
