import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrcodes.hamming import (
    MAX_LENGTH,
    from_string,
    krawtchouk,
    krawtchouk_table,
    permute_bits,
    sphere,
    to_string,
    unpermute_bits,
    weight_masks,
)
from oracles import brute_sphere


def test_sphere_counts():
    assert len(list(sphere(0, 4, 16))) == 1820
    assert list(sphere(0b1010, 0, 8)) == [0b1010]
    pts = list(sphere(0, 3, 15))
    assert len(pts) == 455
    assert all(p.bit_count() == 3 for p in pts)


def test_sphere_is_sorted_and_distinct():
    pts = list(sphere(0b110101, 3, 9))
    assert pts == sorted(set(pts))


@pytest.mark.parametrize("m", [4, 6, 9, 12])
def test_sphere_matches_brute_filter(m):
    rng = random.Random(m)
    center = rng.randrange(1 << m)
    for k in range(m + 1):
        assert list(sphere(center, k, m)) == brute_sphere(center, k, m)


@pytest.mark.parametrize("m", [5, 10, 12])
def test_spheres_partition_vertex_space(m):
    total = sum(len(list(sphere(0b1 if m > 1 else 0, k, m))) for k in range(m + 1))
    assert total == 1 << m


def test_sphere_range_errors():
    with pytest.raises(ValueError):
        list(sphere(0, 5, 4))
    with pytest.raises(ValueError):
        list(sphere(0, -1, 4))


def test_weight_masks_gosper():
    masks = list(weight_masks(6, 2))
    assert masks == sorted(masks)
    assert len(masks) == 15
    assert all(m.bit_count() == 2 for m in masks)


def test_krawtchouk_values():
    assert all(krawtchouk(10, 0, x) == 1 for x in range(11))
    assert krawtchouk(16, 1, 6) == 16 - 2 * 6
    # j-sum at m=16, k=2, x=8 expands to C(8,2) - 8*8 + C(8,2)
    assert krawtchouk(16, 2, 8) == 28 - 64 + 28 == -8


def test_krawtchouk_at_zero_is_binomial():
    for m in (5, 12, 16):
        for k in range(m + 1):
            assert krawtchouk(m, k, 0) == math.comb(m, k)


def test_krawtchouk_reflection_symmetry_exhaustive():
    for m in range(1, 17):
        for k in range(m + 1):
            for x in range(m + 1):
                assert krawtchouk(m, k, m - x) == (-1) ** k * krawtchouk(m, k, x)


def test_krawtchouk_table():
    table = krawtchouk_table(16)
    assert table[2][8] == -8
    assert all(table[0][x] == 1 for x in range(17))
    assert krawtchouk_table(0) == ((1,),)
    with pytest.raises(ValueError):
        krawtchouk(8, 9, 0)
    with pytest.raises(ValueError):
        krawtchouk(8, 0, 9)


def test_text_form_round_trip():
    s = "1011001000110100"
    v, m = from_string(s)
    assert m == 16
    assert to_string(v, m) == s
    assert to_string(1, 4) == "1000"  # coordinate 1 is leftmost
    for bad in ("01x0", "01_0", "+010", "01 0"):
        with pytest.raises(ValueError, match="invalid character"):
            from_string(bad)


@st.composite
def words_and_positions(draw):
    m = draw(st.integers(1, MAX_LENGTH))
    words = draw(st.lists(st.integers(0, (1 << m) - 1), min_size=1, max_size=8))
    sigma = draw(st.permutations(range(m)))
    subset = draw(
        st.lists(st.integers(0, m - 1), min_size=1, max_size=m, unique=True)
    )
    return m, words, sigma, subset


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(words_and_positions())
def test_bit_permutation_helpers(case):
    """Array and int paths agree; unpermute inverts permute; on a subset,
    unpermute is the projection read off the text form."""
    m, words, sigma, subset = case
    arr = np.asarray(words, dtype=np.uint32)
    for positions in (sigma, subset):
        for f in (permute_bits, unpermute_bits):
            out = f(arr, positions)
            assert out.dtype == np.uint32
            assert out.tolist() == [f(v, positions) for v in words]
    for v in words:
        assert unpermute_bits(permute_bits(v, sigma), sigma) == v
        text = to_string(v, m)
        projected, _ = from_string("".join(text[i] for i in subset))
        assert unpermute_bits(v, subset) == projected
