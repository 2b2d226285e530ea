import math
import tracemalloc

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
    to_string,
    unpermute_bits,
    weight_vertices,
)
from oracles import brute_sphere


@pytest.mark.parametrize("m", [1, 2, 5, 8, 11])
def test_weight_vertices_match_brute_filter(m):
    for k in range(m + 1):
        verts = weight_vertices(m, k)
        assert verts.dtype == np.uint32
        assert verts.tolist() == brute_sphere(0, k, m)


def test_weight_vertices_range_errors():
    for m, k in ((4, 5), (4, -1), (25, 1), (0, 0)):
        with pytest.raises(ValueError):
            weight_vertices(m, k)


def test_weight_vertices_build_no_full_space_array():
    # m = 24 is allowed, and 2^24 uint32 words would take 64 MB: the
    # C(24, 2) = 276 words of weight 2 must cost a few KB.
    tracemalloc.start()
    try:
        verts = weight_vertices(MAX_LENGTH, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verts.tolist() == [
        (1 << i) | (1 << j) for j in range(MAX_LENGTH) for i in range(j)
    ]
    assert peak < 64 << 10


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
    """Array and int paths agree, and the array path keeps its dtype, on a
    permutation, a subset and no positions at all; permute drops the bits
    at j >= len(positions); unpermute inverts permute; on a subset,
    unpermute is the projection read off the text form."""
    m, words, sigma, subset = case
    for dtype in (np.uint32, np.int64, np.intp):
        arr = np.asarray(words, dtype=dtype)
        for positions in (sigma, subset, ()):
            for f in (permute_bits, unpermute_bits):
                out = f(arr, positions)
                assert out.dtype == dtype
                assert out.tolist() == [f(v, positions) for v in words]
    low = (1 << len(subset)) - 1
    for v in words:
        assert permute_bits(v, ()) == unpermute_bits(v, ()) == 0
        assert permute_bits(v, subset) == permute_bits(v & low, subset)
        assert unpermute_bits(permute_bits(v, sigma), sigma) == v
        text = to_string(v, m)
        projected, _ = from_string("".join(text[i] for i in subset))
        assert unpermute_bits(v, subset) == projected


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(words_and_positions(), st.integers(1, (1 << 30) - 1))
def test_permute_bits_int_path_agrees_with_array_path(case, high):
    """The int path, which walks the set bits of v, gives the array path's
    words on a permutation and on a subset deposit, for v = 0 and for
    words with bits at and above len(positions), which are dropped; a
    numpy integer scalar keeps its type, a Python int stays an int."""
    m, words, sigma, subset = case
    for positions in (tuple(sigma), tuple(subset)):
        n = len(positions)
        values = [0, *words, *(w | high << n for w in words)]
        expected = permute_bits(np.asarray(values, dtype=np.uint64), positions).tolist()
        assert expected == [
            sum(1 << p for j, p in enumerate(positions) if v >> j & 1) for v in values
        ]
        out = [permute_bits(v, positions) for v in values]
        assert out == expected and all(type(x) is int for x in out)
        for dtype in (np.uint32, np.int64, np.uint64):
            fits = [v & 0x7FFFFFFF for v in values]
            arr = np.asarray(fits, dtype=dtype)
            scalars = [permute_bits(x, positions) for x in arr]
            assert all(type(x) is dtype for x in scalars)
            assert [int(x) for x in scalars] == permute_bits(arr, positions).tolist()
