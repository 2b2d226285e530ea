"""Bit-word arithmetic on binary Hamming space and exact Krawtchouk evaluation.

Vertices of the Hamming graph on m coordinates are plain Python ints:
coordinate i (1-indexed) lives at bit position i-1, so the text form
"10110..." (coordinate 1 leftmost) maps character t to bit t.  All lengths
are capped at 24 coordinates; every scan over the full vertex set then fits
comfortably in memory.

Every coordinate move on words goes through one pair of helpers:
`permute_bits` moves bit j to bit positions[j] and `unpermute_bits` moves
bit positions[j] back to bit j.  They serve relabelling, projection,
deposit and the permutation part of an automorphism alike, on one word or
elementwise on a numpy array of words.

Krawtchouk values are exact arbitrary-precision integers.  No floating
point is used anywhere in this module: downstream feasibility arguments
rest on exact sign decisions.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator

import numpy as np

MAX_LENGTH = 24


def check_length(m: int) -> None:
    if not 1 <= m <= MAX_LENGTH:
        raise ValueError(f"length must be in [1, {MAX_LENGTH}], got {m}")


def check_vertex(v: int, m: int) -> None:
    """Reject words with bits outside coordinates 1..m."""
    check_length(m)
    if v < 0 or v >> m:
        raise ValueError(f"vertex {v:#x} does not fit in {m} coordinates")


def permute_bits(v, positions):
    """Move bit j of v to bit positions[j], for every j.

    v is an int or a numpy integer array (elementwise, keeping its dtype).
    Positions are distinct Python ints, since a numpy integer would promote
    the array's dtype.  They need not cover 0..m-1, so this also deposits
    the low len(positions) bits onto a subset; bits of v at
    j >= len(positions) are dropped.
    """
    out = v & 0
    for j, p in enumerate(positions):
        out |= ((v >> j) & 1) << p
    return out


def unpermute_bits(v, positions):
    """Move bit positions[j] of v to bit j: the inverse of permute_bits.

    On a subset of positions this projects v onto them, in their order.
    """
    out = v & 0
    for j, p in enumerate(positions):
        out |= ((v >> p) & 1) << j
    return out


def to_string(v: int, m: int) -> str:
    """Text form: '0'/'1' per coordinate, coordinate 1 leftmost."""
    check_vertex(v, m)
    return "".join("1" if (v >> i) & 1 else "0" for i in range(m))


_DROP_BITS = str.maketrans("", "", "01")


def from_string(s: str) -> tuple[int, int]:
    """Parse the text form; returns (word, length)."""
    m = len(s)
    check_length(m)
    # int() alone would also accept '_', '+', whitespace and other digits
    bad = s.translate(_DROP_BITS)
    if bad:
        raise ValueError(f"invalid character {bad[0]!r} in vertex string")
    return int(s[::-1], 2), m


def weight_masks(m: int, k: int) -> Iterator[int]:
    """All weight-k words of length m in ascending integer order (Gosper)."""
    if k == 0:
        yield 0
        return
    x = (1 << k) - 1
    limit = 1 << m
    while x < limit:
        yield x
        c = x & -x
        r = x + c
        x = (((r ^ x) >> 2) // c) | r


def sphere(center: int, k: int, m: int) -> Iterator[int]:
    """All words at distance exactly k from center, ascending by bit word.

    Yields binomial(m, k) distinct words.  The list is materialized
    internally so the output order is independent of the center.
    """
    check_vertex(center, m)
    if not 0 <= k <= m:
        raise ValueError(f"sphere radius {k} outside [0, {m}]")
    if center == 0:
        yield from weight_masks(m, k)
        return
    yield from sorted(center ^ mask for mask in weight_masks(m, k))


def krawtchouk(m: int, k: int, x: int) -> int:
    """Exact alternating-binomial sum K_k(x) for length m."""
    if not (0 <= k <= m and 0 <= x <= m):
        raise ValueError(f"krawtchouk arguments k={k}, x={x} outside [0, {m}]")
    return sum(
        (-1) ** j * math.comb(x, j) * math.comb(m - x, k - j)
        for j in range(k + 1)
    )


@lru_cache(maxsize=None)
def krawtchouk_table(m: int) -> tuple[tuple[int, ...], ...]:
    """The exact values K_k(x) for length m, as rows: kt[k][x]."""
    return tuple(
        tuple(krawtchouk(m, k, x) for x in range(m + 1)) for k in range(m + 1)
    )


# ---------------------------------------------------------------------------
# The pair-scan kernel.

def distance_profiles(
    verts: np.ndarray, arr: np.ndarray, m: int, keys=None, nkeys: int = 1
) -> np.ndarray:
    """Row r: the number of words of `arr` at each distance 0..m from verts[r].

    With `keys` (an int array giving each word of `arr` a key in
    [0, nkeys)), the counts are split by key as well: entry [k, r, d] of
    the (nkeys, len(verts), m+1) result counts the words with key k at
    distance d from verts[r].

    This is the one all-pairs kernel: every pair scan over a code, for
    distances between codewords or from vertices to a code, counts here.
    """
    shape = (len(verts), m + 1) if keys is None else (nkeys, len(verts), m + 1)
    d = np.bitwise_count(verts[:, None] ^ arr[None, :])
    index = d + np.arange(len(verts), dtype=np.intp)[:, None] * (m + 1)
    if keys is not None:
        index += np.asarray(keys, dtype=np.intp) * (len(verts) * (m + 1))
    return np.bincount(index.ravel(), minlength=math.prod(shape)).reshape(shape)
