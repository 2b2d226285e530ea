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
elementwise on a numpy array of words.  On one word `permute_bits` moves
one set bit at a time.  On an array it moves a source byte at a time: for each
run of 8 positions it takes the 256-entry table of where the bits of
each byte value land and ORs in one gather of that table, so a word of
m <= 24 bits takes at most 3 gathers instead of m shift-mask-or rounds.
Tables are kept per position tuple: `verify` reuses each about ten times.

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

# _BYTE_BITS[b, t] is bit t of the byte value b.
_BYTE_BITS = (np.arange(256, dtype=np.int64)[:, None] >> np.arange(8)) & 1


def check_length(m: int) -> None:
    if not 1 <= m <= MAX_LENGTH:
        raise ValueError(f"length must be in [1, {MAX_LENGTH}], got {m}")


def check_vertex(v: int, m: int) -> None:
    """Reject words with bits outside coordinates 1..m."""
    check_length(m)
    if v < 0 or v >> m:
        raise ValueError(f"vertex {v:#x} does not fit in {m} coordinates")


@lru_cache(maxsize=256)
def _byte_tables(positions: tuple[int, ...], dtype: np.dtype) -> tuple[np.ndarray, ...]:
    """Per run of 8 positions, where each byte value's bits land (read-only)."""
    tables = []
    for lo in range(0, len(positions), 8):
        chunk = np.asarray(positions[lo : lo + 8], dtype=np.int64)
        table = (_BYTE_BITS[:, : len(chunk)] @ (1 << chunk)).astype(dtype)
        table.flags.writeable = False
        tables.append(table)
    return tuple(tables)


def permute_bits(v, positions):
    """Move bit j of v to bit positions[j], for every j.

    v is an int or a numpy integer array (elementwise, keeping its dtype).
    Positions are distinct Python ints, since a numpy integer would promote
    the array's dtype.  They need not cover 0..m-1, so this also deposits
    the low len(positions) bits onto a subset; bits of v at
    j >= len(positions) are dropped.
    """
    if not isinstance(v, np.ndarray):
        out = 0
        bits = int(v) & ((1 << len(positions)) - 1)
        while bits:
            low = bits & -bits
            out |= 1 << positions[low.bit_length() - 1]
            bits ^= low
        return v & 0 | out
    tables = _byte_tables(tuple(positions), v.dtype)
    if not tables:
        return np.zeros_like(v)
    out = tables[0][v & 0xFF]
    for i in range(1, len(tables)):
        out |= tables[i][(v >> 8 * i) & 0xFF]
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


def parse_decimal(text: str, what: str) -> int:
    """`text` as an int if it is ASCII digits only (int() also takes '_', a
    sign, spaces and other digits); otherwise ValueError naming `what`."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"{what} must be ASCII digits, got {text!r}")
    return int(text)


def weight_vertices(m: int, k: int) -> np.ndarray:
    """The C(m, k) weight-k words of length m, ascending, as one uint32 array.

    Ascending order of the words is colex order of their supports, which
    the combinatorial number system ranks: word r has support
    c_k > ... > c_1, where r = C(c_k, k) + ... + C(c_1, 1) and each c_i is
    the largest c with C(c, i) at most the rank left.  All ranks are
    decoded at once, one support element per step, so no array is longer
    than C(m, k).
    """
    check_length(m)
    if not 0 <= k <= m:
        raise ValueError(f"weight {k} outside [0, {m}]")
    rank = np.arange(math.comb(m, k), dtype=np.int64)
    out = np.zeros(len(rank), dtype=np.uint32)
    for i in range(k, 0, -1):
        binom = np.array([math.comb(c, i) for c in range(m)], dtype=np.int64)
        c = np.searchsorted(binom, rank, side="right") - 1
        out |= (1 << c).astype(np.uint32)
        rank -= binom[c]
    return out


def sphere(center: int, k: int, m: int) -> Iterator[int]:
    """All words at distance exactly k from center, ascending by bit word.

    Yields binomial(m, k) distinct words.  The list is materialized
    internally so the output order is independent of the center.
    """
    check_vertex(center, m)
    if not 0 <= k <= m:
        raise ValueError(f"sphere radius {k} outside [0, {m}]")
    yield from np.sort(weight_vertices(m, k) ^ np.uint32(center)).tolist()


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
