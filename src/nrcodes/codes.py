"""Construction of the binary codes under study.

The centerpiece is the construction of the Nordstrom-Robinson code from
the extended binary Golay code: split the 24 coordinates into the first 8
(J*) and the last 16 (J), keep the Golay words whose support meets J* in
none of it or in {i, 8} for some i = 1..7, and project them onto J.  The
words with the empty pattern form the linear subcode D, whose projection
is the [16,5,8] Reed-Muller kernel subcode; each other pattern holds a
coset of D.  Everything downstream (distance spectra, group
computations) consumes the immutable Code objects built here.
"""

from __future__ import annotations

import operator
from functools import cached_property, lru_cache
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .hamming import (
    check_length,
    check_vertex,
    distance_profiles,
    from_string,
    parse_decimal,
    to_string,
    unpermute_bits,
)


class ConstructionError(RuntimeError):
    """A deterministic construction step failed its own postcondition."""


class CodeFileError(ValueError):
    """Malformed code file."""


class Code:
    """Immutable, deduplicated, canonically ordered set of equal-length words.

    Canonical order is ascending integer value of the bit word.  Building
    one stores only the words, from any list, tuple, range, generator or
    integer array, as one ascending read-only uint32 array (words_u32);
    `in` and `isin` search it.  The tuple of ints (words), the translation
    kernel K, the pair distance counts and the weight histogram are read
    off it on first use and cached; no pair scan runs before.  The pair counts
    are taken over C/K, (|C|/|K|)*|C| word pairs.
    """

    def __init__(self, m: int, words):
        check_length(m)
        arr = words if isinstance(words, np.ndarray) else np.array(list(words))
        if not arr.size:
            raise ValueError("a code must contain at least one word")
        if arr.dtype.kind not in "iu" or arr.min() < 0 or int(arr.max()) >> m:
            raise ValueError(f"code words do not fit in {m} coordinates")
        arr = _sorted_unique(arr.astype(np.uint32, copy=False))
        arr.flags.writeable = False
        self.m = m
        self.size = len(arr)
        self._arr = arr

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        return iter(self.words)

    def __contains__(self, v: int) -> bool:
        return 0 <= v < 1 << self.m and bool(self.isin(v))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Code)
            and self.m == other.m
            and np.array_equal(self._arr, other._arr)
        )

    def __hash__(self) -> int:
        return hash((self.m, self._arr.tobytes()))

    def __repr__(self) -> str:
        return f"Code(m={self.m}, size={self.size})"

    def words_u32(self) -> np.ndarray:
        """The words as one ascending, read-only uint32 array: the code itself."""
        return self._arr

    def isin(self, x):
        """Is x a word, elementwise for a uint32 array?  By binary search."""
        arr = self._arr
        return arr[np.minimum(np.searchsorted(arr, x), self.size - 1)] == x

    @cached_property
    def words(self) -> tuple[int, ...]:
        """The words as Python ints, ascending."""
        return tuple(self._arr.tolist())

    @cached_property
    def kernel(self) -> tuple[int, ...]:
        """Reduced echelon basis of the translation kernel (kernel_basis)."""
        return kernel_basis(self)

    @cached_property
    def distance_counts(self) -> tuple[int, ...]:
        """Ordered pairs of words at each distance 0..m.

        The profile of a word is constant on its coset of K, so the summed
        profiles of the coset leaders times |K| count every pair.
        """
        m, arr = self.m, self._arr
        reps = coset_leaders(self)
        counts = np.zeros(m + 1, dtype=np.int64)
        step = max(1, PAIR_BLOCK // self.size)
        for lo in range(0, len(reps), step):
            counts += distance_profiles(reps[lo : lo + step], arr, m).sum(axis=0)
        return tuple(int(c) << len(self.kernel) for c in counts)

    @property
    def min_distance(self) -> int | None:
        """Least distance between two distinct words; None for one word."""
        if self.size < 2:
            return None
        return next(k for k, c in enumerate(self.distance_counts) if k and c)

    @cached_property
    def weight_histogram(self) -> tuple[int, ...]:
        """Count of words per weight, indexed 0..m."""
        weights = np.bitwise_count(self._arr)
        return tuple(np.bincount(weights, minlength=self.m + 1).tolist())

    def weight_class(self, k: int) -> np.ndarray:
        """All words of weight k, ascending, as uint32."""
        return self._arr[np.bitwise_count(self._arr) == k]


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-d array, ascending, in a new array.

    One sort: NumPy 2.4's np.unique hashes the integers and sorts after,
    0.37 ms against 0.017 ms on 4096 uint32 words (2-core VM).
    """
    a = np.sort(a)
    keep = np.ones(len(a), dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


# Pairwise scans over a code take blocks of about this many word pairs
# (128 KB of uint32 sums).  Blocks of 2^21 pairs stayed resident in the
# malloc heap after use (repeated `verify all` passes peaked at 72 MB, 47 MB
# with 2^17); at 2^17 the Golay code's regularity block and transforms took
# 2.3 MB, the largest transient of a pass, and at 2^15 they take 0.9 MB.
PAIR_BLOCK = 1 << 15


class CodePredicates(NamedTuple):
    is_linear: bool
    is_even: bool
    is_antipodal: bool


def code_predicates(code: Code) -> CodePredicates:
    """Closure under sum / even weights / closure under complement.

    Evenness reads the odd entries of the weight histogram.  Complementing
    reverses ascending order, so the code is closed under complement
    exactly when its complemented words, read in descending order, are its
    words in ascending order.
    """
    arr = code.words_u32()
    full = np.uint32((1 << code.m) - 1)
    return CodePredicates(
        is_linear=is_linear(code),
        is_even=not any(code.weight_histogram[1::2]),
        is_antipodal=np.array_equal(arr[::-1] ^ full, arr),
    )


def is_linear(code: Code) -> bool:
    """Contains zero and is closed under coordinatewise sum.

    A code containing zero is a union of cosets of its translation kernel
    K, which it contains; it is linear exactly when it is K.
    """
    return not code.words_u32()[0] and len(code) == 1 << len(code.kernel)


def kernel_basis(code: Code) -> tuple[int, ...]:
    """Reduced echelon basis of the translation kernel {beta : C + beta = C}.

    Each pivot is the leading bit of its basis vector and appears in no
    other basis vector; the basis is sorted ascending.  The code need not
    contain the zero word.  Every kernel element is c + c0 for the least
    word c0 and some word c, so the nonzero ones are the candidates.  They
    are kept reduced modulo the basis found so far and confirmed in
    ascending order on all words: C + beta = C exactly when the sorted
    array of the translated words equals the code's.  The only screen is
    adaptive: a candidate that fails adds the first word w it fails on as
    a probe, which removes every other candidate beta' with w + beta' not
    a word.
    """
    arr = code.words_u32()
    cand = arr ^ arr[0]
    cand = _sorted_unique(cand[cand != 0])
    basis: list[int] = []
    while len(cand):
        beta, cand = int(cand[0]), cand[1:]
        moved = arr ^ np.uint32(beta)
        if not np.array_equal(np.sort(moved), arr):
            cand = cand[code.isin(cand ^ arr[np.argmin(code.isin(moved))])]
            continue
        # beta is the least nonzero kernel vector that is zero on every
        # pivot so far, so its pivot is above them all and no earlier
        # basis vector has that bit: the basis stays reduced and ascending.
        basis.append(beta)
        cand = reduce_mod(cand, (beta,))
        cand = _sorted_unique(cand[cand != 0])
    return tuple(basis)


# ---------------------------------------------------------------------------
# Arithmetic modulo a subspace given by a reduced echelon basis: the pivot of
# a basis vector is its leading bit, and no other basis vector has that bit.

def reduce_mod(v, basis):
    """The least element of v + span(basis): v with every pivot cleared.

    v is an int or a uint32 array (elementwise).  Adding a basis vector
    changes no other pivot, so the pivots may be cleared in any order; the
    result is zero on every pivot, and the leading bit of any nonzero span
    element is a pivot, so adding one gives a larger vector.
    """
    for b in basis:
        v = v ^ (((v >> (b.bit_length() - 1)) & 1) * b)
    return v


def free_coordinates(basis, m: int) -> list[int]:
    """The coordinates 0..m-1 that are no pivot of the basis, ascending.

    The least elements of the cosets of span(basis) are exactly the
    vectors supported on them, so permute_bits(i, free) for i in
    0..2^f-1 lists those minima in ascending order.
    """
    pivots = {b.bit_length() - 1 for b in basis}
    return [q for q in range(m) if q not in pivots]


def coset_leaders(code: Code) -> np.ndarray:
    """The least word of each coset of the translation kernel K in C.

    These are the words that reduce_mod leaves unchanged.  Returned
    ascending, as uint32.
    """
    arr = code.words_u32()
    return arr[reduce_mod(arr, code.kernel) == arr]


def span(generators, m: int) -> Code:
    """Code spanned by the given generator words."""
    words = np.zeros(1, dtype=np.uint32)
    for g in generators:
        check_vertex(g, m)
        words = np.concatenate((words, words ^ np.uint32(g)))
    return Code(m, words)


# ---------------------------------------------------------------------------
# Extended binary Golay code.

# 12x12 block adjoined to the identity: an 11x11 circulant over the
# quadratic residues mod 11 (plus 0), bordered by an all-ones row/column
# with a zero corner.
_CIRC = {0, 1, 3, 4, 5, 9}


def _golay_block_rows() -> list[int]:
    rows = []
    for i in range(11):
        row = sum(1 << j for j in range(11) if (i + j) % 11 in _CIRC)
        rows.append(row | (1 << 11))
    rows.append((1 << 11) - 1)
    return rows


@lru_cache(maxsize=1)
def golay24() -> Code:
    """The [24,12,8] extended binary Golay code containing (1^8, 0^16).

    Built as the span of [I | B] for the classic bordered-circulant block
    B, then relabeled by the coordinate permutation that moves the support
    of the least weight-8 codeword to coordinates {1..8}.  The weight
    enumerator and minimum distance are verified before returning.
    """
    block = _golay_block_rows()
    gens = [(1 << i) | (block[i] << 12) for i in range(12)]
    raw = span(gens, 24)
    if len(raw) != 4096:
        raise ConstructionError("Golay span does not have 2^12 words")
    # new coordinate t takes old coordinate order[t]: the support of the
    # least weight-8 word first, then the rest, each in its old order
    least_w8 = int(raw.weight_class(8)[0])
    sup = [i for i in range(24) if (least_w8 >> i) & 1]
    order = sup + [i for i in range(24) if i not in sup]
    code = Code(24, unpermute_bits(raw.words_u32(), order))
    gamma = (1 << 8) - 1
    if gamma not in code:
        raise ConstructionError("relocation lost the (1^8, 0^16) codeword")
    if code.min_distance != 8:
        raise ConstructionError(f"Golay minimum distance {code.min_distance} != 8")
    hist = code.weight_histogram
    expected = {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}
    for k, n in enumerate(hist):
        if n != expected.get(k, 0):
            raise ConstructionError(f"Golay weight enumerator wrong at weight {k}")
    return code


# The Golay words kept for NR, by their support pattern on coordinates 1..8
# (bits 0..7): none, or {i, 8} for i = 1..7.  Pattern 0 alone keeps D.
_NR_PATTERNS = frozenset([0] + [(1 << (i - 1)) | (1 << 7) for i in range(1, 8)])


def _pinned_projection(patterns) -> Code:
    """The Golay words whose support meets coordinates 1..8 in one of the
    given patterns, projected onto coordinates 9..24.

    w -> w & 0xFF is linear on the Golay code G, so each pattern holds no
    word or a coset of its kernel D (32 words).  Two kept words with one
    projection differ by a word of G supported on 1..8 whose pattern has
    weight 0 or 2, and G has no nonzero word of weight below 8; so the
    projection is injective, and the code has 32 words per pattern that
    occurs.  Raises ConstructionError if no pattern occurs.
    """
    arr = golay24().words_u32()
    words = arr[np.isin(arr & 0xFF, list(patterns))] >> 8
    if not len(words):
        raise ConstructionError("no Golay word has a pinned pattern on coordinates 1..8")
    return Code(16, words)


def project(code: Code, coords) -> Code:
    """Projection onto the given ordered 1-indexed coordinate subset."""
    coords = tuple(map(operator.index, coords))
    if not coords:
        raise ValueError("projection coordinate set must be nonempty")
    if any(not 1 <= i <= code.m for i in coords):
        raise ValueError(f"projection coordinates outside 1..{code.m}")
    if len(set(coords)) != len(coords):
        raise ValueError("projection coordinates must be distinct")
    words = unpermute_bits(code.words_u32(), [i - 1 for i in coords])
    return Code(len(coords), words)


def puncture(code: Code, p: int) -> Code:
    """Delete coordinate p from every word."""
    if not 1 <= p <= code.m:
        raise ValueError(f"puncture coordinate {p} outside 1..{code.m}")
    return project(code, [i for i in range(1, code.m + 1) if i != p])


def translate(code: Code, beta: int) -> Code:
    """The coset {w + beta : w in C}, recanonicalized."""
    check_vertex(beta, code.m)
    return Code(code.m, code.words_u32() ^ np.uint32(beta))


@lru_cache(maxsize=1)
def nordstrom_robinson() -> Code:
    """The (16,256,6) Nordstrom-Robinson code.

    The Golay words whose support meets coordinates 1..8 in none of them
    or in {i, 8}, i = 1..7, projected onto coordinates 9..24.
    Postconditions (size, distance, evenness, weight-6 count) are asserted
    before returning; the size fails if a pattern holds no Golay word.
    """
    nr = _pinned_projection(_NR_PATTERNS)
    if len(nr) != 256 or nr.min_distance != 6:
        raise ConstructionError("Nordstrom-Robinson postconditions failed")
    if any(nr.weight_histogram[1::2]):
        raise ConstructionError("Nordstrom-Robinson contains an odd-weight word")
    if nr.weight_histogram[6] != 112:
        raise ConstructionError("Nordstrom-Robinson weight-6 count is not 112")
    return nr


@lru_cache(maxsize=1)
def reed_muller_subcode() -> Code:
    """The linear [16,5,8] subcode: the Golay words supported off
    coordinates 1..8 (the subcode D), projected onto 9..24."""
    rm = _pinned_projection({0})
    if len(rm) != 32 or rm.min_distance != 8 or not is_linear(rm):
        raise ConstructionError("Reed-Muller subcode postconditions failed")
    return rm


def punctured_nr(p: int = 1) -> Code:
    """The (15,256,5) code obtained by deleting coordinate p."""
    return puncture(nordstrom_robinson(), p)


# The codes the command line and the claim manifest know by name.
_NAMED_CODES = {
    "golay24": golay24,
    "reed_muller": reed_muller_subcode,
    "nr": nordstrom_robinson,
    "pn": punctured_nr,
}


def named_code(name: str) -> Code:
    """golay24, reed_muller, nr, pn, or pn@<p> (NR punctured at p in 1..16).

    Raises KeyError for any other name.
    """
    if name in _NAMED_CODES:
        return _NAMED_CODES[name]()
    if name.startswith("pn@"):
        try:
            p = parse_decimal(name[3:], "puncture position")
        except ValueError:
            raise KeyError(name) from None
        if 1 <= p <= 16:
            return punctured_nr(p)
    raise KeyError(name)


# ---------------------------------------------------------------------------
# Code file format: first line "m=<length>", one word per line.

def write_code(code: Code, path) -> None:
    lines = [f"m={code.m}"] + [to_string(w, code.m) for w in code.words]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_code(path) -> Code:
    """Read a code file: the header "m=<length>", the length in ASCII
    digits, then one word per line, a '0' or '1' per coordinate with
    coordinate 1 leftmost.

    Blank lines and whitespace around a line are skipped; words may come
    in any order and repeat.  The body is checked and converted as one
    array.  Only if that check fails are the word lines walked in order:
    the error names the first bad one, by its length before its
    characters.
    """
    try:
        m, words = _parse_code_text(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise CodeFileError(f"code file is not UTF-8 text: {exc}") from exc
    return Code(m, words)


def _parse_code_text(text: str) -> tuple[int, np.ndarray]:
    """The length and the words, as uint32, of a code file's text.

    The words are a uint32 view of the packed bytes, in file order, freed
    once Code() has sorted them into its own array; the lines, the text
    and the bit matrix are freed on return.
    """
    lines = list(filter(None, map(str.strip, text.splitlines())))
    if not lines or not lines[0].startswith("m="):
        raise CodeFileError("first line must be 'm=<length>'")
    try:
        m = parse_decimal(lines[0][2:], "length")
        check_length(m)
    except ValueError as exc:
        raise CodeFileError(f"bad length header: {exc}") from exc
    rows = lines[1:]
    if not rows:
        raise CodeFileError("code file contains no words")
    body = "".join(rows).encode("utf-8")
    if set(map(len, rows)) != {m} or body.translate(None, b"01"):
        for ln in rows:
            if len(ln) != m:
                raise CodeFileError(f"word {ln!r} does not have length {m}")
            try:
                from_string(ln)
            except ValueError as exc:
                raise CodeFileError(str(exc)) from exc
    # character t of a row is bit t of its word: pack each row's bits
    # little-endian into the low bytes of a uint32
    bits = np.frombuffer(body, dtype=np.uint8).reshape(len(rows), m) & 1
    packed = np.zeros((len(rows), 4), dtype=np.uint8)
    packed[:, : (m + 7) // 8] = np.packbits(bits, axis=1, bitorder="little")
    return m, packed.view("<u4").ravel()
