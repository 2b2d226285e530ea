"""Construction of the binary codes under study.

The centerpiece is the coset construction of the Nordstrom-Robinson code
from the extended binary Golay code: split the 24 coordinates into the
first 8 (J*) and the last 16 (J), take the subcode D supported off J*
together with seven cosets pinned by their support pattern on J*, and
project the union onto J.  Everything downstream (distance spectra, group
computations) consumes the immutable Code objects built here.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .hamming import (
    check_length,
    check_vertex,
    distance_profiles,
    from_string,
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
    one runs no pair scan: the translation kernel K, the pair distance
    counts, the minimum distance read off them and the weight histogram
    are computed lazily on first read and shared by every later reader.
    The pair counts are taken over C/K, (|C|/|K|)*|C| word pairs.
    """

    __slots__ = ("m", "words", "size", "_member", "_hist", "_kernel", "_counts")

    def __init__(self, m: int, words):
        check_length(m)
        ordered = sorted(set(words))
        if not ordered:
            raise ValueError("a code must contain at least one word")
        if ordered[0] < 0 or ordered[-1] >> m:
            raise ValueError(f"code words do not fit in {m} coordinates")
        self.m = m
        self.words = tuple(ordered)
        self.size = len(self.words)
        self._member = frozenset(self.words)
        self._hist = None
        self._kernel = None
        self._counts = None

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        return iter(self.words)

    def __contains__(self, v: int) -> bool:
        return v in self._member

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Code)
            and self.m == other.m
            and self.words == other.words
        )

    def __hash__(self) -> int:
        return hash((self.m, self.words))

    def __repr__(self) -> str:
        return f"Code(m={self.m}, size={self.size})"

    def words_u32(self) -> np.ndarray:
        return np.asarray(self.words, dtype=np.uint32)

    @property
    def kernel(self) -> tuple[int, ...]:
        """Reduced echelon basis of the translation kernel (kernel_basis)."""
        if self._kernel is None:
            self._kernel = kernel_basis(self)
        return self._kernel

    @property
    def distance_counts(self) -> tuple[int, ...]:
        """Ordered pairs of words at each distance 0..m.

        The profile of a word is constant on its coset of K, so the summed
        profiles of the coset leaders times |K| count every pair.
        """
        if self._counts is None:
            m, arr = self.m, self.words_u32()
            reps = coset_leaders(self)
            counts = np.zeros(m + 1, dtype=np.int64)
            step = max(1, PAIR_BLOCK // self.size)
            for lo in range(0, len(reps), step):
                counts += distance_profiles(reps[lo : lo + step], arr, m).sum(axis=0)
            self._counts = tuple(int(c) << len(self.kernel) for c in counts)
        return self._counts

    @property
    def min_distance(self) -> int | None:
        """Least distance between two distinct words; None for one word."""
        if self.size < 2:
            return None
        return next(k for k, c in enumerate(self.distance_counts) if k and c)

    @property
    def weight_histogram(self) -> tuple[int, ...]:
        """Count of words per weight, indexed 0..m."""
        if self._hist is None:
            hist = [0] * (self.m + 1)
            for w in self.words:
                hist[w.bit_count()] += 1
            self._hist = tuple(hist)
        return self._hist

    def weight_class(self, k: int) -> tuple[int, ...]:
        """All words of weight k, canonical order."""
        return tuple(w for w in self.words if w.bit_count() == k)


# Pairwise scans over a code take blocks of about this many word pairs
# (512 KB of uint32 sums).  Blocks of 2^21 pairs (8 MB for the Golay code)
# stayed resident in the malloc heap after use: repeated `verify all`
# passes in one process peaked at 72 MB, against 47 MB with these blocks,
# which are no slower.
PAIR_BLOCK = 1 << 17


@dataclass(frozen=True)
class CodePredicates:
    is_linear: bool
    is_even: bool
    is_antipodal: bool


def code_predicates(code: Code) -> CodePredicates:
    """Closure under sum / even weights / closure under complement."""
    full = (1 << code.m) - 1
    is_antipodal = all((w ^ full) in code for w in code.words)
    is_even = all(w.bit_count() % 2 == 0 for w in code.words)
    return CodePredicates(
        is_linear=is_linear(code),
        is_even=is_even,
        is_antipodal=is_antipodal,
    )


def is_linear(code: Code) -> bool:
    """Contains zero and is closed under coordinatewise sum.

    A code containing zero is a union of cosets of its translation kernel
    K, which it contains; it is linear exactly when it is K.
    """
    return 0 in code and len(code) == 1 << len(code.kernel)


# Words whose translations screen the kernel candidates before any is
# confirmed against the whole code.
_KERNEL_PROBES = 8


def kernel_basis(code: Code) -> tuple[int, ...]:
    """Reduced echelon basis of the translation kernel {beta : C + beta = C}.

    Each pivot is the leading bit of its basis vector and appears in no
    other basis vector; the basis is sorted ascending.  The code need not
    contain the zero word.  Every kernel element is c + c0 for the least
    word c0 and some word c, so those are the candidates.  They are
    screened by a few probe words w (w + beta must be a word), kept
    reduced modulo the basis found so far, and confirmed in ascending
    order on all words; a candidate that fails adds the word it fails on
    as a probe, which removes every other candidate failing there.
    """
    arr = code.words_u32()
    n = len(arr)

    def members(x: np.ndarray) -> np.ndarray:
        pos = np.searchsorted(arr, x)
        pos[pos == n] = 0
        return arr[pos] == x

    cand = arr ^ arr[0]
    for w in arr[np.linspace(0, n - 1, min(n, _KERNEL_PROBES)).astype(np.intp)]:
        cand = cand[members(cand ^ w)]
    cand = np.unique(cand[cand != 0])
    basis: list[int] = []
    while len(cand):
        beta, cand = int(cand[0]), cand[1:]
        bad = ~members(arr ^ np.uint32(beta))
        if bad.any():
            cand = cand[members(cand ^ arr[int(np.argmax(bad))])]
            continue
        # beta is the least nonzero kernel vector that is zero on every
        # pivot so far, so its pivot is above them all and no earlier
        # basis vector has that bit: the basis stays reduced and ascending.
        basis.append(beta)
        cand = reduce_mod(cand, (beta,))
        cand = np.unique(cand[cand != 0])
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
    words = [0]
    for g in generators:
        check_vertex(g, m)
        words += [w ^ g for w in words]
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
    least_w8 = next(w for w in raw.words if w.bit_count() == 8)
    sup = [i for i in range(24) if (least_w8 >> i) & 1]
    order = sup + [i for i in range(24) if i not in sup]
    code = Code(24, unpermute_bits(raw.words_u32(), order).tolist())
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


_JSTAR_MASK = (1 << 8) - 1


@dataclass(frozen=True)
class CosetDecomposition:
    """The Golay code split along its first eight coordinates.

    D is the subcode supported off {1..8}; reps[i-1] is the least codeword
    whose support meets {1..8} exactly in {i, 8}; u_vectors[i] is the
    projection of the i-th coset onto {1..8} (u_0 = 0).
    """

    golay: Code
    D: Code
    reps: tuple[int, ...]
    u_vectors: tuple[int, ...]

    def cosets(self) -> list[tuple[int, ...]]:
        """Word lists of D = D^0, D^1, ..., D^7, canonical order each."""
        out = [self.D.words]
        for rep in self.reps:
            out.append(tuple(sorted(w ^ rep for w in self.D.words)))
        return out


def coset_decomposition(G: Code) -> CosetDecomposition:
    """Split a Golay code satisfying golay24()'s postconditions."""
    if G.m != 24:
        raise ValueError("decomposition requires a length-24 code")
    d_words = [w for w in G.words if w & _JSTAR_MASK == 0]
    D = Code(24, d_words)
    reps = []
    for i in range(1, 8):
        pattern = (1 << (i - 1)) | (1 << 7)
        rep = next((w for w in G.words if w & _JSTAR_MASK == pattern), None)
        if rep is None:
            raise ConstructionError(
                f"no codeword meets coordinates 1..8 exactly in {{{i}, 8}}"
            )
        reps.append(rep)
    u_vectors = (0,) + tuple((1 << (i - 1)) | (1 << 7) for i in range(1, 8))
    decomp = CosetDecomposition(golay=G, D=D, reps=tuple(reps), u_vectors=u_vectors)
    for i, coset in enumerate(decomp.cosets()):
        member = set(coset)
        filtered = [w for w in G.words if w & _JSTAR_MASK == u_vectors[i]]
        if sorted(filtered) != sorted(member):
            raise ConstructionError(f"coset {i} does not match its support filter")
    return decomp


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
    return Code(len(coords), words.tolist())


def puncture(code: Code, p: int) -> Code:
    """Delete coordinate p from every word."""
    if not 1 <= p <= code.m:
        raise ValueError(f"puncture coordinate {p} outside 1..{code.m}")
    return project(code, [i for i in range(1, code.m + 1) if i != p])


def translate(code: Code, beta: int) -> Code:
    """The coset {w + beta : w in C}, recanonicalized."""
    check_vertex(beta, code.m)
    return Code(code.m, [w ^ beta for w in code.words])


@lru_cache(maxsize=1)
def nordstrom_robinson() -> Code:
    """The (16,256,6) Nordstrom-Robinson code.

    Union of the eight pinned Golay cosets projected onto coordinates
    {9..24}.  Postconditions (size, distance, evenness, weight-6 count)
    are asserted before returning.
    """
    decomp = coset_decomposition(golay24())
    words = [w >> 8 for coset in decomp.cosets() for w in coset]
    nr = Code(16, words)
    if len(nr) != 256 or nr.min_distance != 6:
        raise ConstructionError("Nordstrom-Robinson postconditions failed")
    if any(w.bit_count() % 2 for w in nr.words):
        raise ConstructionError("Nordstrom-Robinson contains an odd-weight word")
    if nr.weight_histogram[6] != 112:
        raise ConstructionError("Nordstrom-Robinson weight-6 count is not 112")
    return nr


@lru_cache(maxsize=1)
def reed_muller_subcode() -> Code:
    """The linear [16,5,8] subcode: projection of D onto {9..24}."""
    decomp = coset_decomposition(golay24())
    rm = Code(16, [w >> 8 for w in decomp.D.words])
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
            p = int(name[3:])
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
    text = Path(path).read_text(encoding="utf-8")
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("m="):
        raise CodeFileError("first line must be 'm=<length>'")
    digits = lines[0][2:]
    try:
        # int() alone would also accept '_', '+', whitespace and other digits
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"length must be ASCII digits, got {digits!r}")
        m = int(digits)
        check_length(m)
    except ValueError as exc:
        raise CodeFileError(f"bad length header: {exc}") from exc
    words = []
    for ln in lines[1:]:
        if len(ln) != m:
            raise CodeFileError(f"word {ln!r} does not have length {m}")
        try:
            w, _ = from_string(ln)
        except ValueError as exc:
            raise CodeFileError(str(exc)) from exc
        words.append(w)
    if not words:
        raise CodeFileError("code file contains no words")
    return Code(m, words)
