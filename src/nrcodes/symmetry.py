"""Hamming-graph automorphisms: search, group order, orbits, transitivity.

An automorphism of the Hamming graph on m coordinates is a translation
followed by a coordinate permutation.  One backtrack search answers every
question here: is there a coordinate permutation, respecting a partition
of the coordinates, that maps one code onto another?  It works by
individualization and refinement.  One partition of the coordinates and
codewords of both codes is refined to a fixed point; a coordinate of
the smallest open colour is then paired with each candidate image in
turn, and every branch whose two sides stop matching is cut at once.

The full stabilizer of a code is built as one stabilizer chain, with the
coordinates 0, 1, ... as its base and the zero word on top.  Every level
follows one rule, bottom-up: a candidate image is searched only if the
generators found so far do not already reach it.  On the coordinates,
the orbit they reach is a row of their Sims table (Knuth, `PermGroup`),
which grows with each generator found; on the cosets of the translation
kernel it is `_coset_labels`.  As every candidate outside the current
orbit is searched, every orbit is complete: the permutation stabilizer's
order is the product of the table's rows, at most the product of the
cells that refinement leaves k at each level, and the top level's
generators generate the full stabilizer.  The module also counts the
orbits of a permutation group on a weight sphere, and certifies complete
transitivity: each orbit on the cosets of the group's translations lies
in one distance cell, which is one orbit when it holds one orbit minimum.

A code punctured at coordinate 0 needs no stabilizer walk of its own once
its even-weight (parity) extension has been walked; PN, NR punctured at
coordinate 1, is such a code.  An automorphism of the extension that fixes
coordinate 0 commutes with dropping bit 0, so it restricts to one of the
punctured code.  Conversely a coordinate permutation of the punctured
code, extended by fixing coordinate 0, keeps every parity bit.  So the
punctured code's permutation stabilizer is the stabilizer of coordinate 0
in the extension's, which rows 1.. of the extension's Sims table hold
(`punctured_perm_group`).  The extension's movers, times row-0 elements
that bring coordinate 0 back, restrict to automorphisms of the punctured
code (`punctured_candidates`).  Generator assembly takes them as
candidates and searches only where they leave a gap: for PN, nowhere.

Each stabilizer enumeration and each generator assembly has one node
budget (NRCODES_BUDGET or 10^8 by default), shared by all of its searches;
one node is one candidate image tried for a coordinate.  Exceeding the
budget raises, never returns a partial answer.
"""

from __future__ import annotations

import copy
import math
import operator
import os
import types
from dataclasses import dataclass

import numpy as np

from .codes import PAIR_BLOCK, Code, coset_leaders, free_coordinates, reduce_mod
from .hamming import (
    check_vertex,
    distance_profiles,
    parse_decimal,
    permute_bits,
    to_string,
    unpermute_bits,
    weight_vertices,
)

DEFAULT_BUDGET = 10**8
_BUDGET_ENV = "NRCODES_BUDGET"


class SearchBudgetExceeded(RuntimeError):
    """A backtrack search ran past its node limit."""


def parse_budget(text: str, name: str = _BUDGET_ENV) -> int:
    """A node budget written as text; ValueError naming `name` unless it is
    a non-negative integer in ASCII digits (`parse_decimal`)."""
    try:
        return parse_decimal(text, name)
    except ValueError:
        raise ValueError(f"{name} must be a non-negative integer, got {text!r}") from None


class _Budget:
    __slots__ = ("limit", "used")

    def __init__(self, limit: int | None):
        if limit is None:
            limit = parse_budget(os.environ.get(_BUDGET_ENV, str(DEFAULT_BUDGET)))
        elif limit < 0:
            raise ValueError(f"node budget must be non-negative, got {limit}")
        self.limit = limit
        self.used = 0

    def charge(self) -> None:
        self.used += 1
        if self.used > self.limit:
            raise SearchBudgetExceeded(
                f"search exceeded its node budget of {self.limit}"
            )


# ---------------------------------------------------------------------------
# Permutations in one-line notation: p[i] is the image of point i (0-based).

def _perm_identity(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def _perm_mult(p, q) -> tuple[int, ...]:
    """Apply p, then q."""
    return tuple(map(q.__getitem__, p))


def _perm_inv(p) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def _check_perm(p, n: int) -> tuple[int, ...]:
    # plain ints: numpy integer images would promote the dtype of a word
    # array shifted by them
    p = tuple(map(operator.index, p))
    if sorted(p) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {p}")
    return p


@dataclass(frozen=True)
class AutElement:
    """Translation-then-permutation automorphism of the Hamming graph.

    Acts on a vertex as permute(v + beta); composition is left-to-right,
    so act(x * y, v) == act(y, act(x, v)).
    """

    m: int
    beta: int
    sigma: tuple[int, ...]

    def __post_init__(self):
        check_vertex(self.beta, self.m)
        object.__setattr__(self, "sigma", _check_perm(self.sigma, self.m))

    @classmethod
    def translation(cls, m: int, beta: int) -> "AutElement":
        return cls(m, beta, _perm_identity(m))

    @classmethod
    def permutation(cls, m: int, sigma) -> "AutElement":
        return cls(m, 0, tuple(sigma))

    def act(self, v: int) -> int:
        if v >> self.m or v < 0:
            raise ValueError(f"vertex {v:#x} does not fit in {self.m} coordinates")
        return permute_bits(v ^ self.beta, self.sigma)

    def __mul__(self, other: "AutElement") -> "AutElement":
        if self.m != other.m:
            raise ValueError("cannot compose elements of different lengths")
        beta = self.beta ^ unpermute_bits(other.beta, self.sigma)
        return AutElement(self.m, beta, _perm_mult(self.sigma, other.sigma))

    def inverse(self) -> "AutElement":
        return AutElement(
            self.m, permute_bits(self.beta, self.sigma), _perm_inv(self.sigma)
        )


def maps_onto(x: AutElement, code_a: Code, code_b: Code) -> bool:
    """Does x map the words of code_a onto those of code_b?

    maps_onto(x, code, code) says whether x stabilizes the code.
    """
    if x.m != code_a.m or x.m != code_b.m:
        raise ValueError("element and code lengths differ")
    image = np.sort(permute_bits(code_a.words_u32() ^ x.beta, x.sigma))
    return np.array_equal(image, code_b.words_u32())


# ---------------------------------------------------------------------------
# Automorphism file format: one element per line,
# "beta=<0/1 string> sigma=<space-separated images of 1..m>".

def format_aut_element(x: AutElement) -> str:
    images = " ".join(str(x.sigma[j] + 1) for j in range(x.m))
    return f"beta={to_string(x.beta, x.m)} sigma={images}"


# ---------------------------------------------------------------------------
# Permutation groups as Sims tables.

class PermGroup:
    """Permutation group given by generators, held as a Sims table.

    Knuth, "Efficient representation of perm groups" (Combinatorica 11,
    1991), over the base 0, 1, ..., degree - 1: row k maps each point j of
    the orbit of k under the stabilizer of 0..k-1 to an element that fixes
    0..k-1 and sends k to j.  Every element of the group is, in exactly one
    way, a product of one element of each row, so the order is the product
    of the row lengths.  The table is built when the group is made, by
    Knuth's `add` with one generator at a time, and `extended` continues a
    copy of it.
    """

    def __init__(self, degree: int, generators=()):
        identity = _perm_identity(degree)
        self.degree = degree
        self.generators: tuple[tuple[int, ...], ...] = ()
        # the rows, the inverse of each row element, the generators of each level
        self._reps = [{k: identity} for k in range(degree)]
        self._invs = [{k: identity} for k in range(degree)]
        self._gens: list[list[tuple[int, ...]]] = [[] for _ in range(degree)]
        self._add(generators)

    def extended(self, generators) -> "PermGroup":
        """The group generated by this group's generators and `generators`.

        Its table continues a copy of this one with the new generators; it
        is the table that a fresh build from all the generators gives.
        """
        group = copy.copy(self)
        group._reps = [dict(row) for row in self._reps]
        group._invs = [dict(row) for row in self._invs]
        group._gens = [list(level) for level in self._gens]
        group._add(generators)
        return group

    def order(self) -> int:
        return math.prod(map(len, self._reps))

    def row(self, k: int) -> types.MappingProxyType:
        """Row k of the Sims table, read-only: for each point j of the orbit
        of k under the stabilizer of 0..k-1, a group element that fixes
        0..k-1 and sends k to j."""
        return types.MappingProxyType(self._reps[k])

    def _add(self, generators) -> None:
        """Knuth's add(g, 0) for each generator g in turn.

        add(g, k): g joins the generators of level k unless rows k..
        already hold it; extend(h, k) then enters each product h of a row-k
        element and a level-k generator in row k, or passes its residue
        modulo row k on to add(., k + 1).
        """
        generators = tuple(_check_perm(g, self.degree) for g in generators)
        self.generators += generators
        reps, invs, gens = self._reps, self._invs, self._gens
        n = self.degree

        def sifts(g, k: int) -> bool:
            # is g, which fixes 0..k-1, a product of elements of rows k..?
            for i in range(k, n):
                if g[i] == i:
                    continue  # row i maps i to the identity
                inv = invs[i].get(g[i])
                if inv is None:
                    return False
                g = _perm_mult(g, inv)
            return True

        todo = [(g, 0) for g in reversed(generators)]
        while todo:
            g, k = todo.pop()
            if sifts(g, k):
                continue
            gens[k].append(g)
            orbit = [_perm_mult(rep, g) for rep in reps[k].values()]
            while orbit:
                h = orbit.pop()
                inv = invs[k].get(h[k])
                if inv is not None:
                    todo.append((_perm_mult(h, inv), k + 1))
                else:
                    reps[k][h[k]] = h
                    invs[k][h[k]] = _perm_inv(h)
                    orbit.extend(_perm_mult(h, s) for s in gens[k])


# ---------------------------------------------------------------------------
# Partition refinement of two codes' coordinates and codewords.

class _Incidence:
    """The ones of two codes' codeword-by-coordinate 0/1 matrices.

    The two codes sit side by side: the n words and m coordinates of code
    a are numbered 0..n-1 and 0..m-1, those of code b n..2n-1 and m..2m-1.
    """

    __slots__ = ("rows", "cols")

    def __init__(self, words_a, words_b, m: int):
        arr = np.concatenate(
            (np.asarray(words_a, dtype=np.int64), np.asarray(words_b, dtype=np.int64))
        )
        self.rows, cols = np.nonzero((arr[:, None] >> np.arange(m)) & 1)
        self.cols = cols + m * (self.rows >= len(words_a))


def _ranks(first: np.ndarray, counts: np.ndarray):
    """Dense ranks of the key rows, or None if the two codes' ranks differ.

    Row i's key is (first[i], *counts[i]), non-negative integers below
    2^63.  Rows are ranked 0, 1, ... in lexicographic order of their
    keys, so a `first` holding the previous colour makes the new partition
    refine the old one.  How the rows are ordered depends on the key's
    width:
    - one count column (the word step: 2n rows, one packed key): one
      `np.lexsort`, `first` primary; each sorted row that differs from
      the one before it starts a new rank, numbered by a cumulative sum;
    - more (the colour step: 2m <= 32 rows, up to 2n + 1 keys): Python
      sorts the distinct rows by their big-endian 8-byte encodings.  The
      keys are non-negative, so the byte order of two encodings is the
      lexicographic order of their keys.
    Either way the ranks, and so the partitions, branch order and node
    counts, are the same.  The first half of the rows belongs to code a
    and the second to code b; None means that the two halves' rank
    multisets differ.
    """
    if counts.shape[1] > 1:
        keys = np.column_stack((first, counts)).astype(">i8").tobytes()
        width = 8 * (counts.shape[1] + 1)
        rows = [keys[i : i + width] for i in range(0, len(keys), width)]
        rank = {row: r for r, row in enumerate(sorted(set(rows)))}
        ranks = np.array([rank[row] for row in rows], dtype=np.int64)
    else:
        order = np.lexsort((*counts.T, first))
        first, counts = first[order], counts[order]
        starts = np.ones(len(order), dtype=bool)
        starts[1:] = (first[1:] != first[:-1]) | (counts[1:] != counts[:-1]).any(axis=1)
        ranks = np.empty_like(order)
        ranks[order] = np.cumsum(starts) - 1
    half = len(ranks) // 2
    if not np.array_equal(np.sort(ranks[:half]), np.sort(ranks[half:])):
        return None
    return ranks


def _refine(inc: _Incidence, colors, cells):
    """Refine a partition of two codes' coordinates and words to its fixed point.

    `colors` holds the colours of the 2m coordinates and `cells` the cells
    of the 2n codewords, numbered as in `inc`.  A word's new cell is keyed
    by its cell and its number of ones in each coordinate colour; a
    coordinate's new colour by its colour and its number of ones in each
    word cell.  Ranks are shared by both codes, so a permutation mapping
    code a onto code b and respecting the input partition maps each colour
    and cell of a onto the same one of b.  Returns the refined
    (colors, cells), or None as soon as the two codes' colour or cell
    multisets differ.

    The word step packs a word's counts into one mixed-radix key,
    sum over c of count_c * place[c] with place[c] the product of
    s_c' + 1 over the colours c' > c, s_c being the number of colour-c
    coordinates of code a.  When the two sides hold equally many
    coordinates of each colour, a word has at most s_c ones of colour c,
    so the keys order the words as their count vectors do and the ranks
    are those of the count matrix.  The colours come from the input or
    from a `_ranks` call that has checked this balance; if the input is
    unbalanced, the colour step returns None whatever the word keys were,
    since its keys start with the input colours.  Every key is below the
    product of all s_c + 1, which is at most 2^m <= 2^24 (s + 1 <= 2^s,
    and m is at most MAX_LENGTH), so the float64 sums of `np.bincount`
    are exact integers.
    """
    m = len(colors) // 2
    n_colors = len(np.unique(colors))
    while True:
        sizes = np.bincount(colors[:m], minlength=int(colors.max()) + 1)
        place = np.ones(len(sizes))
        place[:-1] = np.cumprod(sizes[:0:-1] + 1)[::-1]
        packed = np.bincount(inc.rows, weights=place[colors[inc.cols]], minlength=len(cells))
        cells = _ranks(cells, packed[:, None])
        if cells is None:
            return None
        w = int(cells.max()) + 1
        counts = np.bincount(inc.cols * w + cells[inc.rows], minlength=len(colors) * w)
        colors = _ranks(colors, counts.reshape(-1, w))
        if colors is None:
            return None
        # Word cells are a function of the colours, so stable colours mean
        # the whole partition is stable.
        refined = int(colors.max()) + 1
        if refined == n_colors:
            return colors, cells
        n_colors = refined


# ---------------------------------------------------------------------------
# Backtrack search for a coordinate permutation mapping one code to another.

def _individualize(colors: np.ndarray, i: int, p: int) -> np.ndarray:
    """Coordinate i of code a and p of code b moved into a colour of their
    own; unbalanced, so `_refine` rejects it, unless they shared one."""
    m = len(colors) // 2
    single = 2 * colors
    single[i] += 1
    single[m + p] += 1
    return single


def _extend(inc: _Incidence, source, target, node, budget: _Budget):
    """A permutation within the refined partition `node` (colors, cells)
    mapping the words `source` onto the sorted words `target`, or None.

    Takes the least coordinate i of code a in the smallest non-singleton
    colour and tries each coordinate p of code b of that colour as its
    image, in ascending order, refining `_individualize(colors, i, p)`;
    each image tried charges one node to the budget.  Once every colour
    holds one coordinate per side the permutation is fixed, and it is
    accepted only if it maps source exactly onto target.
    """
    colors, cells = node
    m = len(colors) // 2
    sizes = np.bincount(colors[:m])
    if sizes.max() == 1:
        coord_b = np.empty(len(sizes), dtype=np.int64)
        coord_b[colors[m:]] = np.arange(m)
        sigma = tuple(coord_b[colors[:m]].tolist())
        image = np.sort(permute_bits(source, sigma))
        return sigma if np.array_equal(image, target) else None
    open_colors = np.flatnonzero(sizes > 1)
    color = open_colors[np.argmin(sizes[open_colors])]
    i = int(np.flatnonzero(colors[:m] == color)[0])
    for p in np.flatnonzero(colors[m:] == color).tolist():
        budget.charge()
        child = _refine(inc, _individualize(colors, i, p), cells)
        if child is not None:
            sigma = _extend(inc, source, target, child, budget)
            if sigma is not None:
                return sigma
    return None


def _search_permutation(words_a, words_b, m: int, budget: _Budget) -> tuple[int, ...] | None:
    """Some coordinate permutation with words_a^sigma == words_b, or None.

    Individualize and refine (McKay & Piperno, "Practical graph
    isomorphism II", 2014; Leon, "Permutation group algorithms based on
    partitions I", 1991).  The search keeps one partition of the
    coordinates and the codewords of both codes, refines it from the unit
    partition with `_refine`, and descends the search tree with `_extend`.
    """
    if len(words_a) != len(words_b):
        return None
    inc = _Incidence(words_a, words_b, m)
    root = _refine(inc, np.zeros(2 * m, np.int64), np.zeros(2 * len(words_a), np.int64))
    source = np.asarray(words_a, dtype=np.int64)
    target = np.sort(np.asarray(words_b, dtype=np.int64))
    return None if root is None else _extend(inc, source, target, root, budget)


def enumerate_perm_automorphisms(code: Code, budget: int | None = None) -> PermGroup:
    """Full permutation stabilizer of the code, with exact order.

    A stabilizer chain over the base 0, 1, ...; G_k fixes 0..k-1.  Level
    k's partition, 0..k-1 individualized, is refined once, top-down from
    the level before; the first discrete level has a trivial G_k and ends
    the chain.  The levels are then searched bottom-up.  An image p of k
    is a candidate only in k's cell: elsewhere `_individualize(level, k,
    p)` is unbalanced from the start, so no element of G_k sends k to p.
    It is searched, by `_extend` from that partition refined, only if row
    k of the Sims table of the generators found so far does not hold it;
    a permutation found is a new generator.  Those generators all lie in
    G_k, so row k is the orbit of k under them.  Every candidate outside
    it is searched, so it is k's G_k-orbit; by induction from the bottom
    the generators generate G_k, and the order is the product of the rows.

    Refinement is invariant, so an element of G_k maps k into k's cell,
    and the order is at most the product of the level-cell sizes; a group
    above that bound means a generator that refinement does not respect
    (RuntimeError).
    """
    if code.m > 16 or code.size > 4096:
        raise ValueError("automorphism search supports m <= 16 and |C| <= 4096")
    tracker = _Budget(budget)
    m = code.m
    words = code.words_u32().astype(np.int64)
    inc = _Incidence(words, words, m)
    colors = np.zeros(2 * m, dtype=np.int64)
    cells = np.zeros(2 * len(words), dtype=np.int64)
    levels = []
    for k in range(m):
        if k:
            colors = _individualize(colors, k - 1, k - 1)
        # both sides are the same code, so the refinement stays balanced
        colors, cells = _refine(inc, colors, cells)
        if colors.max() == m - 1:
            break
        levels.append((colors, cells))
    group = PermGroup(m)
    bound = 1
    for k in reversed(range(len(levels))):
        colors, cells = levels[k]
        cell = np.flatnonzero(colors[m:] == colors[k]).tolist()
        bound *= len(cell)
        for p in cell:
            if p in group.row(k):
                continue
            child = _refine(inc, _individualize(colors, k, p), cells)
            sigma = None if child is None else _extend(inc, words, words, child, tracker)
            if sigma is not None:
                group = group.extended([sigma])
    if group.order() > bound:
        raise RuntimeError(
            f"stabilizer order {group.order()} exceeds the level-cell bound {bound}"
        )
    return group


def assemble_aut_generators(
    code: Code, perm_group: PermGroup, budget: int | None = None, candidates=()
) -> list[AutElement]:
    """Generators of the code's full stabilizer: the codeword level on top
    of the chain of `enumerate_perm_automorphisms`.

    Starts from the generators of `perm_group`, the zero word's stabilizer,
    and a basis of the translation kernel K.  The zero word's orbit is a
    union of K-cosets.  Each of the `candidates` joins the generators if it
    maps the zero word's coset outside the orbit that the generators so
    far give it (`_coset_labels`).  Then the least word c of each other
    coset in C (`coset_leaders`) is searched only if the generators so far
    do not map the zero word's coset onto c's.  A coordinate permutation
    sigma taking C onto C + c gives the mover (unpermute(c, sigma), sigma),
    which sends 0 to c.  Every coset outside the current orbit is searched,
    so the zero word's orbit is its orbit under the full stabilizer, and
    the generators generate the full stabilizer if `perm_group` is the
    whole permutation stabilizer.  The permutation generators and the
    candidates, which the caller supplies, are checked to stabilize the
    code on entry (ValueError otherwise); the translations and the movers
    found here passed the same test where they were made.
    """
    if 0 not in code:
        raise ValueError("generator assembly requires the zero word in the code")
    m = code.m
    tracker = _Budget(budget)
    out = [AutElement.permutation(m, g) for g in perm_group.generators]
    candidates = list(candidates)
    for x in out + candidates:
        if not maps_onto(x, code, code):
            raise ValueError(
                "permutation generator or candidate does not stabilize the code"
            )
    out.extend(AutElement.translation(m, b) for b in code.kernel)
    words = code.words_u32()
    leaders = coset_leaders(code)
    labels = _coset_labels(out, leaders, code.kernel)
    for x in candidates:
        # x stabilizes C and so K: it maps the zero word's coset onto x(0)'s
        i = int(np.searchsorted(leaders, reduce_mod(x.act(0), code.kernel)))
        if labels[i] != 0:
            out.append(x)
            labels = _coset_labels(out, leaders, code.kernel)
    for i, c in enumerate(leaders.tolist()):
        if labels[i] == 0:
            continue
        sigma = _search_permutation(words, np.sort(words ^ np.uint32(c)), m, tracker)
        if sigma is not None:
            out.append(AutElement(m, unpermute_bits(c, sigma), sigma))
            labels = _coset_labels(out, leaders, code.kernel)
    return out


def _drop_coordinate_0(x: AutElement) -> AutElement:
    """x, which fixes coordinate 0, acting on the words with bit 0
    dropped: coordinates 1..m-1 renumbered 0..m-2.  (If x moved
    coordinate 0, the images would hold -1, which AutElement rejects.)"""
    return AutElement(x.m - 1, x.beta >> 1, [s - 1 for s in x.sigma[1:]])


def punctured_perm_group(
    punctured: Code, extended: Code, group: PermGroup
) -> PermGroup:
    """The permutation stabilizer of `punctured`, read off the Sims table
    of `group`, the permutation stabilizer of its even-weight extension.

    `extended` must be `punctured` with a parity bit added as coordinate 0:
    every word even, and dropping bit 0 gives the words of `punctured`, one
    each (ValueError otherwise).  The answer is then the stabilizer of
    coordinate 0 in `group` (module docstring), which rows 1.. of its Sims
    table hold.  They are read bottom-up, as the stabilizer walk reads its
    levels: an element of row k is taken only if row k - 1 of the Sims
    table of those taken so far, which all fix 0..k-2 once bit 0 is
    dropped, does not already send k - 1 to its image.  Row k lists the
    whole orbit of k under the stabilizer of 0..k-1, so by induction from
    the bottom the elements taken generate it.  Each is checked with
    `maps_onto`, and their order must be the product of rows 1..
    """
    if (
        extended.m != punctured.m + 1
        or any(extended.weight_histogram[1::2])
        or not np.array_equal(np.sort(extended.words_u32() >> 1), punctured.words_u32())
    ):
        raise ValueError("not the even-weight extension of the punctured code")
    out = PermGroup(punctured.m)
    for k in reversed(range(1, group.degree)):
        row = group.row(k)
        for j in sorted(row):
            if j - 1 in out.row(k - 1):
                continue
            x = _drop_coordinate_0(AutElement.permutation(group.degree, row[j]))
            if not maps_onto(x, punctured, punctured):
                raise RuntimeError("Sims-table element does not stabilize the code")
            out = out.extended([x.sigma])
    expected = math.prod(len(group.row(k)) for k in range(1, group.degree))
    if out.order() != expected:
        raise RuntimeError(f"punctured order {out.order()} != row product {expected}")
    return out


def punctured_candidates(gens, group: PermGroup) -> list[AutElement]:
    """Candidate automorphisms of a code punctured at coordinate 0, for
    `assemble_aut_generators`, from the generators `gens` of its even-weight
    extension's full stabilizer and that extension's permutation stabilizer
    `group`.

    Each generator x that is neither a permutation nor a translation (the
    punctured code's own group and kernel give those), times the inverse of
    `group`'s row-0 element at x.sigma[0], fixes coordinate 0, and so
    restricts to an automorphism of the punctured code (module docstring).
    A generator whose x.sigma[0] is outside row 0 is skipped.
    """
    row = group.row(0)
    out = []
    for x in gens:
        if x.beta and x.sigma != _perm_identity(x.m) and x.sigma[0] in row:
            fix = AutElement.permutation(x.m, row[x.sigma[0]]).inverse()
            out.append(_drop_coordinate_0(x * fix))
    return out


# ---------------------------------------------------------------------------
# Orbits on invariant vertex sets: the kernel quotient and weight spheres.

def _orbit_labels(tables, n: int) -> np.ndarray:
    """Orbit labels on the points 0..n-1 of a set the generators permute.

    tables[j][i] is the image of point i under generator j.  Each label
    converges to the least point of its orbit by repeated minimum
    propagation along every table, so the labeling does not depend on the
    generator order.  Tables that fix every point are skipped.
    """
    points = np.arange(n, dtype=np.intp)
    tables = [
        t for t in (np.asarray(t, dtype=np.intp) for t in tables)
        if not np.array_equal(t, points)
    ]
    labels = points.copy()
    while True:
        before = labels.copy()
        for t in tables:
            np.minimum(labels, labels[t], out=labels)
        if np.array_equal(labels, before):
            return labels


@dataclass(frozen=True)
class SphereOrbits:
    k: int
    orbit_count: int
    sizes: tuple[int, ...]  # by ascending least member


def orbits_on_sphere(group: PermGroup, k: int) -> SphereOrbits:
    """The orbits of a permutation group on the weight-k vertices.

    A coordinate permutation keeps the weight, so it permutes the
    C(degree, k) weight-k vertices; each image is found in their ascending
    list by binary search.
    """
    verts = weight_vertices(group.degree, k)
    tables = [np.searchsorted(verts, permute_bits(verts, g)) for g in group.generators]
    _, counts = np.unique(_orbit_labels(tables, len(verts)), return_counts=True)
    return SphereOrbits(
        k=k, orbit_count=len(counts), sizes=tuple(int(c) for c in counts)
    )


def _coset_labels(gens, reps: np.ndarray, basis) -> np.ndarray:
    """Orbit labels of the AutElements `gens` on a set of cosets of
    span(basis) that they permute, given by their least vertices `reps`
    (ascending uint32): r maps to reduce_mod(g(r)), found by binary search.
    A translation by a vector of span(basis) fixes every coset, so it is
    dropped before any image is computed."""
    gens = [
        g for g in gens if reduce_mod(g.beta, basis) or g.sigma != _perm_identity(g.m)
    ]
    images = (permute_bits(reps ^ np.uint32(g.beta), g.sigma) for g in gens)
    tables = [np.searchsorted(reps, reduce_mod(v, basis)) for v in images]
    return _orbit_labels(tables, len(reps))


def _translation_subspace(gens, m: int) -> list[int]:
    """Reduced echelon basis of the translations that the generators give.

    The subspace is spanned by the translations among the generators and
    closed under their coordinate permutations: if g = (beta, sigma) is in
    the group, so is g^-1 * t_k * g = t_sigma(k) (products as in
    AutElement).  A new vector, reduced modulo the basis, has a pivot of
    its own; clearing that pivot from the other vectors keeps the basis
    reduced.
    """
    identity = _perm_identity(m)
    perms = {g.sigma for g in gens} - {identity}
    todo = [g.beta for g in gens if g.sigma == identity]
    basis: list[int] = []
    while todo:
        v = reduce_mod(todo.pop(), basis)
        if v:
            basis = [reduce_mod(b, (v,)) for b in basis] + [v]
            todo.extend(permute_bits(v, s) for s in perms)
    return sorted(basis)


def _distances_to_code(code: Code, verts: np.ndarray) -> np.ndarray:
    """d(v, C) for each vertex, by pair scans of about PAIR_BLOCK pairs."""
    arr = code.words_u32()
    step = max(1, PAIR_BLOCK // code.size)
    return np.concatenate([
        (distance_profiles(verts[lo : lo + step], arr, code.m) != 0).argmax(axis=1)
        for lo in range(0, len(verts), step)
    ])


@dataclass(frozen=True)
class CellCertificate:
    cell: int
    cell_size: int
    orbit_label: int
    orbit_size: int


@dataclass(frozen=True)
class TransitivityResult:
    ok: bool
    cells: tuple[CellCertificate, ...]
    witness: tuple[int, int, int] | None  # (cell, vertex_a, vertex_b)


def verify_complete_transitivity(code: Code, gens) -> TransitivityResult:
    """Do the orbits of the generators equal the distance partition?

    Every generator must stabilize the code (checked, error otherwise).
    On success the certificate lists, per cell, the matched orbit size;
    on failure it returns two same-cell vertices in different orbits.

    The check runs on a quotient of F_2^m, not on all 2^m vertices.  Let T
    be the translations that the generators give (_translation_subspace):
    those among them, closed under their coordinate permutations.  For
    generators from assemble_aut_generators T is the translation kernel K.
    The group G contains T and every element of G maps cosets of T onto
    cosets of T, so the orbits of G are unions of T-cosets.  With T in
    reduced echelon form, the vertices zero on every pivot are the least
    vertex of each coset, and `_coset_labels` gives the orbits of G on the
    cosets; orbit sizes are |T| times their representative counts.  Each
    element of G stabilizes the code and so keeps d(., C): every orbit lies
    in one distance cell, and a cell is one orbit exactly when it holds one
    orbit minimum, so d(., C) is computed for the minima only.  The least
    vertex of a cell is its orbit's minimum, and the least vertex of the
    cell outside that orbit is its own orbit's minimum, the cell's next
    one; so the certificate and the witness are a full vertex scan's.
    """
    for x in gens:
        if not maps_onto(x, code, code):
            raise ValueError("generator does not stabilize the code")
    m = code.m
    basis = _translation_subspace(gens, m)
    free = free_coordinates(basis, m)
    reps = permute_bits(np.arange(1 << len(free), dtype=np.uint32), free)
    minima, counts = np.unique(_coset_labels(gens, reps, basis), return_counts=True)
    dist = _distances_to_code(code, reps[minima])
    cells = []
    for i in range(int(dist.max()) + 1):
        here = np.flatnonzero(dist == i)
        vertex = int(reps[minima[here[0]]])
        if len(here) > 1:
            witness = (i, vertex, int(reps[minima[here[1]]]))
            return TransitivityResult(ok=False, cells=tuple(cells), witness=witness)
        size = int(counts[here[0]]) << len(basis)
        cells.append(
            CellCertificate(cell=i, cell_size=size, orbit_label=vertex, orbit_size=size)
        )
    return TransitivityResult(ok=True, cells=tuple(cells), witness=None)
