"""Hamming-graph automorphisms: search, group order, orbits, transitivity.

An automorphism of the Hamming graph on m coordinates is a translation
followed by a coordinate permutation.  One backtrack search answers every
question here: is there a coordinate permutation, respecting a partition
of the coordinates, that maps one code onto another?  It works by
individualization and refinement.  One partition of the coordinates and
codewords of both codes is refined to a fixed point; a coordinate of
the smallest open colour is then paired with each candidate image in
turn, and every branch whose two sides stop matching is cut at once.
On that search tree the module finds the permutation stabilizer of a
code, descending from the refined partition of each level of its
stabilizer chain for the images in the level point's cell only (the
others cannot be reached), assembles generators of its full
stabilizer including translations, computes exact permutation-group
orders from a Sims table, counts the orbits of a permutation group on a
weight sphere, and certifies complete transitivity by matching the
orbits on the cosets of the group's translations against the distance
partition.

Each stabilizer enumeration and each generator assembly has one node
budget (NRCODES_BUDGET or 10^8 by default), shared by all of its searches;
one node is one candidate image tried for a coordinate.  Exceeding the
budget raises, never returns a partial answer.
"""

from __future__ import annotations

import functools
import math
import operator
import os
import types
from dataclasses import dataclass

import numpy as np

from .codes import PAIR_BLOCK, Code, coset_leaders, free_coordinates, reduce_mod, span
from .hamming import (
    check_vertex,
    distance_profiles,
    permute_bits,
    sphere,
    to_string,
    unpermute_bits,
)

DEFAULT_BUDGET = 10**8
_BUDGET_ENV = "NRCODES_BUDGET"


class SearchBudgetExceeded(RuntimeError):
    """A backtrack search ran past its node limit."""


def parse_budget(text: str, name: str = _BUDGET_ENV) -> int:
    """A node budget written as text; ValueError naming `name` unless it is
    a non-negative integer."""
    try:
        limit = int(text)
        if limit >= 0:
            return limit
    except ValueError:
        pass
    raise ValueError(f"{name} must be a non-negative integer, got {text!r}")


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
    """Permutation group given by generators; order from a Sims table.

    Knuth, "Efficient representation of perm groups" (Combinatorica 11,
    1991), over the base 0, 1, ..., degree - 1: row k maps each point j of
    the orbit of k under the stabilizer of 0..k-1 to an element that fixes
    0..k-1 and sends k to j.  Every element of the group is, in exactly one
    way, a product of one element of each row, so the order is the product
    of the row lengths.
    """

    def __init__(self, degree: int, generators):
        self.degree = degree
        self.generators = tuple(
            _check_perm(g, degree) for g in generators
        )

    @functools.cached_property
    def _reps(self) -> list[dict[int, tuple[int, ...]]]:
        n = self.degree
        identity = _perm_identity(n)
        reps = [{k: identity} for k in range(n)]
        # the inverse of each row element, stored when the element is entered
        invs = [{k: identity} for k in range(n)]
        gens: list[list[tuple[int, ...]]] = [[] for _ in range(n)]

        def sifts(g, k: int) -> bool:
            # is g, which fixes 0..k-1, a product of elements of rows k..?
            for i in range(k, n):
                inv = invs[i].get(g[i])
                if inv is None:
                    return False
                g = _perm_mult(g, inv)
            return True

        # Knuth's add(g, k): g joins the generators of level k unless rows
        # k.. already hold it; extend(h, k) then enters each product h of a
        # row-k element and a level-k generator in row k, or passes its
        # residue modulo row k on to add(., k + 1).
        todo = [(g, 0) for g in reversed(self.generators)]
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
        return reps

    def order(self) -> int:
        return math.prod(len(row) for row in self._reps)

    def row(self, k: int) -> types.MappingProxyType:
        """Row k of the Sims table, read-only: for each point j of the orbit
        of k under the stabilizer of 0..k-1, a group element that fixes
        0..k-1 and sends k to j."""
        return types.MappingProxyType(self._reps[k])


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

    Row i's key is (first[i], *counts[i]).  Rows are ranked in
    lexicographic order of their keys, so a `first` holding the previous
    colour makes the new partition refine the old one.  One `np.lexsort`
    orders the rows, with `first` as the primary key and the count
    columns after it from left to right; each sorted row that differs
    from the one before it starts a new rank, and a cumulative sum over
    those starts numbers the ranks 0, 1, ...  The order, and so every
    rank, equals that of the row-wise `np.unique` this replaced: the
    partitions, branch order and node counts are the same.
    The first half of the rows belongs to code a and the second to code
    b; None means that the two halves' rank multisets differ.
    """
    order = np.lexsort((*counts.T[::-1], first))
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

    Walks the stabilizer chain over coordinates 0, 1, 2, ...: at each level
    the orbit of the next coordinate is determined by one descent of the
    search tree (`_extend`) per unproven candidate image, and the
    witnesses double as a strong generating set.  The resulting group
    order is cross-checked against the product of the orbit sizes.

    The walk is itself a path down the search tree of the code against
    itself.  Level k's partition, with 0..k-1 individualized, is refined
    once, from the level before with k-1 individualized; the candidate
    image p of k starts from `_individualize(level, k, p)`, refined.  For p
    outside k's cell that partition is unbalanced from the start, so its
    refinement would return None without charging a node: only the images
    in k's cell are tried.  At the first level whose coordinate partition
    is discrete the pointwise stabilizer is trivial, so every later orbit
    is a single point and the walk stops.
    """
    if code.m > 16 or code.size > 4096:
        raise ValueError("automorphism search supports m <= 16 and |C| <= 4096")
    tracker = _Budget(budget)
    m = code.m
    words = np.asarray(code.words, dtype=np.int64)
    inc = _Incidence(words, words, m)
    colors = np.zeros(2 * m, dtype=np.int64)
    cells = np.zeros(2 * len(words), dtype=np.int64)
    gens: list[tuple[int, ...]] = []
    order = 1
    for k in range(m):
        if k:
            colors = _individualize(colors, k - 1, k - 1)
        # both sides are the same code, so the refinement stays balanced
        colors, cells = _refine(inc, colors, cells)
        if colors.max() == m - 1:
            break
        level_gens: list[tuple[int, ...]] = []
        orbit = {k}

        def close_orbit():
            queue = list(orbit)
            for pt in queue:
                for g in level_gens:
                    npt = g[pt]
                    if npt not in orbit:
                        orbit.add(npt)
                        queue.append(npt)

        for p in np.flatnonzero(colors[m:] == colors[k]).tolist():
            if p <= k or p in orbit:
                continue
            child = _refine(inc, _individualize(colors, k, p), cells)
            sigma = None if child is None else _extend(inc, words, words, child, tracker)
            if sigma is not None:
                level_gens.append(sigma)
                close_orbit()
        gens.extend(level_gens)
        order *= len(orbit)
    group = PermGroup(m, gens)
    for g in gens:
        if not maps_onto(AutElement.permutation(m, g), code, code):
            raise RuntimeError("backtrack produced a non-automorphism")
    if group.order() != order:
        raise RuntimeError(
            f"stabilizer-chain order {group.order()} != orbit product {order}"
        )
    return group


def translation_kernel(code: Code) -> Code:
    """All words beta with C + beta = C; a linear subcode of C."""
    if 0 not in code:
        raise ValueError("translation kernel requires the zero word in the code")
    return span(code.kernel, code.m)


def assemble_aut_generators(
    code: Code, perm_group: PermGroup, budget: int | None = None
) -> list[AutElement]:
    """Generators of a subgroup of the code's full stabilizer.

    Combines (a) the generators of `perm_group`, the code's permutation
    stabilizer as built by `enumerate_perm_automorphisms`, (b) a basis of
    the translation kernel, and (c) for each other kernel coset inside the
    code, one element moving the zero word onto the coset's least word
    c (`coset_leaders`), if the search finds one: a coordinate permutation
    sigma taking C onto C + c, followed by the translation by c, which is
    the AutElement (unpermute(c, sigma), sigma).  Every element is
    re-verified to stabilize the code.
    """
    if 0 not in code:
        raise ValueError("generator assembly requires the zero word in the code")
    m = code.m
    tracker = _Budget(budget)
    out: list[AutElement] = []
    out.extend(AutElement.permutation(m, g) for g in perm_group.generators)
    out.extend(AutElement.translation(m, b) for b in code.kernel)
    words = code.words_u32()
    for c in coset_leaders(code).tolist()[1:]:
        sigma = _search_permutation(words, np.sort(words ^ np.uint32(c)), m, tracker)
        if sigma is not None:
            out.append(AutElement(m, unpermute_bits(c, sigma), sigma))
    for x in out:
        if not maps_onto(x, code, code):
            raise RuntimeError("assembled generator does not stabilize the code")
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
    verts = np.fromiter(sphere(0, k, group.degree), dtype=np.uint32)
    tables = [np.searchsorted(verts, permute_bits(verts, g)) for g in group.generators]
    _, counts = np.unique(_orbit_labels(tables, len(verts)), return_counts=True)
    return SphereOrbits(
        k=k, orbit_count=len(counts), sizes=tuple(int(c) for c in counts)
    )


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
    cosets of T, so the orbits of G are unions of T-cosets.  Every
    translation in G stabilizes the code, so T lies in K and d(., C) is
    constant on each T-coset too.  With T in reduced echelon form, the
    vertices zero on every pivot are the least vertex of each coset: each
    generator's table maps such a representative r to the one of g(r),
    reduce_mod(g(r)), and the orbits of the tables are the orbits of G on
    the cosets.  Orbit and cell sizes are |T| times their representative
    counts.  The least vertex of a cell or of an orbit, and the least
    vertex of a cell outside the orbit of its least vertex, each begin
    their coset, so the labels, the certificate and the witness are those
    of a scan of every vertex.
    """
    for x in gens:
        if not maps_onto(x, code, code):
            raise ValueError("generator does not stabilize the code")
    m = code.m
    basis = _translation_subspace(gens, m)
    free = free_coordinates(basis, m)
    reps = permute_bits(np.arange(1 << len(free), dtype=np.uint32), free)
    tables = []
    for g in gens:
        image = permute_bits(reps ^ np.uint32(g.beta), g.sigma)
        tables.append(unpermute_bits(reduce_mod(image, basis), free))
    labels = _orbit_labels(tables, len(reps))
    dist = _distances_to_code(code, reps)
    dim = len(basis)
    cells = []
    for i in range(int(dist.max()) + 1):
        members = np.flatnonzero(dist == i)
        labs = labels[members]
        first = labs[0]
        mismatch = labs != first
        if mismatch.any():
            b = int(np.argmax(mismatch))
            return TransitivityResult(
                ok=False, cells=tuple(cells),
                witness=(i, int(reps[members[0]]), int(reps[members[b]])),
            )
        orbit_size = int(np.count_nonzero(labels == first)) << dim
        cells.append(
            CellCertificate(
                cell=i, cell_size=len(members) << dim,
                orbit_label=int(reps[first]), orbit_size=orbit_size,
            )
        )
    ok = all(c.orbit_size == c.cell_size for c in cells)
    return TransitivityResult(ok=ok, cells=tuple(cells), witness=None)
