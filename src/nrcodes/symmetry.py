"""Hamming-graph automorphisms: search, group order, orbits, transitivity.

An automorphism of the Hamming graph on m coordinates is a translation
followed by a coordinate permutation.  One backtrack search answers every
question here: is there a coordinate permutation, extending some fixed
(coordinate, image) pairs, that maps one code onto another?  It works by
individualization and refinement.  One partition of the coordinates and
codewords of both codes is refined to a fixed point; a coordinate of
the smallest open colour is then paired with each candidate image in
turn, and every branch whose two sides stop matching is cut at once.
On top of that search the module finds the permutation stabilizer of a
code, assembles generators of its full stabilizer including translations,
finds equivalences between codes, computes exact permutation-group orders
from a Sims table, and certifies complete transitivity by matching vertex
orbits against the distance partition.

Searches are bounded by an explicit node budget (NRCODES_BUDGET or 10^8 by
default); one node is one candidate image tried for a coordinate.
Exceeding the budget raises, never returns a partial answer.
"""

from __future__ import annotations

import functools
import math
import operator
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .codes import Code, coset_leaders, span
from .hamming import (
    all_vertices,
    check_vertex,
    from_string,
    permute_bits,
    to_string,
    unpermute_bits,
)
from .spectrum import distance_partition

DEFAULT_BUDGET = 10**8
_BUDGET_ENV = "NRCODES_BUDGET"


class SearchBudgetExceeded(RuntimeError):
    """A backtrack search ran past its node limit."""


class _Budget:
    __slots__ = ("limit", "used")

    def __init__(self, limit: int | None):
        if limit is None:
            limit = int(os.environ.get(_BUDGET_ENV, DEFAULT_BUDGET))
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
    return tuple(q[p[i]] for i in range(len(p)))


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
    def identity(cls, m: int) -> "AutElement":
        return cls(m, 0, _perm_identity(m))

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

    def is_identity(self) -> bool:
        return self.beta == 0 and self.sigma == _perm_identity(self.m)


def maps_onto(x: AutElement, code_a: Code, code_b: Code) -> bool:
    """Does x map the words of code_a onto those of code_b?

    maps_onto(x, code, code) says whether x stabilizes the code.
    """
    if x.m != code_a.m or x.m != code_b.m:
        raise ValueError("element and code lengths differ")
    image = np.sort(permute_bits(code_a.words_u32() ^ x.beta, x.sigma))
    return np.array_equal(image, code_b.words_u32())


def project_automorphism(x: AutElement, coords) -> AutElement:
    """Induced action on the projection onto the 1-indexed coords.

    Requires the permutation part to stabilize the coordinate set.
    """
    coords = tuple(coords)
    zero_based = [i - 1 for i in coords]
    pos = {c: t for t, c in enumerate(zero_based)}
    if any(x.sigma[c] not in pos for c in zero_based):
        raise ValueError("permutation part does not stabilize the coordinate set")
    new_sigma = tuple(pos[x.sigma[c]] for c in zero_based)
    return AutElement(len(coords), unpermute_bits(x.beta, zero_based), new_sigma)


# ---------------------------------------------------------------------------
# Automorphism file format: one element per line,
# "beta=<0/1 string> sigma=<space-separated images of 1..m>".

def format_aut_element(x: AutElement) -> str:
    images = " ".join(str(x.sigma[j] + 1) for j in range(x.m))
    return f"beta={to_string(x.beta, x.m)} sigma={images}"


def parse_aut_element(line: str) -> AutElement:
    parts = line.split()
    if len(parts) < 2 or not parts[0].startswith("beta=") or not parts[1].startswith("sigma="):
        raise ValueError(f"malformed automorphism line: {line!r}")
    beta, m = from_string(parts[0][len("beta="):])
    images = [parts[1][len("sigma="):]] + parts[2:]
    sigma = tuple(int(t) - 1 for t in images)
    if len(sigma) != m:
        raise ValueError("sigma length does not match beta length")
    return AutElement(m, beta, sigma)


def write_aut_elements(elements, path) -> None:
    Path(path).write_text(
        "".join(format_aut_element(x) + "\n" for x in elements), encoding="utf-8"
    )


def read_aut_elements(path) -> list[AutElement]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return [parse_aut_element(ln) for ln in lines if ln.strip()]


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
        gens: list[list[tuple[int, ...]]] = [[] for _ in range(n)]

        def sifts(g, k: int) -> bool:
            # is g, which fixes 0..k-1, a product of elements of rows k..?
            for i in range(k, n):
                rep = reps[i].get(g[i])
                if rep is None:
                    return False
                g = _perm_mult(g, _perm_inv(rep))
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
                rep = reps[k].get(h[k])
                if rep is not None:
                    todo.append((_perm_mult(h, _perm_inv(rep)), k + 1))
                else:
                    reps[k][h[k]] = h
                    orbit.extend(_perm_mult(h, s) for s in gens[k])
        return reps

    def order(self) -> int:
        return math.prod(len(row) for row in self._reps)


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


def _ranks(keys: np.ndarray):
    """Dense ranks of the key rows, or None if the two codes' ranks differ.

    Rows are ranked in lexicographic order, so a first key column holding
    the previous colour makes the new partition refine the old one.  The
    first half of the rows belongs to code a and the second to code b;
    None means that the two halves' rank multisets differ.
    """
    _, ranks = np.unique(keys, axis=0, return_inverse=True)
    ranks = ranks.reshape(-1)
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
    """
    n_colors = len(np.unique(colors))
    while True:
        k = int(colors.max()) + 1
        counts = np.bincount(inc.rows * k + colors[inc.cols], minlength=len(cells) * k)
        cells = _ranks(np.column_stack((cells, counts.reshape(-1, k))))
        if cells is None:
            return None
        w = int(cells.max()) + 1
        counts = np.bincount(inc.cols * w + cells[inc.rows], minlength=len(colors) * w)
        colors = _ranks(np.column_stack((colors, counts.reshape(-1, w))))
        if colors is None:
            return None
        # Word cells are a function of the colours, so stable colours mean
        # the whole partition is stable.
        refined = int(colors.max()) + 1
        if refined == n_colors:
            return colors, cells
        n_colors = refined


def coordinate_invariant_partition(code: Code) -> tuple[tuple[int, ...], ...]:
    """Coordinates (1-indexed) grouped by iterated invariant refinement.

    The cells are the coordinate colours of the code refined against
    itself, so permutation automorphisms of the code preserve them.
    """
    inc = _Incidence(code.words, code.words, code.m)
    colors = np.zeros(2 * code.m, dtype=np.int64)
    cells = np.zeros(2 * code.size, dtype=np.int64)
    colors, _ = _refine(inc, colors, cells)
    by_color: dict[int, list[int]] = {}
    for i, c in enumerate(colors[: code.m].tolist()):
        by_color.setdefault(c, []).append(i + 1)
    return tuple(tuple(by_color[c]) for c in sorted(by_color))


# ---------------------------------------------------------------------------
# Backtrack search for a coordinate permutation mapping one code to another.

def _search_permutation(
    words_a, words_b, m: int, prefix, budget: _Budget
) -> tuple[int, ...] | None:
    """Some coordinate permutation with words_a^sigma == words_b, or None.

    Individualize and refine (McKay & Piperno, "Practical graph
    isomorphism II", 2014; Leon, "Permutation group algorithms based on
    partitions I", 1991).  The search keeps one partition of the
    coordinates and the codewords of both codes and refines it with
    `_refine`.  The (coordinate, image) pairs of `prefix` are
    individualized at the root.  At each node it takes the least
    coordinate of code a in the smallest non-singleton colour and tries
    each coordinate of code b of that colour as its image, in ascending
    order: the pair gets a colour of its own and the partition is refined
    again, which rejects the image as soon as the two sides differ.  Each
    image tried charges one node to the budget.  Once every colour holds
    one coordinate per side the permutation is fixed, and it is accepted
    only if it maps the words of a exactly onto those of b.
    """
    if len(words_a) != len(words_b):
        return None
    inc = _Incidence(words_a, words_b, m)
    source = np.asarray(words_a, dtype=np.int64)
    target = np.sort(np.asarray(words_b, dtype=np.int64))
    colors = np.zeros(2 * m, dtype=np.int64)
    for t, (c, p) in enumerate(prefix, 1):
        colors[c] = t
        colors[m + p] = t
    root = _refine(inc, colors, np.zeros(2 * len(words_a), dtype=np.int64))

    def extend(node) -> tuple[int, ...] | None:
        colors, cells = node
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
            single = 2 * colors
            single[i] += 1
            single[m + p] += 1
            child = _refine(inc, single, cells)
            if child is not None:
                sigma = extend(child)
                if sigma is not None:
                    return sigma
        return None

    found = None if root is None else extend(root)
    del extend  # it refers to itself: free its arrays now, not at the next gc
    return found


def enumerate_perm_automorphisms(code: Code, budget: int | None = None) -> PermGroup:
    """Full permutation stabilizer of the code, with exact order.

    Walks the stabilizer chain over coordinates 0, 1, 2, ...: at each level
    the orbit of the next coordinate is determined by one existence search
    per unproven candidate image, and the witnesses double as a strong
    generating set.  The resulting group order is cross-checked against
    the product of the orbit sizes.
    """
    if code.m > 16 or code.size > 4096:
        raise ValueError("automorphism search supports m <= 16 and |C| <= 4096")
    tracker = _Budget(budget)
    m = code.m
    words = code.words
    gens: list[tuple[int, ...]] = []
    order = 1
    for k in range(m):
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

        prefix = [(i, i) for i in range(k)]
        for p in range(k + 1, m):
            if p in orbit:
                continue
            sigma = _search_permutation(
                words, words, m, prefix + [(k, p)], tracker
            )
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


def _word_mover(
    code_a: Code, c: int, code_b: Code, c2: int, tracker: _Budget
) -> AutElement | None:
    """Some automorphism mapping code_a onto code_b and c onto c2, or None.

    Searches for a coordinate permutation sigma taking code_a + c onto
    code_b + c2; then x = (c + unpermute(c2, sigma), sigma) sends c to c2
    and code_a onto code_b, which is checked before x is returned.
    """
    shifted_a = np.sort(code_a.words_u32() ^ np.uint32(c))
    shifted_b = np.sort(code_b.words_u32() ^ np.uint32(c2))
    sigma = _search_permutation(shifted_a, shifted_b, code_a.m, [], tracker)
    if sigma is None:
        return None
    x = AutElement(code_a.m, c ^ unpermute_bits(c2, sigma), sigma)
    if x.act(c) != c2 or not maps_onto(x, code_a, code_b):
        raise RuntimeError("permutation search produced a wrong word mover")
    return x


def find_equivalence(
    code_a: Code, code_b: Code, budget: int | None = None
) -> AutElement | None:
    """Some Hamming-graph automorphism mapping code_a onto code_b, or None.

    Fixes the least word of code_a and tries each word of code_b as its
    image (`_word_mover`).
    """
    if code_a.m != code_b.m:
        raise ValueError("codes must have the same length")
    if code_a.size != code_b.size:
        return None
    tracker = _Budget(budget)
    for c2 in code_b.words:
        x = _word_mover(code_a, code_a.words[0], code_b, c2, tracker)
        if x is not None:
            return x
    return None


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
    (`coset_leaders`), if the search finds one: a coordinate permutation
    followed by the translation by that word.  Every element is
    re-verified to stabilize the code.
    """
    if 0 not in code:
        raise ValueError("generator assembly requires the zero word in the code")
    m = code.m
    tracker = _Budget(budget)
    out: list[AutElement] = []
    out.extend(AutElement.permutation(m, g) for g in perm_group.generators)
    out.extend(AutElement.translation(m, b) for b in code.kernel)
    for rep in coset_leaders(code).tolist()[1:]:
        x = _word_mover(code, 0, code, rep, tracker)
        if x is not None:
            out.append(x)
    for x in out:
        if not maps_onto(x, code, code):
            raise RuntimeError("assembled generator does not stabilize the code")
    return out


# ---------------------------------------------------------------------------
# Orbits on the vertex space.

@dataclass(frozen=True)
class OrbitPartition:
    """Orbit labels (smallest member of each orbit) for every vertex."""

    m: int
    labels: np.ndarray  # uint32, read-only
    orbit_count: int
    sizes: tuple[int, ...]  # by ascending orbit label


def vertex_orbits(gens, m: int) -> OrbitPartition:
    """Orbits of the generated group on all 2^m vertices.

    Labels converge to the smallest vertex of each orbit by repeated
    minimum propagation along every generator's action table, so the
    labeling is canonical regardless of generator order.
    """
    for g in gens:
        if g.m != m:
            raise ValueError("generator length does not match the vertex space")
    labels = np.arange(1 << m, dtype=np.uint32)
    tables = [permute_bits(all_vertices(m) ^ g.beta, g.sigma) for g in gens]
    for _ in range(1 << m):
        before = labels.copy()
        for t in tables:
            np.minimum(labels, labels[t], out=labels)
        if (labels == before).all():
            break
    uniq, counts = np.unique(labels, return_counts=True)
    labels.setflags(write=False)
    return OrbitPartition(
        m=m, labels=labels, orbit_count=len(uniq),
        sizes=tuple(int(c) for c in counts),
    )


@dataclass(frozen=True)
class SphereOrbits:
    k: int
    orbit_count: int
    sizes: tuple[int, ...]


def orbits_on_sphere(orbits: OrbitPartition, k: int) -> SphereOrbits:
    """The orbits of a group on the weight-k vertices, from its vertex orbits."""
    weights = np.bitwise_count(all_vertices(orbits.m))
    labs = orbits.labels[weights == k]
    uniq, counts = np.unique(labs, return_counts=True)
    return SphereOrbits(
        k=k, orbit_count=len(uniq), sizes=tuple(int(c) for c in counts)
    )


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
    """
    for x in gens:
        if not maps_onto(x, code, code):
            raise ValueError("generator does not stabilize the code")
    partition = distance_partition(code)
    orbits = vertex_orbits(gens, code.m)
    labels = orbits.labels
    cells = []
    for i in range(partition.rho + 1):
        cell = partition.cell(i)
        labs = labels[cell]
        first = labs[0]
        mismatch = labs != first
        if mismatch.any():
            b = int(np.argmax(mismatch))
            return TransitivityResult(
                ok=False, cells=tuple(cells),
                witness=(i, int(cell[0]), int(cell[b])),
            )
        orbit_size = int(np.count_nonzero(labels == first))
        cells.append(
            CellCertificate(
                cell=i, cell_size=len(cell),
                orbit_label=int(first), orbit_size=orbit_size,
            )
        )
    ok = all(c.orbit_size == c.cell_size for c in cells)
    witness = None
    return TransitivityResult(ok=ok, cells=tuple(cells), witness=witness)
