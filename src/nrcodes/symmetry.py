"""Hamming-graph automorphisms: NR's stabilizer, group order, orbits, transitivity.

An automorphism of the Hamming graph on m coordinates is a translation
followed by a coordinate permutation.  The permutation stabilizer G of a
code whose translation kernel K is RM(1,r) on all 2^r coordinates, as
NR's is RM(1,4), is written down from the affine geometry of K, with no
search (`affine_stabilizer`): the coordinates are the points of F_2^r,
AGL(r,2) keeps K, and every permutation automorphism of the code keeps its
kernel.  The order of G is two-sided: at least the Sims order (Knuth,
`PermGroup`) of generators each checked to stabilize the code, at most
the frame bound on |PAut(K)|, counted off K's words, over the number of
the code's images under AGL(r,2).  The affine generators that move the
code lift to automorphisms that move its zero word.  One of them, with
G's generators and the translations of K, reaches every K-coset of NR:
cell 0 of the transitivity check, the code itself, is then one orbit.
The module also counts orbits on weight spheres and certifies complete
transitivity: each orbit on the cosets of the group's translations lies
in one distance cell, which is one orbit when it holds one orbit minimum.

A permutation is a tuple of Python ints, its images, wherever it is
read: in an `AutElement`, the orbit walk and the views of a `PermGroup`.
Inside the Sims table, where nearly all composing is done, it is
`bytes`, composed by `bytes.translate` and inverted by `bytes.maketrans`
in C.

A code punctured at coordinate 0, as PN is NR punctured at coordinate 1,
takes its symmetry from its even-weight (parity) extension.  Dropping bit
0 restricts the extension's automorphisms that fix coordinate 0 to the
punctured code's, and fixing coordinate 0 extends its permutations back,
keeping every parity bit.  So its permutation stabilizer is read off rows
1.. of the extension's Sims table (`punctured_perm_group`), and its movers
are the extension's that fix coordinate 0 (`drop_coordinate_0`).

The orbit walk visits at most the frame bound B of the code's images:
the kernel RM(1,r) lies on all m = 2^r <= 24 coordinates, so r <= 4 and
B <= |AGL(4,2)| = 322560.
"""

from __future__ import annotations

import math
import operator
import types
from typing import NamedTuple

import numpy as np

from .codes import Code, free_coordinates, reduce_mod, span
from .hamming import (
    check_vertex,
    permute_bits,
    to_string,
    unpermute_bits,
    weight_vertices,
)


class KernelNotAffine(ValueError):
    """The code's translation kernel is not RM(1,r) on all 2^r coordinates."""


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


class AutElement:
    """Translation-then-permutation automorphism of the Hamming graph.

    Acts on a vertex as permute(v + beta); composition is left-to-right,
    so act(x * y, v) == act(y, act(x, v)).  Two elements are equal when
    their (m, beta, sigma) are.
    """

    __slots__ = ("m", "beta", "sigma")

    def __init__(self, m: int, beta: int, sigma):
        check_vertex(beta, m)
        self.m, self.beta, self.sigma = m, beta, _check_perm(sigma, m)

    def _key(self) -> tuple:
        return (self.m, self.beta, self.sigma)

    def __eq__(self, other):
        if not isinstance(other, AutElement):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"AutElement(m={self.m}, beta={self.beta}, sigma={self.sigma})"

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
    Knuth's `add` with one generator at a time; `_add` grows it in place
    to the table a build from all the generators gives.

    The table holds each permutation as `bytes` (degree at most 256), so
    it is composed and inverted in C.  A row element is the `degree`
    bytes of its images.  Row inverses and level generators, which only
    ever act second, are 256-byte translation tables, fixing the points
    from `degree` on: p.translate(q) applies p, then q, and
    bytes.maketrans(p, identity) is p's inverse as such a table.  The
    public views are Python ints: `generators` and the values of `row(k)`
    are tuples.
    """

    def __init__(self, degree: int, generators=()):
        identity = bytes(range(degree))
        self.degree = degree
        self.generators: tuple[tuple[int, ...], ...] = ()
        # the rows, the inverse of each row element, the generators of each level
        self._reps = [{k: identity} for k in range(degree)]
        self._invs = [{k: bytes(range(256))} for k in range(degree)]
        self._gens: list[list[bytes]] = [[] for _ in range(degree)]
        self._add(generators)

    def __contains__(self, g) -> bool:
        """Is g, a permutation's images or their bytes, in the group?  g
        is sifted: the row-i element that sends i to g[i] is divided off at
        each point i it moves, until g is the identity or a row lacks it."""
        if not isinstance(g, bytes):
            g = bytes(_check_perm(g, self.degree))
        for i in range(self.degree):
            if g[i] != i:
                inv = self._invs[i].get(g[i])
                if inv is None:
                    return False
                g = g.translate(inv)
        return True

    def order(self) -> int:
        return math.prod(map(len, self._reps))

    def row(self, k: int) -> types.MappingProxyType:
        """Row k of the Sims table, read-only: for each point j of the orbit
        of k under the stabilizer of 0..k-1, a group element that fixes
        0..k-1 and sends k to j."""
        return types.MappingProxyType({j: tuple(p) for j, p in self._reps[k].items()})

    def _add(self, generators) -> None:
        """Knuth's add(g, 0) for each generator g in turn.

        add(g, k): g, which fixes 0..k-1, joins the generators of level k
        unless the group holds it; extend(h, k) then enters each product h
        of a row-k element and a level-k generator in row k, or passes its
        residue modulo row k on to add(., k + 1).
        """
        generators = tuple(_check_perm(g, self.degree) for g in generators)
        self.generators += generators
        reps, invs, gens = self._reps, self._invs, self._gens
        n = self.degree
        identity = bytes(range(n))
        rest = bytes(range(n, 256))
        todo = [(bytes(g), 0) for g in reversed(generators)]
        while todo:
            g, k = todo.pop()
            if g in self:
                continue
            g += rest
            gens[k].append(g)
            orbit = [rep.translate(g) for rep in reps[k].values()]
            while orbit:
                h = orbit.pop()
                inv = invs[k].get(h[k])
                if inv is not None:
                    todo.append((h.translate(inv), k + 1))
                else:
                    reps[k][h[k]] = h
                    invs[k][h[k]] = bytes.maketrans(h, identity)
                    orbit.extend(h.translate(s) for s in gens[k])


# ---------------------------------------------------------------------------
# The stabilizer of a code whose kernel is RM(1,r), from the affine geometry
# of that kernel.

def _affine_points(basis, m: int) -> list[int]:
    """The point of F_2^r that each coordinate is, for the kernel K with
    the reduced echelon basis `basis`; KernelNotAffine (a ValueError)
    unless K is RM(1,r) on all 2^r coordinates.

    The all-ones word must lie in K.  It and the basis less its last
    vector, the only one with the all-ones word's leading bit, span K.
    Those r vectors, each made zero at coordinate 1 by adding the all-ones
    word if it is not, give point j their r bits at j.  K is RM(1,r), with
    these as coordinate functions, exactly when that is a bijection onto
    F_2^r.  Coordinate 1 is the origin.
    """
    ones = (1 << m) - 1
    functions = [b ^ ones if b & 1 else b for b in basis[:-1]]
    points = [sum((f >> j & 1) << i for i, f in enumerate(functions)) for j in range(m)]
    if len(basis) < 2 or reduce_mod(ones, basis) or sorted(points) != list(range(m)):
        raise KernelNotAffine("the kernel is not RM(1,r) on all coordinates")
    return points


def _affine_generators(points) -> list[tuple[int, ...]]:
    """AGL(r,2) as coordinate permutations: x -> x + e_0, then the
    transvections x_a += x_b by ascending (a, b), which generate GL(r,2)."""
    where = _perm_inv(points)
    r = len(points).bit_length() - 1
    shears = [(1 << a, b) for a in range(r) for b in range(r) if a != b]
    return [tuple(where[x ^ 1] for x in points)] + [
        tuple(where[x ^ a * (x >> b & 1)] for x in points) for a, b in shears
    ]


def _frame_bound(kernel: Code) -> int:
    """An upper bound on the order of the permutation group of `kernel`,
    RM(1,r) on 2^r coordinates, read off its words.

    A permutation that keeps the kernel keeps its half-weight words, so it
    maps the completion of three coordinates, the meet of those words
    through all three less the three, to the completion of their images;
    each one used is checked to be one coordinate (RuntimeError
    otherwise).  The frame's next point p is the least coordinate not yet
    derived; it derives p and the completions of (coordinate 1, d, p) for
    each derived d.  Then a permutation that keeps the kernel is fixed by
    its frame images, each outside the images of the coordinates derived
    before it: 16.15.14.12.8 = 322560 = |AGL(4,2)| choices for RM(1,4).
    """
    m = kernel.m
    hyperplanes = kernel.weight_class(m // 2).tolist()

    def completion(t: int) -> int:
        meet = (1 << m) - 1
        for w in hyperplanes:
            if w & t == t:
                meet &= w
        extra = meet & ~t
        if extra.bit_count() != 1:
            raise RuntimeError("a coordinate triple has no single completion")
        return extra

    derived: list[int] = []  # one bit per coordinate
    covered, bound = 0, 1
    for _ in range(m):  # each round derives at least its point p
        p = ~covered & (covered + 1)
        bound *= m - len(derived)
        for q in [p] + [completion(derived[0] | d | p) for d in derived[1:]]:
            if not q & covered:
                derived.append(q)
                covered |= q
        if covered == (1 << m) - 1:
            return bound
    raise RuntimeError("the frame derived no new coordinate in some round")


def affine_stabilizer(code: Code) -> tuple[PermGroup, list[AutElement]]:
    """(G, movers): the permutation stabilizer G of a code whose translation
    kernel K is RM(1,r) on all 2^r coordinates, as NR's is RM(1,4), and the
    lifts of the affine generators that move the code.

    The generators of AGL(r,2) are each checked to keep K.  Every
    permutation automorphism of the code keeps K, so G is the code's
    stabilizer in PAut(K), of order at most the frame bound B.  The code's
    images, unions of K-cosets keyed by their least words, are walked
    breadth-first; a Schreier generator that the one Sims table does not
    hold is added to it once `maps_onto` confirms it.  The walk stops when
    order times images reaches B, as then |G| = |PAut(K)| / |orbit| <=
    B / images <= order <= |G|, and raises RuntimeError if the orbit
    closes first.  So it visits at most B images, and B <= |AGL(4,2)| =
    322560: K lies on all m = 2^r <= 24 coordinates, so r <= 4.  A
    generator s mapping the code onto its translate by a word g lifts to
    (s^-1(g), s).
    """
    m = code.m
    basis = code.kernel
    points = _affine_points(basis, m)
    kernel = span(basis, m)
    gens = _affine_generators(points)
    for s in gens:
        if not maps_onto(AutElement.permutation(m, s), kernel, kernel):
            raise RuntimeError("affine generator does not keep the kernel")
    bound = _frame_bound(kernel)
    # units[i, j]: unit vector j moved by generator i and reduced mod K.
    # Each generator's images of all the cosets in a key, each keyed by its
    # least word c, are the sums of units[i, j] over the bits j of c.
    units = reduce_mod(np.uint32(1) << np.array(gens, dtype=np.uint32), basis)
    shifts = np.arange(m, dtype=np.uint32)

    def images(key) -> list[tuple[int, ...]]:
        bits = (np.array(key, dtype=np.uint32)[:, None] >> shifts) & 1
        moved = np.bitwise_xor.reduce(bits * units[:, None, :], axis=2)
        return list(map(tuple, np.sort(moved, axis=1).tolist()))

    start = tuple(code.coset_leaders.tolist())
    transversal = {start: _perm_identity(m)}  # image -> a permutation onto it
    queue = [start]
    group = PermGroup(m)
    for key, s, moved in ((k, s, im) for k in queue for s, im in zip(gens, images(k))):
        if group.order() * len(transversal) >= bound:
            break
        to_key = transversal[key]
        if moved not in transversal:
            transversal[moved] = _perm_mult(to_key, s)
            queue.append(moved)
            continue
        g = _perm_mult(_perm_mult(to_key, s), _perm_inv(transversal[moved]))
        if g in group:
            continue
        if not maps_onto(AutElement.permutation(m, g), code, code):
            raise RuntimeError("Schreier generator does not stabilize the code")
        group._add([g])
    if group.order() * len(transversal) != bound:
        raise RuntimeError(f"order times orbit differs from the frame bound {bound}")
    translates = {
        tuple(sorted(reduce_mod(c ^ g, basis) for c in start)): g for g in start
    }
    movers = []
    for s, moved in zip(gens, images(start)):
        if moved != start and moved in translates:
            movers.append(AutElement(m, unpermute_bits(translates[moved], s), s))
    return group, movers


def drop_coordinate_0(x: AutElement) -> AutElement:
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
    table hold.  They are read bottom-up into one Sims table: an element
    of row k is taken only if row k - 1 of that table, whose elements all
    fix 0..k-2 once bit 0 is dropped, does not already send k - 1 to its
    image.  Row k lists the whole orbit of k under the stabilizer of
    0..k-1, so by induction from the bottom the elements taken generate it.
    Each is checked with `maps_onto`; their order must be rows 1..'s.
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
            if j - 1 in out._reps[k - 1]:
                continue
            x = drop_coordinate_0(AutElement.permutation(group.degree, row[j]))
            if not maps_onto(x, punctured, punctured):
                raise RuntimeError("Sims-table element does not stabilize the code")
            out._add([x.sigma])
    expected = group.order() // len(group.row(0))
    if out.order() != expected:
        raise RuntimeError(f"punctured order {out.order()} != row product {expected}")
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


def _image_indices(images: np.ndarray) -> np.ndarray:
    """Each image's index among the ascending points it permutes, by argsort."""
    table = np.empty(len(images), dtype=np.intp)
    table[np.argsort(images)] = np.arange(len(images))
    return table


def orbits_on_sphere(group: PermGroup, k: int) -> tuple[int, ...]:
    """The sizes of the orbits of a permutation group on the weight-k
    vertices, by ascending least member.

    A coordinate permutation keeps the weight, so it permutes the
    C(degree, k) weight-k vertices, in ascending order (`_image_indices`).
    """
    verts = weight_vertices(group.degree, k)
    tables = [_image_indices(permute_bits(verts, g)) for g in group.generators]
    _, counts = np.unique(_orbit_labels(tables, len(verts)), return_counts=True)
    return tuple(counts.tolist())


def _coset_labels(gens, reps: np.ndarray, basis) -> np.ndarray:
    """Orbit labels of the AutElements `gens` on a set of cosets of
    span(basis) that they permute, given by their least vertices `reps`
    (ascending uint32): r maps to reduce_mod(g(r)) (`_image_indices`).
    A translation by a vector of span(basis) fixes every coset, so it is
    dropped before any image is computed."""
    gens = [
        g for g in gens if reduce_mod(g.beta, basis) or g.sigma != _perm_identity(g.m)
    ]
    images = (permute_bits(reps ^ np.uint32(g.beta), g.sigma) for g in gens)
    tables = [_image_indices(reduce_mod(v, basis)) for v in images]
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


class CellCertificate(NamedTuple):
    cell_size: int
    orbit_label: int
    orbit_size: int


class TransitivityResult(NamedTuple):
    ok: bool
    cells: tuple[CellCertificate, ...]
    witness: tuple[int, int, int] | None  # (cell, vertex_a, vertex_b)


def verify_complete_transitivity(code: Code, gens, partition) -> TransitivityResult:
    """Do the orbits of the generators equal the distance partition?

    `partition` is the code's `DistancePartition`: its cell 0, read off its
    labels, must be the code, and every generator must stabilize the code
    (ValueError otherwise).  On success `cells[i]` certifies cell i: its
    size in the partition and, counted apart, its orbit's least vertex and
    size; on failure, two same-cell vertices in different orbits.

    The check runs on a quotient of F_2^m, not on all 2^m vertices.  Let T
    be the translations that the generators give (_translation_subspace):
    those among them, closed under their coordinate permutations.  For
    the permutation stabilizer's generators, a basis of the translation
    kernel K and one mover, T is K, and one mover suffices exactly when
    cell 0, the code, comes out as one orbit.  The group G contains T and
    every element of G maps cosets of T onto cosets of T, so the orbits of
    G are unions of T-cosets.  With T in
    reduced echelon form, the vertices zero on every pivot are the least
    vertex of each coset, and `_coset_labels` gives the orbits of G on the
    cosets; orbit sizes are |T| times their representative counts.  Each
    element of G stabilizes the code and so keeps d(., C): every orbit lies
    in one distance cell, and a cell is one orbit exactly when it holds one
    orbit minimum, so d(., C) is read off the partition for the minima only.
    The least vertex of a cell is its orbit's minimum, and the least vertex
    of the cell outside that orbit is its own orbit's minimum, the cell's
    next one; so the certificate and the witness are a full vertex scan's.
    """
    m = code.m
    if (partition.m, partition.kernel) != (m, code.kernel) or not np.array_equal(
        np.flatnonzero(partition.labels == 0),
        unpermute_bits(code.coset_leaders, partition.free),
    ):
        raise ValueError("the distance partition is not the code's")
    for x in gens:
        if not maps_onto(x, code, code):
            raise ValueError("generator does not stabilize the code")
    basis = _translation_subspace(gens, m)
    free = free_coordinates(basis, m)
    reps = permute_bits(np.arange(1 << len(free), dtype=np.uint32), free)
    minima, counts = np.unique(_coset_labels(gens, reps, basis), return_counts=True)
    dist = partition.distance(reps[minima])
    cells = []
    for i in range(partition.rho + 1):
        here = np.flatnonzero(dist == i)
        vertex = int(reps[minima[here[0]]])
        if len(here) > 1:
            witness = (i, vertex, int(reps[minima[here[1]]]))
            return TransitivityResult(ok=False, cells=tuple(cells), witness=witness)
        orbit_size = int(counts[here[0]]) << len(basis)
        cells.append(CellCertificate(partition.cell_sizes[i], vertex, orbit_size))
    return TransitivityResult(ok=True, cells=tuple(cells), witness=None)
