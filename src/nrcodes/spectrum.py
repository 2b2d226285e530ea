"""Distance spectra, regularity checks, design counting, and feasibility.

d(v, C) is a `DistancePartition` of the 2^f cosets of the translation
kernel K, not of all 2^m vertices, read off the profiles of the regularity
check or, past its work limit, swept by `distance_partition`.
Arithmetic in this module is exact throughout: pair counts and Krawtchouk
values are Python ints, normalized quantities are `fractions.Fraction`.
numpy counts pairs, and the complete-regularity check turns those counts
into vertex profiles by exact int64 character sums (Walsh-Hadamard
transforms against Krawtchouk values) whose every value stays within
2^50 in magnitude; the arithmetic whose signs decide feasibility never
touches numpy.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterator, NamedTuple

import numpy as np

from .codes import PAIR_BLOCK, Code, coset_leaders, free_coordinates, reduce_mod
from .hamming import (
    WorkLimitExceeded,
    check_length,
    check_vertex,
    distance_profiles,
    krawtchouk_table,
    permute_bits,
    unpermute_bits,
    weight_vertices,
)

INF_DIST = 64  # sentinel above any achievable distance, safe in uint8 arithmetic


class FeasibilityError(ValueError):
    """The constraint system does not bound every unknown."""


class DistanceDistribution(NamedTuple):
    """Exact ordered-pair distance counts and their normalized form."""

    m: int
    size: int
    pair_counts: tuple[int, ...]
    a: tuple[Fraction, ...]


def distance_distribution(code: Code) -> DistanceDistribution:
    """The code's cached pair counts (Code.distance_counts), normalized."""
    n = code.size
    pair_counts = code.distance_counts
    a = tuple(Fraction(c, n) for c in pair_counts)
    return DistanceDistribution(m=code.m, size=n, pair_counts=pair_counts, a=a)


def macwilliams_transform(dist: DistanceDistribution) -> tuple[Fraction, ...]:
    """Krawtchouk transform of the normalized distance distribution.

    Summed over the integer pair counts and divided by |C| once, which is
    the same rational as the sum over the normalized a_i.
    """
    kt = krawtchouk_table(dist.m)
    return tuple(
        Fraction(sum(c * kt[k][i] for i, c in enumerate(dist.pair_counts)), dist.size)
        for k in range(dist.m + 1)
    )


class DistancePartition(NamedTuple):
    """d(., C) on the cosets of the translation kernel K, with covering
    radius and cells: labels[i] is d(v, C) for the least vertex
    v = permute_bits(i, free) of each coset, cell_sizes |K| times counts."""

    m: int
    kernel: tuple[int, ...]
    free: tuple[int, ...]
    labels: np.ndarray  # uint8, length 2^f, read-only
    rho: int
    cell_sizes: tuple[int, ...]

    def distance(self, v):
        """d(v, C) for an int vertex, or elementwise for a uint32 array;
        ValueError for a vertex with a bit at or above coordinate m."""
        if not isinstance(v, np.ndarray):
            check_vertex(v, self.m)
        elif (v >> self.m).any():
            raise ValueError(f"a vertex does not fit in {self.m} coordinates")
        d = self.labels[unpermute_bits(reduce_mod(v, self.kernel), self.free)]
        return d if isinstance(d, np.ndarray) else int(d)


def _from_labels(m: int, basis, free, dist: np.ndarray) -> DistancePartition:
    """The partition whose uint8 labels are `dist`, which it makes read-only."""
    rho = int(dist.max())
    # np.bincount would first copy the uint8 array to int64, 8x its size
    sizes = tuple(int(np.count_nonzero(dist == i)) << len(basis) for i in range(rho + 1))
    dist.setflags(write=False)
    return DistancePartition(m, basis, tuple(free), dist, rho, sizes)


def distance_partition(code: Code) -> DistancePartition:
    """Exact d(v, C) by a sweep of the kernel quotient, with no profile:
    for a code past CR_WORK_LIMIT, and the reference for the check's.

    The quotient F_2^m / K is a Cayley graph of m involutive, commuting
    generators: the neighbour of index x along coordinate j is x ^ h_j,
    for h_j the free bits of reduce_mod(e_j).  A shortest path uses each
    generator at most once, so one step d = min(d, d[x ^ h_j] + 1) per
    distinct nonzero h_j, from 0 on C's coset leaders, is exact.  A step
    is two half-size minima on the top bit of h_j, its lower bits flipped
    in a (2,)*t view: no index array, and with K = 0 the hypercube sweep.
    """
    m, basis = code.m, code.kernel
    free = free_coordinates(basis, m)
    dist = np.full(1 << len(free), INF_DIST, dtype=np.uint8)
    dist[unpermute_bits(coset_leaders(code), free)] = 0
    for h in {unpermute_bits(reduce_mod(1 << j, basis), free) for j in range(m)} - {0}:
        t = h.bit_length() - 1
        cube = dist.reshape((-1, 2) + (2,) * t)
        low, high = cube[:, 0], cube[:, 1]
        axes = tuple(t - s for s in range(t) if h >> s & 1)
        np.minimum(low, np.flip(high, axes) + 1, out=low)
        np.minimum(high, np.flip(low, axes) + 1, out=high)
    return _from_labels(m, basis, free, dist)


class RegularityWitness(NamedTuple):
    cell: int
    vertex_a: int
    vertex_b: int
    profile_a: tuple[int, ...]
    profile_b: tuple[int, ...]


# Vertex-word pairs that completely_regular_check may scan.  Linear codes
# stay within it: their kernel is the code, so the scan is 2^m <= 2^24 pairs.
CR_WORK_LIMIT = 1 << 25


class CompleteRegularityResult(NamedTuple):
    """`rows` is the intersection table when the code is completely
    regular: entry (i, k) is the number of codewords at distance k from
    any vertex of cell i.  Otherwise `witness` holds two vertices of one
    cell with different profiles.  `partition` is d(., C) either way."""

    ok: bool
    rows: tuple[tuple[int, ...], ...] | None
    witness: RegularityWitness | None
    partition: DistancePartition


def _transform_width(size: int, m: int, free: int) -> int:
    """How many of the f free coordinates completely_regular_check transforms.

    f1 = min(f, floor(log2(|C| / (m+1)))), and 0 below that.  A block of
    2^f1 representatives then costs |C| vertex-word pairs plus about
    2^f1 (m+1) f1 transform steps, which balance near 2^f1 = |C| / (m+1).
    """
    return max(0, min(free, (size // (m + 1)).bit_length() - 1))


def _walsh_hadamard(x: np.ndarray) -> None:
    """Unnormalized Walsh-Hadamard transform of C-contiguous x along its
    first axis, of length 2^k, in place."""
    h = 1
    while h < len(x):
        y = x.reshape(-1, 2, h * x[0].size)
        low, high = y[:, 0], y[:, 1]
        diff = low - high
        low += high
        high[...] = diff
        h *= 2


def _profile_blocks(arr: np.ndarray, m: int, free: list[int], width: int,
                    step: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Profiles of every representative, `step` high parts per block.

    Representative i is permute_bits(i, free): its low `width` bits sit
    on the low free coordinates L and the rest on the high ones.  For a
    word c, d(r, c) = a + wt(r_L + c_L), where a is the weight of r + c
    off L.  Counting the words of each high part by (c_L, a) is one keyed
    pair scan; the sum over c_L is then an XOR-convolution with the
    weight-(t - a) indicator over F_2^width, whose transform is the
    Krawtchouk value K_{t-a}(wt s).  The words' parts on and off L and
    the Krawtchouk factors are the same for every block and are computed
    once.  Yields, block by block in ascending order, the
    representatives and their profiles, one row of m+1 counts each.
    """
    n = 1 << width
    low = free[:width]
    keys = unpermute_bits(arr, low)
    off_low = arr & (((1 << m) - 1) ^ permute_bits(n - 1, low))
    wt = np.bitwise_count(np.arange(n, dtype=np.uint32))
    kraw = np.array(krawtchouk_table(width), dtype=np.int64)[:, wt]
    nheads = 1 << (len(free) - width)
    for lo in range(0, nheads, step):
        hi = min(lo + step, nheads)
        reps = permute_bits(np.arange(lo << width, hi << width, dtype=np.uint32), free)
        heads = permute_bits(np.arange(lo, hi, dtype=np.uint32), free[width:])
        counts = distance_profiles(heads, off_low, m - width, keys, n)
        _walsh_hadamard(counts)
        profiles = np.zeros((n, hi - lo, m + 1), dtype=np.int64)
        for j in range(width + 1):
            profiles[:, :, j : j + m - width + 1] += counts * kraw[j][:, None, None]
        _walsh_hadamard(profiles)
        profiles >>= width
        yield reps, profiles.transpose(1, 0, 2).reshape(-1, m + 1)


def completely_regular_check(code: Code) -> CompleteRegularityResult:
    """Decide complete regularity, returning the table rows or a witness pair.

    The profile of a vertex v (codewords at each distance 0..m) and its
    cell d(v, C) are constant on v + K, for the translation kernel
    K = {beta : C + beta = C}.  With K in reduced echelon form, the
    vertices that are zero on every pivot are exactly the least vertex of
    each coset, so they stand for the whole of F_2^m.  They are indexed
    by their bits on the f free coordinates; the low f1 of those
    (_transform_width) are handled by transform, the rest by scan.  For
    each high part, one pair scan counts the words by their distance off
    the low coordinates and by their low part; Walsh-Hadamard transforms
    over F_2^f1 then give the profiles of all 2^f1 representatives with
    that high part.  With f1 = 0 this is the plain pair scan.

    Profiles arrive in ascending representative order, in blocks of about
    PAIR_BLOCK pairs; only the first profile and the first deviating
    representative of each cell are kept.  The witness is therefore the
    one a scan of every vertex finds: in the least cell with two
    profiles, the least vertex of the cell and the least vertex whose
    profile differs from it.  The first nonzero entry of a profile is its
    distance, a label of the distance partition, returned either way.

    All arithmetic is exact in int64.  Within CR_WORK_LIMIT,
    2^f1 |C| <= 2^25, and no value in a transform exceeds
    |C| 4^f1 <= 2^50 in magnitude.  The check costs 2^(f-f1) |C| pairs;
    when 2^f |C| exceeds CR_WORK_LIMIT, WorkLimitExceeded is raised
    before any profile is computed.
    """
    m = code.m
    basis = code.kernel
    estimate = code.size << (m - len(basis))
    if estimate > CR_WORK_LIMIT:
        raise WorkLimitExceeded(
            f"complete-regularity scan needs {estimate} vertex-word pairs, "
            f"above the limit of {CR_WORK_LIMIT}",
            estimate, CR_WORK_LIMIT,
        )
    free = free_coordinates(basis, m)
    width = _transform_width(code.size, m, len(free))
    first: dict[int, tuple[int, tuple[int, ...]]] = {}
    deviant: dict[int, tuple[int, tuple[int, ...]]] = {}
    labels = []
    step = max(1, PAIR_BLOCK // code.size)
    for reps, profiles in _profile_blocks(code.words_u32(), m, free, width, step):
        cells = (profiles != 0).argmax(axis=1)
        labels.append(cells.astype(np.uint8))
        for c in np.flatnonzero(np.bincount(cells, minlength=m + 1)).tolist():
            idx = np.nonzero(cells == c)[0]
            if c not in first:
                first[c] = (int(reps[idx[0]]), tuple(profiles[idx[0]].tolist()))
            if c not in deviant:
                off = (profiles[idx] != first[c][1]).any(axis=1)
                if off.any():
                    j = idx[np.argmax(off)]
                    deviant[c] = (int(reps[j]), tuple(profiles[j].tolist()))
    partition = _from_labels(m, basis, free, np.concatenate(labels))
    rows = witness = None
    if deviant:
        cell = min(deviant)
        (va, pa), (vb, pb) = first[cell], deviant[cell]
        witness = RegularityWitness(
            cell=cell, vertex_a=va, vertex_b=vb, profile_a=pa, profile_b=pb
        )
    else:
        rows = tuple(first[i][1] for i in range(partition.rho + 1))
    return CompleteRegularityResult(
        ok=not deviant, rows=rows, witness=witness, partition=partition
    )


# ---------------------------------------------------------------------------
# Combinatorial designs over weight classes.

class DesignCheckResult(NamedTuple):
    ok: bool
    lam: int | None
    witness: tuple[int, int] | None  # (weight-t vertex, deviating count)


def design_check(words: Code, t: int) -> DesignCheckResult:
    """Does every weight-t vertex sit under exactly lambda of the words?

    The weight-t vertices are taken in ascending order (`weight_vertices`),
    in blocks of at most PAIR_BLOCK (vertex, word) pairs; v lies under w
    exactly when v & w == v, and each vertex's count of such words is
    taken directly.  This is a containment count, not a distance scan:
    `distance_profiles` stays the only distance kernel, and no profile
    row or index array is built.  lambda is the first vertex's count; the
    witness is the first deviating vertex, with its count.
    """
    weights = [w for w, n in enumerate(words.weight_histogram) if n]
    if len(weights) != 1:
        raise ValueError(f"design words must share one weight, got {weights}")
    k = weights[0]
    if not 0 <= t <= k:
        raise ValueError(f"design strength t={t} outside [0, {k}]")
    arr = words.words_u32()
    verts = weight_vertices(words.m, t)
    lam = None
    step = max(1, PAIR_BLOCK // words.size)
    for lo in range(0, len(verts), step):
        block = verts[lo : lo + step, None]
        counts = np.count_nonzero((block & arr) == block, axis=1)
        if lam is None:
            lam = int(counts[0])
        bad = np.flatnonzero(counts != lam)
        if len(bad):
            i = int(bad[0])
            witness = (int(verts[lo + i]), int(counts[i]))
            return DesignCheckResult(ok=False, lam=None, witness=witness)
    return DesignCheckResult(ok=True, lam=lam, witness=None)


class DesignParams(NamedTuple):
    """Derived parameters of a t-(m, k, lam) design, exact: lambdas[0] is
    the number of blocks b."""

    lambdas: tuple[Fraction, ...]  # lambda_i for i = 0..t
    integral: tuple[bool, ...]


def design_arithmetic(t: int, m: int, k: int, lam: int) -> DesignParams:
    if not 0 <= t <= k <= m:
        raise ValueError(f"need 0 <= t <= k <= m, got t={t}, k={k}, m={m}")
    if lam < 1:
        raise ValueError("lambda must be a positive integer")
    lambdas = tuple(
        Fraction(lam * math.comb(m - i, t - i), math.comb(k - i, t - i))
        for i in range(t + 1)
    )
    integral = tuple(x.denominator == 1 for x in lambdas)
    return DesignParams(lambdas=lambdas, integral=integral)


def lambda_upper_bound(m: int, t: int, delta: int) -> Fraction:
    """Packing bound on lambda for weight-delta words meeting in a t-set."""
    if delta <= t:
        raise ValueError(f"bound requires delta > t, got delta={delta}, t={t}")
    return Fraction(m - t, delta - t)


# ---------------------------------------------------------------------------
# Feasibility of partially specified distance distributions.

class ConstraintRow(NamedTuple):
    """One transform-nonnegativity row: const + sum(coeff * var) >= 0."""

    k: int
    const: int
    coeffs: tuple[int, ...]

    def render(self, names: tuple[str, ...]) -> str:
        parts = [str(self.const)]
        for c, name in zip(self.coeffs, names):
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            parts.append(f"{sign} {abs(c)}*{name}")
        return " ".join(parts) + " >= 0"


# Grid points that feasible_distributions may try: about a second at the
# 3.6 us per point measured at m = 16 on a 2-core VM (more at larger m).
FEASIBILITY_GRID_LIMIT = 1 << 18


class FeasibilityResult(NamedTuple):
    variables: tuple[tuple[int, ...], ...]  # slot groups tied to one unknown
    names: tuple[str, ...]
    rows: tuple[ConstraintRow, ...]
    bounds: tuple[tuple[int, int], ...]
    solutions: tuple[dict[int, int], ...]  # slot -> value, all unknown slots
    distributions: tuple[tuple[int, ...], ...]  # full (m+1)-tuples


def feasible_distributions(
    m: int, template, antipodal: bool = False
) -> FeasibilityResult:
    """All nonnegative integer completions passing transform nonnegativity.

    `template` is an (m+1)-sequence of fixed ints or None for unknown
    slots.  With `antipodal`, slots i and m-i are tied to one unknown.
    Bounds on each unknown are derived from the constraint rows themselves
    by interval propagation; a system leaving any unknown unbounded is an
    error, and so is a grid of more than FEASIBILITY_GRID_LIMIT points
    (WorkLimitExceeded, before the first point is tried).
    """
    check_length(m)
    template = list(template)
    if len(template) != m + 1:
        raise ValueError(f"template must have {m + 1} entries")
    if template[0] != 1:
        raise ValueError("template must fix the zero-distance entry to 1")
    fixed: dict[int, int] = {}
    groups: list[tuple[int, ...]] = []
    for i in range(m // 2 + 1 if antipodal else m + 1):
        slots = (i, m - i) if antipodal and 2 * i != m else (i,)
        values = {template[s] for s in slots} - {None}
        if len(values) > 1:
            raise ValueError(f"entries {i} and {m - i} contradict the symmetry tie")
        if values:
            fixed.update(dict.fromkeys(slots, values.pop()))
        else:
            groups.append(slots)
    variables = tuple(groups)
    names = tuple(f"a{g[0]}" for g in variables)

    kt = krawtchouk_table(m)
    rows = []
    for k in range(m + 1):
        const = sum(v * kt[k][i] for i, v in fixed.items())
        coeffs = tuple(sum(kt[k][i] for i in g) for g in variables)
        rows.append(ConstraintRow(k=k, const=const, coeffs=coeffs))
    rows = tuple(rows)

    bounds = _propagate_bounds(rows, len(variables))
    lo = [b[0] for b in bounds]
    hi = [b[1] for b in bounds]
    solutions = []
    distributions = []
    if all(l <= h for l, h in zip(lo, hi)):
        ranges = [range(l, h + 1) for l, h in zip(lo, hi)]
        estimate = math.prod(map(len, ranges))
        if estimate > FEASIBILITY_GRID_LIMIT:
            raise WorkLimitExceeded(
                f"feasibility grid has {estimate} points, "
                f"above the limit of {FEASIBILITY_GRID_LIMIT}",
                estimate, FEASIBILITY_GRID_LIMIT,
            )
        for point in itertools.product(*ranges):
            if all(
                row.const + sum(c * x for c, x in zip(row.coeffs, point)) >= 0
                for row in rows
            ):
                assignment = {s: x for g, x in zip(variables, point) for s in g}
                solutions.append(assignment)
                distributions.append(
                    tuple(fixed.get(i, assignment.get(i)) for i in range(m + 1))
                )
    return FeasibilityResult(
        variables=variables, names=names, rows=rows,
        bounds=tuple(zip(lo, hi)),
        solutions=tuple(solutions), distributions=tuple(distributions),
    )


def _propagate_bounds(
    rows: tuple[ConstraintRow, ...], nvars: int
) -> list[tuple[int, int | None]]:
    """Interval propagation to a fixed point; raises if any variable stays
    unbounded above."""
    lo = [0] * nvars
    hi: list[int | None] = [None] * nvars

    def crossed() -> bool:
        # lo > hi is a sound proof of infeasibility; stop tightening there
        return any(
            hi[v] is not None and lo[v] > hi[v] for v in range(nvars)
        )

    for _ in range(200):
        if crossed():
            break
        changed = False
        for row in rows:
            for v in range(nvars):
                gv = row.coeffs[v]
                if gv == 0:
                    continue
                others = 0
                bounded = True
                for u in range(nvars):
                    if u == v:
                        continue
                    gu = row.coeffs[u]
                    if gu > 0:
                        if hi[u] is None:
                            bounded = False
                            break
                        others += gu * hi[u]
                    elif gu < 0:
                        others += gu * lo[u]
                if not bounded:
                    continue
                if gv < 0:
                    new_hi = (row.const + others) // (-gv)
                    if hi[v] is None or new_hi < hi[v]:
                        hi[v] = new_hi
                        changed = True
                else:
                    new_lo = -((row.const + others) // gv)
                    if new_lo > lo[v]:
                        lo[v] = new_lo
                        changed = True
        if not changed:
            break
    if crossed():
        return [(1, 0)] * nvars
    unbounded = [v for v in range(nvars) if hi[v] is None]
    if unbounded:
        raise FeasibilityError(
            f"no constraint row bounds unknown(s) {unbounded} from above"
        )
    return [(lo[v], hi[v]) for v in range(nvars)]
