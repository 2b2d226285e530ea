"""Distance spectra, regularity checks, design counting, and feasibility.

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
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .codes import PAIR_BLOCK, Code, free_coordinates
from .hamming import (
    check_length,
    distance_profiles,
    krawtchouk_table,
    permute_bits,
    unpermute_bits,
    weight_masks,
)

INF_DIST = 64  # sentinel above any achievable distance, safe in uint8 arithmetic


class FeasibilityError(ValueError):
    """The constraint system does not bound every unknown."""


@dataclass(frozen=True)
class DistanceDistribution:
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


@dataclass(frozen=True)
class DistancePartition:
    """Distance-to-code for every vertex, with covering radius and cells."""

    m: int
    dist_to_code: np.ndarray  # uint8, length 2^m, read-only
    rho: int
    cell_sizes: tuple[int, ...]


def distance_partition(code: Code) -> DistancePartition:
    """Exact d(v, C) for all 2^m vertices.

    Separable distance transform over the hypercube: one min-plus sweep
    per coordinate axis propagates distances exactly, so the cost is
    m * 2^m regardless of |C|.
    """
    m = code.m
    dist = np.full(1 << m, INF_DIST, dtype=np.uint8)
    dist[code.words_u32()] = 0
    for j in range(m):
        d = dist.reshape(-1, 2, 1 << j)
        np.minimum(d[:, 0, :], d[:, 1, :] + 1, out=d[:, 0, :])
        np.minimum(d[:, 1, :], d[:, 0, :] + 1, out=d[:, 1, :])
    rho = int(dist.max())
    # np.bincount would first copy the uint8 array to int64, 8x its size
    sizes = tuple(int(np.count_nonzero(dist == i)) for i in range(rho + 1))
    dist.setflags(write=False)
    return DistancePartition(m=m, dist_to_code=dist, rho=rho, cell_sizes=sizes)


@dataclass(frozen=True)
class IntersectionTable:
    """Codewords-at-distance-k counts per distance-partition cell.

    Entry (i, k) is the number of codewords at distance k from any vertex
    of cell i; it exists exactly when the code is completely regular.
    """

    m: int
    rho: int
    size: int
    rows: tuple[tuple[int, ...], ...]

    def row_sums(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.rows)


@dataclass(frozen=True)
class RegularityWitness:
    cell: int
    vertex_a: int
    vertex_b: int
    profile_a: tuple[int, ...]
    profile_b: tuple[int, ...]


# Vertex-word pairs that completely_regular_check may scan.  Linear codes
# stay within it: their kernel is the code, so the scan is 2^m <= 2^24 pairs.
CR_WORK_LIMIT = 1 << 25


class RegularityWorkExceeded(ValueError):
    """The profile scan of a complete-regularity check is too large."""

    def __init__(self, estimate: int):
        super().__init__(
            f"complete-regularity scan needs {estimate} vertex-word pairs, "
            f"above the limit of {CR_WORK_LIMIT}"
        )
        self.estimate = estimate


@dataclass(frozen=True)
class CompleteRegularityResult:
    ok: bool
    table: IntersectionTable | None
    witness: RegularityWitness | None
    rho: int
    cell_sizes: tuple[int, ...]


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


def _profile_block(arr: np.ndarray, m: int, free: list[int], width: int,
                   lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Profiles of the representatives whose high part is lo..hi-1.

    Representative i is permute_bits(i, free): its low `width` bits sit
    on the low free coordinates L and the rest on the high ones.  For a
    word c, d(r, c) = a + wt(r_L + c_L), where a is the weight of r + c
    off L.  Counting the words of each high part by (c_L, a) is one keyed
    pair scan; the sum over c_L is then an XOR-convolution with the
    weight-(t - a) indicator over F_2^width, whose transform is the
    Krawtchouk value K_{t-a}(wt s).  Returns the representatives,
    ascending, and their profiles, one row of m+1 counts each.
    """
    reps = permute_bits(np.arange(lo << width, hi << width, dtype=np.uint32), free)
    n = 1 << width
    low = free[:width]
    heads = permute_bits(np.arange(lo, hi, dtype=np.uint32), free[width:])
    off_low = ((1 << m) - 1) ^ permute_bits(n - 1, low)
    counts = distance_profiles(
        heads, arr & off_low, m - width, unpermute_bits(arr, low), n
    )
    _walsh_hadamard(counts)
    wt = np.bitwise_count(np.arange(n, dtype=np.uint32))
    kraw = np.array(krawtchouk_table(width), dtype=np.int64)[:, wt]
    profiles = np.zeros((n, hi - lo, m + 1), dtype=np.int64)
    for j in range(width + 1):
        profiles[:, :, j : j + m - width + 1] += counts * kraw[j][:, None, None]
    _walsh_hadamard(profiles)
    profiles >>= width
    return reps, profiles.transpose(1, 0, 2).reshape(-1, m + 1)


def completely_regular_check(code: Code) -> CompleteRegularityResult:
    """Decide complete regularity, returning the table or a witness pair.

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
    profile differs from it.  The covering radius and the cell sizes (|K|
    times the representative counts) are returned whatever the verdict.

    All arithmetic is exact in int64.  Within CR_WORK_LIMIT,
    2^f1 |C| <= 2^25, and no value in a transform exceeds
    |C| 4^f1 <= 2^50 in magnitude.  The check costs 2^(f-f1) |C| pairs;
    when 2^f |C| exceeds CR_WORK_LIMIT, RegularityWorkExceeded is raised
    before any profile is computed.
    """
    m = code.m
    basis = code.kernel
    nreps = 1 << (m - len(basis))
    estimate = nreps * code.size
    if estimate > CR_WORK_LIMIT:
        raise RegularityWorkExceeded(estimate)
    free = free_coordinates(basis, m)
    width = _transform_width(code.size, m, len(free))
    arr = code.words_u32()
    first: dict[int, tuple[int, tuple[int, ...]]] = {}
    deviant: dict[int, tuple[int, tuple[int, ...]]] = {}
    counts = [0] * (m + 1)
    step = max(1, PAIR_BLOCK // code.size)
    nheads = nreps >> width
    for lo in range(0, nheads, step):
        reps, profiles = _profile_block(arr, m, free, width, lo, min(lo + step, nheads))
        cells = (profiles != 0).argmax(axis=1)
        for c in np.unique(cells).tolist():
            idx = np.nonzero(cells == c)[0]
            counts[c] += len(idx)
            if c not in first:
                first[c] = (int(reps[idx[0]]), tuple(profiles[idx[0]].tolist()))
            if c not in deviant:
                off = (profiles[idx] != first[c][1]).any(axis=1)
                if off.any():
                    j = idx[np.argmax(off)]
                    deviant[c] = (int(reps[j]), tuple(profiles[j].tolist()))
    rho = max(first)
    cell_sizes = tuple(counts[i] << len(basis) for i in range(rho + 1))
    table = witness = None
    if deviant:
        cell = min(deviant)
        (va, pa), (vb, pb) = first[cell], deviant[cell]
        witness = RegularityWitness(
            cell=cell, vertex_a=va, vertex_b=vb, profile_a=pa, profile_b=pb
        )
    else:
        table = IntersectionTable(
            m=m, rho=rho, size=code.size,
            rows=tuple(first[i][1] for i in range(rho + 1)),
        )
    return CompleteRegularityResult(
        ok=not deviant, table=table, witness=witness, rho=rho, cell_sizes=cell_sizes
    )


# ---------------------------------------------------------------------------
# Combinatorial designs over weight classes.

@dataclass(frozen=True)
class DesignCheckResult:
    ok: bool
    lam: int | None
    witness: tuple[int, int] | None  # (weight-t vertex, deviating count)


def design_check(words: Code, t: int) -> DesignCheckResult:
    """Does every weight-t vertex sit under exactly lambda of the words?

    The weight-t vertices are taken in ascending (Gosper) order, in blocks
    of at most PAIR_BLOCK (vertex, word) pairs, and numpy counts the words
    covering each.  lambda is the first vertex's count; the witness is the
    first vertex whose count differs from it, with that count.
    """
    weights = {w.bit_count() for w in words.words}
    if len(weights) != 1:
        raise ValueError(f"design words must share one weight, got {sorted(weights)}")
    k = weights.pop()
    if not 0 <= t <= k:
        raise ValueError(f"design strength t={t} outside [0, {k}]")
    arr = words.words_u32()
    verts = np.fromiter(
        weight_masks(words.m, t), dtype=np.uint32, count=math.comb(words.m, t)
    )
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
            witness = (int(block[i, 0]), int(counts[i]))
            return DesignCheckResult(ok=False, lam=None, witness=witness)
    return DesignCheckResult(ok=True, lam=lam, witness=None)


@dataclass(frozen=True)
class DesignParams:
    """Derived parameters of a t-(m, k, lam) design, exact."""

    t: int
    m: int
    k: int
    lam: int
    lambdas: tuple[Fraction, ...]  # lambda_i for i = 0..t
    b: Fraction
    integral: tuple[bool, ...]
    b_integral: bool


def design_arithmetic(t: int, m: int, k: int, lam: int) -> DesignParams:
    if not 0 <= t <= k <= m:
        raise ValueError(f"need 0 <= t <= k <= m, got t={t}, k={k}, m={m}")
    if lam < 1:
        raise ValueError("lambda must be a positive integer")
    lambdas = tuple(
        Fraction(lam * math.comb(m - i, t - i), math.comb(k - i, t - i))
        for i in range(t + 1)
    )
    b = lambdas[0]
    integral = tuple(x.denominator == 1 for x in lambdas)
    return DesignParams(
        t=t, m=m, k=k, lam=lam,
        lambdas=lambdas, b=b, integral=integral,
        b_integral=b.denominator == 1,
    )


def lambda_upper_bound(m: int, t: int, delta: int) -> Fraction:
    """Packing bound on lambda for weight-delta words meeting in a t-set."""
    if delta <= t:
        raise ValueError(f"bound requires delta > t, got delta={delta}, t={t}")
    return Fraction(m - t, delta - t)


# ---------------------------------------------------------------------------
# Feasibility of partially specified distance distributions.

@dataclass(frozen=True)
class ConstraintRow:
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


@dataclass(frozen=True)
class FeasibilityResult:
    m: int
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
    error.
    """
    check_length(m)
    template = list(template)
    if len(template) != m + 1:
        raise ValueError(f"template must have {m + 1} entries")
    if template[0] != 1:
        raise ValueError("template must fix the zero-distance entry to 1")
    fixed: dict[int, int] = {}
    groups: list[tuple[int, ...]] = []
    if antipodal:
        for i in range(0, m // 2 + 1):
            j = m - i
            lo_v, hi_v = template[i], template[j]
            if lo_v is not None and hi_v is not None and lo_v != hi_v:
                raise ValueError(f"entries {i} and {j} contradict the symmetry tie")
            value = lo_v if lo_v is not None else hi_v
            slots = (i,) if i == j else (i, j)
            if value is None:
                groups.append(slots)
            else:
                for s in slots:
                    fixed[s] = value
    else:
        for i, value in enumerate(template):
            if value is None:
                groups.append((i,))
            else:
                fixed[i] = value
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
        for point in itertools.product(*ranges):
            if all(
                row.const + sum(c * x for c, x in zip(row.coeffs, point)) >= 0
                for row in rows
            ):
                assignment = {
                    s: x for g, x in zip(variables, point) for s in g
                }
                solutions.append(assignment)
                full = list(template)
                if antipodal:
                    for i, v in fixed.items():
                        full[i] = v
                for s, x in assignment.items():
                    full[s] = x
                distributions.append(tuple(full))
    return FeasibilityResult(
        m=m, variables=variables, names=names, rows=rows,
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
