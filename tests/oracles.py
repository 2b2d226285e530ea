"""Independent brute-force oracles.

Everything here recomputes quantities straight from the definitions,
deliberately avoiding the code paths it is used to check: regularity by a
double loop over vertices and spheres, one vertex's distance profile by a
loop over the codewords, pair counts and linearity by a double loop over
the codewords, coset leaders from a kernel found by trying every
translation, automorphism groups by iterating all m! permutations, group
orders by multiplicative closure, permutations between two codes by a
plain coordinate-by-coordinate backtrack, and the ranks of refinement keys
by sorting their distinct rows as Python tuples.
"""

import itertools

from nrcodes.codes import Code
from nrcodes.hamming import permute_bits, sphere


def brute_sphere(center: int, k: int, m: int) -> list[int]:
    return [v for v in range(1 << m) if (v ^ center).bit_count() == k]


def brute_profile(code: Code, v: int) -> tuple[int, tuple[int, ...]]:
    """(distance from v to the code, count of codewords at each distance 0..m)."""
    histogram = [0] * (code.m + 1)
    for w in code.words:
        histogram[(v ^ w).bit_count()] += 1
    distance = next(k for k, count in enumerate(histogram) if count)
    return distance, tuple(histogram)


def brute_distance_counts(code: Code) -> tuple[int, ...]:
    """Ordered pairs of codewords at each distance 0..m, by a double loop."""
    counts = [0] * (code.m + 1)
    for u in code.words:
        for w in code.words:
            counts[(u ^ w).bit_count()] += 1
    return tuple(counts)


def brute_is_linear(code: Code) -> bool:
    """Contains zero and every sum of two codewords."""
    return 0 in code and all((u ^ w) in code for u in code.words for w in code.words)


def brute_coset_leaders(code: Code) -> list[int]:
    """Least word of each coset of the translation kernel in the code, with
    the kernel found by trying every vertex as a translation."""
    kernel = [
        b for b in range(1 << code.m) if all((w ^ b) in code for w in code.words)
    ]
    return sorted({min(w ^ b for b in kernel) for w in code.words})


def brute_regularity(code: Code):
    """(is_completely_regular, rows or witness) by definition."""
    m = code.m
    by_cell: dict[int, dict[tuple, int]] = {}
    for v in range(1 << m):
        d = min((v ^ w).bit_count() for w in code.words)
        profile = tuple(
            sum(1 for u in sphere(v, k, m) if u in code) for k in range(m + 1)
        )
        by_cell.setdefault(d, {}).setdefault(profile, v)
    if all(len(profiles) == 1 for profiles in by_cell.values()):
        rows = tuple(
            next(iter(by_cell[i])) for i in sorted(by_cell)
        )
        return True, rows
    bad = next(i for i in sorted(by_cell) if len(by_cell[i]) > 1)
    return False, sorted(by_cell[bad].values())[:2]


def brute_ranks(keys) -> list[int] | None:
    """Dense lexicographic ranks of the rows of `keys`, or None when the
    sorted ranks of its first and second halves differ."""
    rows = [tuple(row) for row in keys.tolist()]
    rank = {row: r for r, row in enumerate(sorted(set(rows)))}
    ranks = [rank[row] for row in rows]
    half = len(ranks) // 2
    if sorted(ranks[:half]) != sorted(ranks[half:]):
        return None
    return ranks


def brute_perm_automorphisms(code: Code) -> list[tuple[int, ...]]:
    out = []
    for p in itertools.permutations(range(code.m)):
        if all(permute_bits(w, p) in code for w in code.words):
            out.append(p)
    return out


def mulclose_order(gens, n: int) -> int:
    """Order of the generated permutation group by plain closure."""
    seen = {tuple(range(n))}
    seen.update(tuple(g) for g in gens)
    frontier = list(seen)
    while frontier:
        fresh = []
        for p in frontier:
            for q in list(seen):
                r = tuple(q[p[i]] for i in range(n))
                if r not in seen:
                    seen.add(r)
                    fresh.append(r)
        frontier = fresh
    return len(seen)


def _column_masks(words, m: int) -> list[int]:
    """Per coordinate, a bit mask over the indices of the words with a one there."""
    cols = [0] * m
    for idx, w in enumerate(words):
        for j in range(m):
            if (w >> j) & 1:
                cols[j] |= 1 << idx
    return cols


def plain_search_permutation(words_a, words_b, m: int, prefix=()):
    """First coordinate permutation with words_a^sigma == words_b, or None.

    `prefix` is a list of (coordinate, image) pairs fixed in advance.
    Remaining coordinates are assigned smallest-first with images tried in
    ascending order.  A partial assignment survives only while the words
    of both codes, projected onto the assigned coordinates, match as
    multisets; the multisets are kept as paired index-set blocks, split
    once per assignment.  A full assignment is therefore a permutation
    mapping the words of a onto those of b.
    """
    if len(words_a) != len(words_b):
        return None
    cols_a = _column_masks(words_a, m)
    cols_b = _column_masks(words_b, m)
    prescribed = dict(prefix)
    order = [c for c, _ in prefix] + [c for c in range(m) if c not in prescribed]
    sigma = [-1] * m
    used = [False] * m
    full = (1 << len(words_a)) - 1

    def split(blocks, ca: int, cb: int):
        out = []
        for da, db in blocks:
            da1, db1 = da & ca, db & cb
            if da1.bit_count() != db1.bit_count():
                return None
            if da & ~ca:
                out.append((da & ~ca, db & ~cb))
            if da1:
                out.append((da1, db1))
        return out

    def extend(depth: int, blocks) -> bool:
        if depth == m:
            return True
        i = order[depth]
        candidates = [prescribed[i]] if i in prescribed else range(m)
        for p in candidates:
            if used[p]:
                continue
            sub = split(blocks, cols_a[i], cols_b[p])
            if sub is None:
                continue
            sigma[i], used[p] = p, True
            if extend(depth + 1, sub):
                return True
            sigma[i], used[p] = -1, False
        return False

    return tuple(sigma) if extend(0, [(full, full)]) else None
