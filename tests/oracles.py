"""Independent brute-force oracles.

Everything here recomputes quantities straight from the definitions,
deliberately avoiding the code paths it is used to check, and importing
nothing from the package but the Code container: regularity from every
vertex's distance profile, one vertex's distance profile by a loop over
the codewords, pair counts, linearity and the translation kernel by a
double loop over the codewords, the weight histogram, evenness and
closure under complement by a loop over the codewords, a code file by
parsing it line by line, coset leaders from a kernel found by trying
every translation, automorphism groups by iterating all m! permutations, group
orders by multiplicative closure, permutations between two codes by a
plain coordinate-by-coordinate backtrack, the ranks of refinement keys
by sorting their distinct rows as Python tuples, a refined partition by
ranking explicit count tuples, design multiplicities by counting the
words over every t-subset of the coordinates, and vertex orbits by a
breadth-first closure over all of F_2^m.
"""

import itertools

import numpy as np

from nrcodes.codes import Code


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


def brute_kernel(code: Code) -> list[int]:
    """Every beta with C + beta = C, ascending.  Each is w + c0 for the
    first word c0 and some word w, so those are tried on every word."""
    c0 = code.words[0]
    return sorted(
        w ^ c0 for w in code.words if all((x ^ w ^ c0) in code for x in code.words)
    )


def brute_weight_histogram(code: Code) -> tuple[int, ...]:
    histogram = [0] * (code.m + 1)
    for w in code.words:
        histogram[bin(w).count("1")] += 1
    return tuple(histogram)


def brute_is_even(code: Code) -> bool:
    return all(bin(w).count("1") % 2 == 0 for w in code.words)


def brute_is_antipodal(code: Code) -> bool:
    """The complement of every codeword is a codeword."""
    full = (1 << code.m) - 1
    return all((w ^ full) in code for w in code.words)


def plain_read_code(text: str) -> Code | str:
    """The code a code file's text holds, or the message of its first
    error.  The stripped nonblank lines are a header "m=<length>" (ASCII
    digits, 1..24) and then words, each checked in turn for its length and
    then for a character other than '0' and '1'; character t is bit t."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("m="):
        return "first line must be 'm=<length>'"
    digits = lines[0][2:]
    if not (digits.isascii() and digits.isdigit()):
        return f"bad length header: length must be ASCII digits, got {digits!r}"
    m = int(digits)
    if not 1 <= m <= 24:
        return f"bad length header: length must be in [1, 24], got {m}"
    words = []
    for ln in lines[1:]:
        if len(ln) != m:
            return f"word {ln!r} does not have length {m}"
        for ch in ln:
            if ch not in "01":
                return f"invalid character {ch!r} in vertex string"
        words.append(sum(1 << t for t, ch in enumerate(ln) if ch == "1"))
    if not words:
        return "code file contains no words"
    return Code(m, words)


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
        d, profile = brute_profile(code, v)
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


def brute_refine(words_a, words_b, m: int, colors, cells):
    """The stable refinement of a colouring of two codes' coordinates and
    words, as (colors, cells) lists, or None.

    Coordinates and words are numbered as in `symmetry._Incidence` (code
    b's after code a's).  Each round ranks every word by the tuple (its
    cell, its number of ones of each coordinate colour), then every
    coordinate by (its colour, its number of ones in each word cell), with
    `brute_ranks`; it stops when a round splits no colour, and gives None
    as soon as a ranking's two halves differ.
    """
    n = len(words_a)
    ones = [
        [j + m * (i >= n) for j in range(m) if (w >> j) & 1]
        for i, w in enumerate(list(words_a) + list(words_b))
    ]
    colors, cells = list(colors), list(cells)
    n_colors = len(set(colors))
    while True:
        keys = []
        for cell, coords in zip(cells, ones):
            counts = [0] * (max(colors) + 1)
            for j in coords:
                counts[colors[j]] += 1
            keys.append([cell] + counts)
        cells = brute_ranks(np.array(keys))
        if cells is None:
            return None
        keys = [[c] + [0] * (max(cells) + 1) for c in colors]
        for cell, coords in zip(cells, ones):
            for j in coords:
                keys[j][1 + cell] += 1
        colors = brute_ranks(np.array(keys))
        if colors is None:
            return None
        if len(set(colors)) == n_colors:
            return colors, cells
        n_colors = len(set(colors))


def brute_design(code: Code, t: int):
    """(lambda, witness) of the t-subsets of the coordinates: each subset
    is counted by the words holding a one at all of its coordinates, and
    the subsets are visited in ascending order of their bit masks.  lambda
    is the common count, or None; the witness is the first (mask, count)
    whose count differs from the first subset's, or None."""
    subsets = sorted(
        (sum(1 << j for j in s), s) for s in itertools.combinations(range(code.m), t)
    )
    first = None
    for mask, s in subsets:
        count = sum(1 for w in code.words if all((w >> j) & 1 for j in s))
        if first is None:
            first = count
        elif count != first:
            return None, (mask, count)
    return first, None


def brute_orbits(gens, m: int) -> list[int]:
    """Orbit label, the least vertex of the orbit, of every vertex of F_2^m
    under the group the automorphisms generate.

    Each generator's images of all 2^m vertices are written out from the
    definition (translate by beta, then move bit j to bit sigma[j]); each
    vertex not yet reached starts a breadth-first closure under them.
    """
    verts = np.arange(1 << m, dtype=np.int64)
    images = []
    for g in gens:
        moved = verts ^ g.beta
        image = np.zeros_like(verts)
        for j, target in enumerate(g.sigma):
            image |= ((moved >> j) & 1) << target
        images.append(image.tolist())
    labels = [-1] * (1 << m)
    for v in range(1 << m):
        if labels[v] < 0:
            labels[v] = v
            queue = [v]
            for u in queue:
                for image in images:
                    w = image[u]
                    if labels[w] < 0:
                        labels[w] = v
                        queue.append(w)
    return labels


def brute_perm_automorphisms(code: Code) -> list[tuple[int, ...]]:
    """Every permutation p of the coordinates, moving bit j to bit p[j],
    that maps each codeword to a codeword."""
    out = []
    for p in itertools.permutations(range(code.m)):
        if all(sum(((w >> j) & 1) << t for j, t in enumerate(p)) in code
               for w in code.words):
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
