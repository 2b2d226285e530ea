"""Independent brute-force oracles.

Everything here recomputes quantities straight from the definitions,
deliberately avoiding the code paths it is used to check, and importing
nothing from the package but the Code container: regularity from every
vertex's distance profile, one vertex's distance profile by a loop over
the codewords, pair counts, linearity and the translation kernel by a
double loop over the codewords, a code's translate word by word, the
weight histogram, evenness and closure under complement by a loop over
the codewords, a code file by parsing it line by line, coset leaders
from a kernel found by trying every translation, automorphism groups by
iterating all m! permutations, group orders by multiplicative closure,
permutations between two codes by a plain coordinate-by-coordinate
backtrack, generators of a code's automorphism group by that backtrack
with prescribed images, design multiplicities by counting the words over
every t-subset of the coordinates, and vertex orbits by a breadth-first
closure over all of F_2^m.
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
    words = set(code.words)
    return 0 in words and all((u ^ w) in words for u in words for w in words)


def brute_kernel(code: Code) -> list[int]:
    """Every beta with C + beta = C, ascending.  Each is w + c0 for the
    first word c0 and some word w, so those are tried on every word."""
    c0, words = code.words[0], set(code.words)
    return sorted(w ^ c0 for w in words if all((x ^ w ^ c0) in words for x in words))


def translate(code: Code, beta: int) -> Code:
    """The coset {w + beta : w in C}; ValueError unless beta is a word on
    the code's m coordinates."""
    if beta < 0 or beta >> code.m:
        raise ValueError(f"translation {beta:#x} does not fit in {code.m} coordinates")
    return Code(code.m, [w ^ beta for w in code.words])


def brute_weight_histogram(code: Code) -> tuple[int, ...]:
    histogram = [0] * (code.m + 1)
    for w in code.words:
        histogram[bin(w).count("1")] += 1
    return tuple(histogram)


def brute_is_even(code: Code) -> bool:
    return all(bin(w).count("1") % 2 == 0 for w in code.words)


def brute_is_antipodal(code: Code) -> bool:
    """The complement of every codeword is a codeword."""
    full, words = (1 << code.m) - 1, set(code.words)
    return all((w ^ full) in words for w in words)


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
    words = set(code.words)
    kernel = [b for b in range(1 << code.m) if all((w ^ b) in words for w in words)]
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
    out, words = [], set(code.words)
    for p in itertools.permutations(range(code.m)):
        if all(sum(((w >> j) & 1) << t for j, t in enumerate(p)) in words
               for w in words):
            out.append(p)
    return out


def mulclose(gens, n: int) -> set[tuple[int, ...]]:
    """Every element of the generated permutation group, by plain closure.

    The identity is closed under right multiplication by the generators
    alone: in a finite group every inverse is a power, so this reaches
    the whole group in |G| * len(gens) products.
    """
    gens = [tuple(g) for g in gens]
    seen = {tuple(range(n))}
    frontier = list(seen)
    while frontier:
        fresh = []
        for p in frontier:
            for g in gens:
                r = tuple(p[i] for i in g)
                if r not in seen:
                    seen.add(r)
                    fresh.append(r)
        frontier = fresh
    return seen


def mulclose_order(gens, n: int) -> int:
    """Order of the generated permutation group by plain closure."""
    return len(mulclose(gens, n))


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


def plain_perm_generators(code: Code) -> list[tuple[int, ...]]:
    """For each coordinate k and each p > k, the first permutation that
    fixes 0..k-1, sends k to p and maps the code onto itself
    (plain_search_permutation), where one exists.  For each k they send k
    to every point of its orbit under the stabilizer of 0..k-1, so they
    generate the permutation stabilizer."""
    m, words = code.m, code.words
    found = (
        plain_search_permutation(words, words, m, [(i, i) for i in range(k)] + [(k, p)])
        for k in range(m) for p in range(k + 1, m)
    )
    return [sigma for sigma in found if sigma is not None]


def plain_movers(code: Code, perms) -> list[tuple[int, tuple[int, ...]]]:
    """Automorphisms (beta, sigma), v -> sigma(v + beta), that move the
    zero word of a code containing it, one per orbit of the coordinate
    permutations `perms` on the words: for the least word c of each orbit,
    sigma is the first permutation mapping C onto C + c
    (plain_search_permutation) and beta = sigma^-1(c), if there is one.
    If an automorphism sends 0 to one word of an orbit, one sends it to
    the least, so with the code's permutation stabilizer they generate
    its full stabilizer."""
    out, seen = [], set()
    for c in code.words:
        if c in seen:
            continue
        seen.add(c)
        orbit = [c]
        for u in orbit:
            for p in perms:
                v = sum(((u >> j) & 1) << t for j, t in enumerate(p))
                if v not in seen:
                    seen.add(v)
                    orbit.append(v)
        moved = sorted(w ^ c for w in code.words)
        # a permutation keeps every weight: no search unless C + c has C's
        if sorted(map(int.bit_count, moved)) != sorted(map(int.bit_count, code.words)):
            continue
        sigma = plain_search_permutation(code.words, moved, code.m)
        if sigma is not None:
            beta = sum(((c >> s) & 1) << j for j, s in enumerate(sigma))
            out.append((beta, sigma))
    return out
